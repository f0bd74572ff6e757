#!/usr/bin/env python3
"""Print one sha256 per canonical output of the engine.

    python3 scripts/report_digests.py

Covers every CLI command under --json on every tests/data file, on Q and on
Fp, hashing stdout and stderr; and scripts/run_corpus.py --json with its
timing field removed, on both backends.  Each line also shows the exit code.
It also hashes the tensor powers of the diagonal that no report shows whole:
for every corpus algebra, n <= 3 and degree d within the algebra's cap, the
dimension, the basis labels and the sorted differential entries of
Diagonal.T(n) in degree d, on both backends; and the same for the
quotients over the subalgebra A: Diagonal.BT_A(n) for n <= 2 and
Diagonal.NT_A(N, 1) for every corpus module N, in every degree from the
carrier's lowest up to the algebra's cap.  And it hashes two operators
on N (x)_B Y that reports use but never print: for every corpus module N, the
sorted entries of chain_map_operator(pi), pi the base-change counit of N, and
of the tensor-degree-0 obstruction component N -> N (x) T^1, in every degree
from the source's lowest up to the algebra's cap, on both backends.  Its 38
hom lines, one per corpus module N and backend, hash Hom-space invariants
only: (cycle_dim, boundary_dim, dim_K) of HomSpace(N, Y, s) for Y every
module of N's algebra, N (x) T^1 and N (x) T^2 and s in -1..2, and whether
chi^n: N -> N (x) T^n is null-homotopic for n = 1, 2.  Its 38 solve
lines, one per corpus module N and backend, hash the solutions themselves:
the generator images of the strict section sigma that splitting_search finds
(or None), and the null-homotopy witness of chi^n: N -> N (x) T^n for
n = 1, 2 where one exists, as the repr of their carrier coordinates, so an
int and an equal Fraction differ.  Its algebra lines pin the element
arithmetic, again by repr and with every terms dict in its insertion
order: one per corpus algebra and backend hashes mono_mul(u, v) for every
pair of monomials of degree at most 6, diff_mono(u) for every such u, and
the differentials of the algebra's variables and of its modules; one per
tests/data file and backend hashes the module differentials parse_instance
reads from it (or the error it raises).  Its 38 battery lines, one per
corpus module N and backend, hash the battery fields that reports reduce to
a verdict: the repr of the check_AR1 and check_AR2 details, of
p_ideal_dims, and, where AR1 holds, of the kernel_sequence_check dict,
all on one Diagonal per algebra.  It prints 1 236 lines in all.  Two
commits produce the same canonical output exactly when this script prints
the same lines for both, so a diff of its output is the byte-identical gate
for a change that must not alter results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dglift.cli import COMMANDS, main as cli_main, parse_instance  # noqa: E402
from dglift.errors import DGLiftError  # noqa: E402
from dglift.config import EngineConfig  # noqa: E402
from dglift.instances import build_corpus  # noqa: E402
from dglift.homotopy import HomSpace, chain_map_to_carrier, check_AR1, check_AR2  # noqa: E402
from dglift.liftcheck import kernel_sequence_check, p_ideal_dims, splitting_search  # noqa: E402
from dglift.obstruction import ObstructionTower, chain_map_operator, chi_power  # noqa: E402
from dglift.scalars import field_from_spec  # noqa: E402

BACKENDS = ("Q", "Fp")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return sha(f"--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"), code


def corpus_digest(backend: str) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_corpus.py"),
         "--field", backend, "--json"],
        capture_output=True, text=True, env=env, check=False)
    report = json.loads(proc.stdout)
    del report["seconds"]
    return sha(json.dumps(report, sort_keys=True, indent=1)), proc.returncode


def piece_digest(car, d: int) -> str:
    """The dimension, basis labels and sorted differential entries of a
    carrier in degree d."""
    diff = [(i, j, str(c)) for (i, j), c in sorted(car.diff(d).entries.items())]
    return sha(repr((car.dim(d), car.labels(d), diff)))


def tensor_digests(backend: str):
    """(algebra, n, d, digest) for the pieces T(n)_d of every corpus algebra."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        for n in range(4):
            car = diag.T(n)
            for d in range(inst.algebra.config.max_degree + 1):
                yield name, n, d, piece_digest(car, d)


def tensor_A_digests(backend: str):
    """(algebra, carrier, d, digest) for the pieces of B (x)_A T^n, n <= 2,
    and of N (x)_A T^1 for every module N of every corpus algebra."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        cars = [(f"BT_A{n}", diag.BT_A(n)) for n in range(3)]
        cars += [(f"NT_A:{mname}:1", diag.NT_A(M, 1)) for mname, M in inst.modules.items()]
        for where, car in cars:
            for d in range(car.min_degree(), inst.algebra.config.max_degree + 1):
                yield name, where, d, piece_digest(car, d)


def operator_digests(backend: str):
    """(algebra, module, digest) for the counit operator and the first
    obstruction component of every corpus module."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        cap = inst.algebra.config.max_degree
        for mname, M in inst.modules.items():
            ops = (chain_map_operator(diag.base_change(M)[1]),
                   ObstructionTower(M, diag).component(0))
            mats = [(d, sorted((i, j, str(c)) for (i, j), c in op.mat(d).entries.items()))
                    for op in ops for d in range(op.source.min_degree(), cap + 1)]
            yield name, mname, sha(repr(mats))


def hom_digests(backend: str):
    """(algebra, module, digest) for the Hom-space invariants of every corpus
    module N: (cycle_dim, boundary_dim, dim_K) of HomSpace(N, Y, s) for Y
    every module of the algebra, N (x) T^1 and N (x) T^2 and s in -1..2, and
    whether chi^n: N -> N (x) T^n is null-homotopic for n = 1, 2."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        mods = list(inst.modules.values())
        for mname, N in inst.modules.items():
            dims = []
            for Y in mods + [diag.NT(N, 1), diag.NT(N, 2)]:
                for s in range(-1, 3):
                    hs = HomSpace(N, Y, s)
                    dims.append((hs.cycle_dim, hs.boundary_dim, hs.dim_K))
            null = [HomSpace(N, diag.NT(N, n)).null_homotopy(chi_power(N, diag, n)) is None
                    for n in (1, 2)]
            yield name, mname, sha(repr((dims, null)))


def solve_digests(backend: str):
    """(algebra, module, digest) for the solutions read off the engine's
    solves: the generator images of the strict section of every corpus module
    N, and the null-homotopy witnesses of chi^n: N -> N (x) T^n, n = 1, 2."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        for mname, N in inst.modules.items():
            sigma = splitting_search(N, diag)
            witnesses = [diag.hom(N, diag.NT(N, n)).null_homotopy(chi_power(N, diag, n))
                         for n in (1, 2)]
            yield name, mname, sha(repr((sigma and chain_map_to_carrier(sigma).cols,
                                         [w and w.cols for w in witnesses])))


def battery_digests(backend: str):
    """(algebra, module, digest) for the AR1 and AR2 details, the
    factorization-ideal triple and, where AR1 holds, the kernel-sequence
    fields of every corpus module N."""
    for name, inst in build_corpus(EngineConfig(field=field_from_spec(backend))).items():
        diag = inst.diag
        for mname, N in inst.modules.items():
            ar1 = check_AR1(N, diag)
            ar2 = check_AR2(N, diag)
            ks = kernel_sequence_check(N, diag) if ar1.holds else None
            yield name, mname, sha(repr((ar1.detail, ar2.detail, p_ideal_dims(N, diag), ks)))


def terms(el) -> list:
    """An element's terms in insertion order."""
    return list(el.terms.items())


def module_terms(M) -> list:
    return [(key, terms(el)) for key, el in M.diff.items()]


def algebra_digests(backend: str, data: list[str]):
    """(where, digest) for the monomial products and differentials of every
    corpus algebra, then for the module differentials parsed from every
    tests/data file."""
    config = EngineConfig(field=field_from_spec(backend))
    for name, inst in build_corpus(config).items():
        alg = inst.algebra
        monos = [u for d in range(7) for u in alg.monomials(d)]
        products = [alg.mono_mul(u, v) for u in monos for v in monos]
        diffs = [terms(alg.diff_mono(u)) for u in monos]
        variables = [terms(el) for el in alg.var_diffs]
        modules = [(mname, module_terms(M)) for mname, M in inst.modules.items()]
        yield name, sha(repr((products, diffs, variables, modules)))
    for path in data:
        try:
            parsed = parse_instance(path, config)
            out = [(mname, module_terms(M)) for mname, M in parsed.modules.items()]
        except DGLiftError as exc:
            out = f"{type(exc).__name__}: {exc}"
        yield path, sha(repr(out))


def main() -> int:
    # reports name the instance path, so pass paths relative to the repo root
    os.chdir(ROOT)
    data = sorted(p.relative_to(ROOT).as_posix()
                  for p in (ROOT / "tests" / "data").glob("*.dg"))
    for backend in BACKENDS:
        for command in sorted(COMMANDS):
            for path in data:
                digest, code = cli_digest([command, path, "--field", backend, "--json"])
                print(f"{digest}  cli {command} {path} {backend} exit={code}")
        digest, code = corpus_digest(backend)
        print(f"{digest}  run_corpus {backend} exit={code}")
        for name, n, d, digest in tensor_digests(backend):
            print(f"{digest}  tensor {name} T{n} d{d} {backend}")
        for name, where, d, digest in tensor_A_digests(backend):
            print(f"{digest}  tensor_A {name} {where} d{d} {backend}")
        for name, mname, digest in operator_digests(backend):
            print(f"{digest}  operators {name} {mname} {backend}")
        for name, mname, digest in hom_digests(backend):
            print(f"{digest}  hom {name} {mname} {backend}")
        for name, mname, digest in solve_digests(backend):
            print(f"{digest}  solve {name} {mname} {backend}")
        for where, digest in algebra_digests(backend, data):
            print(f"{digest}  algebra {where} {backend}")
        for name, mname, digest in battery_digests(backend):
            print(f"{digest}  battery {name} {mname} {backend}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
