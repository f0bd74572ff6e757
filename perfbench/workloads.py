"""The benchmark's workloads.

A workload prepares its inputs from the seed, then builds units of work: one
unit per backend and per independent problem, each a list of operations that
share engine objects (a Diagonal, a corpus).  An operation is one timed query
plus a function that turns its result into the canonical output that is
hashed and the backend-neutral form that Q and Fp must agree on.  Units run
in a fixed order: the heap a large unit leaves behind slows the next one by
up to a tenth, so reordering them would move the timings.  Only the
small-instances inputs depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import instgen

BACKENDS = ("Q", "Fp")
DEFAULT_SEED = 0         # the seed whose generated inputs have reference outputs


@dataclass
class Op:
    key: str
    backend: str
    query: Callable
    summarize: Callable      # result -> (canonical output, backend-neutral output)
    pinned: bool = True      # a reference output must exist for this operation


def _config(eng, backend: str, **limits):
    return eng.config.EngineConfig(field=eng.scalars.field_from_spec(backend), **limits)


def _to_prime(c, p: int) -> int:
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, p) % p
    return c % p


def _same(result):
    return result, result


# ----- tensor-ladder ---------------------------------------------------------


class TensorLadder:
    """Diagonal.T(n) dimensions, bases and differentials, degree by degree.

    T(0) is the algebra itself, and T(n) vanishes below degree 2n: the base
    ring lies in A, so the diagonal ideal starts in degree 1 and its
    suspension in degree 2.  Those pieces are left out."""

    name = "tensor-ladder"
    seeded_inputs = False
    # a run measures round(--seconds / seconds_per_pass) passes, at least one
    seconds_per_pass = 12.5
    # (name, base ring, variables, top tensor degree, top DG degree)
    ALGEBRAS = (
        ("ext5", (None, None), tuple((f"y{i}", 1, "0") for i in range(5)), 3, 7),
        ("tate2", ("q", 2), (("X", 1, "q"), ("Y", 2, "q*X")), 4, 12),
    )

    def prepare(self, eng, seed: int, workdir: str):
        return None, hashlib.sha256(repr(self.ALGEBRAS).encode()).hexdigest()

    def build(self, eng, inputs, seed: int) -> list:
        p = eng.scalars.DEFAULT_PRIME
        units = []
        for backend in BACKENDS:
            cfg = _config(eng, backend, max_degree=16, max_tensor=4)
            for name, (gen, order), variables, nmax, dmax in self.ALGEBRAS:
                alg = eng.algebra.build_algebra(eng.algebra.BaseRing(gen, order),
                                                list(variables), 0, cfg)
                diag = eng.diagonal.Diagonal(alg)
                units.append([Op(f"{name}/T{n}/d{d}", backend, self._query(diag, n, d),
                                 self._summary(p))
                              for n in range(1, nmax + 1) for d in range(2 * n, dmax + 1)])
        return units

    @staticmethod
    def _query(diag, n: int, d: int):
        def query():
            car = diag.T(n)
            return car.dim(d), car.labels(d), car.diff(d)
        return query

    @staticmethod
    def _summary(p: int):
        def summarize(result):
            dim, labels, m = result
            entries = sorted(m.entries.items())
            out = {"dim": dim, "labels": labels, "diff": [(i, j, str(c)) for (i, j), c in entries]}
            cross = {"dim": dim, "labels": labels,
                     "diff": [(i, j, _to_prime(c, p)) for (i, j), c in entries]}
            return out, cross
        return summarize


# ----- deep-battery ----------------------------------------------------------


class DeepBattery:
    """The nine-verdict battery, and the kernel sequence where AR1 holds, on
    two modules over the exterior algebra on four generators."""

    name = "deep-battery"
    seeded_inputs = False
    seconds_per_pass = 12.5

    def prepare(self, eng, seed: int, workdir: str):
        return None, hashlib.sha256(b"exterior4: chain e0..e3 (0,2,4,6) d e_{j+1} = e_j y0; "
                                    b"cone of the identity of e0..e2").hexdigest()

    def build(self, eng, inputs, seed: int) -> list:
        mods = eng.modules
        units = []
        for backend in BACKENDS:
            alg = eng.algebra.build_algebra(
                eng.algebra.BaseRing(), [(f"y{i}", 1, "0") for i in range(4)], 0,
                _config(eng, backend))
            y0 = alg.gen("y0")

            def chain(length):
                return mods.make_module(alg, [(f"e{j}", 2 * j) for j in range(length)],
                                        {(f"e{j}", f"e{j + 1}"): y0 for j in range(length - 1)})

            cone = mods.cone(mods.ChainMap.identity(chain(3)))
            for name, M, ar1 in (("chain", chain(4), False), ("cone", cone, True)):
                diag = eng.diagonal.Diagonal(alg)
                unit = [Op(f"{name}/battery", backend, _battery(eng, M, diag, name),
                           _battery_summary)]
                if ar1:
                    unit.append(Op(f"{name}/kernel_sequence", backend,
                                   _kernel_sequence(eng, M, diag), _same))
                units.append(unit)
        return units


def _battery(eng, M, diag, name):
    return lambda: eng.liftcheck.naive_lift_battery(M, diag, name=name)


def _kernel_sequence(eng, M, diag):
    return lambda: eng.liftcheck.kernel_sequence_check(M, diag)


def _battery_summary(report):
    return _same(report.to_dict())


# ----- small-instances -------------------------------------------------------


DATA_FILES = tuple(f"tests/data/{n}.dg" for n in
                   ("cone_id", "free3", "koszul", "mixed", "prefix", "tate", "two_step"))
CLI_COMMANDS = ("check", "appendix", "hom", "omega", "gamma", "battery")
PER_MODULE = ("hom", "omega", "gamma", "battery")


def module_names(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("[module") and line.endswith("]"):
            out.append(line[len("[module"):-1].strip())
    return out


def _run_cli(eng, argv):
    def query():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = eng.cli.main(argv)
        return code, out.getvalue()
    return query


def _cli_summary(result):
    code, stdout = result
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"exit": code, "stdout": stdout}, {"exit": code, "stdout": stdout}
    report.pop("backend", None)
    return {"exit": code, "stdout": stdout}, {"exit": code, "report": report}


class SmallInstances:
    """The built-in corpus through the battery and kernel-sequence check, and
    every CLI command on the valid test files and on seeded random files."""

    name = "small-instances"
    seeded_inputs = True
    seconds_per_pass = 3.0

    def prepare(self, eng, seed: int, workdir: str):
        generated, gen_digest = instgen.write(seed, os.path.join(workdir, f"seed-{seed}"))
        h = hashlib.sha256(gen_digest.encode())
        files = []
        for path in DATA_FILES + tuple(generated):
            with open(path) as fh:
                text = fh.read()
            h.update(path.encode() + b"\0" + text.encode() + b"\0")
            files.append((path, module_names(text), path not in generated))
        return files, h.hexdigest()

    def build(self, eng, files, seed: int) -> list:
        inst = eng.instances
        units = []
        for backend in BACKENDS:
            corpus = inst.build_corpus(_config(eng, backend, max_degree=8))
            unit = []
            for ins, mname, M in inst.battery_pairs(corpus):
                key = f"corpus/{ins.name}/{mname}"
                unit.append(Op(f"{key}/battery", backend,
                               _battery(eng, M, ins.diag, f"{ins.name}/{mname}"),
                               _battery_summary))
                if mname in ins.ar1_expected:
                    unit.append(Op(f"{key}/kernel_sequence", backend,
                                   _kernel_sequence(eng, M, ins.diag), _same))
            units.append(unit)
            unit = []
            for path, modules, fixed in files:
                for cmd in CLI_COMMANDS:
                    for m in (modules if cmd in PER_MODULE else [None]):
                        argv = [cmd, path, "--json", "--field", backend]
                        argv += ["--module", m] if m else []
                        unit.append(Op(f"cli/{path}/{cmd}" + (f"/{m}" if m else ""),
                                       backend, _run_cli(eng, argv), _cli_summary,
                                       pinned=fixed or seed == DEFAULT_SEED))
            units.append(unit)
        return units


WORKLOADS = {w.name: w for w in (TensorLadder(), DeepBattery(), SmallInstances())}
