"""HomSpace against the three-elimination build it replaced.

Every output must be bit-identical: cycles, class representatives, the
boundary and class dimensions, express coordinates and null-homotopy
witnesses, compared by repr so that an int and an equal Fraction differ.
The spaces are every corpus module paired with every module of its algebra
and with N (x) T^1 and N (x) T^2, at shifts -1..2, on both backends.
"""

import random

import pytest
from hom_space_oracle import OracleHomSpace, strict_triangular_cycles

from dglift.config import EngineConfig
from dglift.homotopy import CarrierMap, HomSpace
from dglift.instances import build_corpus
from dglift.obstruction import chi_power
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

BACKENDS = {"Q": RATIONALS, "Fp": PrimeField(DEFAULT_PRIME)}
SHIFTS = (-1, 0, 1, 2)


def spaces(corpus):
    """(inst, N, target, shift) for every space the module docstring names."""
    for inst in corpus.values():
        mods = list(inst.modules.values())
        for N in mods:
            targets = mods + [inst.diag.NT(N, 1), inst.diag.NT(N, 2)]
            for Y in targets:
                for s in SHIFTS:
                    yield inst, N, Y, s


def same(a, b) -> bool:
    return repr(a) == repr(b)


def maps(xs) -> list:
    return [x.cols for x in xs]


def combination(rng, field, cycles):
    """A random integer combination of cycles, coefficients in -2..2."""
    acc = CarrierMap(cycles[0].source, cycles[0].target, cycles[0].shift, {})
    for z in cycles:
        acc = acc.add(z.scale(field.from_int(rng.randint(-2, 2))))
    return acc


@pytest.mark.parametrize("backend", BACKENDS)
def test_hom_space_is_bit_identical_to_the_three_elimination_build(backend):
    corpus = build_corpus(EngineConfig(field=BACKENDS[backend], max_degree=10))
    rng = random.Random(11)
    count = classes = witnesses = 0
    for inst, N, Y, s in spaces(corpus):
        where = (inst.name, N.names, repr(Y), s)
        hs, old = HomSpace(N, Y, s), OracleHomSpace(N, Y, s)
        count += 1
        assert (hs.cycle_dim, hs.boundary_dim, hs.dim_K) == \
            (old.cycle_dim, old.boundary_dim, old.dim_K), where
        cycles, reps = hs.cycles(), hs.class_reps()
        # again once built: boundary_dim is then the build's own echelon rank
        assert (hs.cycle_dim, hs.boundary_dim, hs.dim_K) == \
            (old.cycle_dim, old.boundary_dim, old.dim_K), where
        assert same(maps(cycles), maps(old.cycles())), where
        assert same(maps(reps), maps(old.class_reps())), where
        classes += len(reps)
        queries = reps + [combination(rng, inst.algebra.field, cycles)
                          for _ in range(2) if cycles]
        for q in queries:
            assert same(hs.express(q), old.express(q)), where
        probes = cycles[:2]
        for n in (1, 2):
            if s == 0 and Y is inst.diag.NT(N, n):
                probes.append(chi_power(N, inst.diag, n))
        for q in probes:
            got, want = hs.null_homotopy(q), old.null_homotopy(q)
            assert same(got and got.cols, want and want.cols), where
            witnesses += got is not None
    assert count == 508 and classes > 100 and witnesses > 50


@pytest.mark.parametrize("backend", BACKENDS)
def test_strict_triangular_cycles_are_the_pinned_kernel(backend):
    """The test helper reproduces the old option's cycles bit for bit on
    every battery module, so the sampled automorphisms do not change."""
    corpus = build_corpus(EngineConfig(field=BACKENDS[backend], max_degree=10))
    nonempty = 0
    for inst in corpus.values():
        for mname in inst.battery:
            M = inst.modules[mname]
            got = strict_triangular_cycles(M)
            want = OracleHomSpace(M, M, 0, strict_triangular=True).cycles()
            assert same(maps(got), maps(want)), (inst.name, mname)
            nonempty += bool(got)
    assert nonempty > 5
