"""HomSpace against the three-elimination build it replaced.

Every output must be bit-identical: cycles, class representatives, the
boundary and class dimensions, express coordinates and null-homotopy
witnesses, compared by repr so that an int and an equal Fraction differ.
The spaces are every corpus module paired with every module of its algebra
and with N (x) T^1 and N (x) T^2, at shifts -1..2, on both backends.
null_homotopy's one solve must also decide as the tagged class echelon
does, on every space the corpus batteries build or ask.
"""

import random

import pytest
from direct_route_oracle import direct_verdicts
from hom_space_oracle import OracleHomSpace, echelon_says_null, strict_triangular_cycles

from dglift.config import EngineConfig
from dglift.homotopy import CarrierMap, HomSpace
from dglift.instances import battery_pairs, build_corpus
from dglift.liftcheck import naive_lift_battery
from dglift.memo import peek
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
        # again once built: the build leaves the dimensions as they were
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_solve_decides_null_homotopy_as_the_tagged_echelon_does(backend, monkeypatch):
    """null_homotopy's one solve of delta_s h = f and the tagged class
    echelon's reduction give the same answer.  The spaces are every Hom
    space the 18 corpus batteries leave in their Diagonals' memos and every
    space they, or the direct route on the same modules, asked a
    null-homotopy of; the maps are each map the battery or the direct route
    asked about (the chi^l among them), the boundary delta_s h of a seeded
    random h, and one non-cycle where the space has one.  The direct route
    (direct_route_oracle.py) asks its spaces out of N itself, where the
    battery asks them out of the minimal model."""
    corpus = build_corpus(EngineConfig(field=BACKENDS[backend], max_degree=8))
    asked: dict = {}  # space -> the maps a battery asked about
    honest = HomSpace.null_homotopy

    def spy(hs, cmap):
        asked.setdefault(hs, []).append(cmap)
        return honest(hs, cmap)

    monkeypatch.setattr(HomSpace, "null_homotopy", spy)
    for inst, _, M in battery_pairs(corpus):
        report = naive_lift_battery(M, inst.diag)
        direct_verdicts(M, inst.diag, report.ar1.detail["iii_holds"], report.bound)
    monkeypatch.undo()
    spaces = dict.fromkeys(asked)
    for inst in corpus.values():
        spaces.update(dict.fromkeys(peek(inst.diag, "_hom").values()))
    rng = random.Random(19)
    answers = {True: 0, False: 0}
    for hs in spaces:
        f = hs.field
        h = {j: c for j in range(hs.h_layout.total)
             if not f.is_zero(c := f.from_int(rng.randint(-2, 2)))}
        queries = asked.get(hs, []) + [CarrierMap(
            hs.source, hs.target, hs.shift,
            hs.layout.from_flat(hs.boundary_matrix().mat_vec(h)))]
        chain = hs.chain_matrix()
        j = next((j for j in range(hs.layout.total) if chain.mat_vec({j: f.one})), None)
        if j is not None:
            queries.append(CarrierMap(hs.source, hs.target, hs.shift,
                                      hs.layout.from_flat({j: f.one})))
        for q in queries:
            null = hs.null_homotopy(q) is not None
            assert null == echelon_says_null(hs, q), (hs._where(), q.cols)
            answers[null] += 1
    assert len(spaces) > 100 and sum(map(len, asked.values())) > 20
    assert answers[True] > 100 and answers[False] > 20
