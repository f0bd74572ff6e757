"""Hom spaces, null-homotopy certificates, and the AR condition checkers."""

import random
import re

import pytest
from hom_oracle import delta_by_elements

from dglift.algebra import BaseRing, build_algebra
from dglift.diagonal import Diagonal
from dglift.errors import DegreeMismatch, DimensionMismatch
from dglift.homotopy import (HomSpace, MapLayout, chain_map_to_carrier, check_AR1,
                             check_AR2, delta_cols, delta_matrix, hom_k_dim,
                             is_null_homotopic)
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.modules import (ChainMap, cone, direct_sum, free_module, graded_map_boundary,
                            make_module, regular_module, shift)

SHIFTS = range(-1, 3)


@pytest.fixture()
def ext(config):
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


@pytest.fixture()
def quot(config):
    return build_algebra(BaseRing("a", 2), [], 0, config)


def two_step(ext):
    return make_module(ext, [("e0", 0), ("e1", 2)], {("e0", "e1"): ext.gen("y")})


def koszul(quot):
    return make_module(quot, [("e0", 0), ("e1", 1)], {("e0", "e1"): quot.gen("a")})


def test_hom_into_positive_shift_of_free_is_zero(ext):
    B = free_module(ext, 1)
    for n in (1, 2, 3):
        hs = HomSpace(B, B, n)
        assert hs.cycle_dim == 0
        assert hs.dim_K == 0


def test_koszul_negative_shift_explicit_class(quot):
    # f(e0) = e1*a, f(e1) = 0 is a chain map and not null-homotopic
    K = koszul(quot)
    f = ChainMap(K, K, -1, {(1, 0): quot.gen("a")})
    assert is_null_homotopic(f) is None
    assert hom_k_dim(K, K, -1) >= 1


def test_end_of_two_step(ext):
    M = two_step(ext)
    assert hom_k_dim(M, M, 0) == 1
    hs = HomSpace(M, M, 0)
    reps = hs.class_reps()
    assert len(reps) == 1


def test_null_homotopy_of_zero_map(ext):
    M = two_step(ext)
    f = ChainMap(M, M, 0, {})
    wit = is_null_homotopic(f)
    assert wit is not None
    assert all(not v for v in wit.cols.values())


def test_null_homotopy_witness_two_step_to_shifted_free(ext):
    # e1 -> y in Sigma^1 B is null-homotopic through h(e0) = 1
    M = two_step(ext)
    B = free_module(ext, 1)
    f = ChainMap(M, B, 1, {(0, 1): ext.gen("y")})
    wit = is_null_homotopic(f)
    assert wit is not None
    # h(e0) must hit the unit of B
    v = wit.cols.get(0)
    assert v and list(v.values()) == [ext.field.one]


def test_hom_dim_free_to_free(ext):
    B = free_module(ext, 1)
    assert hom_k_dim(B, B, 0) == 1


def test_hom_from_contractible_is_zero(ext):
    B = free_module(ext, 1)
    C = cone(ChainMap.identity(B))
    M = two_step(ext)
    for s in range(-2, 3):
        assert hom_k_dim(C, M, s) == 0
        assert hom_k_dim(C, B, s) == 0


def test_shift_invariance(ext):
    M = two_step(ext)
    B = free_module(ext, 1)
    rng = random.Random(0)
    for _ in range(4):
        i = rng.randint(-2, 2)
        s = rng.randint(-1, 2)
        assert hom_k_dim(M, B, s) == hom_k_dim(shift(M, i), shift(B, i), s)


def test_additivity(ext):
    M = two_step(ext)
    B = free_module(ext, 1)
    S = direct_sum(M, B)
    for s in (-1, 0, 1, 2):
        assert hom_k_dim(S, B, s) == hom_k_dim(M, B, s) + hom_k_dim(B, B, s)


def module_pairs(corpus):
    """(N, Y) for every ordered pair of modules of one corpus instance."""
    for inst in corpus.values():
        mods = list(inst.modules.values())
        for N in mods:
            for Y in mods:
                yield N, Y


def test_boundaries_are_cycles(config):
    """delta_{s+1} delta_s = 0: the chain matrix of a Hom space kills every
    column of its boundary matrix, for every corpus module pair and for
    N (x) T^n targets with n <= 2, at shifts -1..2."""
    corpus = build_corpus(config)
    pairs = list(module_pairs(corpus))
    for inst in corpus.values():
        pairs += [(N, inst.diag.NT(N, n)) for N in inst.modules.values() for n in (1, 2)]
    nonzero = 0
    for N, Y in pairs:
        for s in SHIFTS:
            hs = HomSpace(N, Y, s)
            hs._build()
            for col in hs._bmat.cols():
                assert hs._cmat.mat_vec(col) == {}
                nonzero += bool(col)
    assert nonzero > 100


def test_delta_matches_the_element_level_oracle(config):
    """On every basis vector of layout(s-1), the assembled delta_s, its
    matrix-free application and graded_map_boundary all equal delta_s written
    from its definition over algebra elements."""
    corpus = build_corpus(config)
    checked = 0
    for N, Y in module_pairs(corpus):
        alg, car = N.algebra, Y.carrier()
        for s in SHIFTS:
            rows, cols = MapLayout(N, car, s), MapLayout(N, car, s - 1)
            mat = delta_matrix(rows, cols)
            for lam in range(N.n_gens):
                off, d, n = cols.block(lam)
                for i in range(n):
                    mu, mono = car.labels(d)[i]
                    h = {(mu, lam): alg.from_mono(mono)}
                    want = delta_by_elements(h, N, Y, s)
                    flat = {}
                    for (nu, l2), el in want.items():
                        roff, rd, _ = rows.block(l2)
                        for u, c in el.terms.items():
                            flat[roff + car.index(rd, nu, u)] = c
                    assert mat.col(off + i) == flat
                    image = delta_cols(N, car, s, {lam: {i: alg.field.one}})
                    assert rows.to_flat(image) == flat
                    assert graded_map_boundary(h, N, Y, s) == want
                    checked += bool(want)
    assert checked > 100


def test_chain_condition_failures_name_the_generator_and_degree(ext):
    """e0 -> e1 at shift -2 is correctly graded but not a chain map:
    D(e1) = e0 y while d(e0) = 0.  Both validators reject it with one message."""
    M = two_step(ext)
    entries = {(1, 0): ext.one()}
    with pytest.raises(DegreeMismatch) as by_matrix:
        ChainMap(M, M, -2, entries)
    graded = ChainMap(M, M, -2, entries, _validate=False)
    with pytest.raises(DimensionMismatch) as by_carrier:
        chain_map_to_carrier(graded).validate()
    msg = str(by_matrix.value)
    assert "generator e0" in msg and "target degree 1" in msg
    assert str(by_carrier.value) == msg


def test_null_homotopy_recheck_catches_a_perturbed_solve(ext, monkeypatch):
    M = two_step(ext)
    B = free_module(ext, 1)
    f = chain_map_to_carrier(ChainMap(M, B, 1, {(0, 1): ext.gen("y")}))
    hs = HomSpace(M, B, 1)
    assert hs.null_homotopy(f) is not None
    real_solve = hs._bmat.solve
    j = next(j for j, col in enumerate(hs._bmat.cols()) if col)

    def perturbed(b):
        sol = real_solve(b)
        sol[j] = ext.field.add(sol[j], ext.field.one)
        return sol

    # both faults name the space: source generators, target carrier, shift
    where = re.escape("Hom space from generators [e0:0, e1:2] into "
                      "SemifreeCarrier([f0:0] (x)_B AlgebraCarrier) at shift 1")
    monkeypatch.setattr(hs._bmat, "solve", perturbed)
    with pytest.raises(DimensionMismatch, match="substitution recheck in the " + where):
        hs.null_homotopy(f)
    # the echelon certified f a boundary, so a solve that finds none is a fault
    monkeypatch.setattr(hs._bmat, "solve", lambda b: None)
    with pytest.raises(DimensionMismatch, match="no homotopy solve in the " + where):
        hs.null_homotopy(f)


def test_build_checks_its_class_count_against_the_ranks(ext, monkeypatch):
    """A boundary matrix with a column that is not a cycle breaks
    delta_{s+1} delta_s = 0, so the tagged build keeps one class more than
    cycle count minus boundary rank, and raises naming the space."""
    M = two_step(ext)
    hs = HomSpace(M, M, 0)
    assert hs.cycle_dim < hs.layout.total
    cmat = hs.chain_matrix()
    j = next(j for j in range(hs.layout.total) if cmat.mat_vec({j: ext.field.one}))
    bad = SparseMatrix(ext.field, hs.layout.total, 1, {(j, 0): ext.field.one})
    monkeypatch.setattr(hs, "boundary_matrix", lambda: bad)
    where = re.escape("in the Hom space from generators [e0:0, e1:2] into "
                      "SemifreeCarrier([e0:0, e1:2] (x)_B AlgebraCarrier) at shift 0")
    with pytest.raises(DimensionMismatch, match=r"boundaries .*" + where):
        hs.class_reps()


def test_an_empty_layout_builds_no_target_matrix(config):
    """A Hom space into N (x) T^2 at a shift past every generator image has
    dimension 0, read off two ranks of matrices with no blocks: the target
    builds no action and no differential for it."""
    inst = build_corpus(config)["exterior"]
    for N in inst.modules.values():
        Y = inst.diag.NT(N, 2)
        s = N.max_degree - Y.min_degree() + 1
        hs = HomSpace(N, Y, s)
        assert hs.layout.total == 0 and hs.h_layout.total > 0, N.names
        actions, per_degree = set(Y._actions), set(Y._per_degree)
        assert hs.dim_K == 0
        assert (hs.cycle_dim, hs.boundary_dim) == (0, 0)
        assert set(Y._actions) == actions and set(Y._per_degree) == per_degree


def not_a_chain_map(ext):
    """e0 -> e1 at shift -2, correctly graded but not a chain map."""
    M = two_step(ext)
    return M, chain_map_to_carrier(ChainMap(M, M, -2, {(1, 0): ext.one()}, _validate=False))


def test_express_of_a_non_cycle_names_the_generator_and_degree(ext):
    M, f = not_a_chain_map(ext)
    with pytest.raises(DimensionMismatch) as err:
        HomSpace(M, M, -2).express(f)
    assert str(err.value) == ("chain condition fails on generator e0: "
                              "D f and f d differ in target degree 1")


def test_null_homotopy_of_a_non_cycle_is_none(ext):
    M, f = not_a_chain_map(ext)
    assert HomSpace(M, M, -2).null_homotopy(f) is None


def test_null_homotopy_of_a_nonzero_class_is_none(ext):
    M = two_step(ext)
    hs = HomSpace(M, M, 0)
    rep, = hs.class_reps()
    assert hs.null_homotopy(rep) is None
    # zero times a map is the zero map, with no zero entries left in it
    zero = rep.scale(ext.field.zero)
    assert zero.cols == {} and hs.express(zero) == [ext.field.zero]
    assert hs.null_homotopy(zero) is not None


def test_witness_rechecked_by_substitution(quot):
    K = koszul(quot)
    # the zero map: witness is zero and must satisfy the boundary identity
    f = ChainMap(K, K, 0, {})
    wit = is_null_homotopic(f)
    assert wit.boundary().is_zero()


def test_express_roundtrip(ext):
    M = two_step(ext)
    hs = HomSpace(M, M, 0)
    reps = hs.class_reps()
    coords = hs.express(reps[0])
    f = ext.field
    assert [c for c in coords if not f.is_zero(c)] == [f.one]


def test_AR1_free_modules(ext):
    for n in (1, 2, 3):
        r = check_AR1(free_module(ext, n), Diagonal(ext))
        assert r.holds


def test_AR1_two_step_fails_at_two(ext):
    r = check_AR1(two_step(ext), Diagonal(ext))
    assert not r.holds
    assert r.detail["iii_first_failure"] == 2
    assert r.detail["iii_dims"][1] == 0
    assert r.detail["iii_dims"][2] == 1


def test_AR1_shifted_free_fails_at_one(ext):
    r = check_AR1(shift(free_module(ext, 1), 1), Diagonal(ext))
    assert not r.holds
    assert r.detail["iii_first_failure"] == 1


def test_AR2_free_holds_vacuously(ext):
    r = check_AR2(free_module(ext, 2), Diagonal(ext))
    assert r.holds
    assert r.detail["bound"] == 0


def test_AR2_koszul(quot):
    r = check_AR2(koszul(quot), Diagonal(quot))
    # bound 1; Hom(K, Sigma K) decided exactly
    assert r.detail["bound"] == 1
    assert r.holds == (r.detail["dims"].get(1, 0) == 0)


def test_appendix_negative_shift_vanishing_for_resolutions(config):
    # over the two-variable extension the algebra resolves the base field, so
    # negative self-shifts of B vanish
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)
    B = regular_module(alg)
    for ell in (-1, -2, -3):
        assert hom_k_dim(B, B, ell) == 0


def test_koszul_homology_nonzero_and_negative_hom(quot):
    from dglift.modules import homology_dim
    K = koszul(quot)
    assert homology_dim(K, 1) == 1
    assert hom_k_dim(K, K, -1) == 1
