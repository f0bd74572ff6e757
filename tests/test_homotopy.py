"""Hom spaces, null-homotopy certificates, and the AR condition checkers."""

import random
import re

import pytest
from conftest import count_echelon_calls, entry_matrix, forge_an_absence, koszul, two_step
from hom_oracle import delta_by_elements

from dglift.algebra import BaseRing, build_algebra
from dglift.diagonal import Diagonal
from dglift.errors import DegreeMismatch, DimensionMismatch
from dglift.homotopy import (CarrierMap, HomSpace, MapLayout, chain_map_to_carrier,
                             check_AR1, check_AR2, delta_matrix, hom_k_dim, is_null_homotopic)
from dglift.instances import build_corpus
from dglift.liftcheck import splitting_search
from dglift.linalg import SparseMatrix
from dglift.memo import peek
from dglift.modules import (ChainMap, cone, delta_cols, direct_sum, free_module,
                            graded_map_boundary, make_module, shift)
from dglift.obstruction import chi_power, omega_is_zero

SHIFTS = range(-1, 3)


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
            for col in peek(hs, "boundary_matrix").cols():
                assert peek(hs, "chain_matrix").mat_vec(col) == {}
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


def test_a_chain_map_passes_both_validators(ext):
    """ChainMap reads its chain condition through its carrier map, and
    CarrierMap.validate returns the map itself when the defect is empty."""
    M = two_step(ext)
    cmap = chain_map_to_carrier(ChainMap(M, M, 0, {(0, 0): ext.one(), (1, 1): ext.one()}))
    assert cmap.chain_defect() == {} and cmap.validate() is cmap


def test_null_homotopy_recheck_catches_a_perturbed_solve(ext, monkeypatch):
    M = two_step(ext)
    B = free_module(ext, 1)
    f = chain_map_to_carrier(ChainMap(M, B, 1, {(0, 1): ext.gen("y")}))
    hs = HomSpace(M, B, 1)
    assert hs.null_homotopy(f) is not None
    bmat = peek(hs, "boundary_matrix")
    real_solve = bmat.solve
    j = next(j for j, col in enumerate(bmat.cols()) if col)

    def perturbed(b):
        sol = real_solve(b)
        sol[j] = ext.field.add(sol.get(j, ext.field.zero), ext.field.one)
        return sol

    # both faults name the space: source generators, target carrier, shift
    where = re.escape("Hom space from generators [e0:0, e1:2] into "
                      "SemifreeCarrier([f0:0] (x)_B AlgebraCarrier) at shift 1")
    monkeypatch.setattr(bmat, "solve", perturbed)
    with pytest.raises(DimensionMismatch, match="substitution recheck in the " + where):
        hs.null_homotopy(f)
    # f is a boundary, so a sweep that claims every row ends zero forges
    # an absence, and its certificate fails the recheck
    monkeypatch.undo()
    forge_an_absence(monkeypatch, ext.field)
    with pytest.raises(DimensionMismatch,
                       match="absence certificate failed its recheck in the " + where):
        hs.null_homotopy(f)


def test_null_homotopy_builds_no_class_echelon(config):
    """omega_is_zero decides with one solve on delta_s: the Hom space it
    asks, out of N's minimal model N', builds neither the tagged class
    echelon nor delta_{s+1}.  That space is Hom(N, N (x) T^1) when N is its
    own minimal model.  cone_id's N' is zero, so neither omega_is_zero nor
    splitting_search builds a Hom space out of it."""
    inst = build_corpus(config)["exterior"]
    diag = Diagonal(inst.algebra)
    for N in inst.modules.values():
        omega_is_zero(N, diag)
        M = diag.minimal(N).module
        if M.n_gens:
            hs = diag.hom(M, diag.NT(N, 1))
            assert peek(hs, "_build") is None and peek(hs, "chain_matrix") is None
            assert peek(hs, "boundary_matrix") is not None
    C = inst.modules["cone_id"]
    splitting_search(C, diag)
    assert not [k for k in peek(diag, "_hom") if k[0] is C]


def test_build_checks_its_class_count_against_the_ranks(ext, monkeypatch):
    """A boundary matrix with a column that is not a cycle breaks
    delta_{s+1} delta_s = 0, so the tagged build keeps one class more than
    cycle count minus boundary rank, and raises naming the space."""
    M = two_step(ext)
    hs = HomSpace(M, M, 0)
    assert hs.cycle_dim < hs.layout.total
    cmat = hs.chain_matrix()
    j = next(j for j in range(hs.layout.total) if cmat.mat_vec({j: ext.field.one}))
    bad = entry_matrix(ext.field, hs.layout.total, 1, {(j, 0): ext.field.one})
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
        actions, diffs = set(peek(Y, "action") or ()), set(peek(Y, "diff") or ())
        assert hs.dim_K == 0
        assert (hs.cycle_dim, hs.boundary_dim) == (0, 0)
        assert set(peek(Y, "action") or ()) == actions and set(peek(Y, "diff") or ()) == diffs


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
    assert zero.cols == {} and hs.express(zero) == {}
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
    assert hs.express(reps[0]) == {0: ext.field.one}


def test_the_class_build_reduces_each_cycle_once(config, monkeypatch):
    """_build puts every cycle into the class echelon with one add_row,
    which keeps it as a representative or refuses it, and that call reduces
    it once: every reduction of the build is an insert's."""
    inst = build_corpus(config)["exterior"]
    diag = Diagonal(inst.algebra)
    calls = count_echelon_calls(monkeypatch)
    for N in inst.modules.values():
        HomSpace(N, diag.NT(N, 1), 0).class_reps()
    assert calls["reduce"] == calls["add_row"] > 0


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
    B = free_module(alg, 1, prefix="b")
    for ell in (-1, -2, -3):
        assert hom_k_dim(B, B, ell) == 0


def test_koszul_homology_nonzero_and_negative_hom(quot):
    from dglift.modules import homology_dim
    K = koszul(quot)
    assert homology_dim(K, 1) == 1
    assert hom_k_dim(K, K, -1) == 1


def test_a_coordinate_outside_its_block_names_the_generator(ext):
    layout = MapLayout(two_step(ext), two_step(ext).carrier(), 0)
    _, _, n = layout.block(1)
    with pytest.raises(DimensionMismatch,
                       match=f"^coordinate {n} of generator e1 outside its block of size {n}$"):
        layout.to_flat({1: {n: ext.field.one}})


@pytest.mark.parametrize("key", [-1, 2])
def test_a_generator_key_outside_the_source_names_the_generators(ext, key):
    M = two_step(ext)
    layout = MapLayout(M, M.carrier(), 0)
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"generator key {key} is not one of the source's generators [e0:0, e1:2]")):
        layout.to_flat({key: {0: ext.field.one}})


def test_from_flat_inverts_to_flat_around_empty_blocks(config):
    """Over the exterior algebra on y, z, B has dimensions 1, 2, 1 in
    degrees 0, 1, 2, so generators of degree 4 have empty blocks: the first,
    a middle and the last one here.  An empty block starts where the next
    one does, and every vector of the layout comes back as it went in."""
    alg = build_algebra(BaseRing(), [("y", 1, "0"), ("z", 1, "0")], 0, config)
    N = make_module(alg, [("a", 4), ("b", 1), ("c", 4), ("d", 2), ("e", 1), ("g", 4)])
    layout = MapLayout(N, alg.carrier(), 0)
    assert layout.offsets == [0, 0, 2, 2, 3, 5, 5] and layout.total == 5
    assert [layout.block(lam) for lam in range(6)] == \
        [(0, 4, 0), (0, 1, 2), (2, 4, 0), (2, 2, 1), (3, 1, 2), (5, 4, 0)]
    f, rng = alg.field, random.Random(5)
    for _ in range(40):
        cols = {}
        for lam in (1, 3, 4):
            vec = {i: f.from_int(rng.randint(1, 4)) for i in range(layout.block(lam)[2])
                   if rng.random() < 0.6}
            if vec:
                cols[lam] = vec
        assert repr(layout.from_flat(layout.to_flat(cols))) == repr(cols)
    for k in (-1, layout.total):
        with pytest.raises(DimensionMismatch, match="outside 5 unknowns"):
            layout.from_flat({k: f.one})


class EntriesOnly(dict):
    """A flat vector that may be walked but not read by key."""

    def get(self, *args):
        raise AssertionError("read by key")

    __getitem__ = get


def test_from_flat_reads_only_the_entries_of_the_vector(ext):
    F = free_module(ext, 10**4)
    layout = MapLayout(F, ext.carrier(), 0)
    assert layout.total == 10**4
    one, two = ext.field.one, ext.field.from_int(2)
    flat = EntriesOnly({9999: one, 0: two, 4321: one})
    assert layout.from_flat(flat) == {0: {0: two}, 4321: {0: one}, 9999: {0: one}}


def test_a_map_of_another_space_names_both_spaces(ext):
    """express and null_homotopy answer for maps of their own space only:
    another target, shift or source is refused, naming both spaces."""
    B, F2 = free_module(ext, 1, prefix="b"), free_module(ext, 2)
    hs = HomSpace(B, F2, 0)
    one = ext.field.one
    mine = CarrierMap(B, hs.target, 0, {0: {0: one}})
    assert hs.express(mine) == {0: one} and hs.null_homotopy(mine) is None
    here = re.escape(f"is not in the Hom space from generators [b0:0] into {hs.target!r} "
                     "at shift 0")
    for cmap in (CarrierMap(B, B.carrier(), 0, {0: {0: one}}),
                 CarrierMap(B, hs.target, 1, {}),
                 CarrierMap(F2, hs.target, 0, {0: {0: one}})):
        there = re.escape(f"a map from generators {cmap.source.describe()} into "
                          f"{cmap.target!r} at shift {cmap.shift} ")
        for query in (hs.express, hs.null_homotopy):
            with pytest.raises(DimensionMismatch, match=there + here):
                query(cmap)


def test_a_hom_space_sweeps_each_delta_once(config, monkeypatch):
    """The null-homotopy of chi^1, the class representatives and both
    dimensions of the space N -> N (x) T that omega_is_zero asks read two
    sweeps, of delta_s and of delta_{s+1}: the class echelon starts from
    delta_s's pivot columns, read off its one sweep."""
    inst = build_corpus(config)["exterior"]
    diag = Diagonal(inst.algebra)
    sweep, swept = SparseMatrix.sweep, []

    def counted(m):
        if peek(m, "sweep") is None:
            swept.append(m)
        return sweep(m)
    monkeypatch.setattr(SparseMatrix, "sweep", counted)
    assert len(inst.modules) == 8
    for N in inst.modules.values():
        chi1 = chi_power(N, diag, 1)
        hs = diag.hom(N, chi1.target)
        bmat, cmat = hs.boundary_matrix(), hs.chain_matrix()
        swept.clear()
        hs.null_homotopy(chi1), hs.class_reps(), hs.boundary_dim, hs.dim_K
        assert [id(m) for m in swept] == [id(bmat), id(cmat)], N.names
