"""The obstruction operator: formula vs enveloping route, powers, vanishing,
graded endomorphism dimensions, action matrices, cone components, nilpotency,
functoriality, basis-change conjugation, and f (x) id against independent
routes."""

import random

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.carriers import TensorCarrier
from dglift.diagonal import Diagonal
from dglift.errors import CapExceeded, DimensionMismatch
from dglift.homotopy import HomSpace, carrier_map_to_chain, hom_k_dim
from dglift.instances import battery_pairs
from dglift.linalg import SparseMatrix
from dglift.modules import ChainMap, cone, free_module, make_module, shift
from dglift.obstruction import (DegreewiseMap, EnvelopingRouteTower, ObstructionTower,
                                carrier_maps_equal, chain_map_operator, chi_power,
                                chi_power_iterated, cone_component_dims,
                                conjugation_commutes, functoriality_defect_is_null,
                                gamma_dim, local_nilpotency, map_tensor_id,
                                omega_action_matrix, omega_is_zero, towers_agree)

from hom_space_oracle import strict_triangular_cycles
from test_carriers import corpus, phi, same


@pytest.fixture()
def ext(config):
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


@pytest.fixture()
def ext_diag(ext):
    return Diagonal(ext)


def two_step(ext):
    return make_module(ext, [("e0", 0), ("e1", 2)], {("e0", "e1"): ext.gen("y")})


def three_step(ext):
    y = ext.gen("y")
    return make_module(ext, [("e0", 0), ("e1", 2), ("e2", 4)],
                       {("e0", "e1"): y, ("e1", "e2"): y})


def test_obstruction_vanishes_identically_on_frees(ext, ext_diag):
    for n in (1, 2, 3):
        B = free_module(ext, n)
        chi = chi_power(B, ext_diag, 1)
        assert chi.is_zero()
        wit = omega_is_zero(B, ext_diag)
        assert wit is not None


def test_obstruction_formula_value_two_step(ext, ext_diag):
    # the only contribution is e1 +-> e0 (x) delta(y); e0 maps to zero
    M = two_step(ext)
    chi = chi_power(M, ext_diag, 1)
    assert 0 not in chi.cols
    v = chi.cols[1]
    assert len(v) == 1
    # the value is +- a single basis vector of (N (x) Sigma J)_2
    assert list(v.values())[0] in (ext.field.one, ext.field.neg(ext.field.one))


def test_two_step_obstruction_nonzero(ext, ext_diag):
    assert omega_is_zero(two_step(ext), ext_diag) is None


def test_contractible_obstruction_zero(ext, ext_diag):
    C = cone(ChainMap.identity(free_module(ext, 1)))
    assert omega_is_zero(C, ext_diag) is not None


def test_components_are_chain_operators(ext, ext_diag):
    M = three_step(ext)
    tower = ObstructionTower(M, ext_diag)
    for i in (0, 1, 2):
        for d in range(0, 7):
            tower.component(i).mat(d)  # validates the chain square on build


@pytest.mark.parametrize("i", [0, 1])
def test_an_extra_entry_breaks_the_chain_square(ext, ext_diag, i):
    """One entry added to a component's matrix in degree d, on a row where
    the target differential is nonzero, changes D w but not w D, so the
    first build of d raises, naming w[i] and d."""
    w = ObstructionTower(three_step(ext), ext_diag).component(i)
    f = ext.field
    low = min(w.source.min_degree(), w.target.min_degree())
    d, row = next((d, r) for d in range(low + 1, 7) if w.source.dim(d)
                  for _, r in w.target.diff(d).entries)

    def build(e):
        m = w.build(e)
        if e != d:
            return m
        entries = dict(m.entries)
        entries[(row, 0)] = f.add(entries.get((row, 0), f.zero), f.one)
        return SparseMatrix(f, m.nrows, m.ncols, entries)

    broken = DegreewiseMap(w.source, w.target, build, name=w.name)
    with pytest.raises(DimensionMismatch,
                       match=rf"^w\[{i}\] is not a chain operator at degree {d}$"):
        broken.mat(d)


def test_the_tower_refuses_a_component_past_max_tensor(ext, ext_diag):
    L = ext_diag.config.max_tensor
    tower = ObstructionTower(three_step(ext), ext_diag)
    assert tower.component(L - 1).name == f"w[{L - 1}]"
    with pytest.raises(CapExceeded,
                       match=rf"^tensor degree {L + 1} exceeds configured cap {L};"):
        tower.component(L)


def test_enveloping_route_reproduces_formula(ext, ext_diag):
    for M in (two_step(ext), three_step(ext), free_module(ext, 2)):
        tower = ObstructionTower(M, ext_diag)
        route = EnvelopingRouteTower(M, ext_diag)
        for i in (0, 1):
            assert towers_agree(tower, route, i, range(0, 7))


def test_enveloping_route_reproduces_formula_tate(config):
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)
    diag = Diagonal(alg)
    M = make_module(alg, [("g0", 0), ("g1", 1), ("g2", 2)],
                    {("g0", "g1"): alg.gen("q"),
                     ("g1", "g2"): alg.one().neg(),
                     ("g0", "g2"): alg.gen("X")})
    tower = ObstructionTower(M, diag)
    route = EnvelopingRouteTower(M, diag)
    for i in (0, 1):
        assert towers_agree(tower, route, i, range(0, 6))


def test_chi_power_zero_is_identity_shape(ext, ext_diag):
    M = two_step(ext)
    chi0 = chi_power(M, ext_diag, 0)
    assert set(chi0.cols) == {0, 1}
    for v in chi0.cols.values():
        assert list(v.values()) == [ext.field.one]


def test_chi_power_exhausts_chains(ext, ext_diag):
    # two generators admit no strict chain of length two
    M = two_step(ext)
    assert chi_power(M, ext_diag, 2).is_zero()


def test_chi_powers_match_iterated_composition(ext, ext_diag):
    M3 = three_step(ext)
    for ell in (1, 2, 3):
        closed = chi_power(M3, ext_diag, ell)
        iterated = chi_power_iterated(M3, ext_diag, ell)
        assert carrier_maps_equal(closed, iterated)
    assert not chi_power(M3, ext_diag, 2).is_zero()
    assert chi_power(M3, ext_diag, 3).is_zero()


def test_gamma_dims(ext, ext_diag):
    B = free_module(ext, 1)
    assert gamma_dim(B, ext_diag, 0) == 1
    assert gamma_dim(B, ext_diag, -1) == 0
    M = two_step(ext)
    assert gamma_dim(M, ext_diag, 1) == 1  # contains the nonzero class
    assert gamma_dim(M, ext_diag, -2) == 0


def test_gamma_zero_equals_end_through_distinct_machinery(ext, ext_diag):
    for M in (two_step(ext), free_module(ext, 2)):
        assert gamma_dim(M, ext_diag, 0) == hom_k_dim(M, M, 0)


def test_omega_action_matrix_on_free(ext, ext_diag):
    B2 = free_module(ext, 2)
    mat, s, t = omega_action_matrix(B2, ext_diag, 0, 0)
    assert (s, t) == (4, 0)
    assert mat.is_zero()
    mat, s, t = omega_action_matrix(B2, ext_diag, 1, 0)
    assert (s, t) == (0, 0)


def test_omega_action_matrix_two_step_reports_dims(ext, ext_diag):
    # outside the Ext-vanishing hypotheses the map is only reported: here the
    # nonzero class in tensor degree 1 maps into a zero space
    M = two_step(ext)
    mat, s, t = omega_action_matrix(M, ext_diag, 1, 0)
    assert (s, t) == (1, 0)
    mat, s, t = omega_action_matrix(M, ext_diag, 0, 0)
    assert (s, t) == (1, 1)
    assert mat.rank() == 1  # omega itself generates the degree-1 piece


def test_cone_component_dims(ext, ext_diag):
    M = two_step(ext)
    assert cone_component_dims(M, ext_diag, -2, 3) == (0, 0)
    for d in range(0, 5):
        c, p = cone_component_dims(M, ext_diag, -1, d)
        assert c == p == M.carrier().dim(d)
    for n in (0, 1):
        for d in range(0, 6):
            c, p = cone_component_dims(M, ext_diag, n, d)
            assert c == p, (n, d, c, p)


def test_cone_component_dims_tate(config):
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, config)
    diag = Diagonal(alg)
    M = make_module(alg, [("h0", 0), ("h1", 2)],
                    {("h0", "h1"): alg.gen("q") * alg.gen("X")})
    for n in (0, 1):
        for d in range(0, 5):
            c, p = cone_component_dims(M, diag, n, d)
            assert c == p, (n, d, c, p)


def test_local_nilpotency(ext, ext_diag):
    M = three_step(ext)
    certs = local_nilpotency(M, ext_diag, 0)
    assert certs
    for c in certs:
        assert 1 <= c["power"] <= c["bound"]


def test_functoriality_random_maps(ext, ext_diag):
    M = two_step(ext)
    B = free_module(ext, 1)
    # all chain maps M -> B: sample cycles and check the square commutes up
    # to homotopy
    hs = HomSpace(M, B, 0)
    from dglift.homotopy import carrier_map_to_chain
    rng = random.Random(9)
    cycles = hs.cycles()
    for _ in range(3):
        if not cycles:
            break
        pick = cycles[rng.randrange(len(cycles))]
        fmap = carrier_map_to_chain(pick)
        assert functoriality_defect_is_null(M, B, fmap, ext_diag)


def test_centrality_for_endomorphisms(ext, ext_diag):
    M = three_step(ext)
    hs = HomSpace(M, M, 0)
    from dglift.homotopy import carrier_map_to_chain
    for cyc in hs.cycles()[:4]:
        fmap = carrier_map_to_chain(cyc)
        assert functoriality_defect_is_null(M, M, fmap, ext_diag)


def test_conjugation_by_triangular_automorphisms(config):
    # sample strict-triangular chain cycles u = id + n and check the strict
    # commutation of the obstruction operator with u (x) id
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)
    diag = Diagonal(alg)
    M = make_module(alg, [("g0", 0), ("g1", 1), ("g2", 2)],
                    {("g0", "g1"): alg.gen("q"),
                     ("g1", "g2"): alg.one().neg(),
                     ("g0", "g2"): alg.gen("X")})
    strict_cycles = strict_triangular_cycles(M)
    assert strict_cycles, "expected nontrivial strict-triangular cycles"
    from dglift.homotopy import carrier_map_to_chain
    rng = random.Random(17)
    f = alg.field
    for _ in range(5):
        entries = dict(ChainMap.identity(M).entries)
        for cyc in strict_cycles:
            c = rng.randint(-2, 2)
            if not c:
                continue
            cm = carrier_map_to_chain(cyc.scale(f.from_int(c)))
            for k, v in cm.entries.items():
                entries[k] = entries[k] + v if k in entries else v
        u = ChainMap(M, M, 0, entries)
        assert conjugation_commutes(M, diag, u, window=range(0, 5))


def test_map_tensor_id_is_chain_operator(ext, ext_diag):
    M = two_step(ext)
    u = ChainMap.identity(M)
    op = map_tensor_id(u, ext_diag, 1)
    for d in range(0, 6):
        m = op.mat(d)
        assert m.nrows == m.ncols
        # identity (x) id is the identity matrix
        assert m.entries == {(i, i): ext.field.one for i in range(m.ncols)}


# ----- f (x) id and the towers on the corpus, on both backends --------------


def corpus_maps(inst):
    """(where, f): the base-change counit pi: G -> N of every corpus module,
    and for every battery module the strict triangular chain endomorphisms
    whose sums criterion 10 of the acceptance tests samples."""
    for mname, M in inst.modules.items():
        yield (inst.name, mname, "pi"), inst.diag.base_change(M)[1]
    for mname in inst.battery:
        M = inst.modules[mname]
        for k, cyc in enumerate(strict_triangular_cycles(M)):
            yield (inst.name, mname, f"cycle{k}"), carrier_map_to_chain(cyc)


def image_of_generator(fmap, lam) -> dict:
    """f(e_lam) = sum_mu e_mu f_{mu lam} in the target module's coordinates."""
    tcar = fmap.target.carrier()
    p = fmap.source.degrees[lam]
    return {tcar.index(p, mu, v): c for (mu, l2), el in fmap.entries.items()
            if l2 == lam for v, c in el.terms.items()}


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_tensor_id_on_B_multiplies_the_matrix_over_B(backend):
    """chain_map_operator(f) sends e_lam w to sum_mu e_mu (f_{mu lam} w),
    with the products taken in the algebra."""
    nonzero = 0
    for inst in corpus(backend).values():
        alg, f = inst.algebra, inst.algebra.field
        for where, fmap in corpus_maps(inst):
            op = chain_map_operator(fmap)
            scar, tcar = fmap.source.carrier(), fmap.target.carrier()
            for d in range(scar.min_degree(), alg.config.max_degree + 1):
                want = {}
                for k, (lam, w) in enumerate(scar.labels(d)):
                    for (mu, l2), el in fmap.entries.items():
                        if l2 == lam:
                            for v, c in (el * alg.from_mono(w)).terms.items():
                                want[(tcar.index(d, mu, v), k)] = c
                m = op.mat(d)
                assert (m.nrows, m.ncols) == (tcar.dim(d), scar.dim(d)), where + (d,)
                assert m.entries == want, where + (d,)
                nonzero += len(want)
    assert nonzero > 200


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_tensor_id_on_T_matches_the_relation_quotient(backend):
    """Through the isomorphism Phi onto the quotient N' (x) T^n, f (x) id
    sends e_lam (x) t to the class of f(e_lam) (x) t, for n = 1 and 2."""
    nonzero = 0
    for inst in corpus(backend).values():
        diag, f = inst.diag, inst.algebra.field
        cap = inst.algebra.config.max_degree
        for where, fmap in corpus_maps(inst):
            for n in (1, 2):
                src, tgt = diag.NT(fmap.source, n), diag.NT(fmap.target, n)
                oracle = TensorCarrier(fmap.target.carrier(), diag.T(n))
                op = map_tensor_id(fmap, diag, n)
                for d in range(src.min_degree(), cap + 1):
                    cols = []
                    for k in range(src.dim(d)):
                        lam, j = src.block(d, k)
                        p = fmap.source.degrees[lam]
                        cols.append(oracle.pair_project(p, image_of_generator(fmap, lam),
                                                        d - p, {j: f.one}))
                    want = SparseMatrix.from_cols(f, oracle.dim(d), cols)
                    assert same(phi(tgt, oracle, d) @ op.mat(d), want), where + (n, d)
                    nonzero += len(want.entries)
    assert nonzero > 500


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_towers_agree_up_to_the_cap(backend):
    """The direct tower and the enveloping route agree entrywise on
    components 0, 1 and 2 in every degree up to the cap, past the window
    min..max+1 of criterion 10, where most of their nonzero entries lie.
    Each battery module is also taken once suspended: only there does an
    odd generator e_mu meet a coefficient b_{mu lam} with delta(b) != 0, so
    only there does the sign (-1)^{|e_mu|} show."""
    nonzero = [0, 0, 0]
    for inst, mname, M0 in battery_pairs(corpus(backend)):
        diag = inst.diag
        for M in (M0, shift(M0, 1)):
            tower, route = ObstructionTower(M, diag), EnvelopingRouteTower(M, diag)
            degrees = range(M.min_degree, inst.algebra.config.max_degree + 1)
            for i in range(3):
                assert towers_agree(tower, route, i, degrees), (inst.name, mname, M.degrees, i)
                nonzero[i] += sum(len(tower.component(i).mat(d).entries) for d in degrees)
    assert min(nonzero) > 0, nonzero
