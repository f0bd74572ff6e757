"""Minimal models: Gaussian elimination of unit pairs behind the
homotopy-invariant battery dimensions.

The unreduced route is the oracle: a Diagonal whose every module is its own
model computes gamma^n, the AR1/AR2 tables, the factorization ideal and the
kernel sequence on the presentation given, as the engine did before it
read them off the minimal model.  Both routes must agree on every corpus
battery module and every valid tests/data module, on Q and on Fp, and on
random direct sums of chains, their cones and their shifts, where the
verdicts carried back from N' must also equal the direct route's.  The
deformation retract (f, g, h) is rechecked by substitution, and a corrupted
one fails that recheck.
"""

from functools import cache

import pytest
from direct_route_oracle import direct_verdicts, identity_model
from hypothesis import given, settings
from hypothesis import strategies as st

from dglift.algebra import BaseRing, build_algebra
from dglift.cli import parse_instance
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import DGLiftError, DimensionMismatch
from dglift.homotopy import MinimalModel, check_AR1, check_AR2, minimal_model
from dglift.instances import battery_pairs, build_corpus
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery, p_ideal_dims
from dglift.modules import ChainMap, cone, direct_sum, make_module, shift
from dglift.obstruction import chi_power_iterated, chi_powers, gamma_dim
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

from conftest import DATA

CONFIGS = {"Q": EngineConfig(field=RATIONALS),
           "Fp": EngineConfig(field=PrimeField(DEFAULT_PRIME))}
BACKENDS = ["Q", "Fp"]


class Unreduced(Diagonal):
    """The oracle: every module is its own minimal model."""

    def minimal(self, module):
        return identity_model(module)


def invariants(N, diag):
    """Everything the engine reads off the minimal model."""
    L = diag.config.max_tensor
    return {"gamma": [gamma_dim(N, diag, n) for n in range(L + 1)],
            "AR1": check_AR1(N, diag).detail,
            "AR2": check_AR2(N, diag).detail,
            "p": p_ideal_dims(N, diag),
            "kernel_sequence": kernel_sequence_check(N, diag)}


def data_modules(config):
    """(file, module name, module) for every module of every valid
    tests/data instance."""
    out = []
    for path in sorted(DATA.glob("*.dg")):
        try:
            inst = parse_instance(str(path), config)
        except DGLiftError:
            continue
        out += [(path.name, mname, M) for mname, M in inst.modules.items()]
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_minimal_model_route_equals_the_unreduced_route(backend):
    reduced = 0
    cases = [(inst.diag, f"{inst.name}/{mname}", M)
             for inst, mname, M in battery_pairs(build_corpus(CONFIGS[backend]))]
    cases += [(Diagonal(M.algebra), f"{path}/{mname}", M)
              for path, mname, M in data_modules(CONFIGS[backend])]
    for diag, where, M in cases:
        assert invariants(M, diag) == invariants(M, Unreduced(M.algebra)), where
        reduced += diag.minimal(M).module is not M
    # cone_id (corpus and file), summand and tate2/M reduce
    assert reduced == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_reductions(backend):
    corpus = build_corpus(CONFIGS[backend])
    sizes = {}
    for inst in corpus.values():
        for mname, M in inst.modules.items():
            sizes[f"{inst.name}/{mname}"] = inst.diag.minimal(M).module.n_gens
    assert sizes["exterior/cone_id"] == 0
    assert sizes["exterior/summand"] == 1
    assert sizes["tate2/M"] == 1
    ext = corpus["exterior"]
    assert ext.diag.minimal(ext.modules["summand"]).module.names == ("g1",)
    assert corpus["tate2"].diag.minimal(corpus["tate2"].modules["M"]).module.names == ("g0",)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_module_with_no_unit_entry_is_its_own_model(backend):
    for inst in build_corpus(CONFIGS[backend]).values():
        for mname, M in inst.modules.items():
            if mname in ("cone_id", "summand") or (inst.name, mname) == ("tate2", "M"):
                continue
            model = inst.diag.minimal(M)
            assert inst.diag.minimal(M) is model
            assert model.module is M and model.source is M, (inst.name, mname)
            assert model.f is model.g and model.h == {}
            assert model.f.entries == ChainMap.identity(M).entries


def exterior_chain(alg, length):
    """e_0, ..., e_{length-1} in degrees 0, 2, 4, ... with d e_{j+1} = e_j y0."""
    y0 = alg.gen("y0")
    return make_module(alg, [(f"e{j}", 2 * j) for j in range(length)],
                       {(f"e{j}", f"e{j + 1}"): y0 for j in range(length - 1)})


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_cone_of_an_identity_reduces_to_zero(backend):
    alg = build_algebra(BaseRing(), [("y0", 1, "0"), ("y1", 1, "0")], 0,
                        CONFIGS[backend].with_limits(max_degree=8, max_tensor=2))
    chain = exterior_chain(alg, 3)
    C = cone(ChainMap.identity(chain))
    model = minimal_model(C)
    assert C.n_gens == 6 and model.module.n_gens == 0
    assert model.f.entries == {} and model.g.entries == {}
    # id = d h + h d on the cone: h is a contraction
    assert model.recheck() is model
    # a sum with the chain reduces to the chain, up to the names of the sum
    S = direct_sum(C, chain)
    reduced = minimal_model(S).module
    assert reduced.degrees == chain.degrees
    assert reduced.names == tuple(f"{n}.1" for n in chain.names)
    assert [(k, v) for k, v in sorted(reduced.diff.items())] == \
        [(k, v) for k, v in sorted(chain.diff.items())]
    diag = Diagonal(alg)
    assert invariants(S, diag) == invariants(S, Unreduced(alg))
    assert invariants(C, diag) == invariants(C, Unreduced(alg))
    assert naive_lift_battery(C, diag).to_dict() == \
        naive_lift_battery(C, Unreduced(alg)).to_dict()


@pytest.mark.parametrize("backend", BACKENDS)
def test_units_of_the_base_ring_are_inverted_by_a_finite_series(backend):
    """Over k[a]/(a^3) the coefficients 1 + a and 2 - a*a are units: each
    cone-like pair cancels, and the recheck multiplies the inverse out."""
    alg = build_algebra(BaseRing("a", 3), [("x", 1, "0")], 0,
                        CONFIGS[backend].with_limits(max_degree=6, max_tensor=2))
    a, one = alg.gen("a"), alg.one()
    M = make_module(alg, [("e0", 0), ("e1", 1), ("f0", 1), ("f1", 2)],
                    {("e0", "e1"): one + a, ("f0", "f1"): one.scale(alg.field.from_int(2)) - a * a})
    model = minimal_model(M)
    assert model.module.n_gens == 0
    # a non-unit coefficient is not cancelled
    K = make_module(alg, [("e0", 0), ("e1", 1)], {("e0", "e1"): a})
    assert minimal_model(K).module is K
    diag = Diagonal(alg)
    for N in (M, K):
        assert invariants(N, diag) == invariants(N, Unreduced(alg))


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_recheck_catches_a_corrupted_retract(backend):
    inst = build_corpus(CONFIGS[backend])["tate2"]
    model = minimal_model(inst.modules["M"])
    assert model.recheck() is model
    key = next(iter(model.h))
    bad = MinimalModel(model.source, model.module, model.f, model.g,
                       {**model.h, key: model.h[key].scale(inst.algebra.field.from_int(2))})
    with pytest.raises(DimensionMismatch):
        bad.recheck()
    worse = MinimalModel(model.source, model.module, model.f, model.g, {})
    with pytest.raises(DimensionMismatch):
        worse.recheck()


@pytest.mark.parametrize("backend", BACKENDS)
def test_survivors_are_ordered_by_degree_then_position(backend):
    """Cancelling (m, n) gives r a coefficient -a on k although r comes
    after k in N's order; N' lists r first, by degree, and is triangular."""
    alg = build_algebra(BaseRing("a", 2), [], 0,
                        CONFIGS[backend].with_limits(max_degree=6, max_tensor=2))
    a, one = alg.gen("a"), alg.one()
    M = make_module(alg, [("m", 0), ("k", 1), ("r", 0), ("n", 1)],
                    {("m", "k"): a, ("m", "n"): one, ("r", "n"): one})
    Np = minimal_model(M).module
    assert Np.names == ("r", "k") and Np.degrees == (0, 1)
    assert Np.diff == {(0, 1): a.neg()}
    diag = Diagonal(alg)
    assert invariants(M, diag) == invariants(M, Unreduced(alg))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cancelled_pair_can_cancel_another_coefficient(backend):
    """Over k<y>, d n = r*y + m and d k = r*y + m: cancelling (m, n) takes
    y * 1 away from the coefficient y of r in d k, which leaves nothing, so
    that entry is deleted and N' is r, k with no differential."""
    alg = build_algebra(BaseRing(), [("y", 1, "0")], 0,
                        CONFIGS[backend].with_limits(max_degree=6, max_tensor=2))
    y, one = alg.gen("y"), alg.one()
    M = make_module(alg, [("r", 0), ("m", 1), ("n", 2), ("k", 2)],
                    {("r", "n"): y, ("m", "n"): one, ("r", "k"): y, ("m", "k"): one})
    model = minimal_model(M)
    assert model.module.names == ("r", "k") and model.module.degrees == (0, 2)
    assert model.module.diff == {}
    assert model.recheck() is model


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_product_that_vanishes_is_no_new_coefficient(backend):
    """Over k<y> with |y| = 1, d b = a + r*y and d c = a*y: cancelling
    (a, b) would give r a coefficient -y*y on c, but y*y = 0, so no entry
    is made, and N' is r, c with no differential."""
    alg = build_algebra(BaseRing(), [("y", 1, "0")], 0,
                        CONFIGS[backend].with_limits(max_degree=6, max_tensor=2))
    y, one = alg.gen("y"), alg.one()
    M = make_module(alg, [("r", 0), ("a", 1), ("b", 2), ("c", 3)],
                    {("a", "b"): one, ("r", "b"): y, ("a", "c"): y})
    model = minimal_model(M)
    assert model.module.names == ("r", "c") and model.module.degrees == (0, 3)
    assert model.module.diff == {}
    assert model.recheck() is model


@cache
def exterior3(backend):
    """k<y0, y1, y2>, all odd with zero differential, capped at degree 12
    and tensor degree 2."""
    return build_algebra(BaseRing(), [(f"y{r}", 1, "0") for r in range(3)], 0,
                         CONFIGS[backend].with_limits(max_degree=12, max_tensor=2))


# (kind, length L, start degree s, variable r, shift t): the chain
# e0..e_{L-1}, e_j in degree s + 2j, d e_{j+1} = e_j y_r, as it is, as the
# cone of its identity, or shifted by t
BLOCKS = st.one_of(
    st.tuples(st.sampled_from(["chain", "cone"]), st.integers(1, 3), st.integers(0, 1),
              st.integers(0, 2), st.just(0)),
    st.tuples(st.just("shifted"), st.integers(1, 3), st.integers(0, 1), st.integers(0, 2),
              st.integers(-1, 1)))


def random_block(alg, kind, length, start, r, t):
    y = alg.gen(f"y{r}")
    C = make_module(alg, [(f"e{j}", start + 2 * j) for j in range(length)],
                    {(f"e{j}", f"e{j + 1}"): y for j in range(length - 1)})
    return cone(ChainMap.identity(C)) if kind == "cone" else shift(C, t)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(blocks=st.lists(BLOCKS, min_size=1, max_size=3))
def test_random_sums_agree_with_the_unreduced_and_direct_routes(backend, blocks):
    """A direct sum of 1-3 random blocks: the invariants read off N' equal
    the unreduced route's, and verdicts i, ii, iii and ix, decided on N' and
    carried back to N, equal those decided on N itself, as does the least
    null-homotopic power that iii's note names.  The powers of one walk
    equal the iterated compositions of the tower components."""
    alg = exterior3(backend)
    N = direct_sum(*(random_block(alg, *b) for b in blocks))
    diag = Diagonal(alg)
    assert invariants(N, diag) == invariants(N, Unreduced(alg))
    for ell, chi in enumerate(chi_powers(N, diag, 2)):
        assert chi.cols == chi_power_iterated(N, Diagonal(alg), ell).cols, ell
    report = naive_lift_battery(N, diag)
    direct = direct_verdicts(N, Diagonal(alg), report.ar1.detail["iii_holds"], report.bound)
    for k in ("i", "ii", "iii", "ix"):
        assert report.verdicts[k] == direct[k], k
    nil = direct["nil_power"]
    assert report.notes["iii"] == (f"power {nil} null-homotopic" if nil
                                   else "no nilpotency up to bound 2")
