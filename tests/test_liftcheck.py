"""Liftability: splitting search, battery, summand witness, kernel sequence."""

from dataclasses import replace

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.diagonal import Diagonal
from dglift.errors import FiltrationStuck
from dglift.instances import build_corpus
from dglift.liftcheck import (appendix_battery, kernel_sequence_check,
                              naive_lift_battery, p_ideal_dims, splitting_search,
                              summand_witness)
from dglift.modules import ChainMap, cone, free_module, make_module


@pytest.fixture()
def ext(config):
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


@pytest.fixture()
def ext_diag(ext):
    return Diagonal(ext)


def two_step(ext):
    return make_module(ext, [("e0", 0), ("e1", 2)], {("e0", "e1"): ext.gen("y")})


def summand_module(ext):
    return make_module(ext, [("g1", 0), ("g2", 0), ("g3", 1)],
                       {("g2", "g3"): ext.one()})


def test_splitting_of_regular_module(ext, ext_diag):
    B = free_module(ext, 1)
    sigma = splitting_search(B, ext_diag)
    assert sigma is not None
    # sigma(b) = b (x) 1
    (key, el), = sigma.entries.items()
    assert el == ext.one()


def test_splitting_componentwise_on_frees(ext, ext_diag):
    for n in (2, 3):
        assert splitting_search(free_module(ext, n), ext_diag) is not None


def test_no_splitting_for_two_step(ext, ext_diag):
    assert splitting_search(two_step(ext), ext_diag) is None


def test_splitting_for_contractible(ext, ext_diag):
    C = cone(ChainMap.identity(free_module(ext, 1)))
    assert splitting_search(C, ext_diag) is not None


def test_summand_witness_free(ext, ext_diag):
    B = free_module(ext, 1)
    G, pi = ext_diag.base_change(B)
    sigma = splitting_search(B, ext_diag)
    wit = summand_witness(B, sigma, G, pi)
    assert wit.m == 1
    assert wit.recheck()


def test_summand_witness_frees(ext, ext_diag):
    for n in (2, 3):
        Bn = free_module(ext, n)
        G, pi = ext_diag.base_change(Bn)
        sigma = splitting_search(Bn, ext_diag)
        wit = summand_witness(Bn, sigma, G, pi)
        assert wit.m == n
        assert wit.recheck()


def test_summand_witness_idempotent_cut(ext, ext_diag):
    # a summand of the rank-2 free (one free generator plus a contractible
    # pair); the witness factors through two free copies
    M = summand_module(ext)
    G, pi = ext_diag.base_change(M)
    sigma = splitting_search(M, ext_diag)
    assert sigma is not None
    wit = summand_witness(M, sigma, G, pi)
    assert wit.m == 2
    assert wit.recheck()
    # adding e_g3 to the homotopy's value on g1 adds D(g3) = g2 to its boundary
    bad = dict(wit.homotopy)
    key = (2, 0)
    bad[key] = bad[key] + ext.one() if key in bad else ext.one()
    assert not replace(wit, homotopy=bad).recheck()


def test_summand_witness_stuck_on_the_shifted_free(config):
    """Sigma B splits strictly, but Hom(Sigma B, Sigma B) != 0 in positive
    shift (AR1 fails), so the descent cannot clear the level-1 layer."""
    inst = build_corpus(config, ["exterior"])["exterior"]
    N = inst.modules["shifted"]
    G, pi = inst.diag.base_change(N)
    sigma = splitting_search(N, inst.diag)
    assert sigma is not None
    with pytest.raises(FiltrationStuck,
                       match="level-1 layer is not null-homotopic.*generator b0"):
        summand_witness(N, sigma, G, pi)


@pytest.mark.parametrize("name", ["cone_id", "summand"])
def test_summand_witness_stuck_when_the_correction_leaves_a_row(config, monkeypatch, name):
    """A correction whose boundary is lost leaves sigma's level-1 rows in
    place, which the descent must refuse rather than drop."""
    import dglift.liftcheck as liftcheck
    inst = build_corpus(config, ["exterior"])["exterior"]
    N = inst.modules[name]
    G, pi = inst.diag.base_change(N)
    sigma = splitting_search(N, inst.diag)
    assert sigma is not None
    monkeypatch.setattr(liftcheck, "graded_map_boundary", lambda *args: {})
    with pytest.raises(FiltrationStuck, match="correction left a row at level 1"):
        summand_witness(N, sigma, G, pi)


def test_battery_on_frees_all_true(ext, ext_diag):
    for n in (1, 3):
        r = naive_lift_battery(free_module(ext, n), ext_diag, name=f"B{n}")
        assert r.ar1.holds
        assert all(v is True for v in r.verdicts.values())
        assert r.agreement and r.flag is None


def test_battery_two_step(ext, ext_diag):
    r = naive_lift_battery(two_step(ext), ext_diag, name="two_step")
    assert r.verdicts["i"] is False
    assert r.verdicts["ii"] is False
    assert r.lemma_free_equivalence
    assert not r.ar1.holds
    assert r.flag is None


def test_battery_contractible(ext, ext_diag):
    C = cone(ChainMap.identity(free_module(ext, 1)))
    r = naive_lift_battery(C, ext_diag, name="cone")
    assert r.ar1.holds and r.agreement
    assert r.verdicts["i"] is True


def test_battery_koszul_trivial_extension(config):
    alg = build_algebra(BaseRing("a", 2), [], 0, config)
    diag = Diagonal(alg)
    K = make_module(alg, [("e0", 0), ("e1", 1)], {("e0", "e1"): alg.gen("a")})
    r = naive_lift_battery(K, diag, name="K")
    # A = B: the counit is the identity, everything lifts
    assert r.verdicts["i"] is True and r.verdicts["ii"] is True
    assert r.lemma_free_equivalence


def test_p_ideal_free(ext, ext_diag):
    B = free_module(ext, 1)
    via_f, via_k, identity_ok = p_ideal_dims(B, ext_diag)
    assert via_f == via_k == 1
    assert identity_ok


def test_p_ideal_rank2(ext, ext_diag):
    B2 = free_module(ext, 2)
    via_f, via_k, identity_ok = p_ideal_dims(B2, ext_diag)
    assert via_f == via_k == 4
    assert identity_ok


def test_p_ideal_contractible(ext, ext_diag):
    C = cone(ChainMap.identity(free_module(ext, 1)))
    via_f, via_k, identity_ok = p_ideal_dims(C, ext_diag)
    assert via_f == via_k == 0  # End of a contractible module vanishes
    assert identity_ok


def test_kernel_sequence_on_ar1_instances(ext, ext_diag):
    for M in (free_module(ext, 1), free_module(ext, 2), summand_module(ext)):
        r = kernel_sequence_check(M, ext_diag)
        assert r["ok"], r


def test_appendix_battery_profiles(config):
    ext = build_algebra(BaseRing(), [("y", 1, "0")], 0, config)
    quot = build_algebra(BaseRing("a", 2), [], 0, config)
    tate2 = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0,
                          config.with_limits(max_degree=6))
    K = make_module(quot, [("e0", 0), ("e1", 1)], {("e0", "e1"): quot.gen("a")})
    results = appendix_battery([
        ("B_exterior", free_module(ext, 1)),
        ("R", free_module(quot, 1)),
        ("K", K),
        ("B_resolution", free_module(tate2, 1)),
    ])
    by_name = {r["name"]: r for r in results}
    # the plain base ring is concentrated in degree zero
    assert by_name["R"]["concentrated_in_zero"]
    assert by_name["R"]["proposition_vanishing_ok"]
    # the Koszul complex on a zero divisor is the counterexample:
    # homology away from zero and a nonvanishing negative self-shift
    assert not by_name["K"]["concentrated_in_zero"]
    assert by_name["K"]["negative_self_hom"]["-1"] >= 1
    # the corollary applies over the resolution algebra
    assert by_name["B_resolution"]["B_positive_homology_zero"]
    assert by_name["B_resolution"]["corollary_vanishing_ok"]
    # the exterior algebra has positive homology, so the corollary is not
    # asserted there
    assert not by_name["B_exterior"]["B_positive_homology_zero"]
