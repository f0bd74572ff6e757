"""Liftability: splitting search, battery, summand witness, kernel sequence."""

import re
from dataclasses import replace

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.diagonal import Diagonal
from dglift.errors import CapExceeded, DimensionMismatch, FiltrationStuck
from dglift.instances import battery_pairs, build_corpus
from dglift.liftcheck import (appendix_battery, kernel_sequence_check,
                              naive_lift_battery, p_ideal_dims, splitting_search,
                              summand_witness)
from dglift.linalg import SparseMatrix
from dglift.modules import ChainMap, cone, direct_sum, free_module, make_module, shift
from dglift.obstruction import chi_power

from conftest import two_step


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


def test_splitting_recheck_catches_a_doubled_solve(ext, ext_diag, monkeypatch):
    """Twice a solution of the section system is still a chain map, so only
    the strict section recheck sees that pi sigma = 2 id."""
    f = ext.field
    honest = SparseMatrix.solve

    def doubled(self, b):
        x = honest(self, b)
        return x and {j: f.add(c, c) for j, c in x.items()}

    monkeypatch.setattr(SparseMatrix, "solve", doubled)
    with pytest.raises(DimensionMismatch, match="splitting failed the strict section recheck"):
        splitting_search(summand_module(ext), ext_diag)


def test_a_failed_section_solve_names_its_space(config, monkeypatch):
    """A solve that fails its substitution recheck names the Hom space out
    of the minimal model N' = [g1:0] that the section system is on."""
    inst = build_corpus(config, ["exterior"])["exterior"]

    def failing(self, b):
        raise DimensionMismatch(f"{self.nrows}x{self.ncols} system: "
                                f"solution failed the substitution recheck")

    monkeypatch.setattr(SparseMatrix, "solve", failing)
    with pytest.raises(DimensionMismatch) as exc:
        splitting_search(inst.modules["summand"], inst.diag)
    assert str(exc.value).endswith(
        "system: solution failed the substitution recheck in the section system on the "
        "Hom space from generators [g1:0] into SemifreeCarrier([g1(x)1:0, g2(x)1:0, "
        "g1(x)y:1, g2(x)y:1, g3(x)1:1, g3(x)y:2] (x)_B AlgebraCarrier) at shift 0")


def test_summand_witness_free(ext, ext_diag):
    B = free_module(ext, 1)
    G, pi = ext_diag.base_change(B)
    sigma = splitting_search(B, ext_diag)
    wit = summand_witness(B, sigma, G, pi, ext_diag.minimal(B))
    assert wit.m == 1
    assert wit.recheck()


def test_summand_witness_frees(ext, ext_diag):
    for n in (2, 3):
        Bn = free_module(ext, n)
        G, pi = ext_diag.base_change(Bn)
        sigma = splitting_search(Bn, ext_diag)
        wit = summand_witness(Bn, sigma, G, pi, ext_diag.minimal(Bn))
        assert wit.m == n
        assert wit.recheck()


def test_summand_witness_idempotent_cut(ext, ext_diag):
    # a summand of the rank-2 free (one free generator plus a contractible
    # pair); the witness factors through two free copies
    M = summand_module(ext)
    G, pi = ext_diag.base_change(M)
    sigma = splitting_search(M, ext_diag)
    assert sigma is not None
    wit = summand_witness(M, sigma, G, pi, ext_diag.minimal(M))
    assert wit.m == 2
    assert wit.recheck()
    # adding e_g3 to the homotopy's value on g1 adds D(g3) = g2 to its boundary
    bad = dict(wit.homotopy)
    key = (2, 0)
    bad[key] = bad[key] + ext.one() if key in bad else ext.one()
    assert not replace(wit, homotopy=bad).recheck()


@pytest.mark.parametrize("with_free, m", [(False, 0), (True, 1)])
def test_summand_witness_skips_an_empty_positive_layer(config, with_free, m):
    """Over k<Z> with |Z| = 2, every non-A variable is even, so a module with
    no generator of degree 1 has an empty level-1 layer below the top one:
    the descent skips it.  The cone of the identity of Sigma^2 B is
    contractible, so its witness factors through the zero module (an empty
    degree-0 layer); beside B it factors through one free copy."""
    alg = build_algebra(BaseRing(), [("Z", 2, "0")], 0, config)
    diag = Diagonal(alg)
    N = cone(ChainMap.identity(make_module(alg, [("a", 2)])))
    if with_free:
        N = direct_sum(free_module(alg, 1), N)
    G, pi = diag.base_change(N)
    assert 1 not in G.degrees and max(G.degrees) == 4
    sigma = splitting_search(N, diag)
    assert sigma is not None
    wit = summand_witness(N, sigma, G, pi, diag.minimal(N))
    assert wit.m == m and wit.g.target.degrees == (0,) * m
    assert wit.recheck()


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
        summand_witness(N, sigma, G, pi, inst.diag.minimal(N))


def test_summand_witness_refuses_a_generator_of_negative_degree(ext, ext_diag):
    """B shifted down to degree -1 splits strictly, but sigma then has a row
    on e0 (x) 1 in degree -1, which no descent to the degree-0 layer
    removes: the witness refuses it by name."""
    N = make_module(ext, [("e0", -1)])
    sigma = splitting_search(N, ext_diag)
    assert sigma is not None
    with pytest.raises(FiltrationStuck,
                       match=r"generator e0\(x\)1 of negative degree -1"):
        summand_witness(N, sigma, *ext_diag.base_change(N), ext_diag.minimal(N))


def test_battery_table_over_two_odd_variables(config):
    """Over k<y, z>, y and z odd, to degree 8: B, the two-step module and
    the cone of id_B, each shifted by -2..2, alone and plus a free module.
    Every battery gives a report or refuses a cap, and its verdicts agree
    wherever AR1 holds."""
    alg = build_algebra(BaseRing(), [("y", 1, "0"), ("z", 1, "0")], 0,
                        config.with_limits(max_degree=8))
    diag = Diagonal(alg)
    B = free_module(alg, 1)
    starts = [B, make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): alg.gen("y")}),
              cone(ChainMap.identity(B))]
    reports = under_ar1 = 0
    for k, M in enumerate(starts):
        for s in range(-2, 3):
            for N in (shift(M, s), direct_sum(shift(M, s), free_module(alg, 1))):
                try:
                    r = naive_lift_battery(N, diag)
                except CapExceeded:
                    continue
                reports += 1
                under_ar1 += r.ar1.holds
                assert r.agreement or not r.ar1.holds, (k, s, N.describe())
    assert reports > 20 and under_ar1 > 5


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
        summand_witness(N, sigma, G, pi, inst.diag.minimal(N))


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


def test_the_battery_keeps_the_witness_of_the_least_null_power(config):
    """report.witness is the null-homotopy of chi^l, l the least
    null-homotopic power that the iii note names, on every corpus battery
    module, and None when no power up to the bound is null-homotopic: l is
    2 on exterior's two_step and 3 on its three_step, and at max_tensor 1
    two_step keeps no witness."""
    pairs = battery_pairs(build_corpus(config))
    assert len(pairs) == 18
    least = {}
    for inst, mname, M in pairs:
        r = naive_lift_battery(M, inst.diag, name=mname)
        if not r.verdicts["iii"]:
            assert r.witness is None, (inst.name, mname)
            continue
        ell = int(re.fullmatch(r"power (\d+) null-homotopic", r.notes["iii"])[1])
        least[inst.name, mname] = ell
        assert r.witness.shift == -1, (inst.name, mname)
        assert r.witness.boundary().sub(chi_power(M, inst.diag, ell)).is_zero(), (inst.name, mname)
    assert least["exterior", "two_step"] == 2 and least["exterior", "three_step"] == 3
    ext = build_corpus(config.with_limits(max_tensor=1))["exterior"]
    r = naive_lift_battery(ext.modules["two_step"], ext.diag, name="two_step")
    assert (r.verdicts["iii"], r.witness) == (False, None)


def test_battery_contractible(ext, ext_diag):
    C = cone(ChainMap.identity(free_module(ext, 1)))
    r = naive_lift_battery(C, ext_diag, name="cone")
    assert r.ar1.holds and r.agreement
    assert r.verdicts["i"] is True


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_the_battery_bound_is_max_tensor(ext, cap):
    """The battery reads chi^n and gamma^n for n up to max_tensor, its bound;
    with a cap of 0 there is no power to test, and Diagonal.T refuses the
    first one, T^1, rather than the verdicts disagreeing on a free module."""
    diag = Diagonal(build_algebra(BaseRing(), [("y", 1, "0")], 0,
                                  ext.config.with_limits(max_tensor=cap)))
    N = free_module(diag.algebra, 3)
    if cap == 0:
        with pytest.raises(CapExceeded, match="^tensor degree 1 exceeds configured cap 0;"):
            naive_lift_battery(N, diag)
        return
    r = naive_lift_battery(N, diag)
    assert (r.bound, sorted(r.gamma), r.agreement) == (cap, list(range(cap + 1)), True)


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
