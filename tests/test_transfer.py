"""Verdicts i, ii, iii and ix decided on the minimal model N' and carried
back to N, against the direct route that solves on Hom spaces out of N
(tests/direct_route_oracle.py).

Both routes must give the same verdicts, and the same answer for each power
chi^l, on every corpus battery module and on direct_sum(cone_id, two_step)
and its shifts, on Q and on Fp.  Every section and every witness the
engine returns passes its recheck on N.  A retraction corrupted in one
entry of h makes the carried witness and the section fail that recheck,
which names the module and the space.
"""

from dataclasses import replace

import pytest
from direct_route_oracle import direct_chi_witness, direct_verdicts

from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import DimensionMismatch
from dglift.homotopy import HomSpace
from dglift.instances import battery_pairs, build_corpus
from dglift.liftcheck import naive_lift_battery, splitting_search, summand_witness
from dglift.linalg import SparseMatrix
from dglift.modules import ChainMap, composite_is_identity, cone, direct_sum, shift
from dglift.obstruction import chi_power, omega_is_zero
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

CONFIGS = {"Q": EngineConfig(field=RATIONALS),
           "Fp": EngineConfig(field=PrimeField(DEFAULT_PRIME))}
BACKENDS = ["Q", "Fp"]


def cases(backend):
    """(algebra, where, N) for every corpus battery module, for
    direct_sum(cone_id, two_step) shifted by -1..2 over the exterior
    algebra, and for the cone of id_B plus tate's M, whose chi^1 is not
    zero but null-homotopic: there the witness on N' is not zero, so the
    H' f term of the carried witness is exercised."""
    corpus = build_corpus(CONFIGS[backend])
    out = [(inst.algebra, f"{inst.name}/{mname}", M) for inst, mname, M in battery_pairs(corpus)]
    ext = corpus["exterior"]
    S = direct_sum(ext.modules["cone_id"], ext.modules["two_step"])
    out += [(ext.algebra, f"exterior/cone_id+two_step[{s}]", shift(S, s)) for s in range(-1, 3)]
    tate = corpus["tate"]
    out.append((tate.algebra, "tate/cone_id+M",
                direct_sum(cone(ChainMap.identity(tate.modules["B"])), tate.modules["M"])))
    return out


def recheck_section(N, sigma, diag):
    """sigma is a chain map N -> G with pi sigma = id exactly."""
    G, pi = diag.base_change(N)
    assert composite_is_identity(pi, ChainMap(N, G, 0, sigma.entries), {})


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_carried_verdicts_equal_the_direct_route(backend):
    reduced = 0
    for alg, where, N in cases(backend):
        diag = Diagonal(alg)
        report = naive_lift_battery(N, diag)
        direct = direct_verdicts(N, Diagonal(alg), report.ar1.detail["iii_holds"], report.bound)
        for k in ("i", "ii", "iii", "ix"):
            assert report.verdicts[k] == direct[k], (where, k)
        if direct["nil_power"] is not None:
            assert report.notes["iii"] == f"power {direct['nil_power']} null-homotopic", where
        model = diag.minimal(N)
        reduced += model.module is not N
        # the section, every witness and the summand witness pass their rechecks
        sigma = splitting_search(N, diag)
        if sigma is not None:
            recheck_section(N, sigma, diag)
        oracle = Diagonal(alg)
        for ell in range(1, report.bound + 1):
            chi = chi_power(N, diag, ell)
            wit = model.null_homotopy(chi, diag.hom)
            assert (wit is None) == (direct_chi_witness(N, oracle, ell) is None), (where, ell)
            if wit is not None:
                assert wit.source is N and wit.boundary().sub(chi).is_zero(), (where, ell)
        if report.verdicts["ix"]:
            assert summand_witness(N, sigma, *diag.base_change(N), model).recheck(), where
    # cone_id, summand, tate2/M and the five sums reduce
    assert reduced == 8


def corrupted(diag, N):
    """diag with N's retraction h doubled in its entry on the last
    generator: a Diagonal whose memo holds the corrupted model."""
    model = diag.minimal(N)
    key = max(model.h, key=lambda k: (k[1], k[0]))
    bad = replace(model, h={**model.h, key: model.h[key].scale(N.algebra.field.from_int(2))})
    diag._memo_minimal[N] = bad
    return diag


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_corrupted_retraction_fails_the_recheck_on_n(backend):
    """The cone of the identity of two_step is contractible, so N' = 0 and
    every witness is read off h alone: doubling one entry of h leaves a
    witness and a section that are wrong on N, and each recheck raises,
    naming N's generators and the space."""
    ext = build_corpus(CONFIGS[backend])["exterior"]
    N = cone(ChainMap.identity(ext.modules["two_step"]))
    assert Diagonal(ext.algebra).minimal(N).module.n_gens == 0
    assert omega_is_zero(N, Diagonal(ext.algebra)) is not None
    names = r"Hom space from generators \[c\.e0:0, s\.e0:1, c\.e1:2, s\.e1:3\] into "
    with pytest.raises(DimensionMismatch,
                       match="witness carried from the minimal model failed its "
                             "substitution recheck in the " + names):
        omega_is_zero(N, corrupted(Diagonal(ext.algebra), N))
    with pytest.raises(DimensionMismatch,
                       match="splitting failed the strict section recheck in the " + names):
        splitting_search(N, corrupted(Diagonal(ext.algebra), N))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_contractible_module_solves_no_system(backend, monkeypatch):
    """N' = 0 for cone_id: the section and the witnesses of verdicts i, ii
    and ix are read off h, and no Hom space is asked a solve."""
    ext = build_corpus(CONFIGS[backend])["exterior"]
    N = ext.modules["cone_id"]
    diag = Diagonal(ext.algebra)

    def refuse(*args):
        raise AssertionError("a system was solved")

    monkeypatch.setattr(SparseMatrix, "solve", refuse)
    monkeypatch.setattr(HomSpace, "null_homotopy", refuse)
    sigma = splitting_search(N, diag)
    recheck_section(N, sigma, diag)
    assert omega_is_zero(N, diag) is not None
    wit = summand_witness(N, sigma, *diag.base_change(N), diag.minimal(N))
    assert wit.recheck()
