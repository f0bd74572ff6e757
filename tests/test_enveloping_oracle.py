"""The operators of B (x)_A B against the pair-by-pair oracle.

EnvelopingCarrier's differential and both actions are one builder on B's
own matrices.  On every corpus algebra (tate2 has a nonzero differential
and an even variable, prefix has A != k), on the exterior algebra on five
odd generators at the default cap, and on tate2 over its prefix A =
k[q]/(q^2)<X> (a nonzero differential that crosses from B/A into A), on
both fields, each must equal enveloping_oracle's matrix in every degree
within the cap, the actions for every monomial of B whose image degree is
within the cap too.  The enveloping route's core, which applies the
differential and sigma to vectors, must equal core_product's product of
full matrices for every corpus module.
"""

import pytest
from enveloping_oracle import (core_product, enveloping_diff, enveloping_left_act,
                               enveloping_right_act)

from dglift.algebra import BaseRing, build_algebra
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.instances import build_corpus
from dglift.obstruction import EnvelopingRouteTower
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

FIELDS = {"Q": RATIONALS, "Fp": PrimeField(DEFAULT_PRIME)}


def algebras(backend):
    """(name, algebra): the corpus with its own caps, then ext5 and tate2
    over its one-variable prefix at the default cap."""
    config = EngineConfig(field=FIELDS[backend])
    out = [(name, inst.algebra) for name, inst in build_corpus(config).items()]
    for name, base, gens, n_A in (
            ("ext5", BaseRing(), [(f"y{i}", 1, "0") for i in range(5)], 0),
            ("tate2_A1", BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 1)):
        out.append((name, build_algebra(base, gens, n_A, config)))
    return out


def same(got, want):
    return (got.nrows, got.ncols, got.columns()) == (want.nrows, want.ncols, want.columns())


@pytest.mark.parametrize("backend", list(FIELDS))
def test_the_enveloping_operators_are_the_pair_by_pair_ones(backend):
    checked = {"diff": 0, "left_act": 0, "right_act": 0}
    names = set()
    for name, alg in algebras(backend):
        names.add(name)
        env = Diagonal(alg).env
        cap = alg.config.max_degree
        for d in range(cap + 1):
            assert same(env.diff(d), enveloping_diff(env, d)), (name, d)
            checked["diff"] += not env.diff(d).is_zero()
            for e in range(cap - d + 1):
                for mono in alg.monomials(e):
                    for act, oracle in ((env.left_act, enveloping_left_act),
                                        (env.right_act, enveloping_right_act)):
                        got = act(mono, d)
                        assert same(got, oracle(env, mono, d)), (name, d, act.__name__, mono)
                        checked[act.__name__] += not got.is_zero()
    assert {"tate2", "prefix"} <= names
    assert min(checked.values()) > 20, checked


@pytest.mark.parametrize("backend", list(FIELDS))
def test_a_zero_differential_visits_no_pair(backend, monkeypatch):
    """On the exterior algebra B's differential has no nonzero column, so
    the enveloping differential is the zero matrix and no pair is reduced."""
    alg = build_algebra(BaseRing(), [(f"y{i}", 1, "0") for i in range(3)], 0,
                        EngineConfig(field=FIELDS[backend]))
    env = Diagonal(alg).env

    def refused(*args):
        raise AssertionError("pair_vector called")

    monkeypatch.setattr(env, "pair_vector", refused)
    for d in range(5):
        got = env.diff(d)
        assert got.is_zero() and (got.nrows, got.ncols) == (env.dim(d - 1), env.dim(d))


@pytest.mark.parametrize("backend", list(FIELDS))
def test_the_enveloping_core_is_the_product_of_full_matrices(backend):
    """core_matrix(d) equals sigma . d . rho as full matrices, for every
    corpus module and every degree from its lowest generator degree to one
    past its highest."""
    nonzero = 0
    for name, inst in build_corpus(EngineConfig(field=FIELDS[backend])).items():
        for mname, N in inst.modules.items():
            route = EnvelopingRouteTower(N, inst.diag)
            for d in range(N.min_degree, N.max_degree + 2):
                got = route.core_matrix(d)
                assert same(got, core_product(route, d)), (name, mname, d)
                nonzero += not got.is_zero()
    assert nonzero > 10, nonzero
