"""Element arithmetic against the op-by-op definitions in algebra_oracle.

Every operation must give the oracle's values and the oracle's terms
order: reports and digests print terms dicts in insertion order, and on Q
an int and an equal Fraction print differently, so results are compared
by the repr of their terms lists.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_oracle as oracle
from dglift.algebra import AlgebraElement
from dglift.config import EngineConfig
from dglift.instances import BUILDERS, build_corpus
from dglift.scalars import DEFAULT_PRIME_FIELD, RATIONALS

BACKENDS = {"Q": RATIONALS, "Fp": DEFAULT_PRIME_FIELD}
MAX_DEGREE = 4


@cache
def corpus_algebras(backend: str) -> dict:
    corpus = build_corpus(EngineConfig(field=BACKENDS[backend]))
    return {name: inst.algebra for name, inst in corpus.items()}


def monomials(alg) -> list:
    return [u for d in range(MAX_DEGREE + 1) for u in alg.monomials(d)]


def coefficients(f):
    return st.builds(f.from_fraction, st.integers(-2, 2), st.integers(1, 2))


def element(data, alg) -> AlgebraElement:
    """Random terms in a random order, zero coefficients included: the
    public constructor drops those."""
    monos = data.draw(st.lists(st.sampled_from(monomials(alg)), unique=True, max_size=6))
    coeffs = data.draw(st.lists(coefficients(alg.field), min_size=len(monos),
                                max_size=len(monos)))
    return AlgebraElement(alg, dict(zip(monos, coeffs)))


def shown(terms: dict) -> str:
    return repr(list(terms.items()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_element_arithmetic_is_the_op_by_op_definition(data):
    backend = data.draw(st.sampled_from(sorted(BACKENDS)))
    alg = corpus_algebras(backend)[data.draw(st.sampled_from(sorted(BUILDERS)))]
    f = alg.field
    x, y = element(data, alg), element(data, alg)
    c = data.draw(coefficients(f))
    assert shown((x + y).terms) == shown(oracle.add(alg, x.terms, y.terms))
    assert shown((x - y).terms) == shown(oracle.sub(alg, x.terms, y.terms))
    assert shown((x * y).terms) == shown(oracle.mul(alg, x.terms, y.terms))
    assert shown(x.neg().terms) == shown(oracle.neg(alg, x.terms))
    assert shown(x.scale(c).terms) == shown(oracle.scale(alg, c, x.terms))
    assert x.scale(f.zero).terms == {}
    assert shown(x.differentiate().terms) == shown(oracle.differentiate(alg, x.terms))
    for u in x.terms:
        assert shown(alg.diff_mono(u).terms) == shown(oracle.diff_mono(alg, u))


def test_monomial_products_and_degrees_are_the_loop_definitions():
    for backend in BACKENDS:
        for name, alg in corpus_algebras(backend).items():
            monos = monomials(alg)
            for u in monos:
                assert alg.mono_degree(u) == oracle.mono_degree(alg, u), (name, u)
                for v in monos:
                    assert alg.mono_mul(u, v) == oracle.mono_mul(alg, u, v), (name, u, v)


def test_public_constructor_drops_zero_coefficients():
    for backend in BACKENDS:
        alg = corpus_algebras(backend)["tate2"]
        f = alg.field
        u, v, w = monomials(alg)[1:4]
        assert AlgebraElement(alg, {u: f.zero}).terms == {}
        el = AlgebraElement(alg, {w: f.one, u: f.zero, v: f.from_int(2)})
        assert list(el.terms.items()) == [(w, f.one), (v, f.from_int(2))]
