"""Algebra layer: normal forms, signs, the Leibniz differential, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglift.algebra import BaseRing, build_algebra, parse_element
from dglift.config import EngineConfig
from dglift.errors import BadExpression, IllFormedPresentation
from dglift.scalars import RATIONALS, field_from_spec

from conftest import _random_homogeneous


def ext_algebra(config):
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


def tate2_algebra(config):
    return build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)


def brute_force_monomial_count(degrees, base_rank, d):
    """Independent enumerator: count exponent tuples of total degree d."""
    count = 0
    ranges = []
    for deg in degrees:
        top = 1 if deg % 2 == 1 else (d // deg if deg else 0)
        ranges.append(range(top + 1))
    for exps in itertools.product(*ranges):
        if sum(e * deg for e, deg in zip(exps, degrees)) == d:
            count += 1
    return count * base_rank


def test_trivial_algebra(config):
    alg = build_algebra(BaseRing(), [], 0, config)
    assert [len(alg.monomials(d)) for d in (0, 1)] == [1, 0]


def test_exterior_basis(config):
    alg = ext_algebra(config)
    assert [alg.mono_str(u) for u in alg.monomials(0)] == ["1"]
    assert [alg.mono_str(u) for u in alg.monomials(1)] == ["y"]
    assert alg.monomials(2) == ()


def test_quotient_base_basis(config):
    alg = build_algebra(BaseRing("q", 2), [], 0, config)
    assert [alg.mono_str(u) for u in alg.monomials(0)] == ["1", "q"]


def test_two_variable_degree_three_basis(config):
    # B = k<X:1, Y:2>, degree 3 basis is {XY}
    alg = build_algebra(BaseRing(), [("X", 1, "0"), ("Y", 2, "0")], 0, config)
    assert [alg.mono_str(u) for u in alg.monomials(3)] == ["X*Y"]


@pytest.mark.parametrize("d", range(0, 8))
def test_basis_counts_match_brute_force(config, d):
    alg = tate2_algebra(config)
    assert len(alg.monomials(d)) == brute_force_monomial_count(
        alg.var_degrees, alg.base.rank, d)


def test_odd_square_is_zero(config):
    alg = ext_algebra(config)
    y = alg.gen("y")
    assert (y * y).is_zero()


def test_even_factor_commutes_without_sign(config):
    alg = build_algebra(BaseRing(), [("X", 1, "0"), ("Y", 2, "0")], 0, config)
    X, Y = alg.gen("X"), alg.gen("Y")
    assert X * Y == Y * X


def test_odd_odd_anticommute(config):
    alg = build_algebra(BaseRing(), [("x", 1, "0"), ("z", 1, "0")], 0, config)
    x, z = alg.gen("x"), alg.gen("z")
    assert x * z == (z * x).neg()


def test_unit_difference_product(config):
    alg = ext_algebra(config)
    y = alg.gen("y")
    assert (alg.one() + y) * (alg.one() - y) == alg.one()


def test_differential_of_unit(config):
    alg = tate2_algebra(config)
    assert alg.one().differentiate().is_zero()


def test_differential_qX(config):
    # d(qX) = q*q = 0 by Leibniz on the product q*X
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, config)
    q, X = alg.gen("q"), alg.gen("X")
    assert (q * X).differentiate().is_zero()
    assert X.differentiate() == q


def test_differential_XY_symbolic(config):
    # |X| = 1, |Y| = 2, dY = qX: d(XY) = qY - X(qX) = qY
    alg = tate2_algebra(config)
    q, X, Y = alg.gen("q"), alg.gen("X"), alg.gen("Y")
    assert (X * Y).differentiate() == q * Y


@pytest.mark.parametrize("spec, two", [("Q", 2), ("Fp:2", 0)])
def test_differential_of_an_even_square(spec, two):
    """d(Y^2) = 2 Y dY = 2 qXY for the even Y with dY = qX: the factor's
    coefficient e = 2 is 0 over F_2, where the square is a cycle."""
    alg = tate2_algebra(EngineConfig(field=field_from_spec(spec), max_degree=10))
    q, X, Y = alg.gen("q"), alg.gen("X"), alg.gen("Y")
    assert (Y * Y).differentiate() == (q * X * Y).scale(alg.field.from_int(two))


def test_element_equality_hash_repr_and_degree(config):
    """Equal elements built two ways hash equal and collapse in a set; the
    repr prints a scaled monomial as c*m and zero as 0, whose degree is
    None; a zero coefficient makes the zero element."""
    alg = ext_algebra(config)
    f, y = alg.field, alg.gen("y")
    (u,) = y.terms
    two, scaled = y + y, y.scale(f.from_int(2))
    assert two == scaled == alg.from_mono(u, f.from_int(2))
    assert hash(two) == hash(scaled) and len({two, scaled}) == 1
    assert repr(two) == "2*y" and repr(alg.zero()) == "0" and repr(y + alg.one()) == "1 + y"
    assert alg.from_mono(u, f.from_int(0)) == alg.zero()
    assert alg.zero().degree() is None and two.degree() == 1


def test_d_squared_validation_rejects(config):
    with pytest.raises(IllFormedPresentation):
        # dZ = X has degree 1 but d(X) = q != 0 makes d^2(Z) = q
        build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Z", 2, "X")], 0, config)


def test_wrong_degree_rejected(config):
    with pytest.raises(IllFormedPresentation):
        build_algebra(BaseRing(), [("y", 1, "0"), ("Z", 3, "y")], 0, config)


def test_later_variable_rejected(config):
    with pytest.raises(BadExpression, match=r"^d\(y\): name 'z' not allowed here$"):
        build_algebra(BaseRing(), [("y", 2, "z"), ("z", 1, "0")], 0, config)


@pytest.mark.parametrize("builder", [ext_algebra, tate2_algebra])
def test_identities_on_random_homogeneous_elements(config, builder):
    alg = builder(config)
    rng = random.Random(42)
    f = alg.field
    for _ in range(200):
        dx = rng.randint(0, 5)
        dy = rng.randint(0, 5 - dx if dx < 5 else 0)
        x = _random_homogeneous(alg, rng, dx)
        y = _random_homogeneous(alg, rng, dy)
        # d^2 = 0
        assert x.differentiate().differentiate().is_zero()
        # graded commutativity
        yx = y * x
        assert x * y == (yx if (dx * dy) % 2 == 0 else yx.neg())
        # Leibniz
        second = x * y.differentiate()
        assert (x * y).differentiate() == x.differentiate() * y + (
            second if dx % 2 == 0 else second.neg())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associativity_hypothesis(data):
    config = EngineConfig(field=RATIONALS, max_degree=10)
    alg = tate2_algebra(config)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    degs = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    x, y, z = (_random_homogeneous(alg, rng, d) for d in degs)
    assert (x * y) * z == x * (y * z)


def test_parse_element_roundtrip(config):
    alg = tate2_algebra(config)
    el = parse_element(alg, "2*q*X + Y^2 - 3*X*Y")
    q, X, Y = alg.gen("q"), alg.gen("X"), alg.gen("Y")
    two = alg.one().scale(alg.field.from_int(2))
    three = alg.one().scale(alg.field.from_int(3))
    assert el == two * q * X + Y * Y - three * X * Y


def test_parse_fraction_coefficient():
    config = EngineConfig(field=RATIONALS, max_degree=8)
    alg = ext_algebra(config)
    el = parse_element(alg, "1/2*y")
    from fractions import Fraction
    assert el.terms[(0, 1)] == Fraction(1, 2)


def test_nonA_monomial_split(config):
    alg = build_algebra(BaseRing("q", 2), [("u", 1, "0"), ("X", 1, "0")], 1, config)
    # A = k[q]/(q^2)<u>; split qu X -> (qu) * (X)
    mono = (1, 1, 1)
    a, m = alg.mono_split_A(mono)
    assert alg.mono_str(a) == "q*u"
    assert alg.mono_str(m) == "X"
    assert alg.mono_split_A(a) == (a, alg.unit_mono()) and m in alg.nonA_monomials(1)
