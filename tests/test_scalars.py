"""The rational backend against plain Fraction arithmetic, and its canonical
representation: a value is an int when integral and a Fraction otherwise.
The prime-field backend against the `% p` definitions, on canonical residues.
The fused vector kernels axpy and scale of both against their op-by-op
definitions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglift.linalg import Echelon
from dglift.scalars import DEFAULT_PRIME, FALLBACK_PRIME, RATIONALS, PrimeField

Q = RATIONALS


def canonical(x):
    return x.numerator if x.denominator == 1 else x


def assert_canonical(x):
    assert type(x) in (int, Fraction), type(x)
    if type(x) is Fraction:
        assert x.denominator != 1, x


values = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50).map(canonical),
    # integral results from non-integral operands: k/2 + 1/2, 2 * 1/2, ...
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3)]),
)
nonzero = values.filter(lambda x: x != 0)


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_binary_operations_match_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb),
                      (Q.mul(a, b), fa * fb)):
        assert got == want
        assert_canonical(got)


@settings(max_examples=300, deadline=None)
@given(values, nonzero)
def test_division_matches_fraction_arithmetic(a, b):
    for got, want in ((Q.div(a, b), Fraction(a) / Fraction(b)),
                      (Q.inv(b), 1 / Fraction(b))):
        assert got == want
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(values)
def test_unary_operations_match_fraction_arithmetic(a):
    fa = Fraction(a)
    assert Q.neg(a) == -fa
    assert_canonical(Q.neg(a))
    assert Q.is_zero(a) == (fa == 0)
    assert Q.to_str(a) == str(fa)
    assert hash(a) == hash(fa)
    assert Q.cost(a) == fa.numerator.bit_length() + fa.denominator.bit_length()


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9).filter(bool))
def test_constructors_are_canonical(n, d):
    assert Q.from_int(n) == n
    assert type(Q.from_int(n)) is int
    got = Q.from_fraction(n, d)
    assert got == Fraction(n, d)
    assert_canonical(got)


def test_constants_are_ints():
    assert type(Q.zero) is int and Q.zero == 0
    assert type(Q.one) is int and Q.one == 1


def test_units_are_their_own_inverses():
    for a in (1, -1):
        assert Q.inv(a) is a
    assert Q.inv(2) == Fraction(1, 2) and Q.inv(Fraction(-1, 3)) == -3


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)
    with pytest.raises(ZeroDivisionError):
        Q.from_fraction(1, 0)
    for x in (0, 1, -7, Fraction(2, 3)):
        with pytest.raises(ZeroDivisionError):
            Q.div(x, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_same_from_int_and_fraction_rows(data):
    ncols = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), st.integers(-4, 4).filter(bool),
                        max_size=ncols),
        max_size=8))
    as_int, as_frac = Echelon(Q, ncols), Echelon(Q, ncols)
    for r in rows:
        as_int.add_row(r)
        as_frac.add_row({j: Fraction(c) for j, c in r.items()})
    assert as_int.pivots == as_frac.pivots
    assert as_int.rows == as_frac.rows
    assert as_int.kernel_basis() == as_frac.kernel_basis()
    for ech in (as_int, as_frac):
        for row in ech.rows + ech.kernel_basis():
            for c in row.values():
                assert_canonical(c)


# ----- F_p: values are canonical residues in [0, p) ----------------------------

FIELDS = [PrimeField(p) for p in (2, 3, 101, DEFAULT_PRIME)]


@st.composite
def residues(draw, nonzero_only=False):
    """(field, a, b) with a, b canonical residues; edge values drawn often."""
    F = draw(st.sampled_from(FIELDS))
    lo = 1 if nonzero_only else 0
    res = st.one_of(st.integers(lo, F.p - 1),
                    st.sampled_from(sorted({lo, 1, F.p - 1, F.p // 2})))
    return F, draw(res), draw(res)


def assert_residue(F, x):
    assert type(x) is int and 0 <= x < F.p, (F, x)


@settings(max_examples=300, deadline=None)
@given(residues())
def test_prime_field_operations_match_mod_p(case):
    F, a, b = case
    p = F.p
    for got, want in ((F.add(a, b), (a + b) % p), (F.sub(a, b), (a - b) % p),
                      (F.mul(a, b), (a * b) % p), (F.neg(a), (-a) % p)):
        assert got == want
        assert_residue(F, got)
    assert F.is_zero(a) == (a % p == 0)


@settings(max_examples=300, deadline=None)
@given(residues(nonzero_only=True))
def test_prime_field_inverse_and_division_match_mod_p(case):
    F, a, b = case
    p = F.p
    assert F.inv(a) == pow(a, p - 2, p)
    assert F.mul(a, F.inv(a)) == 1
    assert F.div(b, a) == b * pow(a, p - 2, p) % p
    for x in (F.inv(a), F.div(b, a)):
        assert_residue(F, x)


@given(st.sampled_from(FIELDS), st.integers(-10**12, 10**12),
       st.integers(-10**12, 10**12))
def test_prime_field_constructors_reduce(F, n, d):
    assert F.from_int(n) == n % F.p
    assert_residue(F, F.from_int(n))
    if d % F.p:
        got = F.from_fraction(n, d)
        assert_residue(F, got)
        assert got * (d % F.p) % F.p == n % F.p


def test_default_prime_field_is_built_once_and_explicit_primes_are_checked():
    from dglift.scalars import field_from_spec
    F = field_from_spec("Fp")
    assert F is field_from_spec("Fp")
    assert F.p == DEFAULT_PRIME
    assert field_from_spec(f"Fp:{FALLBACK_PRIME}").p == FALLBACK_PRIME
    with pytest.raises(ValueError, match="4 is not prime"):
        field_from_spec("Fp:4")


def test_prime_field_zero_raises():
    for F in FIELDS:
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F.div(1, 0)
        with pytest.raises(ZeroDivisionError):
            F.from_fraction(1, F.p)


# ----- fused kernels: axpy and scale -----------------------------------------


def axpy_by_ops(F, out, c, u):
    """out + c*u through add, mul and is_zero, entry by entry."""
    out = dict(out)
    if F.is_zero(c):
        return out
    for j, x in u.items():
        s = F.add(out.get(j, F.zero), F.mul(c, x))
        if F.is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s
    return out


def scale_by_ops(F, c, u):
    return {j: F.mul(c, x) for j, x in u.items() if not F.is_zero(F.mul(c, x))}


# Q scalars in any form an operand may take: canonical values, and integral
# Fractions such as Fraction(1), which the kernels must not pass through
q_scalars = st.one_of(values, st.integers(-5, 5).map(Fraction))
KERNEL_FIELDS = [Q] + FIELDS


@st.composite
def kernel_case(draw):
    """(field, out, c, u): sparse vectors on columns 0..7, out canonical as
    every stored vector is, u and c in any operand form; some entries of out
    are -c*u there, so that they cancel."""
    F = draw(st.sampled_from(KERNEL_FIELDS))
    if F is Q:
        scalar, canon = q_scalars, values
    else:
        scalar = canon = st.one_of(st.integers(0, F.p - 1),
                                   st.sampled_from([0, 1, F.p - 1]))
    cols = st.integers(0, 7)
    u = {j: x for j, x in draw(st.dictionaries(cols, scalar, max_size=8)).items() if x}
    out = {j: x for j, x in draw(st.dictionaries(cols, canon, max_size=8)).items() if x}
    c = draw(scalar)
    if u and not F.is_zero(c):
        for j in draw(st.lists(st.sampled_from(sorted(u)), unique=True)):
            out[j] = F.neg(F.mul(c, u[j]))
    return F, out, c, u


def assert_stored_canonical(F, vec):
    for x in vec.values():
        assert not F.is_zero(x)
        if F is Q:
            assert_canonical(x)
        else:
            assert_residue(F, x)


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_axpy_is_the_op_by_op_definition(case):
    F, out, c, u = case
    want = axpy_by_ops(F, out, c, u)
    got = dict(out)
    F.axpy(got, c, u)
    # same entries in the same key order, cancelled entries dropped
    assert list(got.items()) == list(want.items())
    assert_stored_canonical(F, got)


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_scale_is_the_op_by_op_definition(case):
    F, _, c, u = case
    got = F.scale(c, u)
    assert list(got.items()) == list(scale_by_ops(F, c, u).items())
    assert got is not u
    assert_stored_canonical(F, got)


def test_q_kernels_canonicalize_integral_fractions():
    u = {0: Fraction(1), 3: Fraction(4, 2), 5: Fraction(1, 2)}
    for got in (Q.scale(1, u), Q.scale(Fraction(1), u)):
        assert got == {0: 1, 3: 2, 5: Fraction(1, 2)}
        assert [type(x) for x in got.values()] == [int, int, Fraction]
    out = {0: Fraction(1, 2), 5: Fraction(-1, 2)}
    Q.axpy(out, 1, u)
    assert out == {0: Fraction(3, 2), 3: 2} and type(out[3]) is int
    assert Q.scale(0, u) == {}
