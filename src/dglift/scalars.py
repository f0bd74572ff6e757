"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Every homological computation in the engine reduces to linear algebra over one
of these fields.  Values are plain hashable Python objects (Fraction or int) so
they can key dictionaries; the field object supplies the arithmetic.

On Q a value is an int when it is integral and a Fraction only otherwise.
Most coefficients stay integral (relation rows are +-1), and int arithmetic
skips Fraction's normalisation.  An int and the equal Fraction compare equal,
hash equal and print the same, so the choice never shows in any output.

Besides the scalar operations each field has three fused vector kernels on
sparse vectors (dicts of nonzero values): axpy(out, c, u) does out += c*u in
place, scale(c, u) returns c*u, and normalize(u, p) divides u by u[p] in
place, doing nothing to a vector that already leads with the canonical one.
They give exactly the values of the op-by-op definitions through add, mul
and is_zero, one operator expression per entry: entries that cancel are
dropped, and every value they store is canonical (on Q an int when
integral, even for a Fraction(1) operand; on F_p a residue in [0, p)).
A field has no pivot cost: linalg's sweep picks pivots by row index alone.
"""

from __future__ import annotations

import operator
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canon(x):
    """A Fraction as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """The field of exact rational numbers.

    Invariant: a value is an int when it is integral, and a Fraction (with
    denominator > 1) otherwise.  On such operands every operation returns
    such a value; division goes through Fraction, so none becomes a float.
    """

    name = "Q"

    zero = 0
    one = 1

    def from_int(self, n):
        return operator.index(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return _canon(Fraction(num, den))

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else _canon(s)

    def sub(self, a, b):
        s = a - b
        return s if type(s) is int else _canon(s)

    def mul(self, a, b):
        s = a * b
        return s if type(s) is int else _canon(s)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canon(Fraction(1, a))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return _canon(Fraction(a, b))

    def is_zero(self, a):
        return a == 0

    def axpy(self, out: dict, c, u: dict) -> None:
        """out += c*u in place."""
        if c == 0:
            return
        get = out.get
        for j, x in u.items():
            s = get(j, 0) + c * x
            if s:
                out[j] = s if type(s) is int else _canon(s)
            else:
                out.pop(j, None)

    def scale(self, c, u: dict) -> dict:
        """c*u as a new vector."""
        if c == 0:
            return {}
        return {j: s if type(s := c * x) is int else _canon(s) for j, x in u.items()}

    def normalize(self, u: dict, p) -> None:
        """u / u[p] in place.  With u[p] == 1 no value changes, but one that
        came in as an integral Fraction becomes its int."""
        c = u[p]
        if c == 1:
            for j, x in u.items():
                if type(x) is not int:
                    u[j] = _canon(x)
            return
        inv = self.inv(c)
        for j, x in u.items():
            s = inv * x
            u[j] = s if type(s) is int else _canon(s)

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """F_p for a prime p.

    Invariant: a value is an int in [0, p).  Values enter only through
    from_int and from_fraction, which reduce, and every operation returns a
    reduced value; so is_zero is a plain comparison, and add, sub and neg
    need at most one correction by p instead of a division.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def axpy(self, out: dict, c, u: dict) -> None:
        """out += c*u in place."""
        if c == 0:
            return
        p = self.p
        get = out.get
        for j, x in u.items():
            s = (get(j, 0) + c * x) % p
            if s:
                out[j] = s
            else:
                out.pop(j, None)

    def scale(self, c, u: dict) -> dict:
        """c*u as a new vector."""
        if c == 0:
            return {}
        p = self.p
        return {j: c * x % p for j, x in u.items()}

    def normalize(self, u: dict, p) -> None:
        """u / u[p] in place; nothing to do when u[p] is 1."""
        c = u[p]
        if c == 1:
            return
        inv, q = self.inv(c), self.p
        for j, x in u.items():
            u[j] = inv * x % q

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()

DEFAULT_PRIME = 2147483629

# built, and its primality checked, once: a field holds no state its use changes
DEFAULT_PRIME_FIELD = PrimeField(DEFAULT_PRIME)


def field_from_spec(spec: str):
    """Parse a backend spec: "Q", "Fp" (DEFAULT_PRIME) or "Fp:<prime>"; an
    explicit prime is a run of str.isdecimal() digits, as the instance
    grammar writes an integer (no sign, space or underscore), and is
    checked on every call."""
    if spec == "Q":
        return RATIONALS
    if spec == "Fp":
        return DEFAULT_PRIME_FIELD
    if spec.startswith("Fp:") and spec[3:].isdecimal():
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r}")
