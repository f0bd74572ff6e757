"""Graded-commutative DG algebras with exact arithmetic.

An algebra is presented by a base ring (a field k, or a monomial Artinian
quotient k[a]/(a^m) concentrated in degree 0) and an ordered list of graded
variables of positive degree, each odd variable squaring to zero.  Each
variable carries a differential expression in the base ring and strictly
earlier variables; the differential extends by the Leibniz rule
d(uv) = d(u)v + (-1)^{|u|} u d(v) and is validated to square to zero.

The distinguished subalgebra A is always the prefix of the variable list
(possibly empty, i.e. A = base ring), so B/A is concentrated in positive
degrees.

Monomials are exponent tuples (base-generator power first, then variables in
declaration order); within a fixed degree the basis is ordered by exponent
lex, which keeps every derived basis deterministic.

Even-degree variables are ordinary polynomial variables without divided
powers; over F_p this is faithful only for exponents below p.

Invariant: the terms dict of every element maps normal-form monomials to
nonzero canonical field values.  The public constructor
AlgebraElement(alg, terms) enforces it on a dict from outside by dropping
the zero values.  Arithmetic builds its results, which hold the invariant
by construction (the field kernels drop what cancels), through the internal
_element, which takes the dict as it is: no copy and no filter.  Each
operation gives the values, and the terms order, of the op-by-op
definitions through the field's add, mul and neg.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, mul

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import IllFormedPresentation, OwnerMismatch
from .memo import memo

Monomial = tuple  # exponents: slot 0 = base generator, slots 1.. = variables


@dataclass(frozen=True)
class BaseRing:
    """k (order None) or k[a]/(a^order) with |a| = 0 and d(a) = 0."""

    gen_name: str | None = None
    order: int | None = None

    def __post_init__(self):
        if (self.gen_name is None) != (self.order is None):
            raise IllFormedPresentation("base ring needs both generator name and order, or neither")
        if self.order is not None and self.order < 2:
            raise IllFormedPresentation("base quotient order must be >= 2")

    @property
    def is_field(self) -> bool:
        return self.order is None

    @property
    def rank(self) -> int:
        """k-dimension of the base ring."""
        return 1 if self.is_field else self.order

    def describe(self) -> str:
        return "k" if self.is_field else f"k[{self.gen_name}]/({self.gen_name}^{self.order})"


class DGAlgebra:
    """A validated graded-commutative DG algebra presentation."""

    def __init__(self, base: BaseRing, var_names, var_degrees, n_A: int,
                 config: EngineConfig):
        self.base = base
        self.var_names = tuple(var_names)
        self.var_degrees = tuple(var_degrees)
        self.n_A = n_A
        self.config = config
        self.field = config.field
        self.var_diffs: list[AlgebraElement | None] = [None] * len(self.var_names)
        if len(set(self.var_names)) != len(self.var_names):
            raise IllFormedPresentation("duplicate variable names")
        if self.base.gen_name in self.var_names:
            raise IllFormedPresentation("variable clashes with base generator name")
        for name, deg in zip(self.var_names, self.var_degrees):
            if deg < 1:
                raise IllFormedPresentation(f"variable {name} has degree {deg} < 1")
        if not (0 <= n_A <= len(self.var_names)):
            raise IllFormedPresentation("A-prefix size out of range")
        # monomial slots of the odd variables, last variable first
        self._odd_slots = tuple(1 + j for j in reversed(range(self.nvars))
                                if self.var_degrees[j] % 2 == 1)

    # ----- monomials ------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def unit_mono(self) -> Monomial:
        return (0,) * (1 + self.nvars)

    @memo
    def mono_degree(self, u: Monomial) -> int:
        return sum(map(mul, u[1:], self.var_degrees))

    def mono_is_unit(self, u: Monomial) -> bool:
        return not any(u)

    def mono_in_A(self, u: Monomial) -> bool:
        return not any(u[1 + self.n_A:])

    def mono_split_A(self, u: Monomial):
        """Split u = a * m with a in A and m in the non-A variables (no sign:
        the normal form lists A-variables first)."""
        a = u[:1 + self.n_A] + (0,) * (self.nvars - self.n_A)
        m = (0,) * (1 + self.n_A) + u[1 + self.n_A:]
        return a, m

    def mono_mul(self, u: Monomial, v: Monomial):
        """(sign, monomial) or (0, None); Koszul sign from odd-odd swaps."""
        order = self.base.order
        if order is not None and u[0] + v[0] >= order:
            return 0, None
        # count odd factors of v hopping over later odd factors of u
        swaps = later = 0
        for s in self._odd_slots:
            if v[s]:
                if u[s]:
                    return 0, None  # odd square
                swaps += later
            later += u[s]
        return (-1 if swaps & 1 else 1), tuple(map(add, u, v))

    @memo
    def monomials(self, d: int) -> tuple:
        """The exact k-basis of the degree-d component, exponent-lex ordered."""
        if d < 0:
            return ()
        out = []
        degs = self.var_degrees
        nb = self.base.rank

        def rec(i, rem, acc):
            if i == len(degs):
                if rem == 0:
                    for b in range(nb):
                        out.append((b,) + tuple(acc))
                return
            top = 1 if degs[i] % 2 == 1 else rem // degs[i]
            for e in range(top + 1):
                if e * degs[i] <= rem:
                    rec(i + 1, rem - e * degs[i], acc + [e])

        rec(0, d, [])
        out.sort()
        return tuple(out)

    @memo
    def _mono_positions(self, d: int) -> dict:
        return {u: k for k, u in enumerate(self.monomials(d))}

    def mono_index(self, d: int, u: Monomial) -> int:
        return self._mono_positions(d)[u]

    @memo
    def nonA_monomials(self, d: int) -> tuple:
        """Monomials in the non-A variables only (the free A-basis of B)."""
        return tuple(u for u in self.monomials(d)
                     if u[0] == 0 and all(e == 0 for e in u[1:1 + self.n_A]))

    def mono_str(self, u: Monomial) -> str:
        parts = []
        if u[0]:
            g = self.base.gen_name
            parts.append(g if u[0] == 1 else f"{g}^{u[0]}")
        for name, e in zip(self.var_names, u[1:]):
            if e:
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # ----- elements -------------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return _element(self, {})

    def one(self) -> "AlgebraElement":
        return _element(self, {self.unit_mono(): self.field.one})

    def from_mono(self, u: Monomial, coeff=None) -> "AlgebraElement":
        c = self.field.one if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return _element(self, {u: c})

    def gen(self, name: str) -> "AlgebraElement":
        if name == self.base.gen_name:
            u = list(self.unit_mono())
            u[0] = 1
            return self.from_mono(tuple(u))
        if name not in self.var_names:
            raise IllFormedPresentation(f"unknown generator {name!r}")
        i = self.var_names.index(name)
        u = list(self.unit_mono())
        u[1 + i] = 1
        return self.from_mono(tuple(u))

    # ----- differential ---------------------------------------------------

    def _attach_diff(self, i: int, elem: "AlgebraElement") -> None:
        name = self.var_names[i]
        want = self.var_degrees[i] - 1
        if not elem.is_zero():
            if not elem.is_homogeneous():
                raise IllFormedPresentation(f"d({name}) is not homogeneous")
            if elem.degree() != want:
                raise IllFormedPresentation(
                    f"d({name}) has degree {elem.degree()}, expected {want}")
            for u in elem.terms:
                if any(u[1 + j] for j in range(i, self.nvars)):
                    raise IllFormedPresentation(
                        f"d({name}) involves {name} or a later variable")
        self.var_diffs[i] = elem

    def _validate(self) -> None:
        for i, name in enumerate(self.var_names):
            dd = self.var_diffs[i].differentiate()
            if not dd.is_zero():
                raise IllFormedPresentation(f"d² != 0 on variable {name}: d(d{name}) = {dd}")

    @memo
    def diff_mono(self, u: Monomial) -> "AlgebraElement":
        """d(u) by the Leibniz rule across the ordered factors of u."""
        f = self.field
        total = self.zero()
        prefix_deg = 0  # base generator has degree 0
        for i in range(self.nvars):
            e = u[1 + i]
            if e == 0:
                continue
            dxi = self.var_diffs[i]
            deg_i = self.var_degrees[i]
            if not dxi.is_zero():
                # d(x^e) = e x^{e-1} dx (even x); dx for odd x (e = 1)
                prefix = list(u[:1 + i]) + [0] * (self.nvars - i)
                suffix = [0] * (1 + i) + list(u[1 + i:])
                suffix[1 + i] = 0
                mid_exp = list(self.unit_mono())
                mid_exp[1 + i] = e - 1
                scale = f.from_int(e)
                piece = self.from_mono(tuple(prefix)) * dxi
                if e > 1:
                    piece = piece * self.from_mono(tuple(mid_exp))
                piece = piece * self.from_mono(tuple(suffix))
                sign = -1 if prefix_deg % 2 else 1
                coeff = f.mul(f.from_int(sign), scale)
                total = total + piece.scale(coeff)
            prefix_deg += e * deg_i
        return total

    @memo
    def carrier(self):
        """B as a DG bimodule over itself, shared by every carrier over B."""
        from .carriers import AlgebraCarrier
        return AlgebraCarrier(self)

    def describe(self) -> str:
        vs = ", ".join(f"{n}:{d}" for n, d in zip(self.var_names, self.var_degrees))
        return f"{self.base.describe()}<{vs}> (A = first {self.n_A} vars)"


class AlgebraElement:
    """Exact-coefficient combination of normal-form monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: DGAlgebra, terms: dict):
        self.algebra = algebra
        f = algebra.field
        self.terms = {u: c for u, c in terms.items() if not f.is_zero(c)}

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.algebra.mono_degree(u) for u in self.terms}
        return len(degs) <= 1

    def degree(self):
        """DG degree of a homogeneous element; None for zero."""
        degs = {self.algebra.mono_degree(u) for u in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def _check_owner(self, other):
        if self.algebra is not other.algebra:
            raise OwnerMismatch("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_owner(other)
        f = self.algebra.field
        out = dict(self.terms)
        f.axpy(out, f.one, other.terms)
        return _element(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.neg()

    def neg(self) -> "AlgebraElement":
        f = self.algebra.field
        return _element(self.algebra, f.scale(f.neg(f.one), self.terms))

    def scale(self, c) -> "AlgebraElement":
        """c times this element; c a field value (the zero element for 0)."""
        return _element(self.algebra, self.algebra.field.scale(c, self.terms))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """One row {u*v: +-c_v} per term c_u u of this element, added to
        the product once as c_u times the row.  For a fixed u the products
        u*v are distinct monomials, so the row adds its terms in the order
        of the term-by-term definition."""
        self._check_owner(other)
        alg = self.algebra
        f = alg.field
        mono_mul = alg.mono_mul
        neg = f.neg
        axpy = f.axpy
        right = other.terms.items()
        out: dict = {}
        for u, cu in self.terms.items():
            row = {}
            for v, cv in right:
                sgn, w = mono_mul(u, v)
                if w is not None:
                    row[w] = cv if sgn > 0 else neg(cv)
            if row:
                axpy(out, cu, row)
        return _element(alg, out)

    def differentiate(self) -> "AlgebraElement":
        alg = self.algebra
        axpy = alg.field.axpy
        out: dict = {}
        for u, c in self.terms.items():
            axpy(out, c, alg.diff_mono(u).terms)
        return _element(alg, out)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        f = alg.field
        bits = []
        for u in sorted(self.terms):
            c = self.terms[u]
            cs = f.to_str(c)
            ms = alg.mono_str(u)
            if ms == "1":
                bits.append(cs)
            elif cs == "1":
                bits.append(ms)
            else:
                bits.append(f"{cs}*{ms}")
        return " + ".join(bits)


def _element(algebra: DGAlgebra, terms: dict) -> AlgebraElement:
    """The element with this terms dict, taken as it is: every value must
    already be a nonzero canonical field value (see the module docstring)."""
    el = object.__new__(AlgebraElement)
    el.algebra = algebra
    el.terms = terms
    return el


# ----- building and parsing ----------------------------------------------


def build_algebra(base: BaseRing, variables, n_A: int = 0,
                  config: EngineConfig = DEFAULT_CONFIG) -> DGAlgebra:
    """Build and validate an algebra.

    variables: list of (name, degree, differential) where the differential is
    an expression string over the base generator and strictly earlier
    variables ("0" for zero).
    """
    names = [v[0] for v in variables]
    degrees = [v[1] for v in variables]
    alg = DGAlgebra(base, names, degrees, n_A, config)
    for i, (_, _, dexpr) in enumerate(variables):
        if isinstance(dexpr, str):
            try:
                elem = parse_element(alg, dexpr, allow_vars=names[:i])
            except ValueError as exc:
                raise IllFormedPresentation(f"d({names[i]}): {exc}")
        elif dexpr is None:
            elem = alg.zero()
        else:
            elem = dexpr
        alg._attach_diff(i, elem)
    alg._validate()
    return alg


# Whitespace, then a word (a run of str.isalnum() characters and "_"), an
# operator, or any other character.  On str patterns \s is str.isspace() and
# \w is str.isalnum() or "_", the classes of the grammar.
_TOKEN = re.compile(r"\s*(?:(\w+)|([-+*/^()])|(\S))")


class _Tokens:
    """The tokens of an expression: ("int", digits), ("name", text), and
    (op, op) for each operator.  An int is a run of str.isdigit() characters
    and a name starts with a letter or "_"; a word that is neither (a digit
    run followed by letters, or a numeric character such as "½") splits at
    its first non-digit."""

    def __init__(self, text: str):
        toks = self.toks = []
        for word, op, other in _TOKEN.findall(text):
            if op:
                toks.append((op, op))
            elif other:
                raise ValueError(f"unexpected character {other!r} in expression")
            elif word[0].isalpha() or word[0] == "_":
                toks.append(("name", word))
            elif word.isdigit():
                toks.append(("int", word))
            else:
                k = next(k for k, ch in enumerate(word) if not ch.isdigit())
                if k:
                    toks.append(("int", word[:k]))
                if not (word[k].isalpha() or word[k] == "_"):
                    raise ValueError(f"unexpected character {word[k]!r} in expression")
                toks.append(("name", word[k:]))
        self.pos = 0

    def peek(self):
        try:
            return self.toks[self.pos]
        except IndexError:
            return None, None

    def take(self, kind=None):
        t = self.peek()
        if kind is not None and t[0] != kind:
            raise ValueError(f"expected {kind}, found {t[1]!r}")
        self.pos += 1
        return t


def parse_element(alg: DGAlgebra, text: str, allow_vars=None) -> AlgebraElement:
    """Parse an element expression: +, -, *, ^, integer or p/q coefficients,
    parentheses, the base generator, and variable names."""
    toks = _Tokens(text)
    allowed = set(allow_vars) if allow_vars is not None else set(alg.var_names)

    def atom() -> AlgebraElement:
        kind, val = toks.peek()
        if kind == "int":
            toks.take()
            if toks.peek()[0] == "/":
                toks.take()
                _, den = toks.take("int")
                return alg.one().scale(alg.field.from_fraction(int(val), int(den)))
            return alg.one().scale(alg.field.from_int(int(val)))
        if kind == "name":
            toks.take()
            if val != alg.base.gen_name and val not in allowed:
                raise ValueError(f"name {val!r} not allowed here")
            return alg.gen(val)
        if kind == "(":
            toks.take()
            e = expr()
            toks.take(")")
            return e
        raise ValueError(f"unexpected token {val!r}")

    def factor() -> AlgebraElement:
        e = atom()
        while toks.peek()[0] == "^":
            toks.take()
            _, n = toks.take("int")
            out = alg.one()
            for _ in range(int(n)):
                out = out * e
            e = out
        return e

    def term() -> AlgebraElement:
        e = factor()
        while toks.peek()[0] == "*":
            toks.take()
            e = e * factor()
        return e

    def expr() -> AlgebraElement:
        neg = False
        if toks.peek()[0] == "-":
            toks.take()
            neg = True
        e = term()
        if neg:
            e = e.neg()
        while toks.peek()[0] in ("+", "-"):
            op, _ = toks.take()
            t = term()
            e = e + (t.neg() if op == "-" else t)
        return e

    out = expr()
    if toks.peek()[0] is not None:
        raise ValueError(f"trailing input at {toks.peek()[1]!r}")
    return out
