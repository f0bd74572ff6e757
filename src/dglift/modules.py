"""Semifree right DG modules with finite ordered bases, and chain maps.

A module is a finite ordered basis with degrees and a strictly lower
triangular differential matrix over the algebra: the coefficient of e_mu in
d(e_lambda) is stored at (mu, lambda) and must vanish unless mu < lambda.
Construction validates triangularity, entry degrees, and d^2 = 0 exactly.

Every product of matrices over B goes through one outer-product loop,
_add_outer: matrix_product feeds it each entry of its left factor against
the matching row of its right one, the d^2 check squares the differential
through matrix_product, and the minimal model's elimination adds its
updates through it.

A chain map of shift s is a degree-preserving map into the s-fold shift of
the target; the shift negates the target differential s times but leaves the
right action alone, so matrices over the algebra capture everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable

from .algebra import AlgebraElement, DGAlgebra, _repeated
from .carriers import SemifreeCarrier
from .errors import (CapExceeded, DegreeMismatch, DimensionMismatch, DSquaredNonzero,
                     NotTriangular, OwnerMismatch)
from .memo import memo

if TYPE_CHECKING:  # homotopy imports this module
    from .homotopy import CarrierMap, HomotopyWitness, HomSpace


class SemifreeModule:
    def __init__(self, algebra: DGAlgebra, names, degrees, diff: dict):
        self.algebra = algebra
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.min_degree = min(self.degrees, default=0)
        self.max_degree = max(self.degrees, default=0)
        if dup := _repeated(self.names):
            raise NotTriangular(f"duplicate basis name {dup!r}")
        self.diff = {k: v for k, v in diff.items() if not v.is_zero()}
        columns: dict[int, list] = {}
        for (mu, lam), el in sorted(self.diff.items()):
            columns.setdefault(lam, []).append((mu, el))
        self._columns = {lam: tuple(col) for lam, col in columns.items()}
        self._validate()

    # ----- basic data -----

    @property
    def n_gens(self) -> int:
        return len(self.names)

    def diff_column(self, lam: int):
        """((mu, coefficient), ...) for d(e_lam), by increasing mu."""
        return self._columns.get(lam, ())

    def _validate(self):
        alg = self.algebra
        for (mu, lam), el in self.diff.items():
            if not (0 <= mu < self.n_gens and 0 <= lam < self.n_gens):
                raise NotTriangular(f"entry index ({mu},{lam}) out of range")
            if mu >= lam:
                raise NotTriangular(
                    f"nonzero entry at ({self.names[mu]}, {self.names[lam]}) not strictly below the diagonal")
            if el.algebra is not alg:
                raise OwnerMismatch(f"differential entry ({self.names[mu]},{self.names[lam]}) "
                                    f"from a foreign algebra")
            want = self.degrees[lam] - 1 - self.degrees[mu]
            if not el.is_homogeneous() or el.degree() != want:
                raise DegreeMismatch(
                    f"entry ({self.names[mu]},{self.names[lam]}) must have degree {want}, got {el}")
        # d^2 = 0: the square of the matrix plus the signed d(b) terms,
        # named at the least column, then the least row, that does not vanish
        sq = matrix_product(self.diff, self.diff)
        for (mu, lam), b in self.diff.items():
            db = b.differentiate()
            term = db.neg() if self.degrees[mu] % 2 else db
            sq[mu, lam] = sq[mu, lam] + term if (mu, lam) in sq else term
        bad = [(lam, nu) for (nu, lam), el in sq.items() if not el.is_zero()]
        if bad:
            lam, nu = min(bad)
            raise DSquaredNonzero(
                f"d² != 0 on column {self.names[lam]} (row {self.names[nu]}): {sq[nu, lam]}")

    # ----- queries -----

    def basis_in_degree(self, d: int):
        """Ordered k-basis of the degree-d piece as (gen index, monomial)."""
        out = []
        for lam in range(self.n_gens):
            rem = d - self.degrees[lam]
            for u in self.algebra.monomials(rem):
                out.append((lam, u))
        return out

    @memo
    def carrier(self):
        return SemifreeCarrier(self)

    def describe(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"[{gens}]"

    def __repr__(self):
        return f"SemifreeModule({self.describe()})"


def make_module(algebra, basis, diff=None) -> SemifreeModule:
    """basis: list of (name, degree); diff: {(mu_name_or_idx, lam): element}."""
    names = [b[0] for b in basis]
    degrees = [b[1] for b in basis]
    dd = {}
    if diff:
        for (mu, lam), el in diff.items():
            mi = names.index(mu) if isinstance(mu, str) else mu
            li = names.index(lam) if isinstance(lam, str) else lam
            dd[(mi, li)] = el
    return SemifreeModule(algebra, names, degrees, dd)


def zero_module(algebra) -> SemifreeModule:
    return SemifreeModule(algebra, (), (), {})


def free_module(algebra, n: int, degree: int = 0, prefix: str = "f") -> SemifreeModule:
    return SemifreeModule(algebra, tuple(f"{prefix}{i}" for i in range(n)),
                          (degree,) * n, {})


def shift(M: SemifreeModule, i: int) -> SemifreeModule:
    """Degrees raised by i, differential entries scaled by (-1)^i."""
    if i == 0:
        return M
    diff = M.diff if i % 2 == 0 else {k: v.neg() for k, v in M.diff.items()}
    return SemifreeModule(M.algebra, M.names, tuple(d + i for d in M.degrees), dict(diff))


def direct_sum(*mods: SemifreeModule) -> SemifreeModule:
    alg = mods[0].algebra
    names, degrees, diff = [], [], {}
    off = 0
    for k, M in enumerate(mods):
        if M.algebra is not alg:
            raise OwnerMismatch("summands over different algebras: summand 0 over "
                                f"{alg.describe()}, summand {k} over {M.algebra.describe()}")
        names.extend(f"{n}.{k}" for n in M.names)
        degrees.extend(M.degrees)
        for (mu, lam), el in M.diff.items():
            diff[(mu + off, lam + off)] = el
        off += M.n_gens
    return SemifreeModule(alg, names, degrees, diff)


class ChainMap:
    """A degree-0 chain map source -> Sigma^shift target, as a matrix over B.

    Entry (mu, lam) is the coefficient of target basis element mu in the image
    of source basis element lam; nonzero entries are homogeneous of degree
    deg(e_lam) - shift - deg(e'_mu).  The chain condition
    d^{Sigma^s} f = f d (with d^{Sigma^s} = (-1)^s d) is validated exactly.
    """

    def __init__(self, source: SemifreeModule, target: SemifreeModule,
                 shift_: int, entries: dict, _validate: bool = True):
        self.source = source
        self.target = target
        self.shift = shift_
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        if _validate:
            self.validate()

    def validate(self):
        """Check the owners, the entry degrees and the chain condition; the
        condition is read once, as the chain defect of the map in the
        target carrier's coordinates, and the message names its least
        generator."""
        from .homotopy import chain_map_to_carrier
        src, tgt, s = self.source, self.target, self.shift
        alg = src.algebra
        if tgt.algebra is not alg:
            raise OwnerMismatch("chain map across different algebras: source over "
                                f"{alg.describe()}, target over {tgt.algebra.describe()}")
        for (mu, lam), el in self.entries.items():
            want = src.degrees[lam] - s - tgt.degrees[mu]
            if not el.is_homogeneous() or el.degree() != want:
                raise DegreeMismatch(
                    f"chain map entry ({mu},{lam}) must have degree {want}, got {el}")
        defect = chain_map_to_carrier(self).chain_defect()
        if defect:
            raise DegreeMismatch(chain_failure(src, s, min(defect)))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other (other: M -> N, self: N -> ...)."""
        if other.target is not self.source:
            raise OwnerMismatch("composition targets do not match")
        return ChainMap(other.source, self.target, self.shift + other.shift,
                        matrix_product(self.entries, other.entries))

    def add(self, other: "ChainMap") -> "ChainMap":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out[k] + v if k in out else v
        return ChainMap(self.source, self.target, self.shift, out)

    @classmethod
    def identity(cls, M: SemifreeModule) -> "ChainMap":
        one = M.algebra.one()
        return cls(M, M, 0, {(i, i): one for i in range(M.n_gens)}, _validate=False)

    def __repr__(self):
        return f"ChainMap({self.source.describe()} -> S^{self.shift} {self.target.describe()})"


def matrix_product(a: dict, b: dict) -> dict:
    """The product a b of two matrices over B given as {(row, col): element},
    with b grouped by row once and each entry of a fed to _add_outer."""
    rows: dict = {}
    for (k, lam), y in b.items():
        rows.setdefault(k, []).append((lam, y))
    out: dict = {}
    for (mu, k), x in a.items():
        _add_outer(out, [(mu, x)], rows.get(k, ()))
    return out


def chain_failure(source: SemifreeModule, shift_: int, lam: int) -> str:
    """The message for a shift-s map that fails the chain condition first on
    generator lam, naming the generator and the degree of the defect."""
    return (f"chain condition fails on generator {source.names[lam]}: "
            f"D f and f d differ in target degree {source.degrees[lam] - shift_ - 1}")


def graded_map_boundary(h_entries: dict, src: SemifreeModule, tgt: SemifreeModule,
                        s: int) -> dict:
    """delta_s h = d^{Sigma^s tgt} h + h d^src for a graded map h:
    src -> Sigma^{s-1} tgt given as a matrix over B.

    This is the Hom complex differential of homotopy.py, applied in the
    coordinates of tgt's carrier and read back as a shift-s map matrix.  A
    shift-s map f is a chain map exactly when its boundary at s + 1 is empty.
    """
    from .homotopy import cols_to_entries, delta_cols, entries_to_cols
    car = tgt.carrier()
    cols = entries_to_cols(h_entries, src, car, s - 1)
    return cols_to_entries(delta_cols(src, car, s, cols), src, car, s)


def composite_is_identity(x: ChainMap, y: ChainMap, h: dict) -> bool:
    """Whether x y = id + d h + h d on the source M of y, for chain maps
    y: M -> P and x: P -> M and a graded map h: M -> Sigma^{-1} M as a
    matrix over B (h = {} decides x y = id): every entry of
    x y - id - (d h + h d) must vanish, so zero entries count on neither side."""
    M = y.source
    rest = matrix_product(x.entries, y.entries)
    for k, v in chain(ChainMap.identity(M).entries.items(),
                      graded_map_boundary(h, M, M, 0).items()):
        rest[k] = rest[k] - v if k in rest else v.neg()
    return all(v.is_zero() for v in rest.values())


def cone(f: ChainMap) -> SemifreeModule:
    """Mapping cone of a shift-0 chain map f: N -> M.

    Basis is the shifted source followed by the target, stably re-sorted by
    degree.  That restores strict lower triangularity: over a non-negatively
    graded algebra an entry of a differential or chain map has degree >= 0,
    so its row generator has lower degree than its column generator.
    """
    if f.shift != 0:
        raise DegreeMismatch(f"cone needs a shift-0 chain map, got shift {f.shift}")
    N, M = f.source, f.target
    alg = N.algebra
    gens = []  # (degree, slot, orig index, name)
    for i in range(N.n_gens):
        gens.append((N.degrees[i] + 1, 0, i, f"s.{N.names[i]}"))
    for i in range(M.n_gens):
        gens.append((M.degrees[i], 1, i, f"c.{M.names[i]}"))
    order = sorted(range(len(gens)), key=lambda k: (gens[k][0], gens[k][1], gens[k][2]))
    pos = {old: new for new, old in enumerate(order)}
    names = tuple(gens[k][3] for k in order)
    degrees = tuple(gens[k][0] for k in order)
    diff: dict = {}
    # d(s.n) = -s(dn) + f(n); d(c.m) = dm: the three groups of entries land
    # on disjoint keys
    for (mu, lam), el in N.diff.items():
        diff[pos[mu], pos[lam]] = el.neg()
    for (mu, lam), el in f.entries.items():
        diff[pos[mu + N.n_gens], pos[lam]] = el
    for (mu, lam), el in M.diff.items():
        diff[pos[mu + N.n_gens], pos[lam + N.n_gens]] = el
    return SemifreeModule(alg, names, degrees, diff)


def base_change(N: SemifreeModule):
    """The induced module G = N|_A (x)_A B together with the counit.

    G is semifree on pairs (e_lam, m) with m a monomial in the non-A
    variables; the basis is truncated at generator degree max(deg) + 1,
    which is sufficient for every degree-0 section or homotopy question about
    the counit (their components live in generator degrees <= max(deg) + 1).
    The truncation is closed under the differential: every term (e_kappa,
    m') a of d(e_lam m) has an A-coefficient a of degree >= 0, so
    |e_kappa| + |m'| <= |e_lam| + |m| - 1 <= max(deg), and every such pair
    is a generator.  A zero entry is dropped by SemifreeModule.

    Returns (G, pi) with pi the counit chain map G -> N, pi(e (x) m) = e*m.
    """
    alg = N.algebra
    cap = N.max_degree + 1
    if cap > alg.config.max_degree:
        raise CapExceeded(cap, alg.config.max_degree, "base-change generator degree")
    gens = []  # (degree, lam, monomial)
    for lam in range(N.n_gens):
        for d in range(0, cap - N.degrees[lam] + 1):
            for m in alg.nonA_monomials(d):
                gens.append((N.degrees[lam] + d, lam, m))
    gens.sort(key=lambda t: (t[0], t[1], t[2]))
    index = {(lam, m): i for i, (_, lam, m) in enumerate(gens)}
    names = tuple(f"{N.names[lam]}(x){alg.mono_str(m)}" for _, lam, m in gens)
    degrees = tuple(t[0] for t in gens)

    def a_decompose(lam: int, el: AlgebraElement, out: dict):
        """Add e_lam * el into out, keyed by A-basis element (kappa, m),
        as A-coefficients: e*(a*m) = (-1)^{|a||m|} (e*m)*a.  Within one
        call each (key, a) occurs once, so adding piece by piece adds what
        adding the call's sum would, in the same order."""
        f = alg.field
        for u, c in el.terms.items():
            a, m = alg.mono_split_A(u)
            sgn = (-1) ** (alg.mono_degree(a) * alg.mono_degree(m))
            piece = alg.from_mono(a, c if sgn > 0 else f.neg(c))
            key = (lam, m)
            out[key] = out[key] + piece if key in out else piece

    diff: dict = {}
    for col, (deg, lam, m) in enumerate(gens):
        # d(e_lam * m) in N, re-expressed over the A-basis
        total: dict = {}
        for mu, b in N.diff_column(lam):
            a_decompose(mu, b * alg.from_mono(m), total)
        dm = alg.diff_mono(m)
        a_decompose(lam, dm.neg() if N.degrees[lam] % 2 else dm, total)
        for key, a_el in total.items():
            diff[(index[key], col)] = a_el
    G = SemifreeModule(alg, names, degrees, diff)
    pi_entries = {}
    for col, (deg, lam, m) in enumerate(gens):
        pi_entries[(lam, col)] = alg.from_mono(m)
    return G, ChainMap(G, N, 0, pi_entries)


# ----- minimal models -----------------------------------------------------


@dataclass
class MinimalModel:
    """A strong deformation retract of a semifree module N (source) onto a
    semifree N' (module): chain maps f: N -> N' and g: N' -> N, and a graded
    map h: N -> Sigma^{-1} N as a matrix over B, with f g = id and
    id - g f = d h + h d.  N' is homotopy equivalent to N, so every
    dimension of a Hom space out of N, or out of N (x)_B T^n, may be read
    off N' instead."""

    source: SemifreeModule
    module: SemifreeModule
    f: ChainMap
    g: ChainMap
    h: dict

    def recheck(self) -> "MinimalModel":
        """Check by substitution that f and g are chain maps, f g = id and
        id - g f = delta_0 h, that is g f = id + delta_0 (-h); raise
        DimensionMismatch otherwise."""
        N = self.source
        self.f.validate()
        self.g.validate()
        if not composite_is_identity(self.f, self.g, {}):
            raise DimensionMismatch(f"minimal model of {N!r}: f g is not the identity of N'")
        if not composite_is_identity(self.g, self.f, {k: v.neg() for k, v in self.h.items()}):
            raise DimensionMismatch(f"minimal model of {N!r}: id - g f is not d h + h d")
        return self

    def null_homotopy(self, phi: CarrierMap,
                      hom: Callable[..., HomSpace]) -> HomotopyWitness | None:
        """A null-homotopy of the shift-0 chain map phi: N -> X, decided on N'.

        The rule: phi is null-homotopic exactly when phi g: N' -> X is.  If
        phi = delta H, then phi g = delta(H g).  If phi g = delta H', then
        H = H' f + phi h has delta H = phi g f + phi (d h + h d) = phi,
        because phi = phi (g f + d h + h d) and precomposing with a chain map
        commutes with delta.  So one solve on hom(N', X) decides (hom is
        Diagonal.hom, or HomSpace for a space no memo keeps), and its None,
        whose absence certificate that solve has rechecked on N', answers
        for N too.  H is rechecked by substitution on N; a failed recheck
        raises DimensionMismatch naming N and the space.  When N' is N
        nothing is composed: the solve is on hom(N, X) itself.  When N' = 0
        nothing is solved: H = phi h."""
        from .homotopy import CarrierMap, HomotopyWitness, space_name
        N, Np, X = self.source, self.module, phi.target
        if Np is N:
            return hom(N, X).null_homotopy(phi)
        carried = CarrierMap(N, X, -1, {})
        if Np.n_gens:
            wit = hom(Np, X).null_homotopy(phi.precompose(Np, self.g.entries))
            if wit is None:
                return None
            carried = wit.precompose(N, self.f.entries)
        H = HomotopyWitness(N, X, -1, carried.add(phi.precompose(N, self.h, -1)).cols)
        if not H.boundary().sub(phi).is_zero():
            raise DimensionMismatch(f"a homotopy witness carried from the minimal model "
                                    f"failed its substitution recheck in the "
                                    f"{space_name(N, X, 0)}")
        return H


def _unit_pair(diff: dict, degrees, unit):
    """The least (mu, nu) whose coefficient b_{mu nu} has degree 0 and a
    nonzero constant term, so is a unit of B_0; None when there is none."""
    return min((k for k, el in diff.items()
                if degrees[k[1]] == degrees[k[0]] + 1 and unit in el.terms), default=None)


def _unit_inverse(u: AlgebraElement) -> AlgebraElement:
    """The inverse of a degree-0 element with constant term c != 0.  B_0 is
    the base ring k[a]/(a^r) (r = 1 for k), so u = c (1 - x) with x a
    multiple of a, x^r = 0, and u^{-1} = c^{-1} (1 + x + ... + x^{r-1}).
    The sum stops at r terms whatever x is, so a wrong c^{-1} gives a wrong
    sum, which the recheck refuses, rather than a series that never ends."""
    alg = u.algebra
    cinv = alg.field.inv(u.terms[alg.unit_mono()])
    x = alg.one() - u.scale(cinv)
    inv, power = alg.zero(), alg.one()
    for _ in range(alg.base.rank):
        inv = inv + power
        power = power * x
    inv = inv.scale(cinv)
    if u * inv != alg.one():
        raise DimensionMismatch(f"{inv} is not the inverse of {u}")
    return inv


def _add_outer(out: dict, left, right) -> None:
    """out[(i, j)] += x * y for each (i, x) in left and (j, y) in right: a
    zero product is skipped and a sum that cancels is deleted.  Every product
    of matrices over B goes through this loop."""
    for i, x in left:
        for j, y in right:
            prod = x * y
            if prod.is_zero():
                continue
            key = (i, j)
            cur = out.get(key)
            new = prod if cur is None else cur + prod
            if new.is_zero():
                del out[key]
            else:
                out[key] = new


def minimal_model(N: SemifreeModule) -> MinimalModel:
    """The minimal model of N by Gaussian elimination of unit pairs
    (Skoldberg, Morse theory from an algebraic viewpoint, 2006).

    While some coefficient u = b_{mu nu} is a unit of B_0, the pair
    (e_mu, e_nu) spans, with e'_mu = d e_nu, a contractible summand, and is
    cancelled: every other coefficient becomes
    b_{rho kappa} - b_{rho nu} u^{-1} b_{mu kappa}; f sends e_mu to
    -sum_rho e_rho b_{rho nu} u^{-1} and e_nu to 0, g sends e_kappa to
    e_kappa - e_nu u^{-1} b_{mu kappa}, and h sends e_mu to e_nu u^{-1}.
    One step's maps compose with the ones before: f <- f1 f, g <- g g1 and
    h <- h + g h1 f.  The survivors keep their names and are ordered by
    (degree, position); a new coefficient joins generators of strictly
    increasing degree, so N' is strictly lower triangular.  N' is
    validated like any module, and the maps are rechecked by substitution.
    With no unit coefficient, N itself, f = g = id and h = 0: nothing is
    built."""
    alg = N.algebra
    unit = alg.unit_mono()
    degrees = N.degrees
    pair = _unit_pair(N.diff, degrees, unit)
    if pair is None:
        ident = ChainMap.identity(N)
        return MinimalModel(N, N, ident, ident, {})
    one = alg.one()
    D = dict(N.diff)
    F = {(i, i): one for i in range(N.n_gens)}  # N -> the survivors
    G = dict(F)                                 # the survivors -> N
    H: dict = {}
    alive = set(range(N.n_gens))
    while pair is not None:
        mu, nu = pair
        alive -= {mu, nu}
        v = _unit_inverse(D[pair])
        # a_rho = -b_{rho nu} u^{-1} and b_kappa = b_{mu kappa}, so each
        # update below is one outer product added; degree-0 v commutes
        a = [(r, (x * v).neg()) for (r, c), x in D.items() if c == nu and r != mu]
        b = [(c, x) for (r, c), x in D.items() if r == mu and c != nu]
        f_mu = [(c, x) for (r, c), x in F.items() if r == mu]
        g_nu = [(r, (x * v).neg()) for (r, c), x in G.items() if c == nu]
        D = {k: x for k, x in D.items() if k[0] in alive and k[1] in alive}
        _add_outer(D, a, b)
        F = {k: x for k, x in F.items() if k[0] in alive}
        _add_outer(F, a, f_mu)
        G = {k: x for k, x in G.items() if k[1] in alive}
        _add_outer(G, g_nu, b)
        _add_outer(H, g_nu, [(c, x.neg()) for c, x in f_mu])
        pair = _unit_pair(D, degrees, unit)
    order = sorted(alive, key=lambda i: (degrees[i], i))
    pos = {old: new for new, old in enumerate(order)}
    Np = SemifreeModule(alg, [N.names[i] for i in order], [degrees[i] for i in order],
                        dict(sorted(((pos[r], pos[c]), x) for (r, c), x in D.items())))
    f = ChainMap(N, Np, 0, {(pos[r], c): x for (r, c), x in F.items()}, _validate=False)
    g = ChainMap(Np, N, 0, {(r, pos[c]): x for (r, c), x in G.items()}, _validate=False)
    return MinimalModel(N, Np, f, g, H).recheck()


def homology_dim(M, d: int) -> int:
    """dim_k H_d as exact rank arithmetic on the graded pieces of d."""
    car = M.carrier() if isinstance(M, SemifreeModule) else M
    dim_d = car.dim(d)
    r1 = car.diff(d).rank() if dim_d else 0
    r2 = car.diff(d + 1).rank() if car.dim(d + 1) else 0
    return dim_d - r1 - r2
