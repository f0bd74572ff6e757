"""Semifree right DG modules with finite ordered bases, and chain maps.

A module is a finite ordered basis with degrees and a strictly lower
triangular differential matrix over the algebra: the coefficient of e_mu in
d(e_lambda) is stored at (mu, lambda) and must vanish unless mu < lambda.
Construction validates triangularity, entry degrees, and d^2 = 0 exactly.

A chain map of shift s is a degree-preserving map into the s-fold shift of
the target; the shift negates the target differential s times but leaves the
right action alone, so matrices over the algebra capture everything.
"""

from __future__ import annotations

from .algebra import AlgebraElement, DGAlgebra
from .errors import (CapExceeded, DegreeMismatch, DSquaredNonzero, NotTriangular,
                     OwnerMismatch, TriangularityUnrepairable)
from .memo import memo


class SemifreeModule:
    def __init__(self, algebra: DGAlgebra, names, degrees, diff: dict,
                 _validate: bool = True):
        self.algebra = algebra
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.min_degree = min(self.degrees, default=0)
        self.max_degree = max(self.degrees, default=0)
        if len(set(self.names)) != len(self.names):
            raise NotTriangular("duplicate basis names")
        self.diff = {k: v for k, v in diff.items() if not v.is_zero()}
        columns: dict[int, list] = {}
        for (mu, lam), el in sorted(self.diff.items()):
            columns.setdefault(lam, []).append((mu, el))
        self._columns = {lam: tuple(col) for lam, col in columns.items()}
        if _validate:
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
                raise OwnerMismatch("differential entry from a foreign algebra")
            want = self.degrees[lam] - 1 - self.degrees[mu]
            if not el.is_homogeneous() or el.degree() != want:
                raise DegreeMismatch(
                    f"entry ({self.names[mu]},{self.names[lam]}) must have degree {want}, got {el}")
        # d^2 = 0, column by column
        for lam in range(self.n_gens):
            acc = {nu: alg.zero() for nu in range(lam)}
            for mu, b in self.diff_column(lam):
                for nu, b2 in self.diff_column(mu):
                    acc[nu] = acc[nu] + b2 * b
                dcoef = b.differentiate()
                sign = -1 if self.degrees[mu] % 2 else 1
                acc[mu] = acc[mu] + (dcoef.neg() if sign < 0 else dcoef)
            for nu, el in acc.items():
                if not el.is_zero():
                    raise DSquaredNonzero(
                        f"d² != 0 on column {self.names[lam]} (row {self.names[nu]}): {el}")

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
        from .carriers import SemifreeCarrier
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


@memo
def regular_module(algebra) -> SemifreeModule:
    """B as a right module over itself, one per algebra (the memo lives on
    the algebra)."""
    return free_module(algebra, 1, prefix="b")


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
            raise OwnerMismatch("summands over different algebras")
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

    def entry(self, mu, lam) -> AlgebraElement:
        return self.entries.get((mu, lam), self.source.algebra.zero())

    def validate(self):
        src, tgt, s = self.source, self.target, self.shift
        alg = src.algebra
        if tgt.algebra is not alg:
            raise OwnerMismatch("chain map across different algebras")
        for (mu, lam), el in self.entries.items():
            want = src.degrees[lam] - s - tgt.degrees[mu]
            if not el.is_homogeneous() or el.degree() != want:
                raise DegreeMismatch(
                    f"chain map entry ({mu},{lam}) must have degree {want}, got {el}")
        defect = graded_map_boundary(self.entries, src, tgt, s + 1)
        if defect:
            raise DegreeMismatch(chain_failure(src, s, min(lam for _, lam in defect)))

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

    def neg(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.shift,
                        {k: v.neg() for k, v in self.entries.items()}, _validate=False)

    def is_zero(self) -> bool:
        return not self.entries

    @classmethod
    def identity(cls, M: SemifreeModule) -> "ChainMap":
        one = M.algebra.one()
        return cls(M, M, 0, {(i, i): one for i in range(M.n_gens)}, _validate=False)

    def __repr__(self):
        return f"ChainMap({self.source.describe()} -> S^{self.shift} {self.target.describe()})"


def matrix_product(a: dict, b: dict) -> dict:
    """The product a b of two matrices over B given as {(row, col): element}."""
    out: dict = {}
    for (mu, k), x in a.items():
        for (kk, lam), y in b.items():
            if kk != k:
                continue
            prod = x * y
            if prod.is_zero():
                continue
            cur = out.get((mu, lam))
            out[(mu, lam)] = prod if cur is None else cur + prod
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


def cone(f: ChainMap) -> SemifreeModule:
    """Mapping cone of a shift-0 chain map f: N -> M.

    Basis is the shifted source followed by the target, stably re-sorted by
    degree to restore strict lower triangularity (always possible over a
    non-negatively graded algebra; checked anyway).
    """
    if f.shift != 0:
        raise DegreeMismatch("cone needs a shift-0 chain map")
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

    def put(row_old, col_old, el):
        if el.is_zero():
            return
        r, c = pos[row_old], pos[col_old]
        if r >= c:
            raise TriangularityUnrepairable(
                f"cone differential entry ({names[r]},{names[c]}) not strictly triangular")
        key = (r, c)
        diff[key] = diff[key] + el if key in diff else el

    # d(s.n) = -s(dn) + f(n); d(c.m) = dm
    for (mu, lam), el in N.diff.items():
        put(mu, lam, el.neg())
    for (mu, lam), el in f.entries.items():
        put(mu + N.n_gens, lam, el)
    for (mu, lam), el in M.diff.items():
        put(mu + N.n_gens, lam + N.n_gens, el)
    return SemifreeModule(alg, names, degrees, diff)


def base_change(N: SemifreeModule):
    """The induced module G = N|_A (x)_A B together with the counit.

    G is semifree on pairs (e_lam, m) with m a monomial in the non-A
    variables; the basis is truncated at generator degree max(deg) + 1,
    which is sufficient for every degree-0 section or homotopy question about
    the counit (their components live in generator degrees <= max(deg) + 1).

    Returns (G, pi) with pi the counit chain map G -> N, pi(e (x) m) = e*m.
    """
    alg = N.algebra
    cap = N.max_degree + 1
    if cap > alg.config.max_degree:
        raise CapExceeded(cap, alg.config.max_degree)
    gens = []  # (degree, lam, monomial)
    for lam in range(N.n_gens):
        for d in range(0, cap - N.degrees[lam] + 1):
            for m in alg.nonA_monomials(d):
                gens.append((N.degrees[lam] + d, lam, m))
    gens.sort(key=lambda t: (t[0], t[1], t[2]))
    index = {(lam, m): i for i, (_, lam, m) in enumerate(gens)}
    names = tuple(f"{N.names[lam]}(x){alg.mono_str(m)}" for _, lam, m in gens)
    degrees = tuple(t[0] for t in gens)

    def a_decompose(lam: int, el: AlgebraElement):
        """e_lam * el as a combination of A-basis elements (kappa, m) with
        A-coefficients: e*(a*m) = (-1)^{|a||m|} (e*m)*a."""
        f = alg.field
        out: dict = {}
        for u, c in el.terms.items():
            a, m = alg.mono_split_A(u)
            sgn = (-1) ** (alg.mono_degree(a) * alg.mono_degree(m))
            coef = c if sgn > 0 else f.neg(c)
            key = (lam, m)
            cur = out.get(key, alg.zero())
            out[key] = cur + alg.from_mono(a, coef)
        return out

    diff: dict = {}
    for col, (deg, lam, m) in enumerate(gens):
        # d(e_lam * m) in N, re-expressed over the A-basis
        total: dict = {}
        for mu, b in N.diff_column(lam):
            for key, a_el in a_decompose(mu, b * alg.from_mono(m)).items():
                total[key] = total.get(key, alg.zero()) + a_el
        dm = alg.diff_mono(m)
        if not dm.is_zero():
            sgn = -1 if N.degrees[lam] % 2 else 1
            part = a_decompose(lam, dm if sgn > 0 else dm.neg())
            for key, a_el in part.items():
                total[key] = total.get(key, alg.zero()) + a_el
        for (kappa, m2), a_el in total.items():
            if a_el.is_zero():
                continue
            row = index.get((kappa, m2))
            if row is None:
                raise CapExceeded(N.degrees[kappa] + alg.mono_degree(m2),
                                  cap, "base-change generator degree")
            diff[(row, col)] = a_el
    G = SemifreeModule(alg, names, degrees, diff)
    pi_entries = {}
    for col, (deg, lam, m) in enumerate(gens):
        pi_entries[(lam, col)] = alg.from_mono(m)
    return G, ChainMap(G, N, 0, pi_entries)


def homology_dim(M, d: int) -> int:
    """dim_k H_d as exact rank arithmetic on the graded pieces of d."""
    car = M.carrier() if isinstance(M, SemifreeModule) else M
    dim_d = car.dim(d)
    r1 = car.diff(d).rank() if dim_d else 0
    r2 = car.diff(d + 1).rank() if car.dim(d + 1) else 0
    return dim_d - r1 - r2
