"""Semifree right DG modules with finite ordered bases, chain maps, and the
Hom complex differential on generator images.

A module is a finite ordered basis with degrees and a strictly lower
triangular differential matrix over the algebra: the coefficient of e_mu in
d(e_lambda) is stored at (mu, lambda) and must vanish unless mu < lambda.
Construction validates triangularity, entry degrees, and d^2 = 0 exactly.

Every product of matrices over B goes through one outer-product loop,
_add_outer: matrix_product feeds it each entry of its left factor against
the matching row of its right one, the d^2 check squares the differential
through matrix_product, and the minimal model's elimination
(homotopy.minimal_model) adds its updates through it.

A chain map of shift s is a degree-preserving map into the s-fold shift of
the target; the shift negates the target differential s times but leaves the
right action alone, so matrices over the algebra capture everything.

A degree-s map h: N -> Sigma^s Y out of a semifree module is determined by
the images of its generators.  The Hom complex differential, from maps of
shift s-1 to maps of shift s,

    delta_s(h) = (-1)^s D_Y h + h d_N,

is written once, in _delta_blocks.  Its block from generator mu to generator
lam is (-1)^s D_Y on the diagonal, plus c_u times the right action of u for
each term c_u u of the coefficient b_{mu lam} of e_mu in d(e_lam).  Each
block names an operator of Y: delta_cols applies the blocks to generator
images through Y's apply, which for a closed-form N (x)_B Y builds no
matrix of it, and homotopy.delta_matrix builds them into a matrix from Y's
matrices.  graded_map_boundary reads delta_s on matrices over B, and a
ChainMap is validated by it: a shift-s map is a chain map exactly when its
boundary at s + 1 is empty.
"""

from __future__ import annotations

from itertools import chain

from .algebra import AlgebraElement, DGAlgebra, _repeated
from .carriers import Carrier, SemifreeCarrier
from .errors import (CapExceeded, DegreeMismatch, DSquaredNonzero, NotTriangular,
                     OwnerMismatch)
from .linalg import vec_axpy
from .memo import memo


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
        condition is read once, as the boundary of the map at s + 1, which
        must be empty, and the message names its least generator."""
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


# ----- the Hom complex differential -----------------------------------------


def _delta_blocks(source: SemifreeModule, target: Carrier, s: int, cols=None):
    """The blocks (lam, mu, c, op, d) of delta_s: output block lam gains c
    times the target's operator op out of degree d (Carrier.apply) applied
    to input block mu.  With cols, only the blocks that read a generator in
    cols.  A block whose input or output piece of the target is
    zero-dimensional is skipped, so no operator is read for it."""
    f = target.field
    sgn = f.neg(f.one) if s % 2 else f.one
    dim = target.dim
    for lam in range(source.n_gens):
        out = source.degrees[lam] - s
        if (cols is None or lam in cols) and dim(out + 1) and dim(out):
            yield lam, lam, sgn, "d", out + 1
        for mu, b in source.diff_column(lam):
            d = source.degrees[mu] - s + 1
            if (cols is None or mu in cols) and dim(d) and dim(out):
                for u, c in b.terms.items():
                    yield lam, mu, c, ("r", u), d


def delta_cols(source: SemifreeModule, target: Carrier, s: int, cols: dict) -> dict:
    """delta_s of a map given by generator images: each block of
    _delta_blocks goes through target.apply, so no matrix of delta_s is
    formed, and none of the target where its apply needs none."""
    f, apply = target.field, target.apply
    out: dict = {}
    for lam, mu, c, op, d in _delta_blocks(source, target, s, cols):
        vec_axpy(f, out.setdefault(lam, {}), c, apply(op, d, cols[mu]))
    return {lam: v for lam, v in out.items() if v}


def entries_to_cols(entries: dict, source: SemifreeModule, car: SemifreeCarrier,
                    shift: int) -> dict:
    """Generator images of a shift-s matrix over B, in the coordinates of the
    target module's carrier car."""
    cols: dict = {}
    for (mu, lam), el in entries.items():
        d = source.degrees[lam] - shift
        vec = cols.setdefault(lam, {})
        for u, c in el.terms.items():
            vec[car.index(d, mu, u)] = c
    return cols


def cols_to_entries(cols: dict, source: SemifreeModule, car: SemifreeCarrier,
                    shift: int) -> dict:
    """The matrix over B of generator images in the coordinates of car."""
    degrees = car.module.degrees
    terms: dict = {}
    for lam, vec in cols.items():
        d = source.degrees[lam] - shift
        for i, c in vec.items():
            mu, j = car.block(d, i)
            terms.setdefault((mu, lam), {})[car.Y.labels(d - degrees[mu])[j]] = c
    return {k: AlgebraElement(source.algebra, t) for k, t in terms.items()}


def graded_map_boundary(h_entries: dict, src: SemifreeModule, tgt: SemifreeModule,
                        s: int) -> dict:
    """delta_s h = d^{Sigma^s tgt} h + h d^src for a graded map h:
    src -> Sigma^{s-1} tgt given as a matrix over B.

    This is the Hom complex differential of _delta_blocks, applied in the
    coordinates of tgt's carrier and read back as a shift-s map matrix.  A
    shift-s map f is a chain map exactly when its boundary at s + 1 is empty.
    """
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


def homology_dim(M, d: int) -> int:
    """dim_k H_d as exact rank arithmetic on the graded pieces of d."""
    car = M.carrier() if isinstance(M, SemifreeModule) else M
    dim_d = car.dim(d)
    r1 = car.diff(d).rank() if dim_d else 0
    r2 = car.diff(d + 1).rank() if car.dim(d + 1) else 0
    return dim_d - r1 - r2
