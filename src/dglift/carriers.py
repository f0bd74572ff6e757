"""Degreewise carriers: DG modules presented by exact per-degree k-data.

A carrier exposes, for each DG degree within the configured cap, an ordered
k-basis, the differential as a sparse matrix, built once per degree, and
(where the structure has them) matrices for the left and right actions of
algebra monomials, each built once per (side, monomial, degree).  A tensor
product N (x)_B Y with N semifree is written down in closed form, one copy
of Y per generator of N; every operator on it (its differential, its right
action, f (x) id and the obstruction components) is a sum of generator
blocks, given by a block rule rule(lam, q) that lists the blocks reading
generator lam's piece Y_q.  SemifreeCarrier.assemble is the one place
where such a rule becomes a matrix, and SemifreeCarrier.apply applies the
differential and the right action to a vector block by block, building no
matrix of the carrier.  A tensor product over
B with a non-free left factor, as in the tensor powers of the diagonal
ideal, is an explicit relation-quotient of the degreewise k-tensor space,
its coordinates the free columns of the RREF of the relations.  That
echelon is never built: its pivots and every reduction are read off one
small echelon per degree of the right factor Y, of a basis of B_+ Y made of
products g*y, g a generator of B.  One builder makes its differential and
both actions: it writes a pair x (x) y, y on a free column there, directly,
and reduces the Y part of the other columns once for all x.  A freeness
check on Y proves the relation rank, and an ordering check on the left
factor's degree-0 action proves the pivots, so a factor outside that case
raises instead of giving a wrong quotient (see TensorCarrier).  A shifted
carrier negates the differential per shift step and twists the left action
by (-1)^{i|b|}, which is the whole sign content of suspension.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import partial
from typing import NamedTuple

from .errors import CapExceeded, DimensionMismatch
from .linalg import Echelon, SparseMatrix, vec_axpy
from .memo import memo


class Carrier:
    """A DG module over the algebra, degree by degree.  Each concrete
    carrier defines min_degree() (a degree below which every piece is zero,
    max_degree + 1 for a zero carrier), dim(d), labels(d), diff(d) and
    right_act(mono, d), and left_act(mono, d) when it can set has_left;
    action reads the two actions through one memo.  An operator out of
    degree d is named by op: "d" for the differential, (side, mono) for an
    action.  matrix(op, d) is its memoized matrix, and apply(op, d, vec)
    its value on a vector, by default that matrix's; a carrier that can
    apply an operator without its matrix overrides apply."""

    has_left = False
    has_right = False

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field
        self.config = algebra.config

    def __repr__(self):
        return type(self).__name__

    def check_cap(self, d: int):
        if abs(d) > self.config.max_degree:
            raise CapExceeded(d, self.config.max_degree, what=f"{self!r}: DG degree")

    def is_zero(self) -> bool:
        """Whether the carrier is zero: a kernel with no nonzero piece
        within the cap, or a tensor product or shift built on one.  A zero
        carrier has dimension 0 in every degree, past the cap too, and its
        min_degree is max_degree + 1, so no degree past the cap leaks into
        a sum of minima or a shift."""
        return False

    @memo
    def action(self, side: str, mono, d: int) -> SparseMatrix:
        """The left ("l") or right ("r") action of mono on degree d, built by
        left_act/right_act on first use and shared afterwards."""
        return self.left_act(mono, d) if side == "l" else self.right_act(mono, d)

    def matrix(self, op, d: int) -> SparseMatrix:
        """The memoized matrix of the operator op out of degree d."""
        return self.diff(d) if op == "d" else self.action(*op, d)

    def apply(self, op, d: int, vec: dict) -> dict:
        """The operator op applied to vec in degree d: here the mat_vec of
        its memoized matrix."""
        return self.matrix(op, d).mat_vec(vec)

    def element_act(self, side: str, el, d: int, vec: dict) -> dict:
        """el * vec ("l") or vec * el ("r") for an algebra element el and vec
        in degree d, expanding el monomial by monomial, each monomial's
        action through apply, so that no matrix is built where apply needs
        none."""
        f = self.field
        out: dict = {}
        for u, c in el.terms.items():
            vec_axpy(f, out, c, self.apply((side, u), d, vec))
        return out

    def element_act_right(self, el, d: int, vec: dict) -> dict:
        return self.element_act("r", el, d, vec)

    def element_act_left(self, el, d: int, vec: dict) -> dict:
        return self.element_act("l", el, d, vec)


class AlgebraCarrier(Carrier):
    """B as a DG bimodule over itself; basis = normal-form monomials."""

    has_left = True
    has_right = True

    def min_degree(self) -> int:
        return 0

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        self.check_cap(d)
        return len(self.algebra.monomials(d))

    def labels(self, d: int):
        return self.algebra.monomials(d)

    @memo
    def diff(self, d: int) -> SparseMatrix:
        alg = self.algebra
        cols = {}
        if d >= 1 and self.dim(d):
            for j, u in enumerate(alg.monomials(d)):
                cols[j] = {alg.mono_index(d - 1, w): c
                           for w, c in alg.diff_mono(u).terms.items()}
        return SparseMatrix(self.field, self.dim(d - 1), self.dim(d), cols)

    def _act(self, mono, d, side):
        alg = self.algebra
        e = alg.mono_degree(mono)
        cols = {}
        for j, u in enumerate(alg.monomials(d)):
            sgn, w = alg.mono_mul(mono, u) if side == "l" else alg.mono_mul(u, mono)
            if w is not None:
                cols[j] = {alg.mono_index(d + e, w): self.field.from_int(sgn)}
        return SparseMatrix(self.field, self.dim(d + e), self.dim(d), cols)

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self._act(mono, d, "r")

    def left_act(self, mono, d: int) -> SparseMatrix:
        return self._act(mono, d, "l")


class SemifreeCarrier(Carrier):
    """N (x)_B Y for a semifree module N, in closed form.

    N is free over B on its generators, so (N (x)_B Y)_d is the direct sum of
    Y_{d-|e_lam|} over the generators e_lam, and no relation quotient is
    needed.  The basis in degree d is (lam, y) for y a basis vector of
    Y_{d-|e_lam|}, lam-major.  Y defaults to B itself; then the basis is
    (generator, monomial) and the carrier is N's own graded pieces.

    Each operator has one block rule, _blocks(op, lam, q), which lists the
    blocks that read generator lam's piece Y_q: for the differential,
    (-1)^{|e_lam|} d_Y into lam's own piece and, for each term c_u u of
    each coefficient b_{mu lam} of N's differential, c_u times Y's left
    action of u into mu's piece; for the right action of u, Y's right
    action of u into lam's own piece.  Every block is one of Y's memoized
    matrices.  Two consumers read the rule: diff and right_act pass it to
    assemble, which puts every generator's blocks together
    (SparseMatrix.from_blocks), and apply cuts a vector into generator
    pieces and multiplies each piece by its blocks
    (SparseMatrix.apply_blocks), reading only the generators the vector
    touches and building no matrix of this carrier.  assemble reads any
    rule of the same form into another closed-form carrier: f (x) id
    lists the blocks of _left for f's columns, and both
    obstruction towers list blocks (Sigma J vector) (x) - on T^i
    (Diagonal.prepend_matrix).
    """

    def __init__(self, module, Y: Carrier | None = None):
        Y = module.algebra.carrier() if Y is None else Y
        if not Y.has_left:
            raise DimensionMismatch(f"right tensor factor {Y!r} needs a left action")
        super().__init__(module.algebra)
        self.module = module
        self.Y = Y
        self.has_right = Y.has_right

    def __repr__(self):
        return f"SemifreeCarrier({self.module.describe()} (x)_B {self.Y!r})"

    def is_zero(self) -> bool:
        return not self.module.n_gens or self.Y.is_zero()

    @memo
    def min_degree(self) -> int:
        if self.is_zero():
            return self.config.max_degree + 1
        return self.module.min_degree + self.Y.min_degree()

    @memo
    def offsets(self, d: int) -> list:
        """Where each generator's block starts in degree d; the last entry is
        the dimension."""
        self.check_cap(d)
        offs = [0]
        for deg in self.module.degrees:
            offs.append(offs[-1] + self.Y.dim(d - deg))
        return offs

    def pieces(self, d: int):
        """(lam, q) for each generator e_lam whose block Y_q in degree d is
        nonempty; skipping the empty ones means Y is never asked outside its
        range."""
        offs = self.offsets(d)
        for lam, deg in enumerate(self.module.degrees):
            if offs[lam + 1] > offs[lam]:
                yield lam, d - deg

    def assemble(self, target: "SemifreeCarrier", d: int, e: int, rule) -> SparseMatrix:
        """The matrix from degree d of this carrier to degree d + e of target,
        another closed-form carrier, put together from a block rule:
        rule(lam, q) lists the blocks (r, c, M) that read generator lam's
        piece Y_q, each adding c * M at lam's columns and r's rows.  If
        either piece is empty, the zero matrix, without reading the rule."""
        ncols = self.dim(d)
        nrows = target.dim(d + e)
        if not (ncols and nrows):
            return SparseMatrix(self.field, nrows, ncols)
        return SparseMatrix.from_blocks(self.field, target.offsets(d + e), self.offsets(d),
                                        ((r, lam, c, m) for lam, q in self.pieces(d)
                                         for r, c, m in rule(lam, q)))

    def _left(self, entries, q: int) -> list:
        """The blocks (mu, c_u, left action of u on Y_q) of one column
        ((mu, b_{mu lam}), ...) of a matrix over B, one per term c_u u of
        b_{mu lam}: e_lam (x) y goes to the sum over mu of e_mu (x)
        b_{mu lam} y."""
        act = self.Y.action
        return [(mu, c, act("l", u, q)) for mu, b in entries for u, c in b.terms.items()]

    def labels(self, d: int):
        return [(lam, y) for lam, q in self.pieces(d) for y in self.Y.labels(q)]

    def dim(self, d: int) -> int:
        if d < self.min_degree() or (d > self.config.max_degree and self.is_zero()):
            return 0
        return self.offsets(d)[-1]

    def block(self, d: int, k: int) -> tuple[int, int]:
        """(lam, j): basis vector k of degree d is e_lam (x) (the j-th basis
        vector of Y_{d-|e_lam|})."""
        offs = self.offsets(d)
        lam = bisect_right(offs, k) - 1
        return lam, k - offs[lam]

    def index(self, d: int, lam: int, mono) -> int:
        """Position of e_lam mono in degree d (Y = B)."""
        return (self.offsets(d)[lam]
                + self.algebra.mono_index(d - self.module.degrees[lam], mono))

    def _op_degree(self, op) -> int:
        """The degree that the operator op adds; a left action, which this
        carrier does not have, raises DimensionMismatch."""
        if op == "d":
            return -1
        side, mono = op
        if side != "r":
            raise DimensionMismatch(f"{self!r} has no left action")
        return self.algebra.mono_degree(mono)

    def _blocks(self, op, lam: int, q: int) -> list:
        """The blocks (r, c, M) of op that read generator lam's piece Y_q:
        generator r's piece of the image gains c * M applied to it.  The one
        block rule of each operator (see the class docstring)."""
        Y = self.Y
        if op == "d":
            # d(e_lam y) = (-1)^{|e_lam|} e_lam dy + sum_mu e_mu (b_{mu lam} y)
            f = self.field
            sign = f.neg(f.one) if self.module.degrees[lam] % 2 else f.one
            return [(lam, sign, Y.diff(q)), *self._left(self.module.diff_column(lam), q)]
        return [(lam, self.field.one, Y.action("r", op[1], q))]

    @memo
    def diff(self, d: int) -> SparseMatrix:
        return self.assemble(self, d, -1, partial(self._blocks, "d"))

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self.assemble(self, d, self.algebra.mono_degree(mono),
                             partial(self._blocks, ("r", mono)))

    def apply(self, op, d: int, vec: dict) -> dict:
        """op applied to vec in degree d through the block rule, with no
        matrix of this carrier: vec is cut into generator pieces, and only
        the blocks of the generators it touches are read.  A vector or a
        piece that is empty gives the zero vector, without reading blocks;
        an entry outside the piece is passed over, as mat_vec does."""
        e = self._op_degree(op)
        if not (vec and self.dim(d) and self.dim(d + e)):
            return {}
        offs, degrees = self.offsets(d), self.module.degrees
        total = offs[-1]
        parts: dict = {}
        for j, c in vec.items():
            if 0 <= j < total:
                lam = bisect_right(offs, j) - 1
                parts.setdefault(lam, {})[j - offs[lam]] = c
        return SparseMatrix.apply_blocks(
            self.field, self.offsets(d + e), offs,
            lambda lam: self._blocks(op, lam, d - degrees[lam]), parts)

    def place(self, lam: int, q: int, yvec: dict) -> dict:
        """Coordinates of e_lam (x) y for y in Y_q: y in generator lam's
        block of degree |e_lam| + q."""
        o = self.offsets(self.module.degrees[lam] + q)[lam]
        return {o + i: c for i, c in yvec.items()}

    def gen_vector(self, lam: int) -> tuple[int, dict]:
        """(degree, unit vector) for generator e_lam (Y = B)."""
        d = self.module.degrees[lam]
        return d, {self.index(d, lam, self.algebra.unit_mono()): self.field.one}


class ShiftedCarrier(Carrier):
    """Sigma^i X: degrees shifted, differential scaled by (-1)^i, left action
    twisted by (-1)^{i|mono|}; the right action is untouched."""

    def __init__(self, inner: Carrier, i: int):
        if isinstance(inner, ShiftedCarrier):
            i += inner.i
            inner = inner.inner
        super().__init__(inner.algebra)
        self.inner = inner
        self.i = i
        self.has_left = inner.has_left
        self.has_right = inner.has_right

    def __repr__(self):
        return f"Sigma^{self.i} {self.inner!r}"

    def is_zero(self) -> bool:
        return self.inner.is_zero()

    @memo
    def min_degree(self) -> int:
        if self.is_zero():
            return self.config.max_degree + 1
        return self.inner.min_degree() + self.i

    def dim(self, d: int) -> int:
        if d < self.min_degree() or (d > self.config.max_degree and self.is_zero()):
            return 0
        self.check_cap(d)
        return self.inner.dim(d - self.i)

    def labels(self, d: int):
        return self.inner.labels(d - self.i)

    @memo
    def diff(self, d: int) -> SparseMatrix:
        m = self.inner.diff(d - self.i)
        return m if self.i % 2 == 0 else m.scale(self.field.neg(self.field.one))

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self.inner.action("r", mono, d - self.i)

    # an odd twist negates a fresh inner action, so this carrier's memo keeps
    # the one copy; an even one shares the inner's memoized matrix
    def left_act(self, mono, d: int) -> SparseMatrix:
        if (self.i * self.algebra.mono_degree(mono)) % 2 == 0:
            return self.inner.action("l", mono, d - self.i)
        return self.inner.left_act(mono, d - self.i).scale(self.field.neg(self.field.one))


class KernelSubCarrier(Carrier):
    """The kernel of a degreewise surjection out of a parent carrier, closed
    under the differential and both actions (a DG ideal/submodule).

    Each column of the projection holds at most one entry, as for J's
    multiplication map on the pair basis, so the RREF kernel basis is read
    off the columns with no elimination: the first column on each row is
    its pivot p, a later column j on the row gives e_j - (c_j / c_p) e_p,
    and a zero column j gives e_j.  Coordinates in the kernel basis are
    the free columns' entries, verified by substitution, so membership
    violations fail loudly.
    """

    def __init__(self, parent: Carrier, proj_matrix_fn, name: str):
        """proj_matrix_fn(d) is the projection in degree d, with at most one
        entry in each column: basis_vectors raises DimensionMismatch on a
        column with two."""
        super().__init__(parent.algebra)
        self.parent = parent
        self.proj_matrix_fn = proj_matrix_fn
        self.name = name
        self.has_left = parent.has_left
        self.has_right = parent.has_right

    def __repr__(self):
        return self.name

    @memo
    def basis_vectors(self, d: int) -> list:
        self.check_cap(d)
        if self.parent.dim(d) == 0:
            return []
        f = self.field
        proj = self.proj_matrix_fn(d)
        cols, pivot, out = proj.columns(), {}, []  # pivot: row -> (p, -1/c_p)
        for j in range(proj.ncols):  # ascending, as SparseMatrix.kernel_basis
            col = cols.get(j)
            if col is None:
                out.append({j: f.one})
                continue
            if len(col) > 1:
                raise DimensionMismatch(f"{self.name}: projection column {j} in degree {d} "
                                        f"has {len(col)} entries, at most one expected")
            (w, c), = col.items()
            piv = pivot.get(w)
            if piv is None:
                pivot[w] = (j, f.neg(f.inv(c)))
            else:
                out.append({j: f.one, piv[0]: f.mul(c, piv[1])})
        return out

    @memo
    def _positions(self, d: int) -> dict:
        """{free column of the projection's RREF: its basis index}: the kernel
        basis vector of free column j is e_j minus terms on the pivots before
        j, so j is its largest coordinate."""
        return {max(v): k for k, v in enumerate(self.basis_vectors(d))}

    @memo
    def min_degree(self) -> int:
        base = self.parent.min_degree()
        top = self.config.max_degree
        for d in range(base, top + 1):
            if self.basis_vectors(d):
                return d
        return top + 1  # zero within cap

    def is_zero(self) -> bool:
        return self.min_degree() > self.config.max_degree

    def dim(self, d: int) -> int:
        if d < self.parent.min_degree() or (d > self.config.max_degree and self.is_zero()):
            return 0
        return len(self.basis_vectors(d))

    def labels(self, d: int):
        return [f"{self.name}[{d}].{k}" for k in range(self.dim(d))]

    def coords(self, d: int, parent_vec: dict) -> dict:
        """Coordinates of a parent vector that lies in the kernel subspace:
        its entries on the free columns, rechecked by substitution."""
        f = self.field
        at = self._positions(d)
        nonzero = parent_vec
        if f.zero in parent_vec.values():  # is_zero(c) is c == zero
            nonzero = {j: c for j, c in parent_vec.items() if not f.is_zero(c)}
        # ascending columns give ascending basis indices
        out = {at[j]: nonzero[j] for j in sorted(nonzero) if j in at}
        if self.to_parent(d, out) != nonzero:
            raise DimensionMismatch(f"vector not in {self.name} at degree {d}")
        return out

    def to_parent(self, d: int, vec: dict) -> dict:
        axpy, basis = self.field.axpy, self.basis_vectors(d)
        out: dict = {}
        for k, c in vec.items():
            axpy(out, c, basis[k])
        return out

    def _push(self, d: int, out_deg: int, parent_mat: SparseMatrix) -> SparseMatrix:
        """parent_mat on the kernel: each basis vector's image read through
        coords, whose columns are valid as they are; a zero parent_mat
        gives the zero matrix with no pass over the basis."""
        basis = self.basis_vectors(d)
        cols = {}
        if not parent_mat.is_zero():
            for k, v in enumerate(basis):
                col = self.coords(out_deg, parent_mat.mat_vec(v))
                if col:
                    cols[k] = col
        return SparseMatrix._trusted(self.field, self.dim(out_deg), len(basis), cols)

    # not memoized: its one reader, the shift Sigma J, keeps a negated copy
    def diff(self, d: int) -> SparseMatrix:
        return self._push(d, d - 1, self.parent.diff(d))

    # the kernel's own action memo covers repeats, so the parent's matrices
    # are built afresh rather than kept twice
    def right_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        return self._push(d, d + e, self.parent.right_act(mono, d))

    def left_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        return self._push(d, d + e, self.parent.left_act(mono, d))


class QuotientShape(NamedTuple):
    """The relation echelon of a TensorCarrier in degree d, known from the
    echelons of the S_q without being built, and all the carrier keeps of
    degree d: ncols is the free dimension and rank the number of relation
    pivots.  layout[p] is what the reduction reads of block p: (the column
    where it starts, dim Y_{d-p}, the quotient index k0 of its first
    coordinate, the free map of E_{d-p}); a free pair (x_i, y_j) has index
    k0 + i*len(free) + free[j], and labels(d) lists these (p, i, j)."""

    ncols: int
    rank: int
    layout: dict


class TensorCarrier(Carrier):
    """X (x)_B Y as a degreewise relation-quotient.

    The free space in degree d is the sum over p of the blocks X_p (x) Y_{d-p}.
    Block p starts at column base[p] (layout[p][0] in the QuotientShape), and
    the pair (x_i, y_j) sits at base[p] + i*dim(Y_{d-p}) + j: the stretch
    (p, i) of x_i.  The relations are x*b (x) y - x (x) b*y over the non-unit
    monomials b of B (any shift twist lives inside Y's left action).
    Quotient coordinates are the free columns of the RREF of the relations;
    that echelon is never built.  It is read off one small echelon per
    degree q of Y.

    For each q, S_q is a basis of (B_+ Y)_q made of products g*y_m, g a
    generator of B (the base nilpotent or a variable) and y_m a basis vector
    of Y: every product b*y with b a non-unit monomial is a combination of
    those, since b = g*b' for a generator g.  E_q is the RREF of S_q on the
    columns of Y_q, each row tagged with the combination of S_q that made
    it.  Let V_q = dim Y_q - |S_q|.  The relations in degree d are spanned by
    r = x_i*g (x) y_m - x_i (x) g*y_m for x_i in X_p and (g, m) in S_{d-p}:

    - They span.  The freeness certificate checks, for every degree q of Y
      up to d - min(X), that dim Y_q = sum_e dim B_e * V_{q-e} (dim B_0
      counts the unit).  Lifts of a basis of Y/B_+Y generate Y (graded
      Nakayama: B_+ is nilpotent in degree 0 and raises degree otherwise),
      so B (x) V maps onto Y, and equal dimensions make it an isomorphism
      in those degrees.  Then (X (x)_B Y)_d = (X (x) V)_d has dimension
      sum_p dim X_p * V_{d-p}, so the relation rank is sum_p dim X_p *
      |S_{d-p}|, which is the number of these r.  A factor that fails the
      check raises DimensionMismatch rather than give a wrong quotient;
      every right factor the engine uses (T^n, B) is free over B.
    - Their pivots are the columns base[p] + i*dim Y_q + pi, pi a pivot of
      E_q.  The half x_i*g (x) y_m lies in block p + e, e = |g|, above block
      p when e > 0; for a degree-0 g it lies in block p, in the stretches of
      the x_i' that x_i*g involves, and the ordering check asks each of those
      to come after x_i.  So r leads in its own stretch (p, i), where it
      reads -g*y_m, and the tagged rows of E_q combine the r of one stretch
      into rows that lead at each pivot of E_q there.  That makes one
      distinct leading column per r, as many as the relation rank, so these
      are the pivots of the RREF and the labels are the other columns.

    The walk (_reduce, behind project_free and pair_project) reduces a
    vector to the RREF free columns without the RREF: it visits the
    stretches in ascending order, reduces the Y_q part of stretch (p, i) by
    E_q (_split), whose tags say which sum of the g*y_m it took away, and
    moves x_i (x) g*y_m across as x_i*g (x) y_m, into later stretches
    (_step).  What is left lies on free columns and differs from the vector
    by relations, so it is the RREF reduction.  A left factor whose degree-0
    action moves a basis vector backwards would break the walk and the
    pivot count; it raises DimensionMismatch naming the degree.

    The three operators are one map x_i (x) y_j -> phi x_i (x) y_j +
    x_i (x) psi y_j, built by _operator: diff is phi = d, psi = (-1)^p d,
    right_act psi = (-)*u and left_act phi = u*(-).  A pair x (x) y_j, y_j a
    free column of E_q, is a quotient basis vector, so the phi side is
    written directly; psi y_j is _split once per (p, j), and each x_i walks
    on from it.  Where neither side has a nonzero column (diff on every T^n
    over the exterior algebra), the operator is the zero matrix.
    """

    def __init__(self, X: Carrier, Y: Carrier):
        if not X.has_right:
            raise DimensionMismatch(f"left tensor factor {X!r} needs a right action")
        if not Y.has_left:
            raise DimensionMismatch(f"right tensor factor {Y!r} needs a left action")
        super().__init__(X.algebra)
        self.X = X
        self.Y = Y
        self.has_left = X.has_left
        self.has_right = Y.has_right

    def __repr__(self):
        return f"TensorCarrier({type(self.X).__name__} (x)_B {type(self.Y).__name__})"

    def is_zero(self) -> bool:
        return self.X.is_zero() or self.Y.is_zero()

    @memo
    def min_degree(self) -> int:
        if self.is_zero():
            return self.config.max_degree + 1
        return self.X.min_degree() + self.Y.min_degree()

    @memo
    def _spanning(self, q: int) -> tuple:
        """(S_q, E_q, free) for degree q of Y.  S_q lists (e, g, m) for the
        generators g of degree e of B: walking e ascending, then m
        descending, the products g*y_m that enlarge the span of the ones
        before them.  E_q is their RREF on columns 0..dim Y_q - 1; each
        candidate goes in with one add_row, carrying a tag 1 in column
        dim Y_q + s for the next element s of S_q, and it is that element
        when add_row keeps it (one that reduces to tags alone is refused),
        so every row's tags give its combination of S_q.  free maps each
        non-pivot column of E_q to its position among them.  Building S_q
        also checks the freeness certificate in degree q, which reads
        S_{q-e} for e > 0 as well: _echelon_at(d) asks for every q from
        min(Y) to d - min(X), so every degree it reads is certified."""
        Y, f, monos = self.Y, self.field, self.algebra.monomials
        ymin, wy = Y.min_degree(), Y.dim(q)
        span: list = []
        # the tags ride beyond the wy columns of Y_q and are never pivots
        ech = Echelon(f, wy)
        if wy:
            for e in range(q - ymin + 1):
                if not Y.dim(q - e):
                    continue
                for g in monos(e):
                    if sum(g) != 1:  # a generator: one exponent 1, the rest 0
                        continue
                    cols = Y.action("l", g, q - e).columns()
                    for m in range(Y.dim(q - e) - 1, -1, -1):
                        # g*y_m is kept when it leaves something on Y_q
                        if m in cols and ech.add_row({**cols[m], wy + len(span): f.one}):
                            span.append((e, g, m))
        # every later query of E_q reduces or reads its free columns
        ech.release_index()
        free = sum(len(monos(e))
                   * (Y.dim(q - e) - len(self._spanning(q - e)[0] if e else span))
                   for e in range(q - ymin + 1))
        if free != wy:
            raise DimensionMismatch(
                f"{self!r}: the right factor is not free over B in "
                f"its degree {q} (dimension {wy}, a free module on the "
                f"same generators has {free})")
        return span, ech, {j: k for k, j in enumerate(ech.free_columns())}

    def _check_moves(self, d: int, p: int, span: list) -> None:
        """The ordering check: each degree-0 generator g of S_{d-p} takes every
        x_i in X_p to later basis vectors only."""
        for g in {g for e, g, _ in span if e == 0}:
            for i, col in self.X.action("r", g, p).columns().items():
                if min(col) <= i:
                    raise DimensionMismatch(
                        f"{self!r} in degree {d}: x_{i}*{self.algebra.mono_str(g)} "
                        f"in degree {p} of the left factor reaches back to "
                        f"x_{min(col)}, so the relation pivots cannot be read off "
                        f"S_{d - p}")

    @memo
    def _echelon_at(self, d: int) -> QuotientShape:
        """The shape of the relation echelon in degree d; certifies every
        degree of Y it reads and runs the ordering check."""
        self.check_cap(d)
        X, Y = self.X, self.Y
        layout: dict = {}
        o = k0 = rank = 0
        for p in range(X.min_degree(), d - Y.min_degree() + 1):
            # S_q for every q, empty blocks too, so every degree is certified
            span, _, free = self._spanning(d - p)
            nx, wy = X.dim(p), Y.dim(d - p)
            layout[p] = (o, wy, k0, free)
            o += nx * wy
            if not (nx and wy):
                continue
            self._check_moves(d, p, span)
            rank += nx * len(span)
            k0 += nx * len(free)
        return QuotientShape(o, rank, layout)

    def dim(self, d: int) -> int:
        if d < self.min_degree() or (d > self.config.max_degree and self.is_zero()):
            return 0
        shape = self._echelon_at(d)
        return shape.ncols - shape.rank

    def labels(self, d: int):
        return [(p, i, j) for p, (_, _, _, free) in self._echelon_at(d).layout.items()
                for i in range(self.X.dim(p)) for j in free]

    def _split(self, q: int, part: dict) -> tuple[list, dict]:
        """A Y_q part reduced by E_q: its free coordinates [(position among the
        free columns, c)] and its moves {g: (e, {m: c})}, the tags saying
        that -c times g*y_m was taken away."""
        span, ech, free = self._spanning(q)
        wy = ech.ncols
        coords, moves = [], {}
        for j, c in ech.reduce(part).items():
            if j < wy:
                coords.append((free[j], c))
            else:
                e, g, m = span[j - wy]
                moves.setdefault(g, (e, {}))[1][m] = c
        return coords, moves

    def _step(self, layout: dict, p: int, i: int, head, parts: dict, out: dict):
        """The stretch (p, i), its Y part split as head: the free coordinates
        go into out, and each move x_i (x) g*y_m goes across as x_i*g (x) y_m,
        into the parts of later stretches.  Returns the stretches opened."""
        X, f = self.X, self.field
        _, _, k0, free = layout[p]
        k0 += i * len(free)
        for s, c in head[0]:
            out[k0 + s] = c
        opened = []
        for g, (e, w) in head[1].items():
            xcol = X.action("r", g, p).columns().get(i)
            if not xcol:
                continue
            o, ny, _, _ = layout[p + e]
            for i2, cx in xcol.items():
                t = o + i2 * ny
                got = parts.get(t)
                if got is None:
                    got = parts[t] = (p + e, i2, {})
                    opened.append(t)
                f.axpy(got[2], f.neg(cx), w)
        return opened

    def _reduce(self, d: int, layout: dict, parts: dict, out: dict) -> dict:
        """out plus the quotient coordinates of the free vector given by
        stretches: parts maps the start column of stretch (p, i) to (p, i,
        its Y_{d-p} part, a dict the walk may change).  The walk of the
        class docstring; it consumes parts."""
        # the stretches to visit, ascending: a move only reaches later ones,
        # so a new stretch sorts in after position k
        todo = sorted(parts)
        k = 0
        while k < len(todo):
            p, i, part = parts.pop(todo[k])
            k += 1
            for t in self._step(layout, p, i, self._split(d - p, part), parts, out):
                insort(todo, t, k)
        return out

    def _column(self, d: int, layout: dict, p: int, i: int, head, out: dict) -> dict:
        """out plus the quotient coordinates of the stretch (p, i) of degree
        d whose Y part is split as head."""
        parts: dict = {}
        self._step(layout, p, i, head, parts, out)
        return self._reduce(d, layout, parts, out)

    def _pairs(self, layout: dict, p: int, xvec: dict, j: int, out: dict) -> dict:
        """out plus x (x) y_j for x in X_p and y_j a free column of E_{d-p}:
        quotient basis vectors, written directly, in ascending i."""
        _, _, k0, free = layout[p]
        k0, nf = k0 + free[j], len(free)
        for i in sorted(xvec):
            out[k0 + i * nf] = xvec[i]
        return out

    def project_free(self, d: int, free_vec: dict) -> dict:
        """Quotient coordinates of a free-space vector."""
        layout = self._echelon_at(d).layout
        # an empty block starts where the next one does, and comes before it
        blocks = [(o, p, wy) for p, (o, wy, _, _) in layout.items() if wy]
        starts = [o for o, _, _ in blocks]
        parts: dict = {}
        for k, c in free_vec.items():
            o, p, wy = blocks[bisect_right(starts, k) - 1]
            i, j = divmod(k - o, wy)
            got = parts.get(k - j)
            if got is None:
                got = parts[k - j] = (p, i, {})
            got[2][j] = c
        return self._reduce(d, layout, parts, {})

    def pair_project(self, p: int, xvec: dict, q: int, yvec: dict) -> dict:
        """Quotient coordinates of x (x) y for coordinate vectors in X_p, Y_q."""
        if not xvec or not yvec:
            return {}
        d = p + q
        layout = self._echelon_at(d).layout
        o, wy, _, _ = layout[p]
        f = self.field
        return self._reduce(d, layout, {o + i * wy: (p, i, f.scale(c, yvec))
                                        for i, c in xvec.items()}, {})

    def _operator(self, d: int, e: int, xside=None, yside=None) -> SparseMatrix:
        """The matrix from degree d to d + e of x_i (x) y_j -> xside(p)[i]
        (x) y_j + x_i (x) yside(p)[j], x_i in X_p: xside(p) and yside(p) are
        the columns of the factors' matrices out of X_p and Y_{d-p}, and a
        side that is None is zero (see the class docstring)."""
        blocks = [(p, range(nx), free, xside(p) if xside else {}, yside(p) if yside else {})
                  for p, (_, _, _, free) in self._echelon_at(d).layout.items()
                  if free and (nx := self.X.dim(p))]
        nrows = self.dim(d + e)
        if not any(xc or yc for _, _, _, xc, yc in blocks):
            return SparseMatrix(self.field, nrows, self.dim(d))
        layout = self._echelon_at(d + e).layout
        cols = []
        for p, xs, free, xc, yc in blocks:
            heads = {j: self._split(d - p + e, yc[j]) for j in free if j in yc}
            for i in xs:
                xv = xc.get(i)
                for j in free:
                    col = self._pairs(layout, p + e, xv, j, {}) if xv else {}
                    head = heads.get(j)
                    cols.append(col if head is None
                                else self._column(d + e, layout, p, i, head, col))
        return SparseMatrix.from_cols(self.field, nrows, cols)

    @memo
    def diff(self, d: int) -> SparseMatrix:
        # d(x_i (x) y_j) = dx_i (x) y_j + (-1)^p x_i (x) dy_j
        f, Y = self.field, self.Y
        minus = f.neg(f.one)

        def dy(p):
            cols = Y.diff(d - p).columns()
            return {j: f.scale(minus, v) for j, v in cols.items()} if p % 2 else cols

        return self._operator(d, -1, lambda p: self.X.diff(p).columns(), dy)

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self._operator(d, self.algebra.mono_degree(mono),
                              yside=lambda p: self.Y.action("r", mono, d - p).columns())

    def left_act(self, mono, d: int) -> SparseMatrix:
        return self._operator(d, self.algebra.mono_degree(mono),
                              xside=lambda p: self.X.action("l", mono, p).columns())


def validate_carrier_squares(car: Carrier, degrees) -> None:
    """Assert d(d(x)) = 0 on the given degrees (exact)."""
    for d in degrees:
        if car.dim(d) == 0:
            continue
        m1 = car.diff(d)
        m2 = car.diff(d - 1)
        comp = m2 @ m1
        if not comp.is_zero():
            raise DimensionMismatch(f"{car!r}: differential does not square to zero at degree {d}")
