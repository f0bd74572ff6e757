"""Degreewise carriers: DG modules presented by exact per-degree k-data.

A carrier exposes, for each DG degree within the configured cap, an ordered
k-basis, the differential as a sparse matrix, built once per degree, and
(where the structure has them) matrices for the left and right actions of
algebra monomials, each built once per (side, monomial, degree).  A tensor
product N (x)_B Y with N semifree is written down in closed form, one copy
of Y per generator of N; every operator on it (its differential, its right
action, f (x) id and the obstruction components) is a matrix of generator
blocks, put together by SemifreeCarrier.assemble.  Every other tensor
product (over B with a non-free left factor, as in the tensor powers of the
diagonal ideal, or over the subalgebra A) is an explicit relation-quotient
of the degreewise k-tensor space, its coordinates the free columns of the
RREF of the relations.  That echelon is never built: its pivots and every
reduction are read off one small echelon per degree of the right factor Y,
of a basis of R_+ Y made of products g*y, g a generator of the ring.  A
freeness check on Y proves the relation rank, and an ordering check on the
left factor's degree-0 action proves the pivots, so a factor outside that
case raises instead of giving a wrong quotient (see TensorCarrier).  A
shifted carrier negates the differential per shift step and twists the left
action by (-1)^{i|b|}, which is the whole sign content of suspension.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain
from typing import NamedTuple

from .errors import CapExceeded, DimensionMismatch
from .linalg import Echelon, SparseMatrix, vec_axpy
from .memo import memo


class Carrier:
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
            raise CapExceeded(d, self.config.max_degree)

    def min_degree(self) -> int:
        raise NotImplementedError

    def dim(self, d: int) -> int:
        raise NotImplementedError

    def labels(self, d: int):
        raise NotImplementedError

    def diff(self, d: int) -> SparseMatrix:
        raise NotImplementedError

    def right_act(self, mono, d: int) -> SparseMatrix:
        raise NotImplementedError

    def left_act(self, mono, d: int) -> SparseMatrix:
        raise NotImplementedError

    @memo
    def action(self, side: str, mono, d: int) -> SparseMatrix:
        """The left ("l") or right ("r") action of mono on degree d, built by
        left_act/right_act on first use and shared afterwards."""
        return self.left_act(mono, d) if side == "l" else self.right_act(mono, d)

    def element_act_right(self, el, d: int, vec: dict) -> dict:
        """vec * el for an algebra element, expanding monomial by monomial."""
        f = self.field
        out: dict = {}
        for u, c in el.terms.items():
            img = self.action("r", u, d).mat_vec(vec)
            vec_axpy(f, out, c, img)
        return out

    def element_act_left(self, el, d: int, vec: dict) -> dict:
        f = self.field
        out: dict = {}
        for u, c in el.terms.items():
            img = self.action("l", u, d).mat_vec(vec)
            vec_axpy(f, out, c, img)
        return out


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
        ent = {}
        if d >= 1 and self.dim(d):
            for j, u in enumerate(alg.monomials(d)):
                du = alg.diff_mono(u)
                for w, c in du.terms.items():
                    ent[(alg.mono_index(d - 1, w), j)] = c
        return SparseMatrix(self.field, self.dim(d - 1), self.dim(d), ent)

    def _act(self, mono, d, side):
        alg = self.algebra
        e = alg.mono_degree(mono)
        ent = {}
        for j, u in enumerate(alg.monomials(d)):
            sgn, w = alg.mono_mul(mono, u) if side == "l" else alg.mono_mul(u, mono)
            if w is None:
                continue
            c = self.field.from_int(sgn)
            ent[(alg.mono_index(d + e, w), j)] = c
        return SparseMatrix(self.field, self.dim(d + e), self.dim(d), ent)

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
    """

    def __init__(self, module, Y: Carrier | None = None):
        Y = module.algebra.carrier() if Y is None else Y
        if not Y.has_left:
            raise DimensionMismatch("right tensor factor needs a left action")
        super().__init__(module.algebra)
        self.module = module
        self.Y = Y
        self.has_right = Y.has_right

    def __repr__(self):
        return f"SemifreeCarrier({self.module.describe()} (x)_B {self.Y!r})"

    def min_degree(self) -> int:
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

    def assemble(self, target: "SemifreeCarrier", d: int, e: int, blocks) -> SparseMatrix:
        """The matrix from degree d of this carrier to degree d + e of target,
        another closed-form carrier, that adds c * M at generator k's columns
        and generator r's rows for each block (r, k, c, M).  If either piece
        is empty, the zero matrix, without reading blocks."""
        ncols = self.dim(d)
        nrows = target.dim(d + e)
        if not (ncols and nrows):
            return SparseMatrix(self.field, nrows, ncols)
        return SparseMatrix.from_blocks(self.field, target.offsets(d + e), self.offsets(d),
                                        blocks)

    def left_blocks(self, column, d: int):
        """The blocks in degree d of a matrix over B, given column by column
        as column(lam) = ((mu, b_{mu lam}), ...): e_lam (x) y goes to the sum
        over mu of e_mu (x) b_{mu lam} y, one block (mu, lam, c_u, left
        action of u on Y) per term c_u u of b_{mu lam}."""
        Y = self.Y
        for lam, q in self.pieces(d):
            for mu, b in column(lam):
                for u, c in b.terms.items():
                    yield mu, lam, c, Y.action("l", u, q)

    def labels(self, d: int):
        return [(lam, y) for lam, q in self.pieces(d) for y in self.Y.labels(q)]

    def dim(self, d: int) -> int:
        if d < self.min_degree():
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

    @memo
    def diff(self, d: int) -> SparseMatrix:
        # d(e_lam y) = (-1)^{|e_lam|} e_lam dy + sum_mu e_mu (b_{mu lam} y)
        f, degrees = self.field, self.module.degrees
        signs = (f.one, f.neg(f.one))
        own = ((lam, lam, signs[degrees[lam] % 2], self.Y.diff(q))
               for lam, q in self.pieces(d))
        return self.assemble(self, d, -1,
                             chain(own, self.left_blocks(self.module.diff_column, d)))

    def right_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        one = self.field.one
        return self.assemble(self, d, e, ((lam, lam, one, self.Y.action("r", mono, q))
                                          for lam, q in self.pieces(d)))

    def pair_project(self, p: int, xvec: dict, q: int, yvec: dict) -> dict:
        """Coordinates of x (x) y for x in N_p (coordinates of N's own
        carrier) and y in Y_q: e_lam w (x) y goes to e_lam (x) w y."""
        if not xvec or not yvec:
            return {}
        f = self.field
        alg = self.algebra
        ncar = self.module.carrier()
        offs = self.offsets(p + q)
        out: dict = {}
        for k, c in xvec.items():
            lam, j = ncar.block(p, k)
            w = alg.monomials(p - self.module.degrees[lam])[j]
            wy = yvec if alg.mono_is_unit(w) else self.Y.action("l", w, q).mat_vec(yvec)
            o = offs[lam]
            vec_axpy(f, out, c, {o + i: cy for i, cy in wy.items()})
        return out

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

    def min_degree(self) -> int:
        return self.inner.min_degree() + self.i

    def dim(self, d: int) -> int:
        return self.inner.dim(d - self.i)

    def labels(self, d: int):
        return self.inner.labels(d - self.i)

    @memo
    def diff(self, d: int) -> SparseMatrix:
        m = self.inner.diff(d - self.i)
        return m if self.i % 2 == 0 else m.scale(self.field.neg(self.field.one))

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self.inner.action("r", mono, d - self.i)

    def left_act(self, mono, d: int) -> SparseMatrix:
        m = self.inner.action("l", mono, d - self.i)
        tw = (self.i * self.algebra.mono_degree(mono)) % 2
        return m if tw == 0 else m.scale(self.field.neg(self.field.one))


class KernelSubCarrier(Carrier):
    """The kernel of a degreewise surjection out of a parent carrier, closed
    under the differential and both actions (a DG ideal/submodule).

    Coordinates in the kernel basis are read off the RREF free columns and
    verified by substitution, so membership violations fail loudly.
    """

    def __init__(self, parent: Carrier, proj_matrix_fn, name="kernel"):
        super().__init__(parent.algebra)
        self.parent = parent
        self.proj_matrix_fn = proj_matrix_fn
        self.name = name
        self.has_left = parent.has_left
        self.has_right = parent.has_right

    @memo
    def basis_vectors(self, d: int) -> list:
        self.check_cap(d)
        if self.parent.dim(d) == 0:
            return []
        return self.proj_matrix_fn(d).echelon().kernel_basis()

    @memo
    def _free_cols(self, d: int) -> list:
        """The free columns of the projection's RREF, ascending: the kernel
        basis vector of free column j is e_j minus terms on the pivots before
        j, so j is its largest coordinate."""
        return [max(v) for v in self.basis_vectors(d)]

    @memo
    def min_degree(self) -> int:
        base = self.parent.min_degree()
        top = self.config.max_degree
        for d in range(base, top + 1):
            if self.basis_vectors(d):
                return d
        return top + 1  # zero within cap

    def dim(self, d: int) -> int:
        if d < self.parent.min_degree():
            return 0
        return len(self.basis_vectors(d))

    def labels(self, d: int):
        return [f"{self.name}[{d}].{k}" for k in range(self.dim(d))]

    def coords(self, d: int, parent_vec: dict) -> dict:
        """Coordinates of a parent vector that lies in the kernel subspace."""
        basis = self.basis_vectors(d)
        free = self._free_cols(d)
        f = self.field
        out = {}
        # free columns are sorted: bisect gives a column's position, and
        # visiting columns in order makes out's keys ascend
        for col, c in sorted(parent_vec.items()):
            k = bisect_left(free, col)
            if k < len(free) and free[k] == col and not f.is_zero(c):
                out[k] = c
        # verify by substitution
        chk: dict = {}
        for k, c in out.items():
            vec_axpy(f, chk, c, basis[k])
        if chk != {j: c for j, c in parent_vec.items() if not f.is_zero(c)}:
            raise DimensionMismatch(f"vector not in {self.name} at degree {d}")
        return out

    def to_parent(self, d: int, vec: dict) -> dict:
        f = self.field
        out: dict = {}
        basis = self.basis_vectors(d)
        for k, c in vec.items():
            vec_axpy(f, out, c, basis[k])
        return out

    def _push(self, d: int, out_deg: int, parent_mat: SparseMatrix) -> SparseMatrix:
        cols = []
        for v in self.basis_vectors(d):
            img = parent_mat.mat_vec(v)
            cols.append(self.coords(out_deg, img))
        return SparseMatrix.from_cols(self.field, self.dim(out_deg), cols)

    @memo
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
    echelons of the S_q without being built: ncols is the free dimension and
    rank the number of relation pivots.  layout[p] is what the reduction
    reads of block p: (the column where it starts, dim Y_{d-p}, the
    quotient index of its first coordinate).  quot lists the free columns
    of the relation echelon, ascending, and labels the (p, i, j) of each."""

    ncols: int
    rank: int
    layout: dict
    quot: list
    labels: list


class TensorCarrier(Carrier):
    """X (x)_R Y as a degreewise relation-quotient, R = B or the prefix A.

    The free space in degree d is the sum over p of the blocks X_p (x) Y_{d-p}.
    Block p starts at column base[p] (base = self._blocks(d)), and the pair
    (x_i, y_j) sits at base[p] + i*dim(Y_{d-p}) + j: the stretch (p, i) of
    x_i.  The relations are x*b (x) y - x (x) b*y over the non-unit monomials
    b of the chosen ring (any shift twist lives inside Y's left action).
    Quotient coordinates are the free columns of the RREF of the relations;
    that echelon is never built.  It is read off one small echelon per
    degree q of Y.

    For each q, S_q is a basis of (R_+ Y)_q made of products g*y_m, g a
    generator of R (the base nilpotent or a variable) and y_m a basis vector
    of Y: every product b*y with b a non-unit monomial is a combination of
    those, since b = g*b' for a generator g.  E_q is the RREF of S_q on the
    columns of Y_q, each row tagged with the combination of S_q that made
    it.  Let V_q = dim Y_q - |S_q|.  The relations in degree d are spanned by
    r = x_i*g (x) y_m - x_i (x) g*y_m for x_i in X_p and (g, m) in S_{d-p}:

    - They span.  The freeness certificate checks, for every degree q of Y
      up to d - min(X), that dim Y_q = sum_e dim R_e * V_{q-e} (dim R_0
      counts the unit).  Lifts of a basis of Y/R_+Y generate Y (graded
      Nakayama: R_+ is nilpotent in degree 0 and raises degree otherwise),
      so R (x) V maps onto Y, and equal dimensions make it an isomorphism
      in those degrees.  Then (X (x)_R Y)_d = (X (x) V)_d has dimension
      sum_p dim X_p * V_{d-p}, so the relation rank is sum_p dim X_p *
      |S_{d-p}|, which is the number of these r.  A factor that fails the
      check raises DimensionMismatch rather than give a wrong quotient;
      every right factor the engine uses (T^n, B) is free over R.
    - Their pivots are the columns base[p] + i*dim Y_q + pi, pi a pivot of
      E_q.  The half x_i*g (x) y_m lies in block p + e, e = |g|, above block
      p when e > 0; for a degree-0 g it lies in block p, in the stretches of
      the x_i' that x_i*g involves, and the ordering check asks each of those
      to come after x_i.  So r leads in its own stretch (p, i), where it
      reads -g*y_m, and the tagged rows of E_q combine the r of one stretch
      into rows that lead at each pivot of E_q there.  That makes one
      distinct leading column per r, as many as the relation rank, so these
      are the pivots of the RREF and the labels are the other columns.

    _reduce, behind project_free, pair_project and diff, reduces a vector to
    the RREF free columns without the RREF: it walks the stretches in
    ascending order, reduces the Y_q part of stretch (p, i) by E_q, whose
    tags say which sum of the g*y_m it took away, and moves x_i (x) g*y_m
    across as x_i*g (x) y_m, into later stretches.  What is left lies on
    free columns and differs from the vector by relations, so it is the
    RREF reduction.  A left factor whose degree-0 action moves a basis
    vector backwards would break the walk and the pivot count; it raises
    DimensionMismatch naming the degree.
    """

    def __init__(self, X: Carrier, Y: Carrier, ring: str = "B"):
        if not X.has_right:
            raise DimensionMismatch("left tensor factor needs a right action")
        if not Y.has_left:
            raise DimensionMismatch("right tensor factor needs a left action")
        super().__init__(X.algebra)
        self.X = X
        self.Y = Y
        self.ring = ring
        self.has_left = X.has_left
        self.has_right = Y.has_right

    def __repr__(self):
        return (f"TensorCarrier({type(self.X).__name__} (x)_{self.ring} "
                f"{type(self.Y).__name__})")

    def min_degree(self) -> int:
        return self.X.min_degree() + self.Y.min_degree()

    def _ring_monomials(self, e: int):
        """The monomials of degree e of the ring, the unit included."""
        alg = self.algebra
        monos = alg.monomials(e)
        if self.ring == "A":
            monos = tuple(u for u in monos if alg.mono_in_A(u))
        return monos

    @memo
    def _spanning(self, q: int) -> tuple:
        """(S_q, E_q, free) for degree q of Y.  S_q lists (e, g, m) for the
        generators g of degree e of the ring: walking e ascending, then m
        descending, the products g*y_m that enlarge the span of the ones
        before them.  E_q is their RREF on columns 0..dim Y_q - 1; the row
        that element s of S_q entered carries a tag 1 in column dim Y_q + s,
        so every row's tags give its combination of S_q.  free maps each
        non-pivot column of E_q to its position among them.  Building S_q
        also checks the freeness certificate in degree q, which reads
        S_{q-e} for e > 0 as well: _echelon_at(d) asks for every q from
        min(Y) to d - min(X), so every degree it reads is certified."""
        Y, f = self.Y, self.field
        ymin, wy = Y.min_degree(), Y.dim(q)
        span: list = []
        # the tags ride beyond the wy columns of Y_q and are never pivots
        ech = Echelon(f, wy)
        if wy:
            for e in range(q - ymin + 1):
                if not Y.dim(q - e):
                    continue
                for g in self._ring_monomials(e):
                    if sum(g) != 1:  # a generator: one exponent 1, the rest 0
                        continue
                    cols = Y.action("l", g, q - e).cols()
                    for m in range(len(cols) - 1, -1, -1):
                        red = ech.reduce(cols[m]) if cols[m] else None
                        # g*y_m is new when it leaves something on Y_q
                        if red and min(red) < wy:
                            red[wy + len(span)] = f.one
                            ech.add_row(red)
                            span.append((e, g, m))
        free = sum(len(self._ring_monomials(e))
                   * (Y.dim(q - e) - len(self._spanning(q - e)[0] if e else span))
                   for e in range(q - ymin + 1))
        if free != wy:
            raise DimensionMismatch(
                f"{self!r}: the right factor is not free over {self.ring} in "
                f"its degree {q} (dimension {wy}, a free module on the "
                f"same generators has {free})")
        return span, ech, {j: k for k, j in enumerate(ech.free_columns())}

    def _blocks(self, d: int) -> dict:
        """base: block p of the free space in degree d starts at base[p]; the
        entry one past the last block is the free dimension.  Only
        _echelon_at(d) reads it, once, so it is not kept."""
        self.check_cap(d)
        X, Y = self.X, self.Y
        top = d - Y.min_degree()
        base = {}
        k = 0
        for p in range(X.min_degree(), top + 1):
            base[p] = k
            k += X.dim(p) * Y.dim(d - p)
        base[top + 1] = k
        return base

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
        """The shape of the relation echelon in degree d, with the labels and
        the free columns; certifies every degree of Y it reads and runs the
        ordering check."""
        base = self._blocks(d)
        X, Y = self.X, self.Y
        layout: dict = {}
        quot: list = []
        labels: list = []
        rank = 0
        for p in range(X.min_degree(), d - Y.min_degree() + 1):
            # S_q for every q, empty blocks too, so every degree is certified
            span, _, free = self._spanning(d - p)
            o, nx, wy = base[p], X.dim(p), Y.dim(d - p)
            layout[p] = (o, wy, len(quot))
            if not (nx and wy):
                continue
            self._check_moves(d, p, span)
            rank += nx * len(span)
            for i in range(nx):
                r = o + i * wy
                quot += [r + j for j in free]
                labels += [(p, i, j) for j in free]
        return QuotientShape(base[d - Y.min_degree() + 1], rank, layout, quot, labels)

    def dim(self, d: int) -> int:
        if d < self.min_degree():
            return 0
        return len(self._echelon_at(d).quot)

    def labels(self, d: int):
        return list(self._echelon_at(d).labels)

    def _reduce(self, d: int, shape: QuotientShape, parts: dict) -> dict:
        """Quotient coordinates of the free vector given by stretches: parts
        maps the start column of stretch (p, i) to (p, i, its Y_{d-p} part,
        a dict the walk may change).  The walk of the class docstring; it
        consumes parts."""
        X, f = self.X, self.field
        layout = shape.layout
        out: dict = {}
        # the stretches to visit, ascending: a move only reaches later ones,
        # so a new stretch sorts in after position k
        todo = sorted(parts)
        k = 0
        while k < len(todo):
            p, i, part = parts.pop(todo[k])
            k += 1
            span, ech, free = self._spanning(d - p)
            _, wy, k0 = layout[p]
            k0 += i * len(free)
            moves: dict = {}
            for j, c in ech.reduce(part).items():
                if j < wy:
                    out[k0 + free[j]] = c
                else:
                    # a tag: -c times g*y_m was taken away, and moves across
                    e, g, m = span[j - wy]
                    moves.setdefault(g, (e, {}))[1][m] = c
            for g, (e, w) in moves.items():
                xcol = X.action("r", g, p).columns().get(i)
                if not xcol:
                    continue
                o, ny, _ = layout[p + e]
                for i2, cx in xcol.items():
                    t = o + i2 * ny
                    got = parts.get(t)
                    if got is None:
                        got = parts[t] = (p + e, i2, {})
                        insort(todo, t, k)
                    f.axpy(got[2], f.neg(cx), w)
        return out

    def project_free(self, d: int, free_vec: dict) -> dict:
        """Quotient coordinates of a free-space vector."""
        shape = self._echelon_at(d)
        # an empty block starts where the next one does, and comes before it
        blocks = [(o, p, wy) for p, (o, wy, _) in shape.layout.items() if wy]
        starts = [o for o, _, _ in blocks]
        parts: dict = {}
        for k, c in free_vec.items():
            o, p, wy = blocks[bisect_right(starts, k) - 1]
            i, j = divmod(k - o, wy)
            got = parts.get(k - j)
            if got is None:
                got = parts[k - j] = (p, i, {})
            got[2][j] = c
        return self._reduce(d, shape, parts)

    def pair_project(self, p: int, xvec: dict, q: int, yvec: dict) -> dict:
        """Quotient coordinates of x (x) y for coordinate vectors in X_p, Y_q."""
        if not xvec or not yvec:
            return {}
        d = p + q
        shape = self._echelon_at(d)
        o, wy, _ = shape.layout[p]
        f = self.field
        return self._reduce(d, shape, {o + i * wy: (p, i, f.scale(c, yvec))
                                       for i, c in xvec.items()})

    def _label_columns(self, d: int, matrix) -> tuple[list, dict]:
        """The quotient labels of degree d, and for each block p they use the
        columns of matrix(p), read once."""
        labels = self._echelon_at(d).labels
        return labels, {p: matrix(p).columns() for p in {p for p, _, _ in labels}}

    @memo
    def diff(self, d: int) -> SparseMatrix:
        f, Y = self.field, self.Y
        minus = f.neg(f.one)
        labels, dx = self._label_columns(d, self.X.diff)
        dy = {p: Y.diff(d - p).columns() for p in dx}
        shape = self._echelon_at(d - 1)
        layout = shape.layout
        cols = []
        for p, i, j in labels:
            # d(x_i (x) y_j) = dx_i (x) y_j + (-1)^p x_i (x) dy_j, by stretches
            parts: dict = {}
            xv = dx[p].get(i)
            if xv:
                o, ny, _ = layout[p - 1]
                for i2, c in xv.items():
                    parts[o + i2 * ny] = (p - 1, i2, {j: c})
            yv = dy[p].get(j)
            if yv:
                o, ny, _ = layout[p]
                parts[o + i * ny] = (
                    p, i, f.scale(minus, yv) if p % 2 else dict(yv))
            cols.append(self._reduce(d - 1, shape, parts))
        return SparseMatrix.from_cols(f, self.dim(d - 1), cols)

    def right_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        one = self.field.one
        labels, act = self._label_columns(d, lambda p: self.Y.action("r", mono, d - p))
        cols = []
        for p, i, j in labels:
            yv = act[p].get(j)
            cols.append(self.pair_project(p, {i: one}, d - p + e, yv) if yv else {})
        return SparseMatrix.from_cols(self.field, self.dim(d + e), cols)

    def left_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        one = self.field.one
        labels, act = self._label_columns(d, lambda p: self.X.action("l", mono, p))
        cols = []
        for p, i, j in labels:
            xv = act[p].get(i)
            cols.append(self.pair_project(p + e, xv, d - p, {j: one}) if xv else {})
        return SparseMatrix.from_cols(self.field, self.dim(d + e), cols)


def validate_carrier_squares(car: Carrier, degrees) -> None:
    """Assert d(d(x)) = 0 on the given degrees (exact)."""
    for d in degrees:
        if car.dim(d) == 0:
            continue
        m1 = car.diff(d)
        m2 = car.diff(d - 1)
        comp = m2 @ m1
        if not comp.is_zero():
            raise DimensionMismatch(f"carrier differential does not square to zero at degree {d}")
