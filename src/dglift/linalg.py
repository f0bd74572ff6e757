"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {column index: nonzero scalar}.  A SparseMatrix is
eliminated at most once: SparseMatrix.sweep is one forward sweep, kept on
the matrix as a Sweep that records its pivot rows, the source row of each,
its row operations in order and the rows that end zero, as an LU-type
factorization does.  rank counts the pivots, echelon inserts the kept rows
into an Echelon, and solve carries b through the recorded operations and
back-substitutes; b carried onto a zero row is a "no", whose absence
certificate replays the operations backwards from that row.  The Echelon
class keeps a reduced row echelon form incrementally; it holds kernels, and
the tagged reductions of the Hom spaces and the tensor carriers.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatch
from .memo import memo


def vec_add(field, u: dict, v: dict) -> dict:
    out = dict(u)
    field.axpy(out, field.one, v)
    return out


def vec_scale(field, c, u: dict) -> dict:
    return field.scale(c, u)


def vec_axpy(field, out: dict, c, u: dict) -> None:
    """out += c*u in place."""
    field.axpy(out, c, u)


class Echelon:
    """Reduced row echelon form maintained incrementally.

    Rows are stored normalized (pivot coefficient 1) and fully reduced against
    each other, so the stored form is the unique RREF of the row space; all
    derived data (kernel bases, solutions with zero free coordinates) is
    therefore canonical regardless of insertion order.

    Invariant: a stored row vanishes on every pivot column but its own.  So
    ``reduce`` subtracts only the rows whose pivots occur in the vector, each
    scaled by the vector's original entry there.  The rows live only in
    ``_row_of``, which maps a pivot to its row, in insertion order; ``_by_col``
    maps each non-pivot column to the pivots of the rows with an entry in it.
    ``pivots`` and ``rows`` are views sorted by pivot, built on each read, so
    an insertion costs nothing for keeping a sorted list.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._row_of: dict[int, dict] = {}
        self._by_col: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._row_of)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._row_of)

    @property
    def rows(self) -> list[dict]:
        return [self._row_of[p] for p in sorted(self._row_of)]

    def reduce(self, vec: dict) -> dict:
        """Return vec reduced modulo the row space (a fresh dict)."""
        f = self.field
        row_of = self._row_of
        out = dict(vec)
        hits = [j for j in vec if j in row_of]
        # ascending pivots, so the result's key order matches a full scan
        if len(hits) > 1:
            hits.sort()
        for p in hits:
            f.axpy(out, f.neg(vec[p]), row_of[p])
        return out

    def add_row(self, vec: dict) -> bool:
        """Insert a row; returns True if it enlarged the row space."""
        f = self.field
        row = self.reduce(vec)  # a fresh dict: it becomes the row, normalized in place
        if not row:
            return False
        p = min(row)
        f.normalize(row, p)
        tail = [j for j in row if j != p]
        row_of = self._row_of
        by_col = self._by_col
        # keep RREF: clear column p from the rows that have an entry there
        for q in by_col.pop(p, ()):
            r = row_of[q]
            f.axpy(r, f.neg(r[p]), row)
            for j in tail:
                if j in r:
                    by_col.setdefault(j, set()).add(q)
                else:
                    by_col[j].discard(q)
        row_of[p] = row
        for j in tail:
            by_col.setdefault(j, set()).add(p)
        return True

    def free_columns(self) -> list[int]:
        return [j for j in range(self.ncols) if j not in self._row_of]

    def kernel_basis(self) -> list[dict]:
        """Canonical basis of the kernel of the matrix whose rows were
        inserted (only meaningful when they are all the rows of a matrix)."""
        f = self.field
        out = []
        for j in self.free_columns():
            v = {j: f.one}
            for p in sorted(self._by_col.get(j, ())):
                v[p] = f.neg(self._row_of[p][j])
            out.append(v)
        return out


def _replay(f, vals: dict, ops) -> dict:
    """vals[k] += c * vals[p] in place for each (k, c, p) in order, zeros
    dropped; returns vals."""
    get = vals.get
    for k, c, p in ops:
        v = get(p)
        if v is not None:
            s = f.add(get(k, f.zero), f.mul(c, v))
            if f.is_zero(s):
                del vals[k]
            else:
                vals[k] = s
    return vals


class Sweep(NamedTuple):
    """The kept forward sweep of a matrix M.  rows maps each pivot column to
    its kept row, which leads there (a row echelon form of M); source maps
    it to the row of M that row started as.  ops lists the row operations in
    order: (k, c, p) is row k += c * row p, a pivot row, already final.
    zero holds one byte per row: 1 where the row ends zero (zero from the
    start included), 0 where it is the source of a pivot."""

    rows: dict
    source: dict
    ops: list
    zero: bytearray


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field.

    entries maps (row, col) to a nonzero scalar; the constructor checks the
    bounds of every index and drops zero values.  from_blocks, add, scale
    and transpose build their entries valid (in range, nonzero) from valid
    matrices, and wrap them through _trusted without that per-entry pass.
    """

    def __init__(self, field, nrows: int, ncols: int, entries: dict | None = None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        ent = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise DimensionMismatch(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if not field.is_zero(c):
                    ent[(i, j)] = c
        self.entries = ent

    @classmethod
    def _trusted(cls, field, nrows: int, ncols: int, entries: dict) -> "SparseMatrix":
        """The matrix with these entries, taken as they are: every index in
        range and every value nonzero."""
        m = cls.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, field, ncols, rows):
        return cls(field, len(rows), ncols,
                   {(i, j): c for i, row in enumerate(rows) for j, c in row.items()})

    @classmethod
    def from_cols(cls, field, nrows, cols):
        return cls(field, nrows, len(cols),
                   {(i, j): c for j, col in enumerate(cols) for i, c in col.items()})

    @classmethod
    def from_blocks(cls, field, row_offsets, col_offsets, blocks):
        """The matrix that adds c * M at (row_offsets[r], col_offsets[k]) for
        each generator block (r, k, c, M): the one place where an operator
        acting on one copy of a carrier per generator is put together.  The
        offset lists end in the row and column totals; each block M must
        have the shape of its slot, rows row_offsets[r]..row_offsets[r + 1]
        and columns col_offsets[k]..col_offsets[k + 1], or DimensionMismatch
        is raised, so every entry lands in range."""
        ent: dict = {}
        axpy = field.axpy
        for r, k, c, m in blocks:
            o, p = row_offsets[r], col_offsets[k]
            if (m.nrows, m.ncols) != (row_offsets[r + 1] - o, col_offsets[k + 1] - p):
                raise DimensionMismatch(
                    f"block ({r},{k}) is {m.nrows}x{m.ncols}, its slot "
                    f"{row_offsets[r + 1] - o}x{col_offsets[k + 1] - p}")
            if m.entries:
                axpy(ent, c, {(o + i, p + j): x for (i, j), x in m.entries.items()})
        return cls._trusted(field, row_offsets[-1], col_offsets[-1], ent)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, {})

    def rows(self) -> list[dict]:
        out = [dict() for _ in range(self.nrows)]
        for (i, j), c in self.entries.items():
            out[i][j] = c
        return out

    def col(self, j) -> dict:
        return dict(self.columns().get(j, ()))

    def cols(self) -> list[dict]:
        out = [dict() for _ in range(self.ncols)]
        for (i, j), c in self.entries.items():
            out[j][i] = c
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(
            self.field, self.ncols, self.nrows,
            {(j, i): c for (i, j), c in self.entries.items()},
        )

    @memo
    def columns(self) -> dict[int, dict]:
        """The nonzero columns as {j: {i: c}}, built on first use and shared:
        callers read them and never change them."""
        by_col: dict[int, dict] = {}
        for (i, j), c in self.entries.items():
            by_col.setdefault(j, {})[i] = c
        return by_col

    def mat_vec(self, v: dict) -> dict:
        f = self.field
        out: dict = {}
        by_col = self.columns()
        for j, c in v.items():
            col = by_col.get(j)
            if col:
                f.axpy(out, c, col)
        return out

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"matmul of a {self.nrows}x{self.ncols} matrix by a "
                                    f"{other.nrows}x{other.ncols} one")
        return SparseMatrix.from_cols(self.field, self.nrows,
                                      [self.mat_vec(c) for c in other.cols()])

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"add of a {self.nrows}x{self.ncols} matrix and a "
                                    f"{other.nrows}x{other.ncols} one")
        f = self.field
        ent = dict(self.entries)
        f.axpy(ent, f.one, other.entries)
        return SparseMatrix._trusted(f, self.nrows, self.ncols, ent)

    def scale(self, c) -> "SparseMatrix":
        """c times this matrix; c a field value (the zero matrix for 0)."""
        return SparseMatrix._trusted(self.field, self.nrows, self.ncols,
                                     self.field.scale(c, self.entries))

    def is_zero(self) -> bool:
        return not self.entries

    @memo
    def sweep(self) -> Sweep:
        """The one forward elimination of this matrix, kept.  Rows wait in
        buckets by leading column, and the sweep walks the columns in
        ascending order.  At each column the bucket's row of least
        coefficient cost (the earliest on ties) becomes the pivot row, which
        limits rational coefficient blowup; the bucket's other rows lose
        their entry there through that row alone, one recorded op each, and
        move to the bucket of their new leading column or end zero."""
        f = self.field
        buckets, zero = {}, bytearray(self.nrows)
        for k, r in enumerate(self.rows()):
            if r:
                buckets.setdefault(min(r), []).append((k, r))
            else:
                zero[k] = 1
        rows, source, ops = {}, {}, []
        col = -1
        while buckets:
            col += 1
            cand = buckets.pop(col, None)
            if cand is None:
                continue
            if len(cand) > 1:
                cand.sort(key=lambda kr: (f.cost(kr[1][col]), kr[0]))
            p, piv = cand[0]
            source[col], rows[col] = p, piv
            inv = f.inv(piv[col])
            for k, r in cand[1:]:
                c = f.neg(f.mul(r[col], inv))
                ops.append((k, c, p))
                f.axpy(r, c, piv)
                if r:
                    buckets.setdefault(min(r), []).append((k, r))
                else:
                    zero[k] = 1
        return Sweep(rows, source, ops, zero)

    @memo
    def echelon(self) -> Echelon:
        """The RREF: the kept rows inserted by descending pivot.  A row
        leads at its pivot and the rows before it lead further right, so an
        insert only reduces (a copy of) the new row and clears no column.
        The RREF is unique, so it does not depend on the sweep's pivot rows."""
        ech = Echelon(self.field, self.ncols)
        for _, row in sorted(self.sweep().rows.items(), reverse=True):
            ech.add_row(row)
        return ech

    def rank(self) -> int:
        return len(self.sweep().rows)

    def kernel_basis(self) -> list[dict]:
        return self.echelon().kernel_basis()

    def _carry(self, b: dict) -> tuple[dict, dict]:
        """(b without zero values, b carried through the sweep's ops): b is
        {row: value}, each row in range or DimensionMismatch is raised.  b
        carried is the right-hand side of the kept rows and the zero rows."""
        bvec = {i: c for i, c in b.items() if not self.field.is_zero(c)}
        for i in bvec:
            if not 0 <= i < self.nrows:
                raise DimensionMismatch(f"rhs entry {i} outside {self.nrows} rows")
        return bvec, _replay(self.field, dict(bvec), self.sweep().ops)

    def solve(self, b: dict) -> dict | None:
        """Some x with Mx = b (free coordinates zero), or None if inconsistent.

        b is {row: value} (see _carry), x {column: value}, nonzero only.  b
        carried onto a zero row means no solution exists, and None is
        returned only once absence_certificate has produced and rechecked a
        certificate of that.  Otherwise back-substitution over the kept
        rows, pivots descending, every free coordinate zero: that solution
        is unique, so it is the RREF's, and it is rechecked by substitution.
        A failed recheck of either answer is an arithmetic fault, not an
        answer, and raises DimensionMismatch."""
        f = self.field
        bvec, vals = self._carry(b)
        sw = self.sweep()
        if any(sw.zero[k] for k in vals):
            self.absence_certificate(bvec)
            return None
        x: dict = {}
        for p, row in sorted(sw.rows.items(), reverse=True):
            acc = vals.get(sw.source[p], f.zero)
            for j, c in row.items():
                if j in x:
                    acc = f.sub(acc, f.mul(c, x[j]))
            if not f.is_zero(acc):
                x[p] = f.div(acc, row[p])
        # verify by substitution
        if self.mat_vec(x) != bvec:
            raise DimensionMismatch("solution failed the substitution recheck")
        return x

    def absence_certificate(self, b: dict) -> dict:
        """A certificate that Mx = b has no solution: y = {row: value} with
        y^T M = 0 and y.b != 0, which exists exactly then (the Fredholm
        alternative).  Of the zero rows that b is carried onto, the one of
        least (cost, row index) is taken, as the sweep picks a pivot, and y,
        the combination of rows that made it, is read by replaying the ops
        backwards: y^T (I + c e_k e_p^T) adds c y_k to y_p.  y is rechecked
        (y^T M summed from M's rows); a consistent system, or a y that fails the
        recheck, raises DimensionMismatch."""
        f = self.field
        bvec, vals = self._carry(b)
        sw = self.sweep()
        left = [k for k in vals if sw.zero[k]]
        if not left:
            raise DimensionMismatch("no absence certificate: the system is consistent")
        y = {min(left, key=lambda k: (f.cost(vals[k]), k)): f.one}
        _replay(f, y, ((p, c, k) for k, c, p in reversed(sw.ops)))
        rows, yM, yb = self.rows(), {}, f.zero
        for i, c in y.items():
            f.axpy(yM, c, rows[i])
            if i in bvec:
                yb = f.add(yb, f.mul(c, bvec[i]))
        if yM or f.is_zero(yb):
            raise DimensionMismatch("absence certificate failed its recheck")
        return y

    def column_space_echelon(self) -> Echelon:
        """RREF of the column space (canonical basis of the image)."""
        return self.transpose().echelon()

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"
