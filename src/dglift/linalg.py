"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}, and a SparseMatrix stores only
its nonzero columns, each such a vector.  A matrix is eliminated at most
once: SparseMatrix.sweep is one forward sweep, kept as a Sweep that records
its pivot rows, the source row of each, its row operations in order and the
rows that end zero, as an LU-type factorization does; each pivot is the
earliest row leading at its column, on every field.  rank counts the
pivots, echelon inserts the kept rows into a new Echelon and
column_space_echelon the columns at the pivots, and solve carries b through
the recorded operations and back-substitutes; b carried onto a zero row is
a "no", whose absence certificate replays the operations backwards from the
earliest such row.  Echelon keeps a reduced row echelon form incrementally:
it holds kernels, and the tagged reductions of the Hom spaces and the
tensor carriers; its column index covers the non-pivot columns below ncols
only, never the tags beyond them.  add_row refuses a row that reduces to
tags alone, so no tag leads a row, and a caller puts a tagged vector in
with one call, which reduces it once and says whether it was kept.
"""

from __future__ import annotations

from functools import reduce
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
    maps each non-pivot column below ``ncols`` to the pivots of the rows with
    an entry in it, until ``release_index`` frees it after the last insert.
    ``pivots`` and ``rows`` are views sorted by pivot, built on each read, so
    an insertion costs nothing for keeping a sorted list.

    Tags: columns from ``ncols`` on ride along in rows and reductions and
    are never indexed, so a caller can record in them the combination that
    made each row.  ``add_row`` refuses a row that reduces to tags alone, so
    a tag never leads a row: a caller writes the tag into the vector and
    inserts it in one call, whose answer says whether the vector was new
    below ``ncols``.
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
        """Insert vec reduced, and return True, when the reduction leaves an
        entry below ncols; otherwise store nothing and return False, so a row
        that reduces to nothing or to tags alone is refused."""
        by_col = self._by_col
        if by_col is None:
            raise RuntimeError("add_row after release_index")
        f = self.field
        row = self.reduce(vec)  # a fresh dict: it becomes the row, normalized in place
        p = min(row, default=self.ncols)
        if p >= self.ncols:
            return False
        f.normalize(row, p)
        tail = [j for j in row if j != p and j < self.ncols]
        row_of = self._row_of
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

    def release_index(self) -> None:
        """Free the column index once the last row is in: reduce, rank and
        free_columns read the rows only, and a later add_row or kernel_basis
        raises."""
        self._by_col = None

    def free_columns(self) -> list[int]:
        return [j for j in range(self.ncols) if j not in self._row_of]

    def kernel_basis(self) -> list[dict]:
        """Canonical basis of the kernel of the matrix whose rows were
        inserted (only meaningful when they are all the rows of a matrix)."""
        by_col = self._by_col
        if by_col is None:
            raise RuntimeError("kernel_basis after release_index")
        f = self.field
        out = []
        for j in self.free_columns():
            v = {j: f.one}
            for p in sorted(by_col.get(j, ())):
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


def _slot(row_offsets, col_offsets, r: int, k: int, m) -> tuple[int, int]:
    """Where block (r, k) starts, (row_offsets[r], col_offsets[k]), once m is
    checked to have the shape of its slot; DimensionMismatch if not."""
    o, p = row_offsets[r], col_offsets[k]
    if (m.nrows, m.ncols) != (row_offsets[r + 1] - o, col_offsets[k + 1] - p):
        raise DimensionMismatch(
            f"block ({r},{k}) is {m.nrows}x{m.ncols}, its slot "
            f"{row_offsets[r + 1] - o}x{col_offsets[k + 1] - p}")
    return o, p


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field, stored as
    its nonzero columns {j: {i: c}}: no column is empty and no value zero,
    so matrices of one shape are equal exactly when their columns() are.
    The constructor (given such a dict), from_cols and from_rows check every
    index against the shape and drop zeros, in one pass over the columns,
    and keep a column dict with no zero as it is: its caller hands it over;
    from_blocks, add, scale, transpose and @ build valid columns from valid
    matrices and take them through _trusted.  rows, cols, col and entries
    are views, built on each read; echelon and kernel_basis too, off the
    one memo, the sweep."""

    def __init__(self, field, nrows: int, ncols: int, cols: dict | None = None):
        self.field, self.nrows, self.ncols = field, nrows, ncols
        self._columns = out = {}
        for j, col in cols.items() if cols else ():
            if not col:
                continue
            if not (0 <= j < ncols and 0 <= min(col) and max(col) < nrows):
                raise DimensionMismatch(f"column {j} has an entry outside {nrows}x{ncols}")
            # kept as given unless it holds a zero (is_zero(c) is c == zero)
            if field.zero in col.values():
                col = {i: c for i, c in col.items() if not field.is_zero(c)}
            if col:
                out[j] = col

    @classmethod
    def _trusted(cls, field, nrows: int, ncols: int, columns: dict) -> "SparseMatrix":
        """These columns as they are: in range, nonempty, no zero value."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m._columns = field, nrows, ncols, columns
        return m

    @classmethod
    def from_rows(cls, field, ncols, rows):
        by_col: dict = {}
        for i, row in enumerate(rows):
            for j, c in row.items():
                by_col.setdefault(j, {})[i] = c
        return cls(field, len(rows), ncols, by_col)

    @classmethod
    def from_cols(cls, field, nrows, cols):
        return cls(field, nrows, len(cols), dict(enumerate(cols)))

    @classmethod
    def from_blocks(cls, field, row_offsets, col_offsets, blocks):
        """The matrix that adds c * M at (row_offsets[r], col_offsets[k]) for
        each generator block (r, k, c, M): the one place where an operator
        acting on one copy of a carrier per generator is put together.  The
        offset lists end in the row and column totals; each block M must
        have the shape of its slot, rows row_offsets[r]..row_offsets[r + 1]
        and columns col_offsets[k]..col_offsets[k + 1], or DimensionMismatch
        is raised, so every entry lands in range."""
        out: dict = {}
        axpy, mul, one = field.axpy, field.mul, field.one
        for r, k, c, m in blocks:
            o, p = _slot(row_offsets, col_offsets, r, k, m)
            if field.is_zero(c):
                continue
            for j, col in m._columns.items():
                new = ({o + i: x for i, x in col.items()} if c == one
                       else {o + i: mul(c, x) for i, x in col.items()})
                got = out.get(p + j)
                if got is None:
                    out[p + j] = new
                else:
                    axpy(got, one, new)
                    if not got:  # blocks in one slot may cancel
                        del out[p + j]
        return cls._trusted(field, row_offsets[-1], col_offsets[-1], out)

    @staticmethod
    def apply_blocks(field, row_offsets, col_offsets, blocks_of, parts: dict) -> dict:
        """from_blocks applied to a vector without the matrix: the vector is
        given by its pieces, parts[k] in the coordinates of generator k's
        slot, and blocks_of(k) lists the blocks (r, c, M) that read piece
        k, each adding c * M parts[k] at row_offsets[r].  Every block read
        is checked against its slot as from_blocks checks it."""
        out: dict = {}
        axpy = field.axpy
        for k, part in parts.items():
            for r, c, m in blocks_of(k):
                o, _ = _slot(row_offsets, col_offsets, r, k, m)
                y = m.mat_vec(part)
                axpy(out, c, {o + i: x for i, x in y.items()} if o else y)
        return out

    @property
    def entries(self) -> dict:
        """{(i, j): c}, built on each read: for tests and reports only."""
        return {(i, j): c for j, col in self._columns.items() for i, c in col.items()}

    def columns(self) -> dict[int, dict]:
        """The nonzero columns {j: {i: c}}, the storage itself: read only."""
        return self._columns

    def rows(self) -> list[dict]:
        out = [dict() for _ in range(self.nrows)]
        for j, col in self._columns.items():
            for i, c in col.items():
                out[i][j] = c
        return out

    def col(self, j) -> dict:
        return dict(self._columns.get(j, ()))

    def cols(self) -> list[dict]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(self.field, self.ncols, self.nrows,
                                     {i: r for i, r in enumerate(self.rows()) if r})

    def mat_vec(self, v: dict) -> dict:
        f = self.field
        out: dict = {}
        get = self._columns.get
        for j, c in v.items():
            col = get(j)
            if col:
                f.axpy(out, c, col)
        return out

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"matmul of a {self.nrows}x{self.ncols} matrix by a "
                                    f"{other.nrows}x{other.ncols} one")
        prod = ((j, self.mat_vec(col)) for j, col in other._columns.items())
        return SparseMatrix._trusted(self.field, self.nrows, other.ncols,
                                     {j: col for j, col in prod if col})

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"add of a {self.nrows}x{self.ncols} matrix and a "
                                    f"{other.nrows}x{other.ncols} one")
        one = self.field.one
        return SparseMatrix.from_blocks(self.field, [0, self.nrows], [0, self.ncols],
                                        [(0, 0, one, self), (0, 0, one, other)])

    def scale(self, c) -> "SparseMatrix":
        """c times this matrix; c a field value (the zero matrix for 0)."""
        return SparseMatrix.from_blocks(self.field, [0, self.nrows], [0, self.ncols],
                                        [(0, 0, c, self)])

    def is_zero(self) -> bool:
        return not self._columns

    @memo
    def sweep(self) -> Sweep:
        """The one forward elimination of this matrix, kept.  Rows wait in
        buckets by leading column, and the sweep walks the columns in
        ascending order.  At each column the bucket's earliest row (least
        row index) becomes the pivot row, on every field; the bucket's other
        rows, in row order, lose their entry there through that row alone,
        one recorded op each, and move to the bucket of their new leading
        column or end zero."""
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
            cand.sort()  # by row index: indices are distinct
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

    def echelon(self) -> Echelon:
        """The RREF, built afresh on each call: the kept rows inserted by
        descending pivot, so an insert only reduces (a copy of) the new row
        and clears no column.  The RREF is unique: no pivot rule shows in it."""
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
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} system: "
                                    f"solution failed the substitution recheck")
        return x

    def absence_certificate(self, b: dict) -> dict:
        """A certificate that Mx = b has no solution: y = {row: value} with
        y^T M = 0 and y.b != 0, which exists exactly then (the Fredholm
        alternative).  Of the zero rows that b is carried onto, the earliest
        is taken, as the sweep picks a pivot, and y, the combination of rows
        that made it, is read by replaying the ops backwards:
        y^T (I + c e_k e_p^T) adds c y_k to y_p.  y is rechecked,
        y.col = 0 for every column of M; a consistent system, or a y that
        fails the recheck, raises DimensionMismatch."""
        f = self.field
        bvec, vals = self._carry(b)
        sw = self.sweep()
        left = [k for k in vals if sw.zero[k]]
        if not left:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} system: consistent, so no "
                                    f"absence certificate")
        y = {min(left): f.one}
        _replay(f, y, ((p, c, k) for k, c, p in reversed(sw.ops)))

        def dot(v):  # y . v
            return reduce(f.add, (f.mul(y[i], c) for i, c in v.items() if i in y), f.zero)
        if f.is_zero(dot(bvec)) or not all(f.is_zero(dot(c)) for c in self._columns.values()
                                           if not y.keys().isdisjoint(c)):
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} system: "
                                    f"absence certificate failed its recheck")
        return y

    def column_space_echelon(self) -> Echelon:
        """The RREF of the image: the columns at the sweep's pivots, inserted."""
        ech = Echelon(self.field, self.nrows)
        for p in self.sweep().rows:
            ech.add_row(self._columns[p])
        return ech

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={sum(map(len, self._columns.values()))})"
