"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {column index: nonzero scalar}.  One forward-elimination
sweep, SparseMatrix._forward, is behind every rank, solve and RREF of a
matrix: rank counts its pivots, solve back-substitutes its rows, and the
RREF inserts them into an Echelon.  The Echelon class keeps a reduced row
echelon form incrementally; it holds kernels, and the tagged reductions of
the Hom spaces and the tensor carriers.
"""

from __future__ import annotations

from .errors import DimensionMismatch


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
        row_of = self._row_of
        return [row_of[p] for p in sorted(row_of)]

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
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        row = f.scale(f.inv(res[p]), res)
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
        """Canonical basis of the kernel of the matrix whose rows were inserted.

        Only meaningful when the inserted rows are the rows of that matrix.
        """
        f = self.field
        out = []
        for j in self.free_columns():
            v = {j: f.one}
            for p in sorted(self._by_col.get(j, ())):
                v[p] = f.neg(self._row_of[p][j])
            out.append(v)
        return out


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
        ent = {}
        for i, row in enumerate(rows):
            for j, c in row.items():
                ent[(i, j)] = c
        return cls(field, len(rows), ncols, ent)

    @classmethod
    def from_cols(cls, field, nrows, cols):
        ent = {}
        for j, col in enumerate(cols):
            for i, c in col.items():
                ent[(i, j)] = c
        return cls(field, nrows, len(cols), ent)

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

    def columns(self) -> dict[int, dict]:
        """The nonzero columns as {j: {i: c}}, built on first use and shared:
        callers read them and never change them."""
        if not hasattr(self, "_bycol"):
            by_col: dict[int, dict] = {}
            for (i, j), c in self.entries.items():
                by_col.setdefault(j, {})[i] = c
            self._bycol = by_col
        return self._bycol

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
            raise DimensionMismatch("matmul shape mismatch")
        f = self.field
        cols = other.cols()
        out_cols = [self.mat_vec(c) for c in cols]
        return SparseMatrix.from_cols(f, self.nrows, out_cols)

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("add shape mismatch")
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

    def _forward(self, rows: list[dict]) -> dict[int, dict]:
        """One forward-elimination sweep: {pivot column: row}, a row echelon
        form of rows (which it consumes: the dicts change in place).

        Rows wait in buckets by leading column, and the sweep walks the
        columns in ascending order.  At each column the bucket's row of least
        coefficient cost (the earliest on ties) becomes the pivot row, which
        limits rational coefficient blowup; the bucket's other rows lose
        their entry there through that row alone and move to the bucket of
        their new leading column.  Each kept row leads at its own pivot, and
        no row is reduced beyond that, so rank, solve and the RREF all read
        this one sweep.
        """
        f = self.field
        buckets: dict[int, list] = {}
        for k, r in enumerate(rows):
            if r:
                buckets.setdefault(min(r), []).append((k, r))
        out: dict[int, dict] = {}
        col = -1
        while buckets:
            col += 1
            cand = buckets.pop(col, None)
            if cand is None:
                continue
            if len(cand) > 1:
                cand.sort(key=lambda kr: (f.cost(kr[1][col]), kr[0]))
            piv = out[col] = cand[0][1]
            inv = f.inv(piv[col])
            for k, r in cand[1:]:
                f.axpy(r, f.neg(f.mul(r[col], inv)), piv)
                if r:
                    buckets.setdefault(min(r), []).append((k, r))
        return out

    def _echelon(self) -> Echelon:
        """The RREF: the sweep's rows inserted by descending pivot.  A row
        leads at its pivot and the rows before it lead further right, so an
        insert only reduces the new row and clears no column.  The RREF is
        unique, so it does not depend on the pivot rows the sweep chose."""
        ech = Echelon(self.field, self.ncols)
        piv = self._forward(self.rows())
        for p in sorted(piv, reverse=True):
            ech.add_row(piv[p])
        return ech

    def echelon(self) -> Echelon:
        if not hasattr(self, "_ech"):
            self._ech = self._echelon()
        return self._ech

    def rank(self) -> int:
        """The pivot count of one forward sweep, kept on the matrix; read off
        the echelon instead when the matrix has already built it."""
        if hasattr(self, "_ech"):
            return self._ech.rank
        if not hasattr(self, "_rank"):
            self._rank = len(self._forward(self.rows()))
        return self._rank

    def kernel_basis(self) -> list[dict]:
        return self.echelon().kernel_basis()

    def solve(self, b: list | dict) -> list | None:
        """Some x with Mx = b (free coordinates zero), or None if inconsistent.

        One forward sweep over the augmented rows [M | b]; None means a pivot
        landed in the augmented column, which certifies that no solution
        exists.  Otherwise back-substitution, pivots in descending order,
        with every free coordinate zero: that solution is unique, so it is
        the one the RREF gives.  The returned solution is verified by
        substitution; a failed recheck is an arithmetic fault, not absence,
        and raises DimensionMismatch.
        """
        f = self.field
        if not isinstance(b, dict):
            if len(b) != self.nrows:
                raise DimensionMismatch("rhs length != row count")
            b = dict(enumerate(b))
        bvec = {i: c for i, c in b.items() if not f.is_zero(c)}
        aug = self.ncols
        rows = self.rows()
        for i, c in bvec.items():
            if not 0 <= i < self.nrows:
                raise DimensionMismatch(f"rhs entry {i} outside {self.nrows} rows")
            rows[i][aug] = c
        piv = self._forward(rows)
        if aug in piv:
            return None
        x: dict = {}
        for p in sorted(piv, reverse=True):
            row = piv[p]
            acc = row.get(aug, f.zero)
            for j, c in row.items():
                if j in x:
                    acc = f.sub(acc, f.mul(c, x[j]))
            if not f.is_zero(acc):
                x[p] = f.div(acc, row[p])
        out = [x.get(j, f.zero) for j in range(self.ncols)]
        # verify by substitution
        if self.mat_vec(x) != bvec:
            raise DimensionMismatch("solution failed the substitution recheck")
        return out

    def column_space_echelon(self) -> Echelon:
        """RREF of the column space (canonical basis of the image)."""
        return self.transpose()._echelon()

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"
