"""Degreewise carriers: DG modules presented by exact per-degree k-data.

A carrier exposes, for each DG degree within the configured cap, an ordered
k-basis, the differential as a sparse matrix, and (where the structure has
them) matrices for the left and right actions of algebra monomials.  Tensor
products over B (or over the subalgebra A) are realized as explicit
relation-quotients of the degreewise k-tensor spaces; a shifted carrier
negates the differential per shift step and twists the left action by
(-1)^{i|b|}, which is the whole sign content of suspension.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import CapExceeded, DimensionMismatch
from .linalg import Echelon, SparseMatrix, vec_axpy


class Carrier:
    has_left = False
    has_right = False

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field
        self.config = algebra.config

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

    def element_act_right(self, el, d: int, vec: dict) -> dict:
        """vec * el for an algebra element, expanding monomial by monomial."""
        f = self.field
        out: dict = {}
        for u, c in el.terms.items():
            img = self.right_act(u, d).mat_vec(vec)
            vec_axpy(f, out, c, img)
        return out

    def element_act_left(self, el, d: int, vec: dict) -> dict:
        f = self.field
        out: dict = {}
        for u, c in el.terms.items():
            img = self.left_act(u, d).mat_vec(vec)
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
    """Graded pieces of a semifree module; basis = (generator, monomial)."""

    has_right = True

    def __init__(self, module):
        super().__init__(module.algebra)
        self.module = module
        self._label_cache: dict[int, list] = {}
        self._index_cache: dict[int, dict] = {}

    def min_degree(self) -> int:
        return self.module.min_degree

    def labels(self, d: int):
        if d not in self._label_cache:
            self.check_cap(d)
            lab = self.module.basis_in_degree(d)
            self._label_cache[d] = lab
            self._index_cache[d] = {t: i for i, t in enumerate(lab)}
        return self._label_cache[d]

    def dim(self, d: int) -> int:
        if d < self.min_degree():
            return 0
        return len(self.labels(d))

    def index(self, d: int, lam: int, mono) -> int:
        self.labels(d)
        return self._index_cache[d][(lam, mono)]

    def diff(self, d: int) -> SparseMatrix:
        alg = self.algebra
        M = self.module
        f = self.field
        ent: dict = {}
        for j, (lam, u) in enumerate(self.labels(d)):
            # d(e u) = sum_mu e_mu (b_{mu lam} u) + (-1)^{|e_lam|} e_lam d(u)
            for mu, b in M.diff_column(lam):
                prod = b * alg.from_mono(u)
                for w, c in prod.terms.items():
                    i = self.index(d - 1, mu, w)
                    cur = ent.get((i, j), f.zero)
                    s = f.add(cur, c)
                    if f.is_zero(s):
                        ent.pop((i, j), None)
                    else:
                        ent[(i, j)] = s
            du = alg.diff_mono(u)
            if not du.is_zero():
                sgn = -1 if M.degrees[lam] % 2 else 1
                for w, c in du.terms.items():
                    i = self.index(d - 1, lam, w)
                    cc = c if sgn > 0 else f.neg(c)
                    cur = ent.get((i, j), f.zero)
                    s = f.add(cur, cc)
                    if f.is_zero(s):
                        ent.pop((i, j), None)
                    else:
                        ent[(i, j)] = s
        return SparseMatrix(f, self.dim(d - 1), self.dim(d), ent)

    def right_act(self, mono, d: int) -> SparseMatrix:
        alg = self.algebra
        e = alg.mono_degree(mono)
        ent = {}
        for j, (lam, u) in enumerate(self.labels(d)):
            sgn, w = alg.mono_mul(u, mono)
            if w is None:
                continue
            ent[(self.index(d + e, lam, w), j)] = self.field.from_int(sgn)
        return SparseMatrix(self.field, self.dim(d + e), self.dim(d), ent)

    def gen_vector(self, lam: int) -> tuple[int, dict]:
        """(degree, unit vector) for generator e_lam."""
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

    def diff(self, d: int) -> SparseMatrix:
        m = self.inner.diff(d - self.i)
        return m if self.i % 2 == 0 else m.scale(self.field.neg(self.field.one))

    def right_act(self, mono, d: int) -> SparseMatrix:
        return self.inner.right_act(mono, d - self.i)

    def left_act(self, mono, d: int) -> SparseMatrix:
        m = self.inner.left_act(mono, d - self.i)
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
        self._basis: dict[int, list] = {}
        self._free_cols: dict[int, list] = {}
        self._min: int | None = None

    def basis_vectors(self, d: int) -> list:
        if d not in self._basis:
            self.check_cap(d)
            if self.parent.dim(d) == 0:
                self._basis[d] = []
                self._free_cols[d] = []
            else:
                m = self.proj_matrix_fn(d)
                ech = m.echelon()
                self._basis[d] = ech.kernel_basis()
                self._free_cols[d] = ech.free_columns()
        return self._basis[d]

    def min_degree(self) -> int:
        if self._min is None:
            base = self.parent.min_degree()
            top = self.config.max_degree
            found = base
            for d in range(base, top + 1):
                if self.basis_vectors(d):
                    found = d
                    break
            else:
                found = top + 1  # zero within cap
            self._min = found
        return self._min

    def dim(self, d: int) -> int:
        if d < self.parent.min_degree():
            return 0
        return len(self.basis_vectors(d))

    def labels(self, d: int):
        return [f"{self.name}[{d}].{k}" for k in range(self.dim(d))]

    def coords(self, d: int, parent_vec: dict) -> dict:
        """Coordinates of a parent vector that lies in the kernel subspace."""
        basis = self.basis_vectors(d)
        free = self._free_cols[d]
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

    def diff(self, d: int) -> SparseMatrix:
        return self._push(d, d - 1, self.parent.diff(d))

    def right_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        return self._push(d, d + e, self.parent.right_act(mono, d))

    def left_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        return self._push(d, d + e, self.parent.left_act(mono, d))


class TensorCarrier(Carrier):
    """X (x)_R Y as a degreewise relation-quotient, R = B or the prefix A.

    The free space in degree d is spanned by pairs of basis elements; the
    relation rows are x*b (x) y - x (x) b*y over all non-unit monomials b of
    the chosen ring (any shift twist lives inside Y.left_act).  Quotient
    coordinates are the RREF free columns, so every derived basis is
    canonical.
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
        self._free: dict[int, list] = {}
        self._free_index: dict[int, dict] = {}
        self._ech: dict[int, Echelon] = {}
        self._quot: dict[int, list] = {}

    def min_degree(self) -> int:
        return self.X.min_degree() + self.Y.min_degree()

    def _ring_monomials(self, e: int):
        alg = self.algebra
        monos = alg.monomials(e)
        if self.ring == "A":
            monos = tuple(u for u in monos if alg.mono_in_A(u))
        if e == 0:
            monos = tuple(u for u in monos if not alg.mono_is_unit(u))
        return monos

    def free_basis(self, d: int) -> list:
        if d not in self._free:
            self.check_cap(d)
            out = []
            xmin, ymin = self.X.min_degree(), self.Y.min_degree()
            for p in range(xmin, d - ymin + 1):
                nx = self.X.dim(p)
                ny = self.Y.dim(d - p)
                for i in range(nx):
                    for j in range(ny):
                        out.append((p, i, j))
            self._free[d] = out
            self._free_index[d] = {t: k for k, t in enumerate(out)}
        return self._free[d]

    def _embed(self, d: int, p: int, xvec: dict, yvec: dict) -> dict:
        """Outer product into free coordinates at total degree d."""
        f = self.field
        self.free_basis(d)
        idx = self._free_index[d]
        out: dict = {}
        for i, ci in xvec.items():
            for j, cj in yvec.items():
                k = idx[(p, i, j)]
                s = f.add(out.get(k, f.zero), f.mul(ci, cj))
                if f.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def _echelon_at(self, d: int) -> Echelon:
        if d not in self._ech:
            free = self.free_basis(d)
            ech = Echelon(self.field, len(free))
            xmin, ymin = self.X.min_degree(), self.Y.min_degree()
            f = self.field
            for e in range(0, d - xmin - ymin + 1):
                monos = self._ring_monomials(e)
                if not monos:
                    continue
                for p in range(xmin, d - e - ymin + 1):
                    q = d - e - p
                    nx, ny = self.X.dim(p), self.Y.dim(q)
                    if nx == 0 or ny == 0:
                        continue
                    for b in monos:
                        ra = self.X.right_act(b, p)
                        la = self.Y.left_act(b, q)
                        for i in range(nx):
                            xb = ra.col(i)
                            for j in range(ny):
                                by = la.col(j)
                                row = self._embed(d, p + e, xb, {j: f.one})
                                neg = self._embed(d, p, {i: f.one}, by)
                                for k, c in neg.items():
                                    s = f.sub(row.get(k, f.zero), c)
                                    if f.is_zero(s):
                                        row.pop(k, None)
                                    else:
                                        row[k] = s
                                if row:
                                    ech.add_row(row)
            self._ech[d] = ech
            free_cols = ech.free_columns()
            self._quot[d] = free_cols
        return self._ech[d]

    def dim(self, d: int) -> int:
        if d < self.min_degree():
            return 0
        self._echelon_at(d)
        return len(self._quot[d])

    def labels(self, d: int):
        self._echelon_at(d)
        free = self.free_basis(d)
        return [free[k] for k in self._quot[d]]

    def lift(self, d: int, k: int):
        """Representative (p, i, j) of the k-th quotient basis vector."""
        self._echelon_at(d)
        return self.free_basis(d)[self._quot[d][k]]

    def project_free(self, d: int, free_vec: dict) -> dict:
        """Quotient coordinates of a free-space vector."""
        ech = self._echelon_at(d)
        red = ech.reduce(free_vec)
        # a reduced vector lives on the free columns, which are sorted
        cols = self._quot[d]
        return {bisect_left(cols, j): c for j, c in red.items()}

    def pair_project(self, p: int, xvec: dict, q: int, yvec: dict) -> dict:
        """Quotient coordinates of x (x) y for coordinate vectors in X_p, Y_q."""
        if not xvec or not yvec:
            return {}
        d = p + q
        self._echelon_at(d)
        return self.project_free(d, self._embed(d, p, xvec, yvec))

    def diff(self, d: int) -> SparseMatrix:
        f = self.field
        cols = []
        dx_cache: dict[int, SparseMatrix] = {}
        dy_cache: dict[int, SparseMatrix] = {}
        for k in range(self.dim(d)):
            p, i, j = self.lift(d, k)
            q = d - p
            if p not in dx_cache:
                dx_cache[p] = self.X.diff(p)
            if q not in dy_cache:
                dy_cache[q] = self.Y.diff(q)
            out: dict = {}
            xv = dx_cache[p].col(i)
            if xv:
                vec_axpy(f, out, f.one, self._embed(d - 1, p - 1, xv, {j: f.one}))
            yv = dy_cache[q].col(j)
            if yv:
                sgn = f.neg(f.one) if p % 2 else f.one
                vec_axpy(f, out, sgn, self._embed(d - 1, p, {i: f.one}, yv))
            cols.append(self.project_free(d - 1, out))
        return SparseMatrix.from_cols(f, self.dim(d - 1), cols)

    def right_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        f = self.field
        cols = []
        act_cache: dict[int, SparseMatrix] = {}
        for k in range(self.dim(d)):
            p, i, j = self.lift(d, k)
            q = d - p
            if q not in act_cache:
                act_cache[q] = self.Y.right_act(mono, q)
            yv = act_cache[q].col(j)
            cols.append(self.pair_project(p, {i: f.one}, q + e, yv) if yv else {})
        return SparseMatrix.from_cols(f, self.dim(d + e), cols)

    def left_act(self, mono, d: int) -> SparseMatrix:
        e = self.algebra.mono_degree(mono)
        f = self.field
        cols = []
        act_cache: dict[int, SparseMatrix] = {}
        for k in range(self.dim(d)):
            p, i, j = self.lift(d, k)
            q = d - p
            if p not in act_cache:
                act_cache[p] = self.X.left_act(mono, p)
            xv = act_cache[p].col(i)
            cols.append(self.pair_project(p + e, xv, q, {j: f.one}) if xv else {})
        return SparseMatrix.from_cols(f, self.dim(d + e), cols)


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
