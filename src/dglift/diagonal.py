"""Enveloping algebra B (x)_A B, diagonal ideal, and diagonal tensor algebra.

The enveloping algebra is materialized on the canonical pair basis (u, m):
u any monomial of B, m a monomial in the non-A variables; the middle-A
relation u (x) a m = u a (x) m is applied by normal form.  The multiplication
carries the sign (-1)^{|b1'||b2|} on (b1 (x) b2)(b1' (x) b2').

J is the degreewise kernel of the multiplication map pi; tensor powers of its
shift are built as explicit relation-quotients (never through a chosen left
basis of J), and the truncated tensor algebra keeps one carrier per tensor
degree up to the configured cap.  For a semifree module N, N (x)_B T^n needs
no quotient: it is one copy of T^n per generator of N.
"""

from __future__ import annotations

from .carriers import (Carrier, KernelSubCarrier, SemifreeCarrier, ShiftedCarrier,
                       SparseMatrix, TensorCarrier)
from .errors import CapExceeded, DimensionMismatch
from .homotopy import HomSpace, _as_carrier
from .linalg import Echelon, vec_axpy
from .memo import memo
from .modules import base_change


class EnvelopingCarrier(Carrier):
    """B (x)_A B on the canonical pair basis, as a DG bimodule over B.

    Left action multiplies into the left slot, right action into the right
    slot (through 1 (x) b); both are plain monomial arithmetic plus the
    canonical reduction moving the A-part of the right slot across the tensor.
    """

    has_left = True
    has_right = True

    def min_degree(self) -> int:
        return 0

    @memo
    def labels(self, d: int):
        self.check_cap(d)
        alg = self.algebra
        out = []
        for p in range(0, d + 1):
            for u in alg.monomials(p):
                for m in alg.nonA_monomials(d - p):
                    out.append((u, m))
        return out

    @memo
    def _positions(self, d: int) -> dict:
        return {t: k for k, t in enumerate(self.labels(d))}

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self.labels(d))

    def index(self, d: int, u, m) -> int:
        return self._positions(d)[(u, m)]

    def reduce_pair(self, u, v):
        """(sign, (u', m')) for u (x) v in canonical form, or (0, None)."""
        alg = self.algebra
        a, m = alg.mono_split_A(v)
        if alg.mono_is_unit(a):
            return 1, (u, m)
        sgn, ua = alg.mono_mul(u, a)
        if ua is None:
            return 0, None
        return sgn, (ua, m)

    def pair_vector(self, u, v, coeff=None) -> tuple[int, dict]:
        """(degree, coordinate vector) of the element u (x) v."""
        alg = self.algebra
        f = self.field
        d = alg.mono_degree(u) + alg.mono_degree(v)
        sgn, lab = self.reduce_pair(u, v)
        if lab is None:
            return d, {}
        c = f.one if coeff is None else coeff
        if sgn < 0:
            c = f.neg(c)
        return d, {self.index(d, *lab): c}

    def element_pair_vector(self, x, y) -> tuple[int, dict]:
        """x (x) y for homogeneous algebra elements."""
        f = self.field
        d = (x.degree() or 0) + (y.degree() or 0)
        out: dict = {}
        for u, cu in x.terms.items():
            for v, cv in y.terms.items():
                dd, vec = self.pair_vector(u, v, f.mul(cu, cv))
                vec_axpy(f, out, f.one, vec)
        return d, out

    def multiply(self, d1: int, vec1: dict, d2: int, vec2: dict) -> dict:
        """Product in the enveloping algebra, in degree d1 + d2 coordinates."""
        alg = self.algebra
        f = self.field
        out: dict = {}
        lab1, lab2 = self.labels(d1), self.labels(d2)
        for k1, c1 in vec1.items():
            u1, m1 = lab1[k1]
            dm1 = alg.mono_degree(m1)
            for k2, c2 in vec2.items():
                u2, m2 = lab2[k2]
                # (u1 (x) m1)(u2 (x) m2) = (-1)^{|u2||m1|} u1 u2 (x) m1 m2
                s1, uu = alg.mono_mul(u1, u2)
                if uu is None:
                    continue
                s2, mm = alg.mono_mul(m1, m2)
                if mm is None:
                    continue
                sgn = s1 * s2 * ((-1) ** (alg.mono_degree(u2) * dm1))
                c = f.mul(c1, c2)
                if sgn < 0:
                    c = f.neg(c)
                dd, vec = self.pair_vector(uu, mm, c)
                vec_axpy(f, out, f.one, vec)
        return out

    @memo
    def diff(self, d: int) -> SparseMatrix:
        alg = self.algebra
        f = self.field
        cols = []
        for (u, m) in self.labels(d):
            out: dict = {}
            du = alg.diff_mono(u)
            for w, c in du.terms.items():
                _, vec = self.pair_vector(w, m, c)
                vec_axpy(f, out, f.one, vec)
            dm = alg.diff_mono(m)
            if not dm.is_zero():
                sgn = -1 if alg.mono_degree(u) % 2 else 1
                for w, c in dm.terms.items():
                    cc = c if sgn > 0 else f.neg(c)
                    _, vec = self.pair_vector(u, w, cc)
                    vec_axpy(f, out, f.one, vec)
            cols.append(out)
        return SparseMatrix.from_cols(f, self.dim(d - 1), cols)

    def left_act(self, mono, d: int) -> SparseMatrix:
        alg = self.algebra
        f = self.field
        e = alg.mono_degree(mono)
        cols = []
        for (u, m) in self.labels(d):
            sgn, wu = alg.mono_mul(mono, u)
            if wu is None:
                cols.append({})
                continue
            cols.append({self.index(d + e, wu, m): f.from_int(sgn)})
        return SparseMatrix.from_cols(f, self.dim(d + e), cols)

    def right_act(self, mono, d: int) -> SparseMatrix:
        alg = self.algebra
        f = self.field
        e = alg.mono_degree(mono)
        cols = []
        for (u, m) in self.labels(d):
            sgn, mm = alg.mono_mul(m, mono)
            if mm is None:
                cols.append({})
                continue
            _, vec = self.pair_vector(u, mm, f.from_int(sgn))
            cols.append(vec)
        return SparseMatrix.from_cols(f, self.dim(d + e), cols)

    def pi_matrix(self, d: int) -> SparseMatrix:
        """Multiplication map (B^e)_d -> B_d on the pair basis."""
        alg = self.algebra
        f = self.field
        nb = len(alg.monomials(d))
        ent = {}
        for j, (u, m) in enumerate(self.labels(d)):
            sgn, w = alg.mono_mul(u, m)
            if w is None:
                continue
            ent[(alg.mono_index(d, w), j)] = f.from_int(sgn)
        return SparseMatrix(f, nb, self.dim(d), ent)


class Diagonal:
    """The enveloping algebra, diagonal ideal J, and tensor algebra T of
    its shift, truncated in tensor degree at the configured cap.

    It also owns the Hom-space memo: hom(N, Y, s) builds each space of maps
    N -> Sigma^s Y once and shares it with every later query in its scope;
    base_change(N) likewise builds the induced module G and its counit once,
    so the splitting search and the factorization ideal share Hom(N, G).
    The memos live here rather than on the module because a module and its
    carrier refer to each other: a module-held memo would keep every
    N (x) T^n carrier and its T^n alive until a full garbage collection,
    while nothing refers back to a Diagonal, so its memos are freed with it.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field
        self.config = algebra.config
        self.env = EnvelopingCarrier(algebra)
        self.J = KernelSubCarrier(self.env, self.env.pi_matrix, name="J")
        self.SJ = ShiftedCarrier(self.J, 1)
        self.B = algebra.carrier()

    # ----- tensor algebra carriers -----

    @memo
    def T(self, n: int) -> Carrier:
        if n < 0:
            raise DimensionMismatch("tensor degree must be >= 0")
        if n > self.config.max_tensor:
            raise CapExceeded(n, self.config.max_tensor, "tensor degree")
        if n < 2:
            return self.SJ if n else self.B
        return TensorCarrier(self.SJ, self.T(n - 1))

    def tensor_power_J(self, n: int) -> Carrier:
        """J^{(x)_B n} realized as the (-n)-shift of T^n (exact dimensions,
        differential and actions included)."""
        return ShiftedCarrier(self.T(n), -n)

    def t_prepend(self, jdeg: int, jvec: dict, n2: int, tdeg: int, tvec: dict) -> dict:
        """(Sigma J element) (x) (T^n2 element) in T^{n2+1} coordinates.

        For n2 = 0 the tensor factor is an algebra element and prepending is
        the right action on Sigma J; otherwise it is the tensor-carrier pair
        projection."""
        if not jvec or not tvec:
            return {}
        if n2 == 0:
            f = self.field
            out: dict = {}
            monos = self.algebra.monomials(tdeg)
            for j, c in tvec.items():
                img = self.SJ.action("r", monos[j], jdeg).mat_vec(jvec)
                vec_axpy(f, out, c, img)
            return out
        return self.T(n2 + 1).pair_project(jdeg, jvec, tdeg, tvec)

    @memo
    def NT(self, module, n: int) -> SemifreeCarrier:
        """N (x)_B T^n in closed form, one block of T^n per generator of N;
        for n = 0 it is N's own carrier."""
        if n == 0:
            return module.carrier()
        return SemifreeCarrier(module, self.T(n))

    def hom(self, module, target, shift: int = 0) -> HomSpace:
        """The space of maps module -> Sigma^shift target up to homotopy, one
        per (module, target carrier, shift), built lazily; a module target
        stands for its own carrier."""
        return self._hom(module, _as_carrier(target), shift)

    @memo
    def _hom(self, module, target, shift: int) -> HomSpace:
        return HomSpace(module, target, shift)

    @memo
    def base_change(self, module):
        """(G, pi) = modules.base_change(module), built once per module, so
        that every Hom space into G is keyed by the same G."""
        return base_change(module)

    def NT_A(self, module, n: int) -> Carrier:
        """N (x)_A T^n (relations over the prefix subalgebra only)."""
        return TensorCarrier(module.carrier(), self.T(n), ring="A")

    def BT_A(self, n: int) -> Carrier:
        """B (x)_A T^n, the middle term of the degreewise exactness check."""
        return TensorCarrier(self.B, self.T(n), ring="A")

    # ----- diagonal ideal -----

    def diagonal_basis(self, d: int):
        """Exact basis of J_d in enveloping coordinates."""
        return self.J.basis_vectors(d)

    def delta(self, el) -> tuple[int, dict]:
        """Universal derivation of a homogeneous element, in J coordinates."""
        f = self.field
        if el.is_zero():
            return 0, {}
        d = el.degree()
        out: dict = {}
        for u, c in el.terms.items():
            vec = self._delta_mono(u)
            vec_axpy(f, out, c, vec)
        return d, out

    @memo
    def _delta_mono(self, u) -> dict:
        alg = self.algebra
        f = self.field
        d = alg.mono_degree(u)
        _, v1 = self.env.pair_vector(u, alg.unit_mono())
        _, v2 = self.env.pair_vector(alg.unit_mono(), u)
        out = dict(v1)
        vec_axpy(f, out, f.neg(f.one), v2)
        return self.J.coords(d, out)

    def delta_env(self, el) -> tuple[int, dict]:
        """delta in enveloping coordinates (for identity checks)."""
        d, coords = self.delta(el)
        return d, self.J.to_parent(d, coords)

    # ----- structural checks -----

    def check_basic_sequence(self, d: int):
        """dim J_d + dim B_d = dim (B^e)_d, with pi surjective (exact)."""
        pi = self.env.pi_matrix(d)
        rank = pi.rank()
        dimB = len(self.algebra.monomials(d))
        dimJ = self.J.dim(d)
        dimE = self.env.dim(d)
        return {
            "degree": d,
            "dim_J": dimJ,
            "dim_B": dimB,
            "dim_Be": dimE,
            "pi_surjective": rank == dimB,
            "balanced": dimJ + dimB == dimE,
        }

    def check_tensor_sequence(self, n: int, d: int):
        """Degreewise dimension balance of
        0 -> J^{(n+1)} -> B (x)_A J^{(n)} -> J^{(n)} -> 0
        written in shifted coordinates: T^{n+1}_{e+1} + T^n_e = (B (x)_A T^n)_e."""
        lhs = self.T(n + 1).dim(d + 1) + self.T(n).dim(d)
        rhs = self.BT_A(n).dim(d)
        return {"n": n, "degree": d, "lhs": lhs, "rhs": rhs, "balanced": lhs == rhs}

    def concatenation_surjective(self, d: int) -> bool:
        """T^1 (x) T^1 -> T^2 hits every quotient basis vector in degree d."""
        T2 = self.T(2)
        target = T2.dim(d)
        if target == 0:
            return True
        ech = Echelon(self.field, target)
        f = self.field
        for p in range(self.SJ.min_degree(), d - self.SJ.min_degree() + 1):
            for i in range(self.SJ.dim(p)):
                for j in range(self.SJ.dim(d - p)):
                    vec = T2.pair_project(p, {i: f.one}, d - p, {j: f.one})
                    if vec:
                        ech.add_row(vec)
        return ech.rank == target
