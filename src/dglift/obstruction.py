"""The lifting-obstruction map on N (x) T and its derived data.

For a semifree module with d(e_lam) = sum_{mu<lam} e_mu b_{mu lam}, the
tensor-degree-raising operator sends e_lam (x) t to

    sum_{mu<lam} (-1)^{|e_mu|} e_mu (x) delta(b_{mu lam}) (x) t,

the sign being the cost of writing the suspended slot in unshifted J
coordinates.  So component i is a matrix of generator blocks: block
(mu, lam) is (-1)^{|e_mu|} delta(b_{mu lam}) (x) - on T^i, as f (x) id is
the left action of f's entries on one copy of T^n per generator.  A
DegreewiseMap builds such an operator one degree at a time, and validates
each tensor component as an exact degree-0 chain operator.  An independent
construction through the enveloping algebra (section/retraction conjugation
of the differential of N (x) B^e, built column by column) must reproduce it
entrywise, and the closed-form power expansion over strictly decreasing
generator chains must equal the iterated composition.
"""

from __future__ import annotations

from .carriers import Carrier, SemifreeCarrier
from .diagonal import Diagonal
from .errors import CapExceeded, DimensionMismatch
from .homotopy import CarrierMap, HomotopyWitness, HomSpace
from .linalg import SparseMatrix, vec_axpy
from .modules import ChainMap, SemifreeModule


class DegreewiseMap:
    """A degree-0 chain operator between carriers, one matrix per DG degree.

    Matrices are built lazily, one per degree by build(d), and the chain
    square D_target m(d) = m(d-1) D_source is checked exactly whenever a new
    degree is materialized.
    """

    def __init__(self, source: Carrier, target: Carrier, build, name="op",
                 validate: bool = True):
        self.source = source
        self.target = target
        self.build = build
        self.name = name
        self._validate = validate
        self._mats: dict[int, SparseMatrix] = {}

    def mat(self, d: int) -> SparseMatrix:
        if d not in self._mats:
            self._mats[d] = self.build(d)
            if self._validate:
                self._check(d)
        return self._mats[d]

    def _check(self, d: int):
        if d - 1 < min(self.source.min_degree(), self.target.min_degree()):
            return
        lhs = self.target.diff(d) @ self.mat(d)
        rhs = self.mat(d - 1) @ self.source.diff(d)
        if lhs.add(rhs.scale(self.source.field.neg(self.source.field.one))).is_zero():
            return
        raise DimensionMismatch(f"{self.name} is not a chain operator at degree {d}")

    def apply(self, cmap: CarrierMap) -> CarrierMap:
        """Post-compose with a generator-image map landing in the source."""
        if cmap.target is not self.source:
            raise DimensionMismatch("operator source does not match map target")
        cols = {}
        for lam, vec in cmap.cols.items():
            d = cmap.source.degrees[lam] - cmap.shift
            img = self.mat(d).mat_vec(vec)
            if img:
                cols[lam] = img
        return CarrierMap(cmap.source, self.target, cmap.shift, cols)

    def entrywise_equal(self, other: "DegreewiseMap", degrees) -> bool:
        for d in degrees:
            if self.mat(d).entries != other.mat(d).entries:
                return False
        return True


class ObstructionTower:
    """All tensor components of the obstruction operator for one module."""

    def __init__(self, N: SemifreeModule, diag: Diagonal):
        self.N = N
        self.diag = diag
        self._components: dict[int, DegreewiseMap] = {}

    def component(self, i: int) -> DegreewiseMap:
        """The piece N (x) T^i -> N (x) T^{i+1}, within the config's
        max_tensor."""
        cap = self.diag.config.max_tensor
        if i + 1 > cap:
            raise CapExceeded(i + 1, cap, "tensor degree")
        if i not in self._components:
            self._components[i] = self._build_component(i)
        return self._components[i]

    def _build_component(self, i: int) -> DegreewiseMap:
        diag = self.diag
        N = self.N
        f = N.algebra.field
        src = diag.NT(N, i)
        tgt = diag.NT(N, i + 1)
        Ti, Ti1 = diag.T(i), diag.T(i + 1)
        signs = (f.one, f.neg(f.one))

        def delta_block(b, q: int) -> SparseMatrix:
            # delta(b) (x) - : T^i_q -> T^{i+1}_{q+|b|+1}, column by column
            bd, dvec = diag.delta(b)
            cols = [diag.t_prepend(bd + 1, dvec, i, q, {j: f.one}) for j in range(Ti.dim(q))]
            return SparseMatrix.from_cols(f, Ti1.dim(q + bd + 1), cols)

        def build(d: int) -> SparseMatrix:
            # block (mu, lam) is (-1)^{|e_mu|} delta(b_{mu lam}) (x) - on T^i
            return src.assemble(tgt, d, 0, (
                (mu, lam, signs[N.degrees[mu] % 2], delta_block(b, q))
                for lam, q in src.pieces(d) for mu, b in N.diff_column(lam)))

        return DegreewiseMap(src, tgt, build, name=f"w[{i}]")

    def restriction(self) -> CarrierMap:
        """Tensor-degree-0 restriction as a map N -> N (x) T^1."""
        return chi_power(self.N, self.diag, 1)


# ----- independent enveloping-algebra construction -------------------------


class EnvelopingRouteTower:
    """The same operator built as (section . d . retraction) (x) id.

    The retraction sends a generator-monomial pair to e (x) (1 (x) w); the
    section subtracts 1 (x) (image under multiplication).  Composing with the
    differential of N (x) B^e through exact matrices gives the tensor-degree
    0 piece; tensoring with the identity of T^i gives the rest.  Used as an
    entrywise cross-check of the direct formula.
    """

    def __init__(self, N: SemifreeModule, diag: Diagonal):
        self.N = N
        self.diag = diag
        self._NBe = None
        self._NJ = None
        self._core: dict[int, tuple] = {}
        self._components: dict[int, DegreewiseMap] = {}

    def _carriers(self):
        if self._NBe is None:
            self._NBe = SemifreeCarrier(self.N, self.diag.env)
            self._NJ = SemifreeCarrier(self.N, self.diag.J)
        return self._NBe, self._NJ

    def core_matrix(self, d: int) -> SparseMatrix:
        """sigma . d^{N (x) B^e} . rho : N_d -> (N (x) J)_{d-1}."""
        if d in self._core:
            return self._core[d]
        N = self.N
        alg = N.algebra
        f = alg.field
        ncar = N.carrier()
        env = self.diag.env
        J = self.diag.J
        NBe, NJ = self._carriers()

        labels = ncar.labels(d)

        def rho_col(k):
            lam, w = labels[k]
            dw, vec = env.pair_vector(alg.unit_mono(), w)
            pl, uv = ncar.gen_vector(lam)
            return NBe.pair_project(pl, uv, dw, vec)

        rho = SparseMatrix.from_cols(f, NBe.dim(d), [rho_col(k) for k in range(ncar.dim(d))])
        dmat = NBe.diff(d)

        def sigma_col(k):
            # basis vector k is e_lam (x) (u (x) m); subtract 1 (x) um
            lam, j = NBe.block(d - 1, k)
            bd = d - 1 - N.degrees[lam]
            u, m = env.labels(bd)[j]
            out = {j: f.one}
            s2, prod = alg.mono_mul(u, m)
            if prod is not None:
                _, v2 = env.pair_vector(alg.unit_mono(), prod, f.from_int(-s2))
                vec_axpy(f, out, f.one, v2)
            jvec = J.coords(bd, out)
            pl, uv = ncar.gen_vector(lam)
            return NJ.pair_project(pl, uv, bd, jvec)

        sigma = SparseMatrix.from_cols(f, NJ.dim(d - 1),
                                       [sigma_col(k) for k in range(NBe.dim(d - 1))])
        out = sigma @ (dmat @ rho)
        self._core[d] = out
        return out

    def component(self, i: int) -> DegreewiseMap:
        if i not in self._components:
            self._components[i] = self._build_component(i)
        return self._components[i]

    def _build_component(self, i: int) -> DegreewiseMap:
        diag = self.diag
        N = self.N
        f = N.algebra.field
        src = diag.NT(N, i)
        tgt = diag.NT(N, i + 1)
        ncar = N.carrier()
        NBe, NJ = self._carriers()

        def column(d: int, k: int) -> dict:
            # basis vector k is e_lam (x) t: apply the core to e_lam
            lam, j = src.block(d, k)
            p, gvec = ncar.gen_vector(lam)
            val = self.core_matrix(p).mat_vec(gvec)
            out: dict = {}
            # reinterpret the J slot as its shift and prepend to the T^i part
            for nj, c in val.items():
                mu, jj = NJ.block(p - 1, nj)
                pp, uvec = ncar.gen_vector(mu)
                # sign of moving the suspension past the module part
                sgn = f.neg(c) if pp % 2 else c
                r = p - 1 - pp
                mid = diag.t_prepend(r + 1, {jj: f.one}, i, d - p, {j: f.one})
                if not mid:
                    continue
                res = tgt.pair_project(pp, uvec, r + 1 + d - p, mid)
                vec_axpy(f, out, sgn, res)
            return out

        def build(d: int) -> SparseMatrix:
            cols = [column(d, k) for k in range(src.dim(d))]
            return SparseMatrix.from_cols(f, tgt.dim(d), cols)

        return DegreewiseMap(src, tgt, build, name=f"w+[{i}]")


def towers_agree(a, b, i: int, degrees) -> bool:
    """Entrywise equality of tensor component i over the given degrees."""
    return a.component(i).entrywise_equal(b.component(i), degrees)


# ----- powers ---------------------------------------------------------------


def chi_power(N: SemifreeModule, diag: Diagonal, ell: int) -> CarrierMap:
    """Closed-form l-fold obstruction power N -> N (x) T^l: the sum over
    strictly decreasing generator chains of the tensor of derivation values,
    signed by the suspension cost of every intermediate generator."""
    f = N.algebra.field
    ncar = N.carrier()
    if ell == 0:
        return CarrierMap(N, ncar, 0, {lam: ncar.gen_vector(lam)[1] for lam in range(N.n_gens)})
    tgt = diag.NT(N, ell)
    cols: dict = {}

    def chains(lam: int):
        """Yield (generators mu_1..mu_j bottom-last, entries innermost-last)."""
        for mu, b in N.diff_column(lam):
            yield [mu], [b]
            for gens, tail in chains(mu):
                yield gens + [mu], tail + [b]

    for lam in range(N.n_gens):
        acc: dict = {}
        for gens, entries in chains(lam):
            if len(entries) != ell:
                continue
            sgn = sum(N.degrees[g] for g in gens) % 2
            tvec = None
            tdeg = 0
            ok = True
            for step, b in enumerate(entries[::-1]):
                bd, dvec = diag.delta(b)
                if not dvec:
                    ok = False
                    break
                if step == 0:
                    tvec = dvec
                    tdeg = bd + 1
                else:
                    tvec = diag.T(step + 1).pair_project(bd + 1, dvec, tdeg, tvec)
                    tdeg += bd + 1
                    if not tvec:
                        ok = False
                        break
            if not ok or not tvec:
                continue
            end = gens[0]
            p, uv = ncar.gen_vector(end)
            res = tgt.pair_project(p, uv, tdeg, tvec)
            coeff = f.neg(f.one) if sgn else f.one
            vec_axpy(f, acc, coeff, res)
        if acc:
            cols[lam] = acc
    return CarrierMap(N, tgt, 0, cols)


def chi_power_iterated(N: SemifreeModule, diag: Diagonal, ell: int) -> CarrierMap:
    """The same power as the literal composition of tower components."""
    tower = ObstructionTower(N, diag)
    cur = chi_power(N, diag, 0)
    for i in range(ell):
        cur = tower.component(i).apply(cur)
    return cur


def carrier_maps_equal(a: CarrierMap, b: CarrierMap) -> bool:
    return a.sub(b).is_zero()


# ----- omega-level queries --------------------------------------------------


def omega_is_zero(N: SemifreeModule, diag: Diagonal) -> HomotopyWitness | None:
    """Witness that the obstruction class vanishes, or certified absence.

    Decided on the tensor-degree-0 restriction N -> N (x) Sigma J through the
    tensor-degree adjunction."""
    chi1 = chi_power(N, diag, 1)
    return diag.hom(N, chi1.target).null_homotopy(chi1)


def gamma_dim(N: SemifreeModule, diag: Diagonal, n: int) -> int:
    """dim of the tensor-degree-n graded endomorphism piece: by adjunction the
    homotopy classes N -> N (x) T^n; zero in negative degrees structurally."""
    if n < 0:
        return 0
    return diag.hom(N, diag.NT(N, n)).dim_K


def omega_action_matrix(N: SemifreeModule, diag: Diagonal, n: int, m: int):
    """Matrix of left composition with the obstruction on homotopy classes
    Hom(N, Sigma^m(N (x) T^n)) -> Hom(N, Sigma^m(N (x) T^{n+1})).

    Returns (matrix, dim source, dim target)."""
    S = diag.hom(N, diag.NT(N, n), m)
    T = diag.hom(N, diag.NT(N, n + 1), m)
    mat = induced_matrix(S, T, ObstructionTower(N, diag).component(n))
    return mat, S.dim_K, T.dim_K


def induced_matrix(S: HomSpace, T: HomSpace, op: DegreewiseMap) -> SparseMatrix:
    """Matrix of the map S -> T that the degreewise operator op induces on
    homotopy classes: column j holds the T-coordinates of op applied to S's
    j-th class representative."""
    f = S.field
    cols = [{i: c for i, c in enumerate(T.express(op.apply(rep))) if not f.is_zero(c)}
            for rep in S.class_reps()]
    return SparseMatrix.from_cols(f, T.dim_K, cols)


def cone_component_dims(N: SemifreeModule, diag: Diagonal, n: int, d: int):
    """(computed, predicted) dimensions of the degree-d part of the n-th
    tensor component of the obstruction cone.

    computed: dim (N (x) T^n)_{d-1} + dim (N (x) T^{n+1})_d  (shifted source
    plus target).  predicted: the degree-d part of N (x)_A Sigma^{n+1} of the
    n-th tensor power of J for n >= 0; N itself at n = -1; zero below."""
    if n <= -2:
        return 0, 0
    if n == -1:
        dim = N.carrier().dim(d)
        return dim, dim
    computed = diag.NT(N, n).dim(d - 1) + diag.NT(N, n + 1).dim(d)
    predicted = diag.NT_A(N, n).dim(d - 1)
    return computed, predicted


def local_nilpotency(N: SemifreeModule, diag: Diagonal, i: int):
    """For each basis element of N (x) T^i in the generator-degree window,
    the least power killing it; asserts the degree bound."""
    tower = ObstructionTower(N, diag)
    cap = diag.config.max_tensor
    src = diag.NT(N, i)
    f = N.algebra.field
    out = []
    bound = N.max_degree - i + 1
    for d in range(src.min_degree(), N.max_degree + 1):
        for k in range(src.dim(d)):
            n_x = None
            j = i
            cur = {k: f.one}
            while j - i < bound and j + 1 <= cap:
                cur = tower.component(j).mat(d).mat_vec(cur)
                j += 1
                if not cur:
                    n_x = j - i
                    break
            if n_x is None:
                raise DimensionMismatch(
                    f"no nilpotency within bound {bound} for basis element {k} at degree {d}")
            out.append({"degree": d, "index": k, "power": n_x, "bound": bound})
    return out


# ----- functoriality and basis change ---------------------------------------


def _tensor_id(fmap: ChainMap, src: SemifreeCarrier, tgt: SemifreeCarrier,
               name: str) -> DegreewiseMap:
    """f (x) id_Y between closed-form carriers N (x) Y -> N' (x) Y:
    e_lam (x) y goes to the sum over mu of e_mu (x) f_{mu lam} y."""
    columns: dict = {}
    for (mu, lam), el in fmap.entries.items():
        columns.setdefault(lam, []).append((mu, el))

    def build(d: int) -> SparseMatrix:
        return src.assemble(tgt, d, 0, src.left_blocks(lambda lam: columns.get(lam, ()), d))

    return DegreewiseMap(src, tgt, build, name=name, validate=False)


def chain_map_operator(cm: ChainMap) -> DegreewiseMap:
    """A shift-0 chain map between semifree modules as a degreewise operator
    on their graded-piece carriers."""
    if cm.shift != 0:
        raise DimensionMismatch("operator form needs a shift-0 chain map")
    return _tensor_id(cm, cm.source.carrier(), cm.target.carrier(), "chain-map")


def map_tensor_id(fmap: ChainMap, diag: Diagonal, n: int) -> DegreewiseMap:
    """f (x) id_{T^n} as a degreewise operator N (x) T^n -> N' (x) T^n."""
    return _tensor_id(fmap, diag.NT(fmap.source, n), diag.NT(fmap.target, n),
                      f"f(x)id[{n}]")


def functoriality_defect_is_null(N, Nprime, fmap: ChainMap, diag: Diagonal) -> bool:
    """(f (x) id) w_N ~ w_{N'} (f (x) id), checked on the tensor-degree-0
    restriction: the difference of N -> N' (x) T^1 maps is null-homotopic."""
    chiN = chi_power(N, diag, 1)
    chiNp = chi_power(Nprime, diag, 1)
    lhs = map_tensor_id(fmap, diag, 1).apply(chiN)
    # rhs: chi_{N'} after f, by right-linearity of chi over the entries of f
    f = N.algebra.field
    tgt = diag.NT(Nprime, 1)
    cols: dict = {}
    for (mu, lam), el in fmap.entries.items():
        base = chiNp.cols.get(mu)
        if not base:
            continue
        dmu = Nprime.degrees[mu]
        img = tgt.element_act_right(el, dmu, base)
        acc = cols.setdefault(lam, {})
        vec_axpy(f, acc, f.one, img)
    rhs = CarrierMap(N, tgt, 0, {k: v for k, v in cols.items() if v})
    delta = lhs.sub(rhs)
    return diag.hom(N, tgt).null_homotopy(delta) is not None


def conjugation_commutes(N: SemifreeModule, diag: Diagonal, u: ChainMap,
                         window=None) -> bool:
    """Strict conjugation identity for a triangular chain automorphism:
    (u (x) id) w = w (u (x) id), entrywise per degree of the window (by
    default min..max+1 of N), on tensor components 0 and 1."""
    tower = ObstructionTower(N, diag)
    if window is None:
        window = range(N.min_degree, N.max_degree + 2)
    for i in (0, 1):
        w = tower.component(i)
        phi_i = map_tensor_id(u, diag, i)
        phi_i1 = map_tensor_id(u, diag, i + 1)
        for d in window:
            lhs = phi_i1.mat(d) @ w.mat(d)
            rhs = w.mat(d) @ phi_i.mat(d)
            if lhs.add(rhs.scale(N.algebra.field.neg(N.algebra.field.one))).is_zero():
                continue
            return False
    return True
