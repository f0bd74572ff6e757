"""The lifting-obstruction map on N (x) T and its derived data.

For a semifree module with d(e_lam) = sum_{mu<lam} e_mu b_{mu lam}, the
tensor-degree-raising operator sends e_lam (x) t to

    sum_{mu<lam} (-1)^{|e_mu|} e_mu (x) delta(b_{mu lam}) (x) t,

the sign being the cost of writing the suspended slot in unshifted J
coordinates.  So component i is a matrix of generator blocks: block
(mu, lam) is (-1)^{|e_mu|} delta(b_{mu lam}) (x) - on T^i, as f (x) id is
the left action of f's entries on one copy of T^n per generator.  Each is
a block rule that SemifreeCarrier.assemble puts together one degree at a
time for a DegreewiseMap, which validates each tensor component as an
exact degree-0 chain operator.  An independent
construction through the enveloping algebra must reproduce it entrywise.
Its independent part is its core, the section/retraction conjugation of
the differential of N (x) B^e (the retraction places each basis vector,
the carrier's differential is applied to it, and the section only to the
basis vectors that the result reaches), which never calls
Diagonal.delta; both towers prepend their J vectors to T^i through
Diagonal.prepend_matrix.  That shared placement is checked by the
closed-form powers, which one walk yields in turn, each one step past the
last: it sums the strictly decreasing generator chains by their head
through t_prepend and place, and each power must equal the iterated
composition of the assembled components.
"""

from __future__ import annotations

from .carriers import Carrier, SemifreeCarrier
from .diagonal import Diagonal
from .errors import DimensionMismatch
from .homotopy import CarrierMap, HomotopyWitness, HomSpace
from .linalg import SparseMatrix, vec_axpy
from .memo import memo
from .modules import ChainMap, SemifreeModule


class DegreewiseMap:
    """A degree-0 chain operator between carriers, one matrix per DG degree.

    Matrices are built lazily, one per degree by build(d), and the chain
    square D_target m(d) = m(d-1) D_source is checked exactly whenever a new
    degree is materialized.
    """

    def __init__(self, source: Carrier, target: Carrier, build, name: str,
                 validate: bool = True):
        self.source = source
        self.target = target
        self.build = build
        self.name = name
        self._validate = validate

    @memo
    def mat(self, d: int) -> SparseMatrix:
        m = self.build(d)
        if self._validate:
            self._check(d, m)
        return m

    def _check(self, d: int, m: SparseMatrix):
        """Check the chain square of m, the matrix that mat(d) is about to keep."""
        if d - 1 < min(self.source.min_degree(), self.target.min_degree()):
            return
        lhs = self.target.diff(d) @ m
        rhs = self.mat(d - 1) @ self.source.diff(d)
        if lhs.columns() == rhs.columns():
            return
        raise DimensionMismatch(f"{self.name} is not a chain operator at degree {d}")

    def apply(self, cmap: CarrierMap) -> CarrierMap:
        """Post-compose with a generator-image map landing in the source."""
        if cmap.target is not self.source:
            raise DimensionMismatch(f"operator {self.name}: {self.source!r} -> {self.target!r} "
                                    f"does not apply to a map into {cmap.target!r}")
        cols = {}
        for lam, vec in cmap.cols.items():
            d = cmap.source.degrees[lam] - cmap.shift
            img = self.mat(d).mat_vec(vec)
            if img:
                cols[lam] = img
        return CarrierMap(cmap.source, self.target, cmap.shift, cols)

    def entrywise_equal(self, other: "DegreewiseMap", degrees) -> bool:
        for d in degrees:
            if self.mat(d).columns() != other.mat(d).columns():
                return False
        return True


class ObstructionTower:
    """All tensor components of the obstruction operator for one module."""

    def __init__(self, N: SemifreeModule, diag: Diagonal):
        self.N = N
        self.diag = diag

    def component(self, i: int) -> DegreewiseMap:
        """The piece N (x) T^i -> N (x) T^{i+1}, within the config's
        max_tensor, built on each call; past it, Diagonal.T refuses the
        target's T^{i+1}."""
        diag = self.diag
        N = self.N
        f = N.algebra.field
        src = diag.NT(N, i)
        tgt = diag.NT(N, i + 1)
        signs = (f.one, f.neg(f.one))

        def rule(lam: int, q: int) -> list:
            # block (mu, lam) is (-1)^{|e_mu|} delta(b_{mu lam}) (x) - on T^i_q
            return [(mu, signs[N.degrees[mu] % 2], diag.prepend_matrix(*diag.delta(b), i, q))
                    for mu, b in N.diff_column(lam)]

        return DegreewiseMap(src, tgt, lambda d: src.assemble(tgt, d, 0, rule), name=f"w[{i}]")

    def restriction(self) -> CarrierMap:
        """Tensor-degree-0 restriction as a map N -> N (x) T^1."""
        return chi_power(self.N, self.diag, 1)


# ----- independent enveloping-algebra construction -------------------------


class EnvelopingRouteTower:
    """The same operator built as (section . d . retraction) (x) id.

    The retraction sends a generator-monomial pair to e (x) (1 (x) w); the
    section subtracts 1 (x) (image under multiplication).  Applying the
    differential of N (x) B^e between them, vector by vector, gives the
    tensor-degree 0 piece; tensoring with the identity of T^i gives the
    rest.  Used as an entrywise cross-check of the direct formula.
    """

    def __init__(self, N: SemifreeModule, diag: Diagonal):
        self.N = N
        self.diag = diag

    @memo
    def _carriers(self):
        """(N (x) B^e, N (x) J)."""
        return SemifreeCarrier(self.N, self.diag.env), SemifreeCarrier(self.N, self.diag.J)

    @memo
    def core_matrix(self, d: int) -> SparseMatrix:
        """sigma . d^{N (x) B^e} . rho : N_d -> (N (x) J)_{d-1}, applied to
        vectors: rho places each basis vector e_lam w of N_d as e_lam (x)
        (1 (x) w), the carrier's own differential applies d to it, and
        sigma is applied only to the basis vectors e_lam (x) (u (x) m) that
        the result reaches, each once, as u (x) m - 1 (x) um read through
        J.coords and its recheck."""
        N = self.N
        alg = N.algebra
        f = alg.field
        env = self.diag.env
        J = self.diag.J
        NBe, NJ = self._carriers()
        unit = alg.unit_mono()
        sigma: dict = {}  # basis vector of (N (x) B^e)_{d-1} -> its image

        def sigma_col(k):
            # basis vector k is e_lam (x) (u (x) m); subtract 1 (x) um
            lam, j = NBe.block(d - 1, k)
            bd = d - 1 - N.degrees[lam]
            u, m = env.labels(bd)[j]
            out = {j: f.one}
            s2, prod = alg.mono_mul(u, m)
            if prod is not None:
                vec_axpy(f, out, f.one, env.pair_vector(unit, prod, f.from_int(-s2))[1])
            return NJ.place(lam, bd, J.coords(bd, out))

        cols = []
        for lam, w in N.carrier().labels(d):
            out: dict = {}
            for k, c in NBe.apply("d", d, NBe.place(lam, *env.pair_vector(unit, w))).items():
                if k not in sigma:
                    sigma[k] = sigma_col(k)
                vec_axpy(f, out, c, sigma[k])
            cols.append(out)
        return SparseMatrix.from_cols(f, NJ.dim(d - 1), cols)

    def component(self, i: int) -> DegreewiseMap:
        """Tensor component i, built on each call (asked once per tower)."""
        diag = self.diag
        N = self.N
        f = N.algebra.field
        src = diag.NT(N, i)
        tgt = diag.NT(N, i + 1)
        ncar = N.carrier()
        NJ = self._carriers()[1]

        def rule(lam: int, q: int) -> list:
            # apply the core to e_lam; each J basis vector jj it reaches in
            # mu's block gives the block c * (e_jj's shift (x) -) on T^i_q,
            # negated for odd e_mu: the cost of moving the suspension past it
            p, gvec = ncar.gen_vector(lam)
            blocks = []
            for nj, c in self.core_matrix(p).mat_vec(gvec).items():
                mu, jj = NJ.block(p - 1, nj)
                pp = N.degrees[mu]
                blocks.append((mu, f.neg(c) if pp % 2 else c,
                               diag.prepend_matrix(p - 1 - pp, {jj: f.one}, i, q)))
            return blocks

        return DegreewiseMap(src, tgt, lambda d: src.assemble(tgt, d, 0, rule), name=f"w+[{i}]")


def towers_agree(a, b, i: int, degrees) -> bool:
    """Entrywise equality of tensor component i over the given degrees."""
    return a.component(i).entrywise_equal(b.component(i), degrees)


# ----- powers ---------------------------------------------------------------


def chi_powers(N: SemifreeModule, diag: Diagonal, top: int):
    """The closed-form obstruction powers chi^0, chi^1, ..., chi^top: N ->
    N (x) T^l, in one walk: chi^l is the sum over strictly decreasing
    generator chains of l steps of the tensor of derivation values, signed
    by the suspension cost of every intermediate generator.

    The chains out of each e_lam are summed by head: when chi^l is placed,
    heads[lam][mu] is the sum of the T^l vectors of every chain lam > ...
    > mu, of degree |e_lam| - |e_mu|, and the step to chi^{l+1} adds
    (-1)^{|e_nu|} delta(b_{nu mu}) (x) heads[lam][mu] into heads[lam][nu].
    Each delta(b_{nu mu}) is derived once, before the walk, and each step is
    taken just before the power it makes, so no T^{top+1} is asked for.
    chi^0 has the one head e_lam at the unit of T^0 = B: it is the identity
    of N."""
    f = N.algebra.field
    signs = (f.one, f.neg(f.one))
    degrees = N.degrees
    deltas = {mu: [(nu, *diag.delta(b)) for nu, b in N.diff_column(mu)]
              for mu in range(N.n_gens)}
    unit = {N.algebra.mono_index(0, N.algebra.unit_mono()): f.one}
    heads = [{lam: unit} for lam in range(N.n_gens)]
    for ell in range(top + 1):
        for lam in range(N.n_gens if ell else 0):
            step: dict = {}
            for mu, tvec in heads[lam].items():
                for nu, bd, dvec in deltas[mu]:
                    # delta(b) (x) the unit of T^0 is delta(b) itself
                    vec = diag.t_prepend(bd + 1, dvec, ell - 1, degrees[lam] - degrees[mu],
                                         tvec) if ell > 1 else dvec
                    vec_axpy(f, step.setdefault(nu, {}), signs[degrees[nu] % 2], vec)
            heads[lam] = {nu: vec for nu, vec in step.items() if vec}
        tgt = diag.NT(N, ell)
        # the heads of one lam sit in disjoint generator blocks
        yield CarrierMap(N, tgt, 0, {
            lam: {i: c for mu, tvec in heads[lam].items()
                  for i, c in tgt.place(mu, degrees[lam] - degrees[mu], tvec).items()}
            for lam in range(N.n_gens) if heads[lam]})


def chi_power(N: SemifreeModule, diag: Diagonal, ell: int) -> CarrierMap:
    """The l-fold obstruction power N -> N (x) T^l: the last of chi_powers."""
    *_, last = chi_powers(N, diag, ell)
    return last


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

    Decided on the tensor-degree-0 restriction chi^1: N -> N (x) Sigma J
    through the tensor-degree adjunction, by MinimalModel.null_homotopy:
    one solve for chi^1 g on Hom(N', N (x) T^1), N' = diag.minimal(N).module,
    and none when N' = 0.  The witness is carried back to N and rechecked
    there by substitution."""
    return diag.minimal(N).null_homotopy(chi_power(N, diag, 1), diag.hom)


def gamma_dim(N: SemifreeModule, diag: Diagonal, n: int) -> int:
    """dim of the tensor-degree-n graded endomorphism piece: by adjunction the
    homotopy classes N -> N (x) T^n; zero in negative degrees structurally.
    A homotopy invariant of N, so it reads N's minimal model N' =
    diag.minimal(N).module: the space N' -> N' (x) T^n, and 0 with no
    carrier or space built when N' = 0; Diagonal.T refuses n either way."""
    if n < 0:
        return 0
    M = diag.minimal(N).module
    if not M.n_gens:
        diag.T(n)
        return 0
    return diag.hom(M, diag.NT(M, n)).dim_K


def omega_action_matrix(N: SemifreeModule, diag: Diagonal, n: int, m: int):
    """Matrix of left composition with the obstruction on homotopy classes
    Hom(N, Sigma^m(N (x) T^n)) -> Hom(N, Sigma^m(N (x) T^{n+1})).

    Returns (matrix, dim source, dim target): the 0 x 0 matrix, 0 and 0,
    with no carrier or space built, when N = 0, once Diagonal.T has taken
    n and n + 1."""
    if not N.n_gens:
        diag.T(n), diag.T(n + 1)
        return SparseMatrix(N.algebra.field, 0, 0), 0, 0
    S = diag.hom(N, diag.NT(N, n), m)
    T = diag.hom(N, diag.NT(N, n + 1), m)
    mat = induced_matrix(S, T, ObstructionTower(N, diag).component(n))
    return mat, S.dim_K, T.dim_K


def induced_matrix(S: HomSpace, T: HomSpace, op: DegreewiseMap) -> SparseMatrix:
    """Matrix of the map S -> T that the degreewise operator op induces on
    homotopy classes: column j holds the T-coordinates of op applied to S's
    j-th class representative."""
    return SparseMatrix.from_cols(S.field, T.dim_K,
                                  [T.express(op.apply(rep)) for rep in S.class_reps()])


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
    predicted = diag.NT_A(N, n, d - 1)
    return computed, predicted


def local_nilpotency(N: SemifreeModule, diag: Diagonal, i: int):
    """For each basis element of N (x) T^i in the generator-degree window,
    the least power killing it; asserts the degree bound.  A power that
    needs a tensor degree past max_tensor reaches Diagonal.T, which raises
    CapExceeded; one past the bound raises DimensionMismatch naming the
    degree and the basis element."""
    tower = ObstructionTower(N, diag)
    src = diag.NT(N, i)
    f = N.algebra.field
    out = []
    bound = N.max_degree - i + 1
    components: list = []  # component i + k at index k, built when first reached
    for d in range(src.min_degree(), N.max_degree + 1):
        for k in range(src.dim(d)):
            n_x = None
            j = i
            cur = {k: f.one}
            while j - i < bound:
                if j - i == len(components):
                    components.append(tower.component(j))
                cur = components[j - i].mat(d).mat_vec(cur)
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
        return src.assemble(tgt, d, 0, lambda lam, q: src._left(columns.get(lam, ()), q))

    return DegreewiseMap(src, tgt, build, name=name, validate=False)


def chain_map_operator(cm: ChainMap) -> DegreewiseMap:
    """A shift-0 chain map between semifree modules as a degreewise operator
    on their graded-piece carriers."""
    if cm.shift != 0:
        raise DimensionMismatch(f"operator form needs a shift-0 chain map, got shift "
                                f"{cm.shift}: {cm!r}")
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
    rhs = chiNp.precompose(N, fmap.entries)
    return diag.hom(N, rhs.target).null_homotopy(lhs.sub(rhs)) is not None


def conjugation_commutes(N: SemifreeModule, diag: Diagonal, u: ChainMap, window) -> bool:
    """Strict conjugation identity for a triangular chain automorphism:
    (u (x) id) w = w (u (x) id), entrywise per degree of the window, on
    tensor components 0 and 1."""
    tower = ObstructionTower(N, diag)
    for i in (0, 1):
        w = tower.component(i)
        phi_i = map_tensor_id(u, diag, i)
        phi_i1 = map_tensor_id(u, diag, i + 1)
        for d in window:
            if (phi_i1.mat(d) @ w.mat(d)).columns() != (w.mat(d) @ phi_i.mat(d)).columns():
                return False
    return True
