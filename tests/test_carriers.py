"""The closed-form N (x)_B T^n against the relation-quotient oracle, and the
relation quotient against a dense oracle.

For a semifree N, Diagonal.NT writes N (x)_B T^n as one block of T^n per
generator of N.  TensorCarrier builds the same module as the quotient of the
degreewise k-tensor space by the relations x b (x) y - x (x) b y.  The map
Phi sending e_lam (x) t to the class of e_lam (x) t must be an isomorphism
of chain complexes of right modules in every degree within the cap.  The
quotient itself must be the one that dense elimination of those relation
rows, written down from their definition, gives, and the one that inserting
every relation row into a sparse echelon gives (quotient_oracle).  A right
factor that is not free over the ring, or a left factor whose degree-0
action moves basis vectors backwards, must make the quotient raise.
"""

import random

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.carriers import Carrier, SemifreeCarrier, TensorCarrier
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import CapExceeded, DimensionMismatch
from dglift.homotopy import CarrierMap, carrier_map_to_chain
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.obstruction import chi_power
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

from dense_oracle import dense_echelon
from quotient_oracle import all_rows_echelon

# each corpus algebra keeps its own degree cap under the default config
CONFIGS = {"Q": EngineConfig(field=RATIONALS),
           "Fp": EngineConfig(field=PrimeField(DEFAULT_PRIME))}
_CORPORA = {}


def corpus(backend):
    if backend not in _CORPORA:
        _CORPORA[backend] = build_corpus(CONFIGS[backend])
    return _CORPORA[backend]


def cases(backend):
    return [(inst, mname, M, n) for inst in corpus(backend).values()
            for mname, M in inst.modules.items() for n in range(3)]


def same(a: SparseMatrix, b: SparseMatrix) -> bool:
    f = a.field
    return (a.nrows, a.ncols) == (b.nrows, b.ncols) and \
        a.add(b.scale(f.neg(f.one))).is_zero()


def phi(closed: SemifreeCarrier, oracle: TensorCarrier, d: int) -> SparseMatrix:
    """Closed-form coordinates -> quotient coordinates in degree d."""
    ncar = closed.module.carrier()
    f = closed.field
    cols = []
    for k in range(closed.dim(d)):
        lam, j = closed.block(d, k)
        p, gvec = ncar.gen_vector(lam)
        cols.append(oracle.pair_project(p, gvec, d - p, {j: f.one}))
    return SparseMatrix.from_cols(f, oracle.dim(d), cols)


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_closed_form_is_isomorphic_to_the_relation_quotient(backend):
    checked = 0
    for inst, mname, M, n in cases(backend):
        diag = inst.diag
        alg = inst.algebra
        cap = alg.config.max_degree
        closed = diag.NT(M, n)
        oracle = TensorCarrier(M.carrier(), diag.T(n))
        where = (inst.name, mname, n)
        lo = closed.min_degree()
        phis = {d: phi(closed, oracle, d) for d in range(lo - 1, cap + 1)}
        for d in range(lo, cap + 1):
            assert closed.dim(d) == oracle.dim(d), where + (d,)
            assert phis[d].rank() == closed.dim(d), where + (d,)
            assert same(phis[d - 1] @ closed.diff(d), oracle.diff(d) @ phis[d]), where + (d,)
            if d + 1 <= cap:
                for u in alg.monomials(1):
                    assert same(phis[d + 1] @ closed.right_act(u, d),
                                oracle.right_act(u, d) @ phis[d]), where + (d, u)
            checked += 1
        with pytest.raises(CapExceeded):
            closed.dim(max(cap + 1, lo))
    assert checked > 100


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_pair_project_moves_the_monomial_across(backend):
    """e_lam w (x) y with w not the unit lands where the oracle puts it."""
    seen = 0
    for inst, mname, M, n in cases(backend):
        diag = inst.diag
        alg = inst.algebra
        cap = alg.config.max_degree
        closed = diag.NT(M, n)
        oracle = TensorCarrier(M.carrier(), diag.T(n))
        ncar = M.carrier()
        Tn = diag.T(n)
        f = alg.field
        for p in range(ncar.min_degree(), cap + 1):
            for k in range(ncar.dim(p)):
                lam, j = ncar.block(p, k)
                w = alg.monomials(p - M.degrees[lam])[j]
                if alg.mono_is_unit(w):
                    continue
                for q in range(Tn.min_degree(), cap - p + 1):
                    for jy in range(Tn.dim(q)):
                        got = closed.pair_project(p, {k: f.one}, q, {jy: f.one})
                        want = oracle.pair_project(p, {k: f.one}, q, {jy: f.one})
                        assert phi(closed, oracle, p + q).mat_vec(got) == want, \
                            (inst.name, mname, n, p, k, q, jy)
                        seen += 1
    assert seen > 100


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_module_carrier_keeps_the_generator_monomial_basis(backend):
    """With Y = B the closed form is the module's own (generator, monomial)
    basis, in basis_in_degree order; index and block invert each other."""
    for inst, mname, M, n in cases(backend):
        if n:
            continue
        car = M.carrier()
        for d in range(car.min_degree(), inst.algebra.config.max_degree + 1):
            labels = car.labels(d)
            assert labels == M.basis_in_degree(d), (inst.name, mname, d)
            for k, (lam, u) in enumerate(labels):
                assert car.index(d, lam, u) == k
                assert car.block(d, k) == (lam, inst.algebra.mono_index(d - M.degrees[lam], u))


def test_semifree_only_code_rejects_tensor_targets():
    inst = corpus("Q")["exterior"]
    M = inst.modules["two_step"]
    chi1 = chi_power(M, inst.diag, 1)
    assert isinstance(chi1.target, SemifreeCarrier) and not chi1.is_zero()
    with pytest.raises(DimensionMismatch):
        carrier_map_to_chain(chi1)
    # the module's own carrier still converts
    ident = CarrierMap(M, M.carrier(), 0, chi_power(M, inst.diag, 0).cols)
    assert carrier_map_to_chain(ident).entries


def dense_relations(T: TensorCarrier, d: int):
    """The pairs (p, i, j) spanning the free space of T in degree d, in
    lexicographic order, and the relation rows x_i b (x) y_j - x_i (x) b y_j
    over the non-unit monomials b of T's ring, as dense rows read off the
    unmemoized action matrices."""
    X, Y, alg, f = T.X, T.Y, T.algebra, T.field
    top = d - Y.min_degree()
    pairs = [(p, i, j) for p in range(X.min_degree(), top + 1)
             for i in range(X.dim(p)) for j in range(Y.dim(d - p))]
    col = {t: k for k, t in enumerate(pairs)}
    rows = []
    for p in range(X.min_degree(), top + 1):
        for e in range(top - p + 1):
            q = d - p - e
            if X.dim(p) == 0 or Y.dim(q) == 0:
                continue
            for b in alg.monomials(e):
                if (e == 0 and alg.mono_is_unit(b)) or (T.ring == "A" and not alg.mono_in_A(b)):
                    continue
                xb, by = X.right_act(b, p), Y.left_act(b, q)
                for i in range(X.dim(p)):
                    for j in range(Y.dim(q)):
                        row = [f.zero] * len(pairs)
                        for (i2, i1), c in xb.entries.items():
                            if i1 == i:
                                k = col[(p + e, i2, j)]
                                row[k] = f.add(row[k], c)
                        for (j2, j1), c in by.entries.items():
                            if j1 == j:
                                k = col[(p, i, j2)]
                                row[k] = f.sub(row[k], c)
                        rows.append(row)
    return pairs, rows


def quotient_carriers(backend):
    """(where, cap, TensorCarrier): T^2, T^3 and B (x)_A T^n for n <= 2, over
    every corpus algebra and over exterior algebras on two and three odd
    generators, whose quotients are larger; and N (x)_A T^n for n <= 2 and
    every corpus module N."""
    out = []
    for inst in corpus(backend).values():
        out += [((inst.name, f"NT_A {mname} {n}"), inst.algebra.config.max_degree,
                 inst.diag.NT_A(M, n))
                for mname, M in inst.modules.items() for n in range(3)]
    diags = [(inst.name, inst.diag) for inst in corpus(backend).values()]
    for k, cap in ((2, 8), (3, 6)):
        ext = build_algebra(BaseRing(), [(f"y{i}", 1, "0") for i in range(k)], 0,
                            CONFIGS[backend].with_limits(max_degree=cap))
        diags.append((f"ext{k}", Diagonal(ext)))
    for name, diag in diags:
        cap = diag.config.max_degree
        out += [((name, f"T{n}"), cap, diag.T(n)) for n in (2, 3)]
        out += [((name, f"BT_A{n}"), cap, diag.BT_A(n)) for n in (0, 1, 2)]
    return out


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_relation_quotient_is_the_dense_quotient(backend):
    """labels are the pairs on the non-pivot columns of the dense RREF of
    the relation rows, and project_free is dense reduction modulo them,
    read on those columns."""
    rng = random.Random(0)
    built = 0
    for where, cap, T in quotient_carriers(backend):
        f = T.field
        for d in range(cap + 1):
            pairs, rows = dense_relations(T, d)
            ech, pivots = dense_echelon(f, rows)
            free = [k for k in range(len(pairs)) if k not in pivots]
            assert T.labels(d) == [pairs[k] for k in free], where + (d,)
            assert T.dim(d) == len(free), where + (d,)
            built += bool(rows and free)
            for _ in range(4 if pairs else 0):
                v = [f.from_int(rng.randint(-2, 2)) for _ in pairs]
                got = T.project_free(d, {k: c for k, c in enumerate(v) if not f.is_zero(c)})
                for row, pc in zip(ech, pivots):
                    v = [f.sub(x, f.mul(v[pc], y)) for x, y in zip(v, row)]
                want = {pos: v[k] for pos, k in enumerate(free) if not f.is_zero(v[k])}
                assert got == want, where + (d,)
    assert built > 40


def large_carriers(backend):
    """(where, cap, TensorCarrier): T^2, T^3 and B (x)_A T^n for n <= 2 over
    the exterior algebra on five odd generators to degree 6 and over tate2
    to degree 8."""
    out = []
    for name, base, gens, cap in (
            ("ext5", BaseRing(), [(f"y{i}", 1, "0") for i in range(5)], 6),
            ("tate2", BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 8)):
        diag = Diagonal(build_algebra(base, gens, 0,
                                      CONFIGS[backend].with_limits(max_degree=cap)))
        cars = [(f"T{n}", diag.T(n)) for n in (2, 3)]
        cars += [(f"BT_A{n}", diag.BT_A(n)) for n in range(3)]
        out += [((name, where), cap, car) for where, car in cars]
    return out


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_basis_rows_give_the_all_rows_echelon(backend):
    """On quotients too large for the dense oracle, the quotient read off
    the basis of the relations is the one that inserting every relation
    row gives: the same free columns, and project_free is reduction modulo
    that echelon, read on the free columns.  Reducing each pivot column
    gives minus its RREF row off the pivot, so the pivot columns pin every
    row; random vectors check sums of them.  Every degree from the
    carrier's lowest to the cap."""
    rng = random.Random(1)
    built = 0
    for where, cap, T in large_carriers(backend):
        f = T.field
        one = f.one
        for d in range(T.min_degree(), cap + 1):
            want = all_rows_echelon(T, d)
            free = want.free_columns()
            assert T.dim(d) == len(free), where + (d,)
            assert T._quot[d] == free, where + (d,)
            pos = {j: k for k, j in enumerate(free)}

            def oracle(vec):
                return {pos[j]: c for j, c in want.reduce(vec).items()}

            for pc in want.pivots:
                assert T.project_free(d, {pc: one}) == oracle({pc: one}), where + (d, pc)
            for _ in range(3 if want.ncols else 0):
                vec = {k: f.from_int(rng.choice((-2, -1, 1, 2)))
                       for k in rng.sample(range(want.ncols), min(6, want.ncols))}
                assert T.project_free(d, vec) == oracle(vec), where + (d,)
            built += bool(want.rank and free)
    assert built > 25


class Residue(Carrier):
    """k = B/B_+ as a left module: k in degree 0, every non-unit monomial
    acting as zero.  It is not free over B when B has a degree-1 variable."""

    has_left = True

    def min_degree(self):
        return 0

    def dim(self, d):
        return 1 if d == 0 else 0

    def labels(self, d):
        return ["1"] if d == 0 else []

    def diff(self, d):
        return SparseMatrix(self.field, self.dim(d - 1), self.dim(d))

    def left_act(self, mono, d):
        e = self.algebra.mono_degree(mono)
        unit = self.algebra.mono_is_unit(mono) and d == 0
        return SparseMatrix(self.field, self.dim(d + e), self.dim(d),
                            {(0, 0): self.field.one} if unit else {})


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_non_free_right_factor_raises(backend):
    """B (x)_B k is k.  In degree 0 the certificate holds and the quotient
    is right; in degree 1 no relation row exists, as B_+ kills k, so a
    quotient built from a basis of B_+ k would keep all of B_1 (x) k: the
    freeness check must raise instead, naming the degree."""
    B = corpus(backend)["exterior"].diag.B
    T = TensorCarrier(B, Residue(B.algebra))
    assert T.dim(0) == 1
    with pytest.raises(DimensionMismatch, match="degree 1"):
        T.dim(1)


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_quotient_shape_counts_the_relation_pivots(backend):
    """The shape _echelon_at(d) reports without building the echelon, which
    the benchmark's probes read: the free dimension and the rank of the
    all-rows relation echelon, whose difference is dim(d), for the corpus
    T(2) and T(3) in every degree within the cap."""
    checked = 0
    for inst in corpus(backend).values():
        for n in (2, 3):
            T = inst.diag.T(n)
            for d in range(T.min_degree(), inst.algebra.config.max_degree + 1):
                shape, want = T._echelon_at(d), all_rows_echelon(T, d)
                assert (shape.ncols, shape.rank) == (want.ncols, want.rank), (inst.name, n, d)
                assert shape.ncols - shape.rank == T.dim(d), (inst.name, n, d)
                checked += bool(shape.rank)
    assert checked > 20


class Reversed(Carrier):
    """X with the basis of every degree in reverse order: the same module,
    so the quotient by it is the same up to that reordering."""

    def __init__(self, inner: Carrier):
        super().__init__(inner.algebra)
        self.inner = inner
        self.has_left = inner.has_left
        self.has_right = inner.has_right

    def min_degree(self):
        return self.inner.min_degree()

    def dim(self, d):
        return self.inner.dim(d)

    def labels(self, d):
        return self.inner.labels(d)[::-1]

    def _flip(self, m: SparseMatrix) -> SparseMatrix:
        r, c = m.nrows - 1, m.ncols - 1
        return SparseMatrix(m.field, m.nrows, m.ncols,
                            {(r - i, c - j): x for (i, j), x in m.entries.items()})

    def diff(self, d):
        return self._flip(self.inner.diff(d))

    def right_act(self, mono, d):
        return self._flip(self.inner.action("r", mono, d))

    def left_act(self, mono, d):
        return self._flip(self.inner.action("l", mono, d))


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_backward_degree_zero_move_raises(backend):
    """Over tate2 the base nilpotent q acts on Sigma J; in Sigma J's own
    basis it moves each basis vector to later ones, and the quotient by
    Sigma J (x)_B T^1 is read off the S_q.  Reversing that basis makes q
    move vectors backwards, where the pivots of the relations are not the
    ones read off the S_q: the ordering check must raise, naming the
    carrier and the degree, rather than return a wrong quotient."""
    diag = corpus(backend)["tate2"].diag
    cap = diag.config.max_degree
    T = TensorCarrier(diag.SJ, diag.T(1))
    assert [T.dim(d) for d in range(cap + 1)] == [diag.T(2).dim(d) for d in range(cap + 1)]
    R = TensorCarrier(Reversed(diag.SJ), diag.T(1))
    with pytest.raises(DimensionMismatch,
                       match=r"TensorCarrier\(Reversed \(x\)_B ShiftedCarrier\) in degree \d+: "
                             r"x_\d+\*q in degree \d+ of the left factor reaches back"):
        for d in range(cap + 1):
            R.dim(d)
