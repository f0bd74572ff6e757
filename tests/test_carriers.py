"""The closed-form N (x)_B T^n against the relation-quotient oracle.

For a semifree N, Diagonal.NT writes N (x)_B T^n as one block of T^n per
generator of N.  TensorCarrier builds the same module as the quotient of the
degreewise k-tensor space by the relations x b (x) y - x (x) b y.  The map
Phi sending e_lam (x) t to the class of e_lam (x) t must be an isomorphism
of chain complexes of right modules in every degree within the cap.
"""

import pytest

from dglift.carriers import SemifreeCarrier, TensorCarrier
from dglift.config import EngineConfig
from dglift.errors import CapExceeded, DimensionMismatch
from dglift.homotopy import CarrierMap, HomSpace, carrier_map_to_chain
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.obstruction import chi_power
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

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
    hs = HomSpace(M, inst.diag.NT(M, 1), 0, strict_triangular=True)
    with pytest.raises(DimensionMismatch):
        hs.class_reps()
    # the module's own carrier still converts
    ident = CarrierMap(M, M.carrier(), 0, chi_power(M, inst.diag, 0).cols)
    assert carrier_map_to_chain(ident).entries
