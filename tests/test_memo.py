"""The Hom-space memo on Diagonal and the per-degree differential memo.

A memoized object must be the same object on a repeated query and equal, in
canonical coordinates, to one built from nothing.  The Hom-space memo lives
on the Diagonal so that it goes with it: with the garbage collector off,
dropping the Diagonal after a battery frees it and its tensor carriers.
"""

import gc
import weakref

import pytest

from dglift.carriers import AlgebraCarrier, KernelSubCarrier, SemifreeCarrier, TensorCarrier
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal, EnvelopingCarrier
from dglift.homotopy import HomSpace
from dglift.instances import build_corpus
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery
from dglift.modules import regular_module
from dglift.obstruction import gamma_dim
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

CONFIGS = {"Q": EngineConfig(field=RATIONALS),
           "Fp": EngineConfig(field=PrimeField(DEFAULT_PRIME))}
BACKENDS = ["Q", "Fp"]


def matrix_data(m):
    return m.nrows, m.ncols, m.entries


@pytest.mark.parametrize("backend", BACKENDS)
def test_hom_returns_one_space_per_key(backend):
    inst = build_corpus(CONFIGS[backend])["exterior"]
    M = inst.modules["two_step"]
    diag = Diagonal(inst.algebra)
    end = diag.hom(M, M)
    assert diag.hom(M, M, 0) is end
    # a module target stands for its own carrier
    assert diag.hom(M, M.carrier()) is end
    assert diag.hom(M, diag.NT(M, 0)) is end
    assert diag.hom(M, M, 1) is not end
    assert diag.hom(M, diag.NT(M, 1)) is not end
    assert diag.hom(M, diag.NT(M, 1)) is diag.hom(M, diag.NT(M, 1), 0)
    # another Diagonal keeps its own memo
    assert Diagonal(inst.algebra).hom(M, M) is not end


@pytest.mark.parametrize("backend", BACKENDS)
def test_memoized_hom_spaces_equal_fresh_ones(backend):
    checked = 0
    for inst in build_corpus(CONFIGS[backend]).values():
        diag = inst.diag
        fresh = Diagonal(inst.algebra)
        for mname, M in inst.modules.items():
            for n in range(3):
                gamma_dim(M, diag, n)   # fill the memo through a real query
                hs = diag.hom(M, diag.NT(M, n))
                assert diag.hom(M, diag.NT(M, n)) is hs
                other = HomSpace(M, SemifreeCarrier(M, fresh.T(n)) if n else
                                 SemifreeCarrier(M), 0)
                where = (inst.name, mname, n)
                assert (hs.cycle_dim, hs.boundary_dim, hs.dim_K) == \
                    (other.cycle_dim, other.boundary_dim, other.dim_K), where
                assert [r.cols for r in hs.class_reps()] == \
                    [r.cols for r in other.class_reps()], where
                checked += 1
    assert checked >= 50


def _carrier_pairs(inst):
    """(memoized carrier, the same carrier built afresh) for every kind."""
    alg = inst.algebra
    diag = inst.diag
    fresh = Diagonal(alg)
    pairs = [(alg.carrier(), AlgebraCarrier(alg)),
             (diag.env, EnvelopingCarrier(alg)),
             (diag.J, KernelSubCarrier(fresh.env, fresh.env.pi_matrix, name="J")),
             (diag.SJ, fresh.SJ),
             (diag.T(2), TensorCarrier(fresh.SJ, fresh.T(1)))]
    for M in inst.modules.values():
        pairs.append((M.carrier(), SemifreeCarrier(M)))
        pairs.append((diag.NT(M, 1), SemifreeCarrier(M, fresh.T(1))))
    return pairs


@pytest.mark.parametrize("backend", BACKENDS)
def test_carrier_diff_is_built_once_and_equals_a_fresh_build(backend):
    checked = 0
    for inst in build_corpus(CONFIGS[backend]).values():
        cap = inst.algebra.config.max_degree
        for car, new in _carrier_pairs(inst):
            for d in range(car.min_degree(), cap + 1):
                m = car.diff(d)
                assert car.diff(d) is m
                assert matrix_data(m) == matrix_data(new.diff(d)), (inst.name, type(car), d)
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("backend", BACKENDS)
def test_dropping_the_diagonal_frees_its_memo_without_a_collection(backend):
    inst = build_corpus(CONFIGS[backend])["exterior"]
    M = inst.modules["two_step"]
    gc.collect()
    gc.disable()
    try:
        diag = Diagonal(inst.algebra)
        naive_lift_battery(M, diag)
        kernel_sequence_check(M, diag)
        assert diag._hom
        refs = [weakref.ref(diag), weakref.ref(diag.T(1))]
        del diag
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", BACKENDS)
def test_base_change_and_its_hom_space_are_built_once_per_diagonal(backend, monkeypatch):
    """A battery and a kernel-sequence check build G = base_change(N) once,
    and the splitting search and the factorization ideal share one Hom space
    N -> G, whose chain matrix delta_1 is built once."""
    import dglift.diagonal as diagonal_module
    import dglift.homotopy as homotopy_module
    inst = build_corpus(CONFIGS[backend])["exterior"]
    built, chain_targets = [], []
    real_base_change = diagonal_module.base_change
    real_delta_matrix = homotopy_module.delta_matrix

    def base_change(N):
        built.append(N)
        return real_base_change(N)

    def delta_matrix(rows, cols):
        if rows.shift == 1:
            chain_targets.append((rows.source, rows.target))
        return real_delta_matrix(rows, cols)

    monkeypatch.setattr(diagonal_module, "base_change", base_change)
    monkeypatch.setattr(homotopy_module, "delta_matrix", delta_matrix)
    for mname in ("B2", "cone_id", "two_step"):
        M = inst.modules[mname]
        diag = Diagonal(inst.algebra)
        naive_lift_battery(M, diag)
        kernel_sequence_check(M, diag)
        G, pi = diag.base_change(M)
        assert diag.base_change(M) is diag.base_change(M)
        assert built == [M]
        assert [k for k in diag._hom if k[1] is G.carrier()] == [(M, G.carrier(), 0)]
        assert chain_targets.count((M, G.carrier())) == 1
        built.clear()


BATTERY_MODULES = ("two_step", "cone_id", "B2")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mname", BATTERY_MODULES)
def test_battery_reads_the_AR_tables_off_the_hom_memo(backend, mname):
    """check_AR1 and check_AR2 ask diag.hom, so the battery leaves their
    Hom spaces N -> Sigma^n B and N -> Sigma^n N in the memo."""
    inst = build_corpus(CONFIGS[backend])["exterior"]
    M = inst.modules[mname]
    diag = Diagonal(inst.algebra)
    naive_lift_battery(M, diag)
    B = regular_module(inst.algebra).carrier()
    span = M.max_degree - M.min_degree
    for n in range(1, max(0, M.max_degree) + 1):
        assert (M, B, n) in diag._hom, (mname, "AR1", n)
    for n in range(1, span + 1):
        assert (M, M.carrier(), n) in diag._hom, (mname, "AR2", n)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mname", BATTERY_MODULES)
def test_kernel_sequence_builds_each_action_matrix_once(backend, mname, monkeypatch):
    """omega(0, 0) feeds both the factorization ideal and degree-zero
    surjectivity, so the kernel sequence asks for each omega(n, 0) once."""
    import dglift.liftcheck as liftcheck_module
    inst = build_corpus(CONFIGS[backend])["exterior"]
    M = inst.modules[mname]
    asked = []
    real = liftcheck_module.omega_action_matrix

    def omega_action_matrix(N, diag, n, m):
        asked.append((n, m))
        return real(N, diag, n, m)

    monkeypatch.setattr(liftcheck_module, "omega_action_matrix", omega_action_matrix)
    kernel_sequence_check(M, Diagonal(inst.algebra))
    L = inst.algebra.config.max_tensor
    assert sorted(asked) == [(n, 0) for n in range(L)], mname
