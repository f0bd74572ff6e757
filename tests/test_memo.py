"""The one memo mechanism (dglift.memo) and the memos built on it.

A memoized object must be the same object on a repeated query and equal, in
canonical coordinates, to one built from nothing.  Every memo lives on its
owner: the Hom-space memo lives on the Diagonal so that it goes with it,
with the garbage collector off, dropping the Diagonal after a battery frees
it and its tensor carriers; and after a collection nothing of a finished
battery stays alive, which a global or functools cache would break.
"""

import gc
import importlib
import weakref

import pytest

from dglift.algebra import AlgebraElement
from dglift.carriers import (AlgebraCarrier, Carrier, KernelSubCarrier, SemifreeCarrier,
                             TensorCarrier)
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal, EnvelopingCarrier
from dglift.homotopy import HomSpace
from dglift.instances import build_corpus
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery
from dglift.linalg import Echelon, SparseMatrix
from dglift.memo import peek
from dglift.modules import ChainMap, SemifreeModule, regular_module
from dglift.obstruction import (DegreewiseMap, EnvelopingRouteTower, ObstructionTower,
                                gamma_dim)
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
        assert peek(diag, "_hom")
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
        assert [k for k in peek(diag, "_hom") if k[1] is G.carrier()] == [(M, G.carrier(), 0)]
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
    homs = peek(diag, "_hom")
    for n in range(1, max(0, M.max_degree) + 1):
        assert (M, B, n) in homs, (mname, "AR1", n)
    for n in range(1, span + 1):
        assert (M, M.carrier(), n) in homs, (mname, "AR2", n)


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


# ----- every memo of the engine, table-driven --------------------------------

LAYERS = ("algebra", "carriers", "diagonal", "homotopy", "instances", "linalg",
          "modules", "obstruction")


def memoized_names():
    """(defining class or None, name) of every memo-decorated method, property
    and function of the engine modules."""
    found = set()
    for layer in LAYERS:
        module = importlib.import_module(f"dglift.{layer}")
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                attrs = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
                owner = name if isinstance(obj, type) else None
                for attr, fn in attrs:
                    fn = fn.fget if isinstance(fn, property) else fn
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename.endswith("memo.py"):
                        found.add((owner, attr))
    return found


def memo_calls(inst):
    """(owner, memo name, arguments, call) for every memoized method, on
    owners built from inst; call() asks the memo."""
    alg = inst.algebra
    diag = inst.diag
    M = inst.modules["two_step"]
    y = alg.gen("y")
    (u,) = y.terms
    T2 = diag.T(2)
    hs = diag.hom(M, diag.NT(M, 1))
    tower = ObstructionTower(M, diag)
    route = EnvelopingRouteTower(M, diag)
    rows = [(inst, "diag", (), lambda: inst.diag),
            (alg, "regular_module", (), lambda: regular_module(alg))]

    def method(owner, name, *args):
        rows.append((owner, name, args, lambda: getattr(owner, name)(*args)))

    method(alg, "mono_degree", u)
    method(alg, "monomials", 3)
    method(alg, "_mono_positions", 3)
    method(alg, "nonA_monomials", 2)
    method(alg, "diff_mono", u)
    method(alg, "carrier")
    method(alg.carrier(), "diff", 2)
    method(alg.carrier(), "action", "r", u, 1)
    method(M.carrier(), "offsets", 3)
    method(M.carrier(), "diff", 3)
    method(diag.J, "basis_vectors", 2)
    method(diag.J, "_free_cols", 2)
    method(diag.J, "min_degree")
    method(diag.J, "diff", 3)
    method(diag.SJ, "diff", 3)
    method(T2, "_spanning", 2)
    method(T2, "_echelon_at", 4)
    method(T2, "diff", 4)
    method(T2, "action", "l", u, 3)
    method(diag.env, "labels", 2)
    method(diag.env, "_positions", 2)
    method(diag.env, "diff", 2)
    method(diag, "T", 2)
    method(diag, "NT", M, 1)
    method(diag, "_hom", M, diag.NT(M, 1), 0)
    method(diag, "base_change", M)
    method(diag, "_delta_mono", u)
    method(M, "carrier")
    method(hs, "chain_matrix")
    method(hs, "boundary_matrix")
    method(hs, "_build")
    method(hs.boundary_matrix(), "columns")
    method(hs.boundary_matrix(), "echelon")
    method(hs.boundary_matrix(), "rank")
    method(tower, "component", 0)
    method(tower.component(0), "mat", 3)
    method(route, "_carriers")
    method(route, "core_matrix", 2)
    method(route, "component", 0)
    return rows


def canon(v):
    """A value in canonical, comparable data, orders included."""
    if isinstance(v, SparseMatrix):
        return "matrix", v.nrows, v.ncols, canon(v.entries)
    if isinstance(v, Echelon):
        return "echelon", v.ncols, canon(v.rows)
    if isinstance(v, AlgebraElement):
        return "element", canon(v.terms)
    if isinstance(v, Carrier):
        degrees = range(v.min_degree(), v.config.max_degree + 1)
        return "carrier", repr(v), [(v.labels(d), canon(v.diff(d))) for d in degrees]
    if isinstance(v, HomSpace):
        return ("hom", v.cycle_dim, v.boundary_dim, v.dim_K,
                canon([r.cols for r in v.class_reps()]))
    if isinstance(v, SemifreeModule):
        return "module", v.names, v.degrees, canon(v.diff)
    if isinstance(v, ChainMap):
        return "chain map", canon(v.source), canon(v.target), v.shift, canon(v.entries)
    if isinstance(v, DegreewiseMap):
        return "operator", v.name, [canon(v.mat(d)) for d in range(4)]
    if isinstance(v, Diagonal):
        return "diagonal", canon(v.T(2))
    if isinstance(v, dict):
        return tuple((k, canon(x)) for k, x in v.items())
    if isinstance(v, (tuple, list)):
        return tuple(canon(x) for x in v)
    return v


def test_the_table_covers_every_memo():
    rows = memo_calls(build_corpus(CONFIGS["Q"], ["exterior"])["exterior"])
    covered = set()
    for owner, name, _, _ in rows:
        cls = next((c for c in type(owner).__mro__ if name in vars(c)), None)
        covered.add((cls and cls.__name__, name))
    assert covered == memoized_names()
    # an owner from each engine module
    assert {type(r[0]).__module__ for r in rows} == {f"dglift.{layer}" for layer in LAYERS}


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_memo_returns_one_object_equal_to_a_fresh_build(backend):
    """A repeated call returns the very object of the first, which the one
    memo store holds under the call's key; its value equals what a freshly
    built owner computes."""
    rows = memo_calls(build_corpus(CONFIGS[backend], ["exterior"])["exterior"])
    fresh = memo_calls(build_corpus(CONFIGS[backend], ["exterior"])["exterior"])
    for (owner, name, args, call), (_, _, _, fresh_call) in zip(rows, fresh):
        value = call()
        assert call() is value, name
        held = peek(owner, name)
        if args:
            held = held[args[0] if len(args) == 1 else args]
        assert held is value, name
        assert canon(value) == canon(fresh_call()), name


def test_a_matrix_that_asks_no_memo_carries_none():
    m = SparseMatrix(RATIONALS, 2, 2, {(0, 1): 1})
    assert set(vars(m)) == {"field", "nrows", "ncols", "entries"}
    assert peek(m, "echelon") is None
    m.rank()
    assert peek(m, "echelon") is None and peek(m, "rank") == 1
    assert m.echelon() is peek(m, "echelon") and m.rank() == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_battery_leaves_nothing_alive_after_a_collection(backend):
    """The memos live on their owners, so once a battery's algebra, module
    and Diagonal are dropped a collection frees them all."""
    def run():
        inst = build_corpus(CONFIGS[backend], ["exterior"])["exterior"]
        M = inst.modules["cone_id"]
        naive_lift_battery(M, inst.diag)
        assert peek(inst.diag, "_hom") and peek(inst.algebra, "regular_module")
        return [weakref.ref(inst.algebra), weakref.ref(M), weakref.ref(inst.diag)]

    refs = run()
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
