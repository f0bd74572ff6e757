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
from dglift.carriers import (AlgebraCarrier, Carrier, KernelSubCarrier, QuotientShape,
                             SemifreeCarrier, TensorCarrier)
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal, EnvelopingCarrier
from dglift.errors import CapExceeded
from dglift.homotopy import HomSpace, MinimalModel, hom_k_dim
from dglift.instances import build_corpus
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery
from dglift.linalg import Echelon, SparseMatrix
from dglift.memo import memo, peek
from dglift.modules import ChainMap, SemifreeModule, cone
from dglift.obstruction import (DegreewiseMap, EnvelopingRouteTower, ObstructionTower,
                                chain_map_operator, chi_power, gamma_dim, induced_matrix,
                                omega_action_matrix)
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

from conftest import assert_column_index_consistent, entry_matrix

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
        diag = inst.diag
        for car, new in _carrier_pairs(inst):
            for d in range(car.min_degree(), cap + 1):
                m = car.diff(d)
                # J's differential is kept only by the memo of its shift SJ
                if car is not diag.J:
                    assert car.diff(d) is m
                assert matrix_data(m) == matrix_data(new.diff(d)), (inst.name, type(car), d)
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_kept_echelons_index_no_tag_column(backend):
    """A tag column never leads a row, so no query reads an index of it:
    after T^2 and T^3 are built in every degree on each corpus algebra, and
    the kernel sequence has built its Hom spaces' class echelons on each
    module expected to satisfy AR1, every class echelon indexes the
    non-pivot columns below its ncols only, and every E_q of a tensor
    carrier, which no query inserts into after it is built, indexes no
    column at all."""
    spanning = tagged = 0
    for inst in build_corpus(CONFIGS[backend]).values():
        diag = Diagonal(inst.algebra)
        for n in (2, 3):
            car = diag.T(n)
            for d in range(car.min_degree(), inst.algebra.config.max_degree + 1):
                car.dim(d)
        for mname in inst.ar1_expected:
            kernel_sequence_check(inst.modules[mname], diag)
        spans = [ech for car in peek(diag, "T").values() if isinstance(car, TensorCarrier)
                 for _, ech, _ in (peek(car, "_spanning") or {}).values()]
        assert all(ech._by_col is None for ech in spans)
        spanning += len(spans)
        echelons = []
        for hs in (peek(diag, "_hom") or {}).values():
            built = peek(hs, "_build")
            if built is not None:
                echelons.append(built[0])
                tagged += bool(built[1])
        for ech in echelons:
            assert_column_index_consistent(ech)
    assert spanning >= 30 and tagged >= 10, (spanning, tagged)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_spanning_echelon_releases_its_index_after_its_last_row(backend):
    """_spanning inserts every row of E_q before it returns, and the
    quotient only reduces by E_q and reads its free columns afterwards, so
    the E_q it keeps holds no column index: a later insert or kernel basis
    raises."""
    checked = 0
    for inst in build_corpus(CONFIGS[backend]).values():
        f = inst.algebra.field
        diag = Diagonal(inst.algebra)
        for n in (2, 3):
            T = diag.T(n)
            for d in range(T.min_degree(), inst.algebra.config.max_degree + 1):
                T.dim(d)
            for q, (_, ech, _) in (peek(T, "_spanning") or {}).items():
                assert ech._by_col is None, (inst.name, n, q)
                with pytest.raises(RuntimeError, match="add_row after release_index"):
                    ech.add_row({0: f.one})
                with pytest.raises(RuntimeError, match="kernel_basis after release_index"):
                    ech.kernel_basis()
                checked += 1
    assert checked >= 30, checked


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
    N' -> G out of the minimal model N', whose chain matrix delta_1 is built
    once.  cone_id's N' is the zero module: no Hom space out of it, or into
    G, is built, so the Hom memo stays empty."""
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
        # the splitting search and the factorization ideal read Hom(N', G)
        # on the minimal model N', which is M itself for B2 and two_step;
        # for cone_id it is the zero module, whose section is read off the
        # retraction and whose factorization ideal is 0, without Hom(N', G)
        Mp = diag.minimal(M).module
        own = mname != "cone_id"
        assert (Mp is M) == own
        homs = peek(diag, "_hom") or {}
        assert [k for k in homs if k[1] is G.carrier()] == \
            ([(M, G.carrier(), 0)] if own else [])
        assert chain_targets.count((M, G.carrier())) == own
        if not own:
            # nor out of N' = 0 (gamma_dim and omega_action_matrix), so none
            assert not homs
        built.clear()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_lone_kernel_sequence_check_on_a_contractible_module_builds_no_base_change(backend):
    """cone_id's minimal model is the zero module, so its factorization
    ideal is 0 and a kernel-sequence check on a fresh Diagonal never builds
    G; the same rank read through G on another Diagonal is 0 too."""
    inst = build_corpus(CONFIGS[backend])["exterior"]
    N = inst.modules["cone_id"]
    diag = Diagonal(inst.algebra)
    zero = {"dim_source": 0, "dim_target": 0, "rank": 0, "bijective": True}
    assert kernel_sequence_check(N, diag) == {
        "p_via_factorization": 0, "p_via_kernel": 0, "p_agree": True,
        "rank_identity": True, "gamma0": 0, "end_dim": 0,
        "cokernel_slot_matches_end": True, "degree0_surjective": True,
        "middle_bijective": {n: zero for n in (1, 2, 3)}, "ok": True}
    assert peek(diag, "base_change") is None
    other = Diagonal(inst.algebra)
    G, pi = other.base_change(N)
    M = other.minimal(N).module
    assert M.n_gens == 0
    assert induced_matrix(other.hom(M, G), other.hom(M, N), chain_map_operator(pi)).rank() == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_hom_space_or_carrier_is_built_out_of_the_zero_module(backend):
    """gamma_dim and omega_action_matrix on the zero module answer 0 and the
    0 x 0 matrix with no N' (x) T^n carrier and no Hom space: after a cone
    battery and a kernel-sequence check, whose minimal model is zero, no
    memo key has a source with no generators.  Diagonal.T still refuses a
    tensor degree past the cap there."""
    inst = build_corpus(CONFIGS[backend])["exterior"]
    for mname in ("two_step", "cone_id"):
        N = cone(ChainMap.identity(inst.modules[mname]))
        diag = Diagonal(inst.algebra)
        naive_lift_battery(N, diag)
        kernel_sequence_check(N, diag)
        zero = diag.minimal(N).module
        assert zero.n_gens == 0
        for _ in range(2):  # after the battery, and after asking N' = 0 directly
            assert not [k for k in peek(diag, "_hom") or {} if not k[0].n_gens]
            assert not [k for k in peek(diag, "NT") or {} if not k[0].n_gens]
            assert gamma_dim(zero, diag, 2) == 0
            mat, s, t = omega_action_matrix(zero, diag, 1, 0)
            assert (mat.nrows, mat.ncols, mat.entries, s, t) == (0, 0, {}, 0, 0)
        top = inst.algebra.config.max_tensor
        with pytest.raises(CapExceeded, match="tensor degree"):
            gamma_dim(zero, diag, top + 1)
        with pytest.raises(CapExceeded, match="tensor degree"):
            omega_action_matrix(zero, diag, top, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cone_battery_builds_no_matrix_of_the_base_change_carrier(backend):
    """The chain defects and witness rechecks of a battery on a cone of an
    identity apply G's differential and right actions to vectors block by
    block (SemifreeCarrier.apply), so no matrix of G's carrier is kept."""
    corpus = build_corpus(CONFIGS[backend])
    for inst in corpus.values():
        for M in inst.modules.values():
            N = cone(ChainMap.identity(M))
            diag = Diagonal(N.algebra)
            naive_lift_battery(N, diag)
            G, _ = diag.base_change(N)
            assert peek(G.carrier(), "diff") is None
            assert peek(G.carrier(), "action") is None


BATTERY_MODULES = ("two_step", "cone_id", "B2")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mname", BATTERY_MODULES)
def test_battery_reads_the_AR_tables_off_the_hom_memo(backend, mname):
    """check_AR1 and check_AR2 read each dimension through hom_k_dim, so
    the battery leaves none of their Hom spaces N' -> Sigma^n B and
    N' -> Sigma^n N' in the memo, on the minimal model N' of N (N itself
    for two_step and B2, the zero module for cone_id) and over the ranges
    of N's degrees; the tables it reports are those dimensions."""
    inst = build_corpus(CONFIGS[backend])["exterior"]
    M = inst.modules[mname]
    diag = Diagonal(inst.algebra)
    report = naive_lift_battery(M, diag)
    Mp = diag.minimal(M).module
    assert (Mp is M) == (mname != "cone_id")
    B = inst.algebra.carrier()
    span = M.max_degree - M.min_degree
    ar1 = [(Mp, B, n) for n in range(1, max(0, M.max_degree) + 1)]
    ar2 = [(Mp, Mp.carrier(), n) for n in range(1, span + 1)]
    assert not set(ar1 + ar2) & (peek(diag, "_hom") or {}).keys()
    assert report.ar1.detail["iii_dims"] == {k[2]: hom_k_dim(*k) for k in ar1}
    assert report.ar2.detail["dims"] == {k[2]: hom_k_dim(*k) for k in ar2}


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
    rows = [(inst, "diag", (), lambda: inst.diag)]

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
    method(M.carrier(), "min_degree")
    method(M.carrier(), "diff", 3)
    method(diag.J, "basis_vectors", 2)
    method(diag.J, "_positions", 2)
    method(diag.J, "min_degree")
    method(diag.SJ, "min_degree")
    method(diag.SJ, "diff", 3)
    method(T2, "min_degree")
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
    method(diag, "minimal", inst.modules["cone_id"])
    method(diag, "_delta_mono", u)
    method(M, "carrier")
    method(hs, "chain_matrix")
    method(hs, "boundary_matrix")
    method(hs, "_build")
    method(hs.boundary_matrix(), "sweep")
    method(tower.component(0), "mat", 3)
    method(route, "_carriers")
    method(route, "core_matrix", 2)
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
    if isinstance(v, MinimalModel):
        return "minimal model", canon(v.module), canon(v.f), canon(v.g), canon(v.h)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_tensor_quotient_keeps_only_its_layout(backend):
    """dim and labels of a TensorCarrier leave one QuotientShape per degree,
    holding the two counts and one layout entry per block p of the free
    space, and nothing per quotient basis vector: labels(d) is read off the
    layout on each call and keeps no memo of its own."""
    checked = 0
    for inst in build_corpus(CONFIGS[backend]).values():
        for n in (2, 3):
            T = inst.diag.T(n)
            degrees = range(T.min_degree(), inst.algebra.config.max_degree + 1)
            for d in degrees:
                assert len(T.labels(d)) == T.dim(d)
            shapes = peek(T, "_echelon_at") or {}
            assert sorted(shapes) == list(degrees), (inst.name, n)
            for d, shape in shapes.items():
                assert type(shape) is QuotientShape
                assert shape._fields == ("ncols", "rank", "layout")
                assert list(shape.layout) == list(
                    range(T.X.min_degree(), d - T.Y.min_degree() + 1)), (inst.name, n, d)
                checked += bool(shape.rank)
            assert {k for k in vars(T) if k.startswith("_memo_")} <= {
                "_memo_min_degree", "_memo__spanning", "_memo__echelon_at", "_memo_action"}
    assert checked > 20


def test_a_matrix_that_asks_no_memo_carries_none():
    """A matrix keeps nothing until it is swept, and then only its sweep:
    the echelon is read off the sweep on each call."""
    m = entry_matrix(RATIONALS, 2, 2, {(0, 1): 1})
    assert set(vars(m)) == {"field", "nrows", "ncols", "_columns"}
    assert peek(m, "sweep") is None
    assert m.rank() == 1
    assert peek(m, "sweep") is m.sweep()
    assert m.echelon().rows == m.echelon().rows == [{1: 1}] and m.rank() == 1
    assert set(vars(m)) == {"field", "nrows", "ncols", "_columns", "_memo_sweep"}


def count_sweeps(monkeypatch) -> list:
    """Patch the sweep to log each matrix it eliminates, memoized as the
    engine's is; returns the log."""
    swept = []
    build = SparseMatrix.sweep.__wrapped__

    def sweep(self):
        swept.append(self)
        return build(self)

    monkeypatch.setattr(SparseMatrix, "sweep", memo(sweep))
    return swept


def times(swept, m) -> int:
    return sum(x is m for x in swept)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_a_matrix_is_swept_once_for_every_question(backend, reverse, monkeypatch):
    """rank, a solve that says yes, one that says no (and so builds its
    certificate), the echelon and the kernel basis all read one sweep, in
    either order."""
    swept = count_sweeps(monkeypatch)
    f = CONFIGS[backend].field
    m = entry_matrix(f, 3, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1})
    asks = [lambda: m.rank() == 2,
            lambda: m.solve({0: 1, 1: 2, 2: 3}) == {0: 1, 2: 3},
            lambda: m.solve({0: 1}) is None,
            lambda: m.echelon().rank == 2,
            lambda: len(m.kernel_basis()) == 1]
    for ask in reversed(asks) if reverse else asks:
        assert ask()
    assert swept == [m]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_hom_space_sweeps_each_delta_once(backend, monkeypatch):
    """A space asked null_homotopy and then dim_K sweeps delta_s once: the
    rank reads the solve's sweep.  One asked dim_K and then its cycles
    sweeps delta_{s+1} once: the kernel basis reads the rank's sweep."""
    swept = count_sweeps(monkeypatch)
    inst = build_corpus(CONFIGS[backend])["exterior"]
    answers = set()
    for N in inst.modules.values():
        diag = Diagonal(inst.algebra)
        hs = diag.hom(N, diag.NT(N, 1))
        answers.add(hs.null_homotopy(chi_power(N, diag, 1)) is None)
        assert hs.dim_K >= 0 and len(hs.cycles()) == hs.cycle_dim
        delta_s, delta_s1 = hs.boundary_matrix(), hs.chain_matrix()
        assert times(swept, delta_s) == 1 and times(swept, delta_s1) == 1
    assert answers == {True, False}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_battery_leaves_nothing_alive_after_a_collection(backend):
    """The memos live on their owners, so once a battery's algebra, module
    and Diagonal are dropped a collection frees them all."""
    def run():
        inst = build_corpus(CONFIGS[backend], ["exterior"])["exterior"]
        M = inst.modules["cone_id"]
        naive_lift_battery(M, inst.diag)
        assert peek(inst.diag, "base_change") and peek(inst.algebra, "carrier")
        return [weakref.ref(inst.algebra), weakref.ref(M), weakref.ref(inst.diag)]

    refs = run()
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


class Nothing:
    """An owner whose builds return None and count their calls."""

    def __init__(self):
        self.calls = 0

    @memo
    def none0(self):
        self.calls += 1

    @memo
    def none1(self, a):
        self.calls += 1

    @memo
    def none2(self, a, b):
        self.calls += 1


@pytest.mark.parametrize("name, args", [("none0", ()), ("none1", (1,)), ("none2", (1, 2))])
def test_a_build_that_returns_none_is_refused(name, args):
    """None marks a key not built yet, so a build that returns it is refused
    by name on every call instead of being rebuilt silently, and nothing is
    stored."""
    owner = Nothing()
    for calls in (1, 2):
        with pytest.raises(TypeError, match=f"^memoized Nothing.{name} returned None$"):
            getattr(owner, name)(*args)
        assert owner.calls == calls
    assert not peek(owner, name)
