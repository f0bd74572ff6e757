"""SemifreeCarrier.apply against the matrix that SemifreeCarrier.assemble
builds from the same block rule.

On every corpus module's carrier, on N (x) T^n for n = 1, 2 and on the base
change G, in every degree within the cap and on Q and Fp, the differential
and every right action applied to a vector must equal mat_vec of the
assembled matrix: on the empty vector, on every basis vector (each touches
one generator block) and on vectors that hypothesis draws.  A block whose
shape does not fit its slot raises DimensionMismatch in both consumers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglift.carriers import AlgebraCarrier, SemifreeCarrier
from dglift.config import EngineConfig
from dglift.errors import DimensionMismatch
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

FIELDS = {"Q": RATIONALS, "Fp": PrimeField(DEFAULT_PRIME)}


def operators(backend: str) -> tuple:
    """(where, carrier, op, d) for the differential and every right action
    out of every nonzero degree d within the cap, on every carrier of the
    oracle."""
    out = []
    for name, inst in build_corpus(EngineConfig(field=FIELDS[backend])).items():
        diag, alg = inst.diag, inst.algebra
        cap = alg.config.max_degree
        for mname, N in inst.modules.items():
            cars = [(f"{mname} (x) T^{n}", diag.NT(N, n)) for n in range(3)]
            cars.append((f"G of {mname}", diag.base_change(N)[0].carrier()))
            for where, car in cars:
                for d in range(car.min_degree(), cap + 1):
                    if not car.dim(d):
                        continue
                    out.append(((name, where), car, "d", d))
                    out.extend(((name, where), car, ("r", u), d)
                               for e in range(cap - d + 1) for u in alg.monomials(e))
    return tuple(out)


@pytest.fixture(scope="module")
def ops():
    """operators on each field, built once for the module: the carriers'
    matrices are memoized, so repeated reads are cheap, and apply reads
    none of them."""
    return {backend: operators(backend) for backend in FIELDS}


def assembled(car, op, d):
    return car.diff(d) if op == "d" else car.action(*op, d)


@pytest.mark.parametrize("backend", list(FIELDS))
def test_apply_reproduces_every_column_of_the_assembled_matrix(ops, backend):
    ops = ops[backend]
    seen = {type(car.Y).__name__ for _, car, _, _ in ops}
    assert seen == {"AlgebraCarrier", "ShiftedCarrier", "TensorCarrier"}
    assert len(ops) > 1000
    for where, car, op, d in ops:
        mat = assembled(car, op, d)
        assert car.apply(op, d, {}) == {}, (where, op, d)
        one = car.field.one
        for j in range(car.dim(d)):
            assert car.apply(op, d, {j: one}) == mat.columns().get(j, {}), (where, op, d, j)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_equals_mat_vec_on_drawn_vectors(ops, data):
    backend = data.draw(st.sampled_from(list(FIELDS)))
    where, car, op, d = data.draw(st.sampled_from(ops[backend]))
    f, n = car.field, car.dim(d)
    coeffs = st.integers(-3, 3).filter(bool).map(f.from_int)
    # a vector on one generator's block, or on the whole degree
    offs = car.offsets(d)
    lam = data.draw(st.sampled_from([k for k in range(len(offs) - 1) if offs[k + 1] > offs[k]]))
    lo, hi = data.draw(st.sampled_from([(offs[lam], offs[lam + 1]), (0, n)]))
    vec = data.draw(st.dictionaries(st.integers(lo, hi - 1), coeffs))
    assert car.apply(op, d, vec) == assembled(car, op, d).mat_vec(vec), (where, op, d)


class Misshapen(AlgebraCarrier):
    """B with one row too many in its differential and right actions."""

    def diff(self, d):
        return self._grow(super().diff(d))

    def right_act(self, mono, d):
        return self._grow(super().right_act(mono, d))

    def _grow(self, m):
        return SparseMatrix(self.field, m.nrows + 1, m.ncols, m.columns())


@pytest.mark.parametrize("backend", list(FIELDS))
def test_a_block_that_does_not_fit_its_slot_raises_in_both_consumers(backend):
    inst = build_corpus(EngineConfig(field=FIELDS[backend]))["exterior"]
    alg, N = inst.algebra, inst.modules["two_step"]
    car = SemifreeCarrier(N, Misshapen(alg))
    y = alg.monomials(1)[0]
    for op, d in (("d", 1), (("r", y), 0)):
        with pytest.raises(DimensionMismatch, match=r"^block \(0,0\) is 2x1, its slot 1x1$"):
            assembled(car, op, d)
        with pytest.raises(DimensionMismatch, match=r"^block \(0,0\) is 2x1, its slot 1x1$"):
            car.apply(op, d, {0: car.field.one})


def test_a_semifree_carrier_has_no_left_action_to_apply():
    inst = build_corpus(EngineConfig(field=RATIONALS))["exterior"]
    alg, N = inst.algebra, inst.modules["two_step"]
    car = N.carrier()
    with pytest.raises(DimensionMismatch, match="has no left action$"):
        car.apply(("l", alg.monomials(1)[0]), 0, {0: car.field.one})
