"""Exact sparse linear algebra against a dense oracle and frozen examples."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglift.linalg import Echelon, SparseMatrix
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS, is_prime

from dense_oracle import dense_echelon, dense_kernel, dense_rank, dense_solve


def mat(field, rows):
    ncols = len(rows[0]) if rows else 0
    ent = {}
    for i, r in enumerate(rows):
        for j, c in enumerate(r):
            if c:
                ent[(i, j)] = field.from_int(c)
    return SparseMatrix(field, len(rows), ncols, ent)


def test_prime_check():
    assert is_prime(DEFAULT_PRIME)
    assert is_prime(2147483647)
    assert not is_prime(2147483649)


def test_rank_empty(field):
    assert SparseMatrix(field, 0, 0, {}).rank() == 0


def test_rank_identity(field):
    assert SparseMatrix.identity(field, 3).rank() == 3


def test_rank_proportional_rows(field):
    assert mat(field, [[1, 2], [2, 4]]).rank() == 1


def test_solve_identity(field):
    m = SparseMatrix.identity(field, 2)
    b = [field.from_int(3), field.from_int(5)]
    assert m.solve(b) == [field.from_int(3), field.from_int(5)]


def test_solve_homogeneous_underdetermined(field):
    m = mat(field, [[1, 1]])
    x = m.solve([field.zero])
    assert x is not None
    assert field.is_zero(field.add(x[0], x[1]))
    # free coordinates are zero
    assert x == [field.zero, field.zero]


def test_solve_inconsistent(field):
    m = mat(field, [[1], [1]])
    assert m.solve([field.zero, field.one]) is None


def _corrupt_mat_vec(monkeypatch, field):
    """Make every product M*x come out one unit off in row 0."""
    honest = SparseMatrix.mat_vec

    def corrupted(self, v):
        out = honest(self, v)
        out[0] = field.add(out.get(0, field.zero), field.one)
        return out

    monkeypatch.setattr(SparseMatrix, "mat_vec", corrupted)


def test_solve_raises_when_substitution_recheck_fails(field, monkeypatch):
    from dglift.errors import DimensionMismatch
    _corrupt_mat_vec(monkeypatch, field)
    with pytest.raises(DimensionMismatch, match="substitution recheck"):
        SparseMatrix.identity(field, 2).solve([field.one, field.one])


def test_solve_inconsistent_is_decided_before_the_recheck(field, monkeypatch):
    # None comes from a pivot in the augmented column, never from the recheck
    _corrupt_mat_vec(monkeypatch, field)
    m = mat(field, [[1], [1]])
    assert m.solve([field.zero, field.one]) is None


def test_kernel_identity(field):
    assert SparseMatrix.identity(field, 3).kernel_basis() == []


def test_kernel_zero_matrix(field):
    ker = SparseMatrix.zero(field, 2, 2).kernel_basis()
    assert len(ker) == 2


def test_kernel_rank_one(field):
    ker = mat(field, [[1, 2], [2, 4]]).kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    # proportional to (2, -1): 1*v0 + 2*v1 = 0
    s = field.add(v.get(0, field.zero), field.mul(field.from_int(2), v.get(1, field.zero)))
    assert field.is_zero(s)


def test_rank_nullity(field):
    m = mat(field, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank() + len(m.kernel_basis()) == 3
    assert m.rank() == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_against_dense_oracle(data):
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(DEFAULT_PRIME)]))
    nrows = data.draw(st.integers(0, 8))
    ncols = data.draw(st.integers(0, 8))
    rows = data.draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    frows = [[field.from_int(c) for c in r] for r in rows]
    m = mat(field, rows) if rows and ncols else SparseMatrix(field, nrows, ncols, {})
    assert m.rank() == dense_rank(field, frows)
    assert m.rank() + len(m.kernel_basis()) == ncols
    # solve a consistent system: rhs = M * ones
    ones = {j: field.one for j in range(ncols)}
    b = m.mat_vec(ones)
    bb = [b.get(i, field.zero) for i in range(nrows)]
    x = m.solve(bb)
    assert x is not None
    # substitution is already verified inside solve; cross-check with oracle
    assert dense_solve(field, frows, bb) is not None
    # kernel vectors annihilate
    for v in m.kernel_basis():
        assert m.mat_vec(v) == {}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_solve_matches_consistency_oracle(data):
    field = RATIONALS
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    b = data.draw(st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows))
    frows = [[field.from_int(c) for c in r] for r in rows]
    fb = [field.from_int(c) for c in b]
    got = mat(field, rows).solve(fb)
    oracle = dense_solve(field, frows, fb)
    assert (got is None) == (oracle is None)


def sparse(field, dense_vec):
    return {j: c for j, c in enumerate(dense_vec) if not field.is_zero(c)}


def assert_column_index_consistent(ech):
    for j in range(ech.ncols):
        if j in ech.pivots:
            assert j not in ech._by_col
        else:
            holders = {p for p, r in zip(ech.pivots, ech.rows) if j in r}
            assert ech._by_col.get(j, set()) == holders


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_insertion_order_matches_dense_rref(data):
    """The stored rows are the oracle's RREF whatever the insertion order.

    Rows are inserted shuffled, by ascending leading column (a new pivot right
    of earlier ones, so back-substitution clears it from their rows through the
    column index) and by descending leading column (a new pivot left of
    earlier ones).
    """
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(DEFAULT_PRIME)]))
    ncols = data.draw(st.integers(1, 8))
    ints = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(ints, min_size=1, max_size=8))
    frows = [[field.from_int(c) for c in r] for r in rows]
    vecs = [sparse(field, r) for r in frows]
    shuffled = data.draw(st.permutations(vecs))
    by_lead = sorted((v for v in vecs if v), key=min)
    want_rows, want_pivots = dense_echelon(field, frows)
    want_kernel = [sparse(field, v) for v in dense_kernel(field, frows, ncols)]
    probe = [field.from_int(c) for c in data.draw(ints)]
    for order in (shuffled, by_lead, by_lead[::-1]):
        ech = Echelon(field, ncols)
        for v in order:
            ech.add_row(v)
        assert ech.pivots == want_pivots
        assert ech.rows == [sparse(field, r) for r in want_rows]
        assert ech.kernel_basis() == want_kernel
        assert_column_index_consistent(ech)
        red = ech.reduce(sparse(field, probe))
        assert not set(red) & set(ech.pivots)
        # probe - red lies in the row space
        diff = [field.sub(c, red.get(j, field.zero)) for j, c in enumerate(probe)]
        assert dense_rank(field, frows + [diff]) == len(want_pivots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_views_show_the_current_rref_after_every_insert(data):
    """pivots and rows are read between inserts, in descending-pivot order as
    the tensor quotients insert, and each read is the RREF of the rows so
    far, sorted by pivot: a view kept from an earlier read would be stale."""
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(DEFAULT_PRIME)]))
    ncols = data.draw(st.integers(1, 8))
    ints = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(ints, min_size=1, max_size=8))
    frows = [[field.from_int(c) for c in r] for r in rows]
    order = sorted(range(len(rows)), key=lambda k: -min(sparse(field, frows[k]), default=0))
    order = data.draw(st.sampled_from([order, list(range(len(rows)))]))
    ech = Echelon(field, ncols)
    seen = []
    for k in order:
        ech.add_row(sparse(field, frows[k]))
        seen.append(frows[k])
        want_rows, want_pivots = dense_echelon(field, seen)
        assert ech.pivots == want_pivots
        assert ech.rows == [sparse(field, r) for r in want_rows]
        assert ech.rank == len(want_pivots)
        assert_column_index_consistent(ech)


def fraction_rows(data, field, ncols, max_rows=9):
    """Random rows as field values: zeros (often), small integers and
    fractions with small denominators (on Fp, their residues)."""
    entry = st.one_of(st.just(field.zero), st.builds(field.from_int, st.integers(-6, 6)),
                      st.builds(field.from_fraction, st.integers(-6, 6), st.integers(1, 5)))
    return data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=1, max_size=max_rows))


def fmat(field, frows, ncols):
    return SparseMatrix(field, len(frows), ncols,
                        {(i, j): c for i, r in enumerate(frows) for j, c in enumerate(r)})


FIELDS = st.sampled_from([RATIONALS, PrimeField(DEFAULT_PRIME)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_matrix_echelon_is_the_dense_rref(data):
    """SparseMatrix._echelon (one forward sweep, rows bucketed by leading
    column and cheapest pivot row first, then inserted by descending pivot)
    stores the oracle's RREF, rows, pivots and kernel alike; the sweep's own
    rows lead at the RREF pivots, one row each."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 8))
    # zeros are likely, so buckets share leading columns and rows move on
    frows = fraction_rows(data, field, ncols)
    want_rows, want_pivots = dense_echelon(field, frows)
    m = fmat(field, frows, ncols)
    forward = m._forward(m.rows())
    assert sorted(forward) == want_pivots
    assert all(min(row) == p for p, row in forward.items())
    ech = m._echelon()
    assert ech.pivots == want_pivots
    assert ech.rows == [sparse(field, r) for r in want_rows]
    assert ech.kernel_basis() == [sparse(field, v) for v in dense_kernel(field, frows, ncols)]
    assert_column_index_consistent(ech)


def solution_off_the_echelon(field, frows, ncols, b):
    """x with M x = b read off the RREF of [M | b], free coordinates zero;
    None when a pivot lies in the augmented column."""
    aug = fmat(field, [r + [c] for r, c in zip(frows, b)], ncols + 1)
    ech = aug.echelon()
    if ncols in ech.pivots:
        return None
    x = [field.zero] * ncols
    for p, row in zip(ech.pivots, ech.rows):
        x[p] = row.get(ncols, field.zero)
    return x


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_is_the_solution_off_the_augmented_echelon(data):
    """solve (sweep and back-substitution) returns, by repr, the solution
    the RREF of the augmented matrix gives, and None on the same inputs;
    consistent right-hand sides come from M times a random vector."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 7))
    frows = fraction_rows(data, field, ncols, max_rows=8)
    m = fmat(field, frows, ncols)
    if data.draw(st.booleans()):
        v = fraction_rows(data, field, ncols, max_rows=1)[0]
        img = m.mat_vec(sparse(field, v))
        b = [img.get(i, field.zero) for i in range(len(frows))]
    else:
        b = fraction_rows(data, field, len(frows), max_rows=1)[0]
    got, want = m.solve(b), solution_off_the_echelon(field, frows, ncols, b)
    assert repr(got) == repr(want)
    assert (got is None) == (dense_solve(field, frows, b) is None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_is_the_echelon_rank_before_and_after_the_echelon(data):
    """rank() counts the sweep's pivots when asked first, and reads the
    built echelon when asked after it; both are the echelon's rank."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 8))
    frows = fraction_rows(data, field, ncols)
    want = dense_rank(field, frows)
    first = fmat(field, frows, ncols)
    assert first.rank() == want
    assert first.echelon().rank == want and first.rank() == want
    second = fmat(field, frows, ncols)
    assert second.echelon().rank == want and second.rank() == want


def test_echelon_back_substitution_clears_new_pivot_column():
    field = RATIONALS
    ech = Echelon(field, 4)
    ech.add_row({0: Fraction(1), 1: Fraction(2), 3: Fraction(1)})
    ech.add_row({0: Fraction(2), 2: Fraction(1)})
    assert ech.pivots == [0, 1]
    assert ech.rows == [{0: Fraction(1), 2: Fraction(1, 2)},
                        {1: Fraction(1), 2: Fraction(-1, 4), 3: Fraction(1, 2)}]
    assert_column_index_consistent(ech)


def test_echelon_reduce_idempotent():
    field = RATIONALS
    ech = Echelon(field, 4)
    ech.add_row({0: Fraction(1), 2: Fraction(2)})
    ech.add_row({1: Fraction(3), 3: Fraction(1)})
    v = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5), 3: Fraction(7)}
    r1 = ech.reduce(v)
    assert ech.reduce(r1) == r1
    assert all(c not in ech.pivots for c in r1)


def test_stored_entries_never_zero(field):
    m = SparseMatrix(field, 2, 2, {(0, 0): field.one, (1, 1): field.zero})
    assert (1, 1) not in m.entries
    assert (0, 0) in m.entries


def test_out_of_bounds_entry_rejected(field):
    from dglift.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        SparseMatrix(field, 2, 2, {(2, 0): field.one})


def test_from_blocks_rejects_a_block_that_overruns_its_slot(field):
    from dglift.errors import DimensionMismatch
    # generator 0's rows are 0..1 and generator 1's are 1..3: a 2x1 block
    # at generator 0 would write row 1, which belongs to generator 1
    blk = SparseMatrix(field, 2, 1, {(1, 0): field.one})
    with pytest.raises(DimensionMismatch, match=r"block \(0,0\) is 2x1, its slot 1x1"):
        SparseMatrix.from_blocks(field, [0, 1, 3], [0, 1], [(0, 0, field.one, blk)])
    fits = SparseMatrix.from_blocks(field, [0, 1, 3], [0, 1], [(1, 0, field.one, blk)])
    assert (fits.nrows, fits.ncols, fits.entries) == (3, 1, {(2, 0): field.one})


def test_solve_wrong_rhs_length_rejected(field):
    from dglift.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        SparseMatrix.identity(field, 2).solve([field.one])
    for i in (2, -1):  # a dict rhs names its rows, and each must exist
        with pytest.raises(DimensionMismatch, match="outside 2 rows"):
            SparseMatrix.identity(field, 2).solve({i: field.one})


def test_rank_forty_by_forty_random_agrees_with_oracle():
    import random
    rng = random.Random(7)
    field = RATIONALS
    rows = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    frows = [[field.from_int(c) for c in r] for r in rows]
    assert mat(field, rows).rank() == dense_rank(field, frows)
