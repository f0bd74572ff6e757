"""Exact sparse linear algebra against a dense oracle and frozen examples."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dglift.config import EngineConfig
from dglift.instances import battery_pairs, build_corpus
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery
from dglift.linalg import Echelon, SparseMatrix
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS, is_prime

from conftest import assert_column_index_consistent, entry_matrix, forge_an_absence
from dense_oracle import (dense_certifies_absence, dense_echelon, dense_kernel, dense_rank,
                          dense_solve)


def mat(field, rows):
    ncols = len(rows[0]) if rows else 0
    ent = {}
    for i, r in enumerate(rows):
        for j, c in enumerate(r):
            if c:
                ent[(i, j)] = field.from_int(c)
    return entry_matrix(field, len(rows), ncols, ent)


def identity(field, n):
    return SparseMatrix(field, n, n, {i: {i: field.one} for i in range(n)})


def test_prime_check():
    assert is_prime(DEFAULT_PRIME)
    assert is_prime(2147483647)
    assert not is_prime(2147483649)


def test_rank_empty(field):
    assert SparseMatrix(field, 0, 0, {}).rank() == 0


def test_rank_identity(field):
    assert identity(field, 3).rank() == 3


def test_rank_proportional_rows(field):
    assert mat(field, [[1, 2], [2, 4]]).rank() == 1


def test_solve_identity(field):
    m = identity(field, 2)
    b = {0: field.from_int(3), 1: field.from_int(5)}
    assert m.solve(b) == b


def test_solve_homogeneous_underdetermined(field):
    m = mat(field, [[1, 1]])
    # the zero entry of the rhs is dropped, and free coordinates are zero
    assert m.solve({0: field.zero}) == {}


def test_solve_inconsistent(field):
    m = mat(field, [[1], [1]])
    assert m.solve({1: field.one}) is None


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
    with pytest.raises(DimensionMismatch, match="^2x2 system: solution failed the substitution recheck$"):
        identity(field, 2).solve({0: field.one, 1: field.one})


def test_solve_inconsistent_is_decided_before_the_recheck(field, monkeypatch):
    # None comes from b carried onto a zero row, never from the recheck
    _corrupt_mat_vec(monkeypatch, field)
    m = mat(field, [[1], [1]])
    assert m.solve({1: field.one}) is None


def test_solve_inconsistent_comes_with_its_certificate(field):
    m = mat(field, [[1], [1]])
    y = m.absence_certificate({1: field.one})
    assert y == {0: field.neg(field.one), 1: field.one}


def test_absence_certificate_of_a_consistent_system_raises(field):
    from dglift.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch, match="^2x1 system: consistent, so no absence certificate$"):
        mat(field, [[1], [1]]).absence_certificate({0: field.one, 1: field.one})


def test_a_forged_absence_fails_the_certificate_recheck(field, monkeypatch):
    """A sweep that claims every row ends zero forges a "no" for a
    consistent system; solve rechecks its certificate and raises."""
    from dglift.errors import DimensionMismatch
    forge_an_absence(monkeypatch, field)
    with pytest.raises(DimensionMismatch,
                       match="^2x2 system: absence certificate failed its recheck$"):
        identity(field, 2).solve({0: field.one, 1: field.one})


def test_kernel_identity(field):
    assert identity(field, 3).kernel_basis() == []


def test_kernel_zero_matrix(field):
    ker = SparseMatrix(field, 2, 2).kernel_basis()
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
    x = m.solve(b)
    assert x is not None and all(not field.is_zero(c) for c in x.values())
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
    got = mat(field, rows).solve(sparse(field, fb))
    oracle = dense_solve(field, frows, fb)
    assert (got is None) == (oracle is None)


def sparse(field, dense_vec):
    return {j: c for j, c in enumerate(dense_vec) if not field.is_zero(c)}


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
    return entry_matrix(field, len(frows), ncols,
                        {(i, j): c for i, r in enumerate(frows) for j, c in enumerate(r)})


FIELDS = st.sampled_from([RATIONALS, PrimeField(DEFAULT_PRIME)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tagged_rows_record_their_combination_and_are_not_indexed(data):
    """Rows inserted as the Hom spaces and tensor carriers insert them: a
    vector that leaves something below ncols goes in with a 1 in tag column
    ncols + k.  The rows below ncols are the RREF of those vectors, every
    row's tags give the combination of them that it is, and the column
    index never holds a tag column."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 6))
    frows = fraction_rows(data, field, ncols)
    ech, kept = Echelon(field, ncols), []
    for r in frows:
        red = ech.reduce(sparse(field, r))
        if red and min(red) < ncols:
            red[ncols + len(kept)] = field.one
            ech.add_row(red)
            kept.append(r)
        assert_column_index_consistent(ech)
    want_rows, want_pivots = dense_echelon(field, frows)
    assert ech.pivots == want_pivots and len(kept) == len(want_pivots)
    assert [{j: c for j, c in row.items() if j < ncols} for row in ech.rows] == \
        [sparse(field, r) for r in want_rows]
    for row in ech.rows:
        combo = [field.zero] * ncols
        for t, c in row.items():
            if t >= ncols:
                combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, kept[t - ncols])]
        assert sparse(field, combo) == {j: c for j, c in row.items() if j < ncols}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_matrix_echelon_is_the_dense_rref(data):
    """SparseMatrix.echelon (the kept sweep's rows, bucketed by leading
    column and earliest pivot row first, inserted by descending pivot)
    stores the oracle's RREF, rows, pivots and kernel alike; the sweep's own
    rows lead at the RREF pivots, one row each, and its recorded ops,
    replayed on M's rows, rebuild its kept rows and its zero rows, before
    and after the echelon reads them."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 8))
    # zeros are likely, so buckets share leading columns and rows move on
    frows = fraction_rows(data, field, ncols)
    want_rows, want_pivots = dense_echelon(field, frows)
    m = fmat(field, frows, ncols)
    sw = m.sweep()
    assert sorted(sw.rows) == want_pivots
    assert all(min(row) == p for p, row in sw.rows.items())
    rows = m.rows()
    for k, c, p in sw.ops:
        field.axpy(rows[k], c, rows[p])
    kept = {p: rows[k] for p, k in sw.source.items()}
    assert kept == sw.rows
    assert list(sw.zero) == [int(not r) for r in rows]
    assert sorted(sw.source.values()) == [k for k, z in enumerate(sw.zero) if not z]
    ech = m.echelon()
    assert m.sweep() is sw and sw.rows == kept
    assert ech.pivots == want_pivots
    assert ech.rows == [sparse(field, r) for r in want_rows]
    assert ech.kernel_basis() == [sparse(field, v) for v in dense_kernel(field, frows, ncols)]
    assert_column_index_consistent(ech)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_column_space_echelon_is_the_rref_of_the_image(data):
    """column_space_echelon, the columns at the sweep's pivots inserted, is
    the RREF of the image on nrows columns: the transpose's RREF and the
    oracle's, with zero columns, repeated (rescaled) columns and none."""
    field = data.draw(FIELDS)
    nrows = data.draw(st.integers(0, 6))
    fcols = []
    for kind in data.draw(st.lists(st.sampled_from(["new", "zero", "repeat"]), max_size=7)):
        if kind == "zero":
            fcols.append([field.zero] * nrows)
        elif kind == "repeat" and fcols:
            c = field.from_int(data.draw(st.integers(1, 3)))
            fcols.append([field.mul(c, x) for x in data.draw(st.sampled_from(fcols))])
        else:
            fcols += fraction_rows(data, field, nrows, max_rows=1)
    m = SparseMatrix.from_cols(field, nrows, [dict(enumerate(c)) for c in fcols])
    ech = m.column_space_echelon()
    want_rows, want_pivots = dense_echelon(field, fcols)
    assert (ech.ncols, ech.pivots) == (nrows, want_pivots)
    assert ech.rows == [sparse(field, r) for r in want_rows] == m.transpose().echelon().rows
    assert_column_index_consistent(ech)


SMALL_INT_ROWS = st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols), min_size=1, max_size=7))


@settings(max_examples=100, deadline=None)
@given(SMALL_INT_ROWS)
@example([[2, 1], [1, 0]])
def test_Q_and_Fp_sweep_alike(rows):
    """The sweep picks each pivot by row index alone, so Q and Fp record
    the same elimination: the same pivot rows and sources, the same op
    positions and the same zero rows.  Entries in -2..2 keep every minor
    far below the prime, so an entry vanishes on Fp exactly when it
    vanishes on Q.  In the example, a rule that preferred the pivot of
    least bit size would take row 1 (entry 1) on Q but row 0 on Fp."""
    q, fp = (mat(field, rows).sweep() for field in (RATIONALS, PrimeField(DEFAULT_PRIME)))
    assert q.source == fp.source and q.zero == fp.zero
    assert sorted(q.rows) == sorted(fp.rows)
    assert [(k, p) for k, _, p in q.ops] == [(k, p) for k, _, p in fp.ops]


def solution_off_the_echelon(field, frows, ncols, b):
    """x with M x = b read off the RREF of [M | b], free coordinates zero;
    None when a pivot lies in the augmented column."""
    aug = fmat(field, [r + [c] for r, c in zip(frows, b)], ncols + 1)
    ech = aug.echelon()
    if ncols in ech.pivots:
        return None
    return {p: row[ncols] for p, row in zip(ech.pivots, ech.rows) if ncols in row}


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
    got, want = m.solve(sparse(field, b)), solution_off_the_echelon(field, frows, ncols, b)
    assert repr(got and sorted(got.items())) == repr(want and sorted(want.items()))
    assert (got is None) == (dense_solve(field, frows, b) is None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_none_from_solve_comes_with_a_certificate(data):
    """solve computes an absence certificate exactly when it returns None,
    and the dense oracle confirms it: y^T A = 0 and y.b != 0."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 7))
    frows = fraction_rows(data, field, ncols, max_rows=8)
    b = fraction_rows(data, field, len(frows), max_rows=1)[0]
    m = fmat(field, frows, ncols)
    seen = []
    honest = SparseMatrix.absence_certificate

    def spy(self, rhs):
        seen.append(honest(self, rhs))
        return seen[-1]

    with mock.patch.object(SparseMatrix, "absence_certificate", spy):
        got = m.solve(sparse(field, b))
    assert (got is None) == bool(seen) == (dense_solve(field, frows, b) is None)
    if seen:
        y, = seen
        assert y and all(not field.is_zero(c) for c in y.values())
        dense_y = [y.get(i, field.zero) for i in range(len(frows))]
        assert dense_certifies_absence(field, frows, b, dense_y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_is_the_echelon_rank_before_and_after_the_echelon(data):
    """rank() counts the kept sweep's pivots, before and after the echelon
    is built, and equals the echelon's rank."""
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


def test_a_row_that_reduces_to_tags_alone_is_refused(field):
    """add_row keeps a row only when its reduction leaves an entry below
    ncols, so a tag never leads a row: a tag alone, or a vector that the
    rows reduce to tags, is refused and stores nothing."""
    one = field.one
    ech = Echelon(field, 2)
    assert ech.add_row({2: one}) is False
    assert (ech.rank, ech.rows) == (0, [])
    assert ech.add_row({0: one, 2: one}) is True
    assert ech.add_row({0: field.from_int(3), 3: one}) is False  # tags 2 and 3 left
    assert ech.add_row({}) is False
    assert (ech.rank, ech.rows) == (1, [{0: one, 2: one}])
    assert_column_index_consistent(ech)


def test_a_released_echelon_reduces_and_refuses_inserts(field):
    """release_index frees the column index: the rows, rank, free columns
    and reductions stay, and add_row and kernel_basis raise."""
    one = field.one
    ech = Echelon(field, 4)
    ech.add_row({0: one, 2: field.from_int(2), 5: one})  # column 5 a tag
    ech.add_row({1: one, 2: one})
    v = {0: one, 1: field.from_int(3), 3: one}
    rows, reduced = ech.rows, ech.reduce(v)
    ech.release_index()
    assert ech._by_col is None
    assert (ech.rows, ech.rank, ech.free_columns()) == (rows, 2, [2, 3])
    assert ech.reduce(v) == reduced
    with pytest.raises(RuntimeError, match="add_row after release_index"):
        ech.add_row({3: one})
    with pytest.raises(RuntimeError, match="kernel_basis after release_index"):
        ech.kernel_basis()
    assert ech.rows == rows


def test_stored_entries_never_zero(field):
    m = entry_matrix(field, 2, 2, {(0, 0): field.one, (1, 1): field.zero})
    assert (1, 1) not in m.entries
    assert (0, 0) in m.entries
    # a column left empty by its zero values, and an empty one, are not kept
    m = SparseMatrix(field, 2, 3, {0: {0: field.one}, 1: {1: field.zero}, 2: {}})
    assert m.columns() == {0: {0: field.one}}
    assert repr(m) == "SparseMatrix(2x3, nnz=1)"


def test_out_of_bounds_entry_rejected(field):
    from dglift.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        entry_matrix(field, 2, 2, {(2, 0): field.one})
    for cols in ({2: {0: field.one}}, {0: {-1: field.zero}}, {-1: {0: field.one}}):
        with pytest.raises(DimensionMismatch, match="outside 2x2"):
            SparseMatrix(field, 2, 2, cols)
    with pytest.raises(DimensionMismatch, match=r"^column 2 has an entry outside 1x2$"):
        SparseMatrix.from_rows(field, 2, [{2: field.one}])
    with pytest.raises(DimensionMismatch, match=r"^column 0 has an entry outside 2x1$"):
        SparseMatrix.from_cols(field, 2, [{2: field.one}])


def test_from_blocks_rejects_a_block_that_overruns_its_slot(field):
    from dglift.errors import DimensionMismatch
    # generator 0's rows are 0..1 and generator 1's are 1..3: a 2x1 block
    # at generator 0 would write row 1, which belongs to generator 1
    blk = entry_matrix(field, 2, 1, {(1, 0): field.one})
    with pytest.raises(DimensionMismatch, match=r"block \(0,0\) is 2x1, its slot 1x1"):
        SparseMatrix.from_blocks(field, [0, 1, 3], [0, 1], [(0, 0, field.one, blk)])
    fits = SparseMatrix.from_blocks(field, [0, 1, 3], [0, 1], [(1, 0, field.one, blk)])
    assert (fits.nrows, fits.ncols, fits.entries) == (3, 1, {(2, 0): field.one})


def test_a_shape_mismatch_names_both_shapes(field):
    from dglift.errors import DimensionMismatch
    a, b = SparseMatrix(field, 2, 3), SparseMatrix(field, 2, 2)
    with pytest.raises(DimensionMismatch, match=r"^matmul of a 2x3 matrix by a 2x2 one$"):
        a @ b
    with pytest.raises(DimensionMismatch, match=r"^add of a 2x2 matrix and a 2x3 one$"):
        b.add(a)


def test_solve_wrong_rhs_length_rejected(field):
    from dglift.errors import DimensionMismatch
    for i in (2, -1):  # the rhs names its rows, and each must exist
        with pytest.raises(DimensionMismatch, match="outside 2 rows"):
            identity(field, 2).solve({i: field.one})


def test_rank_forty_by_forty_random_agrees_with_oracle():
    import random
    rng = random.Random(7)
    field = RATIONALS
    rows = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    frows = [[field.from_int(c) for c in r] for r in rows]
    assert mat(field, rows).rank() == dense_rank(field, frows)


def dense_entries(field, frows):
    return {(i, j): c for i, r in enumerate(frows) for j, c in enumerate(r)
            if not field.is_zero(c)}


def dense_matmul(field, a, b, ncols):
    out = [[field.zero] * ncols for _ in a]
    for i, r in enumerate(a):
        for k, x in enumerate(r):
            for j in range(ncols):
                out[i][j] = field.add(out[i][j], field.mul(x, b[k][j]))
    return out


def dense_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_builders_and_views_match_dense_lists(data):
    """Every builder and view of SparseMatrix against plain dense lists of
    field values: the same matrix from its rows, its columns and its blocks
    (two of them in one slot cancelling), and its rows, columns, transpose,
    products, sums, scalings and entries read back."""
    field = data.draw(FIELDS)
    ncols = data.draw(st.integers(1, 6))
    frows = fraction_rows(data, field, ncols, max_rows=6)
    nrows = len(frows)
    fcols = [[r[j] for r in frows] for j in range(ncols)]
    want = dense_entries(field, frows)
    # zero values go in and are dropped
    m = SparseMatrix.from_rows(field, ncols, [dict(enumerate(r)) for r in frows])
    by_cols = SparseMatrix.from_cols(field, nrows, [dict(enumerate(c)) for c in fcols])
    for x in (m, by_cols):
        assert (x.nrows, x.ncols, x.entries) == (nrows, ncols, want)
        assert x.rows() == [sparse(field, r) for r in frows]
        assert x.cols() == [sparse(field, c) for c in fcols]
        assert [x.col(j) for j in range(ncols)] == x.cols()
        assert x.is_zero() == (not want)
    t = m.transpose()
    assert (t.nrows, t.ncols, t.entries) == (ncols, nrows, dense_entries(field, fcols))
    v = fraction_rows(data, field, ncols, max_rows=1)[0]
    assert m.mat_vec(sparse(field, v)) == sparse(
        field, [r[0] for r in dense_matmul(field, frows, [[c] for c in v], 1)])
    k = data.draw(st.integers(1, 4))
    other = fraction_rows(data, field, k, max_rows=ncols)
    other += [[field.zero] * k] * (ncols - len(other))
    prod = m @ SparseMatrix.from_rows(field, k, [sparse(field, r) for r in other])
    assert (prod.nrows, prod.ncols, prod.entries) == \
        (nrows, k, dense_entries(field, dense_matmul(field, frows, other, k)))
    second = fraction_rows(data, field, ncols, max_rows=nrows)
    second += [[field.zero] * ncols] * (nrows - len(second))
    total = m.add(SparseMatrix.from_rows(field, ncols, [sparse(field, r) for r in second]))
    assert total.entries == dense_entries(field, dense_add(field, frows, second))
    assert m.add(m.scale(field.neg(field.one))).is_zero()
    assert m.add(m.scale(field.neg(field.one))).entries == {}
    assert m.scale(field.zero).is_zero() and m.scale(field.zero).entries == {}
    c = field.from_int(data.draw(st.integers(1, 5)))
    assert m.scale(c).entries == {key: field.mul(c, x) for key, x in want.items()}
    # blocks: m at (0, 0), m and -m in slot (1, 1), which cancel, and m
    # scaled into slot (1, 0) twice, which add up
    blocks = [(0, 0, field.one, m), (1, 1, field.one, m), (1, 1, field.neg(field.one), m),
              (1, 0, c, m), (1, 0, field.one, m)]
    got = SparseMatrix.from_blocks(field, [0, nrows, 2 * nrows], [0, ncols, 2 * ncols], blocks)
    dense = [[field.zero] * (2 * ncols) for _ in range(2 * nrows)]
    for r, k, s, _ in blocks:
        for i, row in enumerate(frows):
            for j, x in enumerate(row):
                cell = dense[r * nrows + i]
                cell[k * ncols + j] = field.add(cell[k * ncols + j], field.mul(s, x))
    assert (got.nrows, got.ncols, got.entries) == \
        (2 * nrows, 2 * ncols, dense_entries(field, dense))


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_every_matrix_of_the_corpus_batteries_holds_only_its_nonzero_columns(backend,
                                                                              monkeypatch):
    """Every SparseMatrix built while the battery (and, where AR1 holds, the
    kernel sequence) runs on each corpus module, through the checking
    constructor or the trusted path, stores one thing
    besides its shape and memos: its columns, int-keyed, each a nonempty
    {row: value} dict with int rows in range, nonzero values and no tuple key."""
    made = []
    init, trusted = SparseMatrix.__init__, SparseMatrix._trusted.__func__

    def record_init(self, *args):
        init(self, *args)
        made.append(self)

    def record_trusted(cls, *args):
        made.append(trusted(cls, *args))
        return made[-1]

    monkeypatch.setattr(SparseMatrix, "__init__", record_init)
    monkeypatch.setattr(SparseMatrix, "_trusted", classmethod(record_trusted))
    field = RATIONALS if backend == "Q" else PrimeField(DEFAULT_PRIME)
    corpus = build_corpus(EngineConfig(field=field))
    for inst, name, M in battery_pairs(corpus):
        if naive_lift_battery(M, inst.diag, name=name).ar1.holds:
            kernel_sequence_check(M, inst.diag)
    assert len(made) > 500
    for m in made:
        assert set(vars(m)) - {"_memo_sweep", "_memo_echelon"} == \
            {"field", "nrows", "ncols", "_columns"}
        for j, col in m.columns().items():
            assert type(j) is int and 0 <= j < m.ncols and type(col) is dict and col, m
            for i, c in col.items():
                assert type(i) is int and 0 <= i < m.nrows and not field.is_zero(c), m
