import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dglift.config import EngineConfig
from dglift.linalg import SparseMatrix
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS


@pytest.fixture(params=["Q", "Fp"], ids=["rationals", "prime-field"])
def field(request):
    if request.param == "Q":
        return RATIONALS
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture()
def config(field):
    return EngineConfig(field=field, max_degree=10)


@pytest.fixture()
def qconfig():
    return EngineConfig(field=RATIONALS, max_degree=10)


DATA = Path(__file__).parent / "data"


def entry_matrix(field, nrows, ncols, entries: dict) -> SparseMatrix:
    """The matrix with these {(i, j): c} entries, given to the checking
    constructor as the columns {j: {i: c}}."""
    cols: dict = {}
    for (i, j), c in entries.items():
        cols.setdefault(j, {})[i] = c
    return SparseMatrix(field, nrows, ncols, cols)


def forge_an_absence(monkeypatch, field):
    """Make every kept sweep claim that all its rows end zero, its pivot
    rows too, so any nonzero right-hand side reads as a value left on a
    zero row: a "no" that no combination of the rows can have made."""
    honest = SparseMatrix.sweep

    def forged(self):
        kept = honest(self)
        return kept._replace(zero=bytearray([1]) * self.nrows)

    monkeypatch.setattr(SparseMatrix, "sweep", forged)


def assert_column_index_consistent(ech):
    """Echelon._by_col indexes the non-pivot columns below ncols and nothing
    else: each maps to the pivots of the rows with an entry there, no pivot
    is a key, and no tag column (ncols on) is one."""
    holders: dict = {}
    for p, row in zip(ech.pivots, ech.rows):
        for j in row:
            if j != p and j < ech.ncols:
                holders.setdefault(j, set()).add(p)
    assert all(0 <= j < ech.ncols for j in ech._by_col), sorted(ech._by_col)
    assert not set(ech._by_col) & set(ech.pivots)
    assert {j: ps for j, ps in ech._by_col.items() if ps} == holders
