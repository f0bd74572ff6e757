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


def forge_an_absence(monkeypatch, field):
    """Make every forward sweep claim a pivot row in the augmented column,
    one that no combination of the rows can have made."""
    honest = SparseMatrix._forward

    def forged(self, rows, last=None):
        out = honest(self, rows, last)
        out[self.ncols] = {self.ncols: field.one}
        return out

    monkeypatch.setattr(SparseMatrix, "_forward", forged)
