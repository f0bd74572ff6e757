import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dglift.algebra import BaseRing, build_algebra
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.linalg import Echelon, SparseMatrix
from dglift.modules import make_module
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


@pytest.fixture()
def ext(config):
    """The exterior algebra k<y> on one generator of degree 1."""
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


@pytest.fixture()
def quot(config):
    """The base ring k[a]/(a^2) as an algebra with no variables."""
    return build_algebra(BaseRing("a", 2), [], 0, config)


@pytest.fixture()
def ext_diag(ext):
    return Diagonal(ext)


DATA = Path(__file__).parent / "data"


def two_step(ext):
    """e0, e1 in degrees 0, 2 over k<y> with d e1 = e0 y."""
    return make_module(ext, [("e0", 0), ("e1", 2)], {("e0", "e1"): ext.gen("y")})


def koszul(quot):
    """e0, e1 in degrees 0, 1 over k[a]/(a^2) with d e1 = e0 a."""
    return make_module(quot, [("e0", 0), ("e1", 1)], {("e0", "e1"): quot.gen("a")})


def _random_homogeneous(alg, rng, d):
    """A random element of degree d, coefficients in -3..3."""
    el = alg.zero()
    for u in alg.monomials(d):
        c = rng.randint(-3, 3)
        if c:
            el = el + alg.from_mono(u, alg.field.from_int(c))
    return el


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


def count_echelon_calls(monkeypatch) -> Counter:
    """Wrap Echelon.reduce and Echelon.add_row to count their calls; an
    add_row's own reduction counts as a reduce call."""
    calls = Counter()
    for name in ("reduce", "add_row"):
        def counted(self, vec, _name=name, _orig=getattr(Echelon, name)):
            calls[_name] += 1
            return _orig(self, vec)
        monkeypatch.setattr(Echelon, name, counted)
    return calls
