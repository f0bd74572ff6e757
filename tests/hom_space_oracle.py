"""The Hom-space build that the engine's one tagged echelon replaced.

OracleHomSpace runs three eliminations per build: the RREF of delta_{s+1}
for the cycles, the RREF of the transpose of delta_s for the boundaries (a
route the engine does not take), and a third echelon that re-inserts the
boundary rows and then the cycles to pick class representatives.  express solves [boundaries | reps] x = f on
every call, and null_homotopy solves delta_s h = f on every call.  It keeps
the strict-triangular option, whose pinned kernel the tests' strict cycles
must reproduce.  It shares delta_matrix, MapLayout and the sparse linear
algebra with the engine; what it checks is the reduction built on them.

strict_triangular_cycles is the test-side replacement of that option, and
echelon_says_null the decision null_homotopy made before it was one solve.
"""

from __future__ import annotations

from dglift.errors import DimensionMismatch
from dglift.homotopy import CarrierMap, HomSpace, HomotopyWitness, MapLayout, delta_matrix
from dglift.linalg import Echelon, SparseMatrix
from dglift.modules import SemifreeModule

from conftest import entry_matrix


def strict_allowed(source, target, layout: MapLayout) -> set:
    """The unknowns (lam, (mu, u)) of layout with mu < lam."""
    allowed = set()
    for lam in range(source.n_gens):
        off, d, n = layout.block(lam)
        labels = target.labels(d)
        allowed.update(off + i for i in range(n) if labels[i][0] < lam)
    return allowed


def strict_triangular_cycles(M) -> list[CarrierMap]:
    """The shift-0 chain endomorphisms of M that send each generator to
    earlier generators only: the kernel of the chain matrix of
    HomSpace(M, M, 0) restricted to the allowed unknowns.  The RREF of that
    restriction is unique, so this is the pinned kernel of the old
    strict-triangular option bit for bit: a free allowed column gives the
    same kernel vector, and a pinned column, whose restricted column is
    zero, gives only itself, which is dropped."""
    hs = HomSpace(M, M, 0)
    allowed = strict_allowed(M, hs.target, hs.layout)
    m = hs.chain_matrix()
    sub = entry_matrix(m.field, m.nrows, m.ncols,
                       {(i, j): c for (i, j), c in m.entries.items() if j in allowed})
    return [CarrierMap(M, hs.target, 0, hs.layout.from_flat(v))
            for v in sub.kernel_basis() if set(v) <= allowed]


def echelon_says_null(hs: HomSpace, cmap: CarrierMap) -> bool:
    """Whether cmap is null-homotopic, read off the tagged class echelon of
    hs: cmap is a boundary exactly when it reduces to nothing there."""
    return not hs._build()[0].reduce(cmap.flat(hs.layout))


class OracleHomSpace:
    """HomSpace as it was built before the tagged echelon."""

    def __init__(self, source, target, shift: int = 0, strict_triangular: bool = False):
        self.source = source
        self.target = target.carrier() if isinstance(target, SemifreeModule) else target
        self.shift = shift
        self.field = source.algebra.field
        self.layout = MapLayout(source, self.target, shift)
        self.h_layout = MapLayout(source, self.target, shift - 1)
        f = self.field
        m = delta_matrix(MapLayout(source, self.target, shift + 1), self.layout)
        if strict_triangular:
            # forbid the masked-out unknowns by pinning them to zero
            mask = strict_allowed(source, self.target, self.layout)
            extra = dict(m.entries)
            r = m.nrows
            for j in range(self.layout.total):
                if j not in mask:
                    extra[(r, j)] = f.one
                    r += 1
            m = entry_matrix(f, r, self.layout.total, extra)
        self._cycles = m.kernel_basis()
        self._bmat = delta_matrix(self.layout, self.h_layout)
        img = self._bmat.transpose().echelon()
        self.boundary_dim = img.rank
        self._img_rows = [dict(r) for r in img.rows]
        ech = Echelon(f, self.layout.total)
        for r in self._img_rows:
            ech.add_row(dict(r))
        self._reps = [v for v in self._cycles if ech.add_row(v)]
        self.cycle_dim = len(self._cycles)
        self.dim_K = len(self._reps)

    def cycles(self) -> list[CarrierMap]:
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._cycles]

    def class_reps(self) -> list[CarrierMap]:
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._reps]

    def express(self, cmap: CarrierMap) -> dict:
        basis = [dict(r) for r in self._img_rows] + self._reps
        m = SparseMatrix.from_cols(self.field, self.layout.total, basis)
        sol = m.solve(cmap.flat(self.layout))
        if sol is None:
            raise DimensionMismatch("map is not a cycle in this Hom space")
        nb = len(self._img_rows)
        return {j - nb: c for j, c in sorted(sol.items()) if j >= nb}

    def null_homotopy(self, cmap: CarrierMap) -> HomotopyWitness | None:
        sol = self._bmat.solve(cmap.flat(self.layout))
        if sol is None:
            return None
        w = HomotopyWitness(self.source, self.target, self.shift - 1, self.h_layout.from_flat(sol))
        if not w.boundary().sub(cmap).is_zero():
            raise DimensionMismatch("homotopy witness failed substitution recheck")
        return w
