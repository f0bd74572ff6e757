"""Chain-map spaces and homotopy-category Hom computations.

A degree-s map h: N -> Sigma^s Y out of a semifree module is determined by
the images of the finitely many generators, so right-linearity is built into
the unknowns: layout(s) is the flat vector of the blocks h(e_lam) in
Y_{deg(lam) - s}.  The Hom complex differential

    delta_s(h) = (-1)^s D_Y h + h d_N,    layout(s-1) -> layout(s),

is written once, in _delta_blocks.  Its block from generator mu to generator
lam is (-1)^s D_Y on the diagonal, plus c_u times the right action of u for
each term c_u u of the coefficient b_{mu lam} of e_mu in d(e_lam).  Each
block names an operator of Y: delta_matrix builds the blocks into a matrix
from Y's matrices, and delta_cols applies them to generator images through
Y's apply, which for a closed-form N (x)_B Y builds no matrix of it.

A shift-s map f is a chain map exactly when delta_{s+1} f = 0.  The chain
defect (-1)^s D_Y f - f d_N equals -delta_{s+1} f, and the chain-condition
matrix with rows (-1)^s D_Y f(e_lam) - sum_mu f(e_mu) b_{mu lam} equals
-delta_{s+1}; both have the kernel of delta_{s+1}, which the engine uses
directly.  A homotopy h of shift s-1 has boundary delta_s h.  Everything is
exact; every witness is rechecked by substitution before being returned.

A HomSpace reads its dimensions off two ranks, of delta_{s+1} and delta_s.
Each matrix is swept once, and the sweep is kept on it (linalg.Sweep): a
rank counts its pivots, and every later question about that matrix reads
the same record; that is all a space asked only for dim_K pays.  Whether
f is null-homotopic is one solve of delta_s h = f, which replays the kept
sweep of delta_s on f: a solution, free coordinates zero, is the witness,
rechecked by substitution, and "no" comes with an absence certificate, a
y with y delta_s = 0 and y.f != 0 read off the same sweep, rechecked as
well.  The class basis and class coordinates read one echelon on
layout(s): the column reduction with recorded combinations of persistent
homology (Zomorodian and Carlsson, Computing persistent homology, 2005).
The columns of delta_s at its sweep's pivots go in untagged, then each
cycle that is new modulo the rows before it goes in tagged, as a class
representative.  The representatives depend only on the span of the
boundaries and the order of the cycles, and the witness only on delta_s and
f, so neither depends on how a span is reduced.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from .algebra import AlgebraElement
from .carriers import AlgebraCarrier, Carrier, SemifreeCarrier
from .errors import DimensionMismatch
from .linalg import SparseMatrix, vec_axpy
from .memo import memo
from .modules import ChainMap, SemifreeModule, chain_failure

if TYPE_CHECKING:  # diagonal imports this module
    from .diagonal import Diagonal


def _is_module_carrier(car: Carrier) -> bool:
    """Whether car is a semifree module's own carrier, labelled
    (generator, monomial); N (x)_B T^n carriers are semifree but are not."""
    return isinstance(car, SemifreeCarrier) and isinstance(car.Y, AlgebraCarrier)


def _as_carrier(target) -> Carrier:
    if isinstance(target, SemifreeModule):
        return target.carrier()
    return target


class MapLayout:
    """Flat layout for the generator-image unknowns of maps N -> Sigma^s Y:
    offsets are the block starts, ending in the total, as in SemifreeCarrier."""

    def __init__(self, source: SemifreeModule, target: Carrier, shift: int):
        self.source = source
        self.target = target
        self.shift = shift
        self.offsets = offs = [0]
        for deg in source.degrees:
            offs.append(offs[-1] + target.dim(deg - shift))
        self.total = offs[-1]

    def block(self, lam: int):
        """(offset, degree, size) of generator lam's block."""
        if not 0 <= lam < self.source.n_gens:
            raise DimensionMismatch(f"generator key {lam!r} is not one of the source's "
                                    f"generators {self.source.describe()}")
        off = self.offsets[lam]
        return off, self.source.degrees[lam] - self.shift, self.offsets[lam + 1] - off

    def to_flat(self, cols: dict) -> dict:
        out = {}
        for lam, vec in cols.items():
            off, _, n = self.block(lam)
            for i, c in vec.items():
                if not (0 <= i < n):
                    raise DimensionMismatch(
                        f"coordinate {i} of generator {self.source.names[lam]} outside "
                        f"its block of size {n}")
                out[off + i] = c
        return out

    def from_flat(self, flat: dict) -> dict:
        """Generator images of a flat vector, read off its entries alone."""
        offs, cols = self.offsets, {}
        items = sorted(flat.items())
        if items and not (0 <= items[0][0] and items[-1][0] < self.total):
            raise DimensionMismatch(f"a flat vector with entries outside {self.total} unknowns")
        for k, c in items:
            lam = bisect_right(offs, k) - 1
            cols.setdefault(lam, {})[k - offs[lam]] = c
        return cols


# ----- the Hom complex differential -----------------------------------------


def _delta_blocks(source: SemifreeModule, target: Carrier, s: int, cols=None):
    """The blocks (lam, mu, c, op, d) of delta_s: output block lam gains c
    times the target's operator op out of degree d (Carrier.apply) applied
    to input block mu.  With cols, only the blocks that read a generator in
    cols.  A block whose input or output piece of the target is
    zero-dimensional is skipped, so no operator is read for it."""
    f = target.field
    sgn = f.neg(f.one) if s % 2 else f.one
    dim = target.dim
    for lam in range(source.n_gens):
        out = source.degrees[lam] - s
        if (cols is None or lam in cols) and dim(out + 1) and dim(out):
            yield lam, lam, sgn, "d", out + 1
        for mu, b in source.diff_column(lam):
            d = source.degrees[mu] - s + 1
            if (cols is None or mu in cols) and dim(d) and dim(out):
                for u, c in b.terms.items():
                    yield lam, mu, c, ("r", u), d


def delta_cols(source: SemifreeModule, target: Carrier, s: int, cols: dict) -> dict:
    """delta_s of a map given by generator images: each block of
    _delta_blocks goes through target.apply, so no matrix of delta_s is
    formed, and none of the target where its apply needs none."""
    f, apply = target.field, target.apply
    out: dict = {}
    for lam, mu, c, op, d in _delta_blocks(source, target, s, cols):
        vec_axpy(f, out.setdefault(lam, {}), c, apply(op, d, cols[mu]))
    return {lam: v for lam, v in out.items() if v}


def delta_matrix(rows: MapLayout, cols: MapLayout) -> SparseMatrix:
    """delta_s as a matrix from cols = layout(s-1) to rows = layout(s), each
    block of _delta_blocks the target's matrix of its operator."""
    target = rows.target
    return SparseMatrix.from_blocks(
        target.field, rows.offsets, cols.offsets,
        ((lam, mu, c, target.matrix(op, d))
         for lam, mu, c, op, d in _delta_blocks(rows.source, target, rows.shift)))


def entries_to_cols(entries: dict, source: SemifreeModule, car: SemifreeCarrier,
                    shift: int) -> dict:
    """Generator images of a shift-s matrix over B, in the coordinates of the
    target module's carrier car."""
    cols: dict = {}
    for (mu, lam), el in entries.items():
        d = source.degrees[lam] - shift
        vec = cols.setdefault(lam, {})
        for u, c in el.terms.items():
            vec[car.index(d, mu, u)] = c
    return cols


def cols_to_entries(cols: dict, source: SemifreeModule, car: SemifreeCarrier,
                    shift: int) -> dict:
    """The matrix over B of generator images in the coordinates of car."""
    degrees = car.module.degrees
    terms: dict = {}
    for lam, vec in cols.items():
        d = source.degrees[lam] - shift
        for i, c in vec.items():
            mu, j = car.block(d, i)
            terms.setdefault((mu, lam), {})[car.Y.labels(d - degrees[mu])[j]] = c
    return {k: AlgebraElement(source.algebra, t) for k, t in terms.items()}


@dataclass
class CarrierMap:
    """A chain map source -> Sigma^shift target given by generator images."""

    source: SemifreeModule
    target: Carrier
    shift: int
    cols: dict  # lam -> coordinate vector in target_{deg(lam)-shift}

    def flat(self, layout: MapLayout) -> dict:
        return layout.to_flat(self.cols)

    def is_zero(self) -> bool:
        return all(not v for v in self.cols.values())

    def chain_defect(self) -> dict:
        """delta_{s+1} f per generator, the negated defect (-1)^s D f - f d;
        empty exactly when f is a chain map."""
        return delta_cols(self.source, self.target, self.shift + 1, self.cols)

    def validate(self):
        bad = self.chain_defect()
        if bad:
            raise DimensionMismatch(chain_failure(self.source, self.shift, min(bad)))
        return self

    def add(self, other: "CarrierMap") -> "CarrierMap":
        f = self.source.algebra.field
        cols = {k: dict(v) for k, v in self.cols.items()}
        for k, v in other.cols.items():
            acc = cols.setdefault(k, {})
            vec_axpy(f, acc, f.one, v)
        return CarrierMap(self.source, self.target, self.shift,
                          {k: v for k, v in cols.items() if v})

    def scale(self, c) -> "CarrierMap":
        f = self.source.algebra.field
        return CarrierMap(self.source, self.target, self.shift,
                          {k: w for k, v in self.cols.items() if (w := f.scale(c, v))})

    def sub(self, other: "CarrierMap") -> "CarrierMap":
        f = self.source.algebra.field
        return self.add(other.scale(f.neg(f.one)))

    def precompose(self, source: SemifreeModule, entries: dict, shift: int = 0) -> "CarrierMap":
        """This map after the map source -> Sigma^shift self.source given by
        its matrix over B: e_lam goes to the sum over mu of the image of e_mu
        times the entry (mu, lam), a right action on the target."""
        f, tgt, degrees = self.source.algebra.field, self.target, self.source.degrees
        cols: dict = {}
        for (mu, lam), el in entries.items():
            vec = self.cols.get(mu)
            if vec:
                vec_axpy(f, cols.setdefault(lam, {}), f.one,
                         tgt.element_act_right(el, degrees[mu] - self.shift, vec))
        return CarrierMap(source, tgt, self.shift + shift, {k: v for k, v in cols.items() if v})


def chain_map_to_carrier(cm: ChainMap) -> CarrierMap:
    """Express a semifree-to-semifree chain map in target carrier coordinates."""
    tgt = cm.target.carrier()
    return CarrierMap(cm.source, tgt, cm.shift,
                      entries_to_cols(cm.entries, cm.source, tgt, cm.shift))


def carrier_map_to_chain(cmap: CarrierMap) -> ChainMap:
    """Back to a matrix over B when the target is a semifree carrier."""
    tgt = cmap.target
    if not _is_module_carrier(tgt):
        raise DimensionMismatch(f"target {tgt!r} is not a semifree module carrier")
    return ChainMap(cmap.source, tgt.module, cmap.shift,
                    cols_to_entries(cmap.cols, cmap.source, tgt, cmap.shift))


def space_name(source: SemifreeModule, target: Carrier, shift: int) -> str:
    """The space of maps source -> Sigma^shift target, as error messages
    name it."""
    return f"Hom space from generators {source.describe()} into {target!r} at shift {shift}"


class HomotopyWitness(CarrierMap):
    """A graded map h with f - g = d h + h d: a map of its own shift, one
    below that of f and g; rechecked exactly at construction time."""

    def boundary(self) -> CarrierMap:
        """delta h, the map of shift one above h's that h bounds."""
        return CarrierMap(self.source, self.target, self.shift + 1, self.chain_defect())


class HomSpace:
    """Cycles, boundaries, and homotopy classes of shift-s chain maps.

    The dimensions are two ranks: cycle_dim is layout(s).total minus the
    rank of delta_{s+1}, boundary_dim is the rank of delta_s, and dim_K is
    their difference, since delta_{s+1} delta_s = 0 puts the boundaries
    among the cycles.  Each delta is swept at most once, and its sweep is
    kept on the matrix: a space that is only asked its dimensions builds
    no echelon, the rank of delta_s and every null-homotopy solve read one
    sweep, and the rank of delta_{s+1} and the cycles read another.

    null_homotopy is one solve of delta_s h = f, which decides: a witness
    or, for "no", a rechecked absence certificate.  class_reps and express
    read one echelon on layout(s), built on first use.  The cycles are the
    kernel basis of delta_{s+1}, read off that matrix's own echelon (the
    kept rows of its sweep) and not kept here.  The echelon starts as the
    RREF of the image of delta_s (column_space_echelon: its columns at the
    pivots of its one sweep), untagged; then each cycle that leaves
    something on layout(s) goes in with a 1 in tag column
    layout(s).total + k, as representative k.
    Tags are never pivots, so each row minus the representatives its tags
    name is a boundary.  A map reduces to nothing when it is a boundary, to
    tags only when it is a cycle of nonzero class (minus the tags are its
    coordinates), and to something untagged when it is not a cycle.  A
    cycle is kept when it enlarges the span of the boundaries and the
    cycles kept before it, as in a separate boundary-then-cycles
    elimination, so the representatives are the same.  The build checks its
    class count against the two ranks, which agree exactly when the
    boundaries are cycles.
    """

    def __init__(self, source: SemifreeModule, target, shift: int = 0):
        self.source = source
        self.target = _as_carrier(target)
        self.shift = shift
        self.field = source.algebra.field
        self.layout = MapLayout(source, self.target, shift)
        self.h_layout = MapLayout(source, self.target, shift - 1)

    def _where(self) -> str:
        return space_name(self.source, self.target, self.shift)

    def _flat(self, cmap: CarrierMap) -> dict:
        """cmap on layout(s); a map of another space raises DimensionMismatch."""
        if (cmap.source is not self.source or cmap.target is not self.target
                or cmap.shift != self.shift):
            raise DimensionMismatch(
                f"a map from generators {cmap.source.describe()} into {cmap.target!r} at "
                f"shift {cmap.shift} is not in the {self._where()}")
        return cmap.flat(self.layout)

    @memo
    def chain_matrix(self) -> SparseMatrix:
        """delta_{s+1}, whose kernel is the chain maps, built once: the class
        computation and the strict-splitting search share it."""
        return delta_matrix(MapLayout(self.source, self.target, self.shift + 1), self.layout)

    @memo
    def boundary_matrix(self) -> SparseMatrix:
        """delta_s, whose image is the boundaries, built once: boundary_dim,
        the build and the null-homotopy solves share it."""
        return delta_matrix(self.layout, self.h_layout)

    @memo
    def _build(self) -> tuple:
        """(the tagged echelon, the class representatives)."""
        f, n = self.field, self.layout.total
        cycles = self.chain_matrix().kernel_basis()
        ech = self.boundary_matrix().column_space_echelon()
        brank = ech.rank
        reps = []
        for z in cycles:
            red = ech.reduce(z)
            if red and min(red) < n:  # a new class: tag it
                red[n + len(reps)] = f.one
                ech.add_row(red)
                reps.append(z)
        if len(reps) != len(cycles) - brank:
            raise DimensionMismatch(
                f"{len(reps)} classes from {len(cycles)} cycles and {brank} "
                f"boundaries in the {self._where()}: the boundaries are not all cycles")
        return ech, reps

    # ----- public queries -----

    @property
    def cycle_dim(self) -> int:
        return self.layout.total - self.chain_matrix().rank()

    @property
    def boundary_dim(self) -> int:
        return self.boundary_matrix().rank()

    @property
    def dim_K(self) -> int:
        return self.cycle_dim - self.boundary_dim

    def cycles(self) -> list[CarrierMap]:
        return [CarrierMap(self.source, self.target, self.shift, self.layout.from_flat(v))
                for v in self.chain_matrix().kernel_basis()]

    def class_reps(self) -> list[CarrierMap]:
        return [CarrierMap(self.source, self.target, self.shift, self.layout.from_flat(v))
                for v in self._build()[1]]

    def express(self, cmap: CarrierMap) -> dict:
        """Coordinates of the homotopy class of cmap over class_reps, as the
        sparse vector {k: coordinate} of its nonzero coordinates in
        ascending k: minus the tags that the reduction of cmap leaves."""
        f, n = self.field, self.layout.total
        red = self._build()[0].reduce(self._flat(cmap))
        if red and min(red) < n:
            raise DimensionMismatch(
                chain_failure(self.source, self.shift, min(cmap.chain_defect())))
        return {j - n: f.neg(c) for j, c in sorted(red.items())}

    def null_homotopy(self, cmap: CarrierMap) -> HomotopyWitness | None:
        """An exact witness h with f = d h + h d, a map of shift s - 1, or
        None (certified absence: cmap is not a cycle, or its class is
        nonzero).

        One solve of delta_s h = f decides, with free coordinates zero, so
        witnesses are reproducible; its None has passed the absence
        certificate's recheck.  A failed recheck names this space.
        """
        flat = self._flat(cmap)
        try:
            sol = self.boundary_matrix().solve(flat)
        except DimensionMismatch as exc:
            raise DimensionMismatch(f"{exc} in the {self._where()}") from exc
        if sol is None:
            return None
        w = HomotopyWitness(self.source, self.target, self.shift - 1, self.h_layout.from_flat(sol))
        # recheck by substitution
        if not w.boundary().sub(cmap).is_zero():
            raise DimensionMismatch(f"homotopy witness failed substitution recheck in the "
                                    f"{self._where()}")
        return w


def hom_k_dim(M: SemifreeModule, target, shift: int = 0) -> int:
    """dim_k Hom in the homotopy category, exact."""
    return HomSpace(M, target, shift).dim_K


def is_null_homotopic(f: ChainMap | CarrierMap) -> HomotopyWitness | None:
    cmap = chain_map_to_carrier(f) if isinstance(f, ChainMap) else f
    hs = HomSpace(cmap.source, cmap.target, cmap.shift)
    return hs.null_homotopy(cmap)


# ----- AR condition checkers ----------------------------------------------


@dataclass
class ConditionReport:
    holds: bool
    detail: dict = dc_field(default_factory=dict)


def check_AR1(N: SemifreeModule, diag: Diagonal) -> ConditionReport:
    """(i) non-negative generator degrees; (ii) perfectness over A, verified by
    the finite monomial A-basis when A is the base ring; (iii) vanishing of
    Hom into positive shifts of B over the finite certifying range, read by
    hom_k_dim: no later query asks these spaces, so no memo keeps them.

    Maps out of a generator of degree t into Sigma^n B land in B_{t-n} = 0
    once n exceeds the top generator degree, so the range 1..max_degree
    certifies the unbounded claim; the bound is recorded.  (i) and the bound
    read N's degrees; the (iii) dimensions are homotopy invariants, read off
    N's minimal model N' = diag.minimal(N).module.
    """
    alg = N.algebra
    B = alg.carrier()
    cond_i = all(d >= 0 for d in N.degrees)
    # (ii): when A is the base ring, N|_A has A-basis {e * m}; finite iff all
    # non-A variables are odd.
    nonA_odd = all(alg.var_degrees[i] % 2 == 1 for i in range(alg.n_A, alg.nvars))
    if alg.n_A == alg.nvars:
        cond_ii, ii_note = True, "A = B; restriction is free of rank n_gens"
    elif nonA_odd:
        cond_ii, ii_note = True, "finite monomial A-basis exhibited (all adjoined variables odd)"
    else:
        cond_ii, ii_note = False, "A-basis not finite (even adjoined variable); not verified"
    bound = max(0, N.max_degree)
    M = diag.minimal(N).module
    dims = {n: hom_k_dim(M, B, n) for n in range(1, bound + 1)}
    first_fail = next((n for n, v in dims.items() if v), None)
    ok_iii = first_fail is None
    return ConditionReport(
        holds=cond_i and cond_ii and ok_iii,
        detail={
            "i_nonnegative": cond_i,
            "ii_perfect_over_A": cond_ii,
            "ii_note": ii_note,
            "iii_dims": dims,
            "iii_bound": bound,
            "iii_bound_note": "zero beyond the bound: images of generators land in negative degrees of B",
            "iii_holds": ok_iii,
            "iii_first_failure": first_fail,
        },
    )


def check_AR2(N: SemifreeModule, diag: Diagonal) -> ConditionReport:
    """Hom(N, Sigma^n N) = 0 for n >= 1, read by hom_k_dim (no memo) and
    certified on 1..(span) where span = max degree - min degree of N; beyond
    it every generator image lands in a zero graded piece.  The dimensions
    are homotopy invariants, read as Hom(N', Sigma^n N') on N's minimal
    model N' = diag.minimal(N).module; the bound stays N's."""
    bound = max(0, (N.max_degree - N.min_degree) if N.n_gens else 0)
    M = diag.minimal(N).module
    dims = {n: hom_k_dim(M, M, n) for n in range(1, bound + 1)}
    first_fail = next((n for n, v in dims.items() if v), None)
    return ConditionReport(
        holds=first_fail is None,
        detail={"dims": dims, "bound": bound, "first_failure": first_fail,
                "bound_note": "zero beyond the bound by generator degree span"},
    )
