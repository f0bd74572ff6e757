"""Chain-map spaces and homotopy-category Hom computations.

A degree-s map h: N -> Sigma^s Y out of a semifree module is determined by
the images of the finitely many generators, so right-linearity is built into
the unknowns: layout(s) is the flat vector of the blocks h(e_lam) in
Y_{deg(lam) - s}.  The Hom complex differential

    delta_s(h) = (-1)^s D_Y h + h d_N,    layout(s-1) -> layout(s),

is written once, in _delta_blocks.  Its block from generator mu to generator
lam is (-1)^s D_Y on the diagonal, plus c_u times the right action of u for
each term c_u u of the coefficient b_{mu lam} of e_mu in d(e_lam).

A shift-s map f is a chain map exactly when delta_{s+1} f = 0.  The chain
defect (-1)^s D_Y f - f d_N equals -delta_{s+1} f, and the chain-condition
matrix with rows (-1)^s D_Y f(e_lam) - sum_mu f(e_mu) b_{mu lam} equals
-delta_{s+1}; both have the kernel of delta_{s+1}, which the engine uses
directly.  A homotopy h of shift s-1 has boundary delta_s h.  Everything is
exact; every witness is rechecked by substitution before being returned.

A HomSpace reads its dimensions off two ranks, of delta_{s+1} and delta_s,
each one forward-elimination sweep; that is all a space asked only for
dim_K pays.  Its other queries read one echelon on layout(s): the column
reduction with recorded combinations of persistent homology (Zomorodian and
Carlsson, Computing persistent homology, 2005).  Boundaries go in untagged,
then each cycle that is new modulo the rows before it goes in tagged, as a
class representative.  The representatives depend only on the span of the
boundaries and the order of the cycles, and a witness is the solve of
delta_s h = f with free coordinates zero, so neither depends on how the
span is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from .algebra import AlgebraElement
from .carriers import AlgebraCarrier, Carrier, SemifreeCarrier
from .errors import DimensionMismatch
from .linalg import Echelon, SparseMatrix, vec_axpy
from .modules import ChainMap, SemifreeModule, chain_failure, regular_module

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
    """Flat layout for the generator-image unknowns of maps N -> Sigma^s Y."""

    def __init__(self, source: SemifreeModule, target: Carrier, shift: int):
        self.source = source
        self.target = target
        self.shift = shift
        self.offsets = []
        off = 0
        for lam in range(source.n_gens):
            d = source.degrees[lam] - shift
            n = target.dim(d)
            self.offsets.append((off, d, n))
            off += n
        self.total = off

    def block(self, lam: int):
        return self.offsets[lam]

    def to_flat(self, cols: dict) -> dict:
        out = {}
        for lam, vec in cols.items():
            off, _, n = self.offsets[lam]
            for i, c in vec.items():
                if not (0 <= i < n):
                    raise DimensionMismatch("coordinate outside block")
                out[off + i] = c
        return out

    def from_flat(self, flat: dict) -> dict:
        cols: dict = {}
        for lam in range(self.source.n_gens):
            off, _, n = self.offsets[lam]
            blk = {}
            for i in range(n):
                c = flat.get(off + i)
                if c is not None:
                    blk[i] = c
            if blk:
                cols[lam] = blk
        return cols


# ----- the Hom complex differential -----------------------------------------


def _delta_blocks(source: SemifreeModule, target: Carrier, s: int, cols=None):
    """The blocks (lam, mu, c, M) of delta_s: output block lam gains c * M
    applied to input block mu.  With cols, only the blocks that read a
    generator in cols, so no matrix is built for a zero image.  A block whose
    input or output piece of the target is zero-dimensional is skipped, so
    no matrix is built for it either."""
    f = target.field
    sgn = f.neg(f.one) if s % 2 else f.one
    dim = target.dim
    for lam in range(source.n_gens):
        out = source.degrees[lam] - s
        if (cols is None or lam in cols) and dim(out + 1) and dim(out):
            yield lam, lam, sgn, target.diff(out + 1)
        for mu, b in source.diff_column(lam):
            d = source.degrees[mu] - s + 1
            if (cols is None or mu in cols) and dim(d) and dim(out):
                for u, c in b.terms.items():
                    yield lam, mu, c, target.action("r", u, d)


def delta_cols(source: SemifreeModule, target: Carrier, s: int, cols: dict) -> dict:
    """delta_s of a map given by generator images, without a matrix."""
    f = target.field
    out: dict = {}
    for lam, mu, c, m in _delta_blocks(source, target, s, cols):
        vec_axpy(f, out.setdefault(lam, {}), c, m.mat_vec(cols[mu]))
    return {lam: v for lam, v in out.items() if v}


def delta_matrix(rows: MapLayout, cols: MapLayout) -> SparseMatrix:
    """delta_s as a matrix from cols = layout(s-1) to rows = layout(s)."""
    return SparseMatrix.from_blocks(
        rows.target.field, [off for off, _, _ in rows.offsets] + [rows.total],
        [off for off, _, _ in cols.offsets] + [cols.total],
        _delta_blocks(rows.source, rows.target, rows.shift))


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

    def flat(self, layout: MapLayout | None = None) -> dict:
        layout = layout or MapLayout(self.source, self.target, self.shift)
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


def chain_map_to_carrier(cm: ChainMap) -> CarrierMap:
    """Express a semifree-to-semifree chain map in target carrier coordinates."""
    tgt = cm.target.carrier()
    return CarrierMap(cm.source, tgt, cm.shift,
                      entries_to_cols(cm.entries, cm.source, tgt, cm.shift))


def carrier_map_to_chain(cmap: CarrierMap) -> ChainMap:
    """Back to a matrix over B when the target is a semifree carrier."""
    tgt = cmap.target
    if not _is_module_carrier(tgt):
        raise DimensionMismatch("target is not a semifree module carrier")
    return ChainMap(cmap.source, tgt.module, cmap.shift,
                    cols_to_entries(cmap.cols, cmap.source, tgt, cmap.shift))


@dataclass
class HomotopyWitness:
    """A graded map h with f - g = d h + h d, stored as generator images
    one degree up; rechecked exactly at construction time."""

    source: SemifreeModule
    target: Carrier
    shift: int
    cols: dict

    def boundary(self) -> CarrierMap:
        return CarrierMap(self.source, self.target, self.shift,
                          delta_cols(self.source, self.target, self.shift, self.cols))


class HomSpace:
    """Cycles, boundaries, and homotopy classes of shift-s chain maps.

    The dimensions are two ranks: cycle_dim is layout(s).total minus the
    rank of delta_{s+1}, boundary_dim is the rank of delta_s, and dim_K is
    their difference, since delta_{s+1} delta_s = 0 puts the boundaries
    among the cycles.  A rank is one forward sweep, so a space that is only
    asked its dimensions builds no echelon.

    cycles, class_reps, express and null_homotopy read one echelon on
    layout(s), built on first use.  The cycles are the kernel basis of
    delta_{s+1}.  The columns of delta_s go in untagged (their rank is
    boundary_dim); then each cycle that leaves something on layout(s) goes
    in with a 1 in tag column layout(s).total + k, as representative k.
    Tags are never pivots, so each row minus the representatives its tags
    name is a boundary.  A map reduces to nothing when it is a boundary, to
    tags only when it is a cycle of nonzero class (minus the tags are its
    coordinates), and to something untagged when it is not a cycle.  A
    cycle is kept when it enlarges the span of the boundaries and the
    cycles kept before it, as in a separate boundary-then-cycles
    elimination, so the representatives are the same; delta_s h = f is
    solved, free coordinates zero, only for a certified boundary.  The build
    checks its class count against the two ranks, which agree exactly when
    the boundaries are cycles.
    """

    def __init__(self, source: SemifreeModule, target, shift: int = 0):
        self.source = source
        self.target = _as_carrier(target)
        self.shift = shift
        self.field = source.algebra.field
        self.layout = MapLayout(source, self.target, shift)
        self.h_layout = MapLayout(source, self.target, shift - 1)
        self._cmat: SparseMatrix | None = None
        self._bmat: SparseMatrix | None = None
        self._built = False

    def _where(self) -> str:
        """The space, as the error messages name it."""
        return (f"Hom space from generators {self.source.describe()} into "
                f"{self.target!r} at shift {self.shift}")

    def chain_matrix(self) -> SparseMatrix:
        """delta_{s+1}, whose kernel is the chain maps, built once: the class
        computation and the strict-splitting search share it."""
        if self._cmat is None:
            self._cmat = delta_matrix(MapLayout(self.source, self.target, self.shift + 1),
                                      self.layout)
        return self._cmat

    def boundary_matrix(self) -> SparseMatrix:
        """delta_s, whose image is the boundaries, built once: boundary_dim,
        the build and the witness solves share it."""
        if self._bmat is None:
            self._bmat = delta_matrix(self.layout, self.h_layout)
        return self._bmat

    def _build(self):
        if self._built:
            return
        f, n = self.field, self.layout.total
        cycles = self.chain_matrix().kernel_basis()
        ech = Echelon(f, n)
        for col in self.boundary_matrix().cols():
            if col:
                ech.add_row(col)
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
        self._cycles, self._brank, self._ech, self._reps = cycles, brank, ech, reps
        self._built = True

    # ----- public queries -----

    @property
    def cycle_dim(self) -> int:
        return self.layout.total - self.chain_matrix().rank()

    @property
    def boundary_dim(self) -> int:
        return self._brank if self._built else self.boundary_matrix().rank()

    @property
    def dim_K(self) -> int:
        return self.cycle_dim - self.boundary_dim

    def cycles(self) -> list[CarrierMap]:
        self._build()
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._cycles]

    def class_reps(self) -> list[CarrierMap]:
        self._build()
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._reps]

    def express(self, cmap: CarrierMap) -> list:
        """Coordinates of the homotopy class of cmap over class_reps: minus
        the tags that the reduction of cmap leaves."""
        self._build()
        f, n = self.field, self.layout.total
        red = self._ech.reduce(cmap.flat(self.layout))
        if red and min(red) < n:
            raise DimensionMismatch(
                chain_failure(self.source, self.shift, min(cmap.chain_defect())))
        return [f.neg(red.get(n + k, f.zero)) for k in range(len(self._reps))]

    def null_homotopy(self, cmap: CarrierMap) -> HomotopyWitness | None:
        """An exact witness h with f = d h + h d, or None (certified absence:
        cmap is not a cycle, or its class is nonzero).

        The echelon decides; only a boundary is solved for, with free
        coordinates zero, so witnesses are reproducible.
        """
        self._build()
        flat = cmap.flat(self.layout)
        if self._ech.reduce(flat):
            return None
        sol = self.boundary_matrix().solve(flat)
        if sol is None:
            raise DimensionMismatch(f"a certified boundary has no homotopy solve in the "
                                    f"{self._where()}")
        f = self.field
        w = HomotopyWitness(self.source, self.target, self.shift,
                            self.h_layout.from_flat(
                                {i: c for i, c in enumerate(sol) if not f.is_zero(c)}))
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
    Hom into positive shifts of B over the finite certifying range, read off
    the Hom spaces of diag's memo.

    Maps out of a generator of degree t into Sigma^n B land in B_{t-n} = 0
    once n exceeds the top generator degree, so the range 1..max_degree
    certifies the unbounded claim; the bound is recorded.
    """
    alg = N.algebra
    B = regular_module(alg)
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
    dims = {n: diag.hom(N, B, n).dim_K for n in range(1, bound + 1)}
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
    """Hom(N, Sigma^n N) = 0 for n >= 1, read off diag's memo and certified
    on 1..(span) where span = max degree - min degree; beyond it every
    generator image lands in a zero graded piece."""
    bound = max(0, (N.max_degree - N.min_degree) if N.n_gens else 0)
    dims = {n: diag.hom(N, N, n).dim_K for n in range(1, bound + 1)}
    first_fail = next((n for n, v in dims.items() if v), None)
    return ConditionReport(
        holds=first_fail is None,
        detail={"dims": dims, "bound": bound, "first_failure": first_fail,
                "bound_note": "zero beyond the bound by generator degree span"},
    )
