"""Chain-map spaces, homotopy-category Hom computations, and minimal models.

A degree-s map h: N -> Sigma^s Y out of a semifree module is determined by
the images of the finitely many generators, so right-linearity is built into
the unknowns: layout(s) is the flat vector of the blocks h(e_lam) in
Y_{deg(lam) - s}.  The Hom complex differential

    delta_s(h) = (-1)^s D_Y h + h d_N,    layout(s-1) -> layout(s),

takes its rule from modules, where it is written once, in _delta_blocks:
delta_matrix builds those blocks into a matrix from Y's matrices, and
CarrierMap reads the chain defect through modules.delta_cols, which applies
them to generator images.

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

A minimal model is a strong deformation retract of N onto a semifree N'
with no unit coefficient left, found by Gaussian elimination of unit
pairs; every homotopy-invariant verdict reads N', and a null-homotopy on
N is decided by one solve on a Hom space out of N' (MinimalModel).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable

from .algebra import AlgebraElement
from .carriers import AlgebraCarrier, Carrier, SemifreeCarrier
from .errors import DimensionMismatch
from .linalg import SparseMatrix, vec_axpy
from .memo import memo
from .modules import (ChainMap, SemifreeModule, _add_outer, _delta_blocks, chain_failure,
                      cols_to_entries, composite_is_identity, delta_cols, entries_to_cols)

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


def delta_matrix(rows: MapLayout, cols: MapLayout) -> SparseMatrix:
    """delta_s as a matrix from cols = layout(s-1) to rows = layout(s), each
    block of _delta_blocks the target's matrix of its operator."""
    target = rows.target
    return SparseMatrix.from_blocks(
        target.field, rows.offsets, cols.offsets,
        ((lam, mu, c, target.matrix(op, d))
         for lam, mu, c, op, d in _delta_blocks(rows.source, target, rows.shift)))


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
    pivots of its one sweep), untagged; then each cycle goes in by one
    add_row with a 1 in tag column layout(s).total + k, and add_row keeps
    it, as representative k, when it leaves something on layout(s): a
    cycle that reduces to tags alone is refused.
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
            if ech.add_row({**z, n + len(reps): f.one}):  # a new class
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


# ----- minimal models -----------------------------------------------------


@dataclass
class MinimalModel:
    """A strong deformation retract of a semifree module N (source) onto a
    semifree N' (module): chain maps f: N -> N' and g: N' -> N, and a graded
    map h: N -> Sigma^{-1} N as a matrix over B, with f g = id and
    id - g f = d h + h d.  N' is homotopy equivalent to N, so every
    dimension of a Hom space out of N, or out of N (x)_B T^n, may be read
    off N' instead."""

    source: SemifreeModule
    module: SemifreeModule
    f: ChainMap
    g: ChainMap
    h: dict

    def recheck(self) -> "MinimalModel":
        """Check by substitution that f and g are chain maps, f g = id and
        id - g f = delta_0 h, that is g f = id + delta_0 (-h); raise
        DimensionMismatch otherwise."""
        N = self.source
        self.f.validate()
        self.g.validate()
        if not composite_is_identity(self.f, self.g, {}):
            raise DimensionMismatch(f"minimal model of {N!r}: f g is not the identity of N'")
        if not composite_is_identity(self.g, self.f, {k: v.neg() for k, v in self.h.items()}):
            raise DimensionMismatch(f"minimal model of {N!r}: id - g f is not d h + h d")
        return self

    def null_homotopy(self, phi: CarrierMap,
                      hom: Callable[..., HomSpace]) -> HomotopyWitness | None:
        """A null-homotopy of the shift-0 chain map phi: N -> X, decided on N'.

        The rule: phi is null-homotopic exactly when phi g: N' -> X is.  If
        phi = delta H, then phi g = delta(H g).  If phi g = delta H', then
        H = H' f + phi h has delta H = phi g f + phi (d h + h d) = phi,
        because phi = phi (g f + d h + h d) and precomposing with a chain map
        commutes with delta.  So one solve on hom(N', X) decides (hom is
        Diagonal.hom, or HomSpace for a space no memo keeps), and its None,
        whose absence certificate that solve has rechecked on N', answers
        for N too.  H is rechecked by substitution on N; a failed recheck
        raises DimensionMismatch naming N and the space.  When N' is N
        nothing is composed: the solve is on hom(N, X) itself.  When N' = 0
        nothing is solved: H = phi h."""
        N, Np, X = self.source, self.module, phi.target
        if Np is N:
            return hom(N, X).null_homotopy(phi)
        carried = CarrierMap(N, X, -1, {})
        if Np.n_gens:
            wit = hom(Np, X).null_homotopy(phi.precompose(Np, self.g.entries))
            if wit is None:
                return None
            carried = wit.precompose(N, self.f.entries)
        H = HomotopyWitness(N, X, -1, carried.add(phi.precompose(N, self.h, -1)).cols)
        if not H.boundary().sub(phi).is_zero():
            raise DimensionMismatch(f"a homotopy witness carried from the minimal model "
                                    f"failed its substitution recheck in the "
                                    f"{space_name(N, X, 0)}")
        return H


def _unit_pair(diff: dict, degrees, unit):
    """The least (mu, nu) whose coefficient b_{mu nu} has degree 0 and a
    nonzero constant term, so is a unit of B_0; None when there is none."""
    return min((k for k, el in diff.items()
                if degrees[k[1]] == degrees[k[0]] + 1 and unit in el.terms), default=None)


def _unit_inverse(u: AlgebraElement) -> AlgebraElement:
    """The inverse of a degree-0 element with constant term c != 0.  B_0 is
    the base ring k[a]/(a^r) (r = 1 for k), so u = c (1 - x) with x a
    multiple of a, x^r = 0, and u^{-1} = c^{-1} (1 + x + ... + x^{r-1}).
    The sum stops at r terms whatever x is, so a wrong c^{-1} gives a wrong
    sum, which the recheck refuses, rather than a series that never ends."""
    alg = u.algebra
    cinv = alg.field.inv(u.terms[alg.unit_mono()])
    x = alg.one() - u.scale(cinv)
    inv, power = alg.zero(), alg.one()
    for _ in range(alg.base.rank):
        inv = inv + power
        power = power * x
    inv = inv.scale(cinv)
    if u * inv != alg.one():
        raise DimensionMismatch(f"{inv} is not the inverse of {u}")
    return inv


def minimal_model(N: SemifreeModule) -> MinimalModel:
    """The minimal model of N by Gaussian elimination of unit pairs
    (Skoldberg, Morse theory from an algebraic viewpoint, 2006).

    While some coefficient u = b_{mu nu} is a unit of B_0, the pair
    (e_mu, e_nu) spans, with e'_mu = d e_nu, a contractible summand, and is
    cancelled: every other coefficient becomes
    b_{rho kappa} - b_{rho nu} u^{-1} b_{mu kappa}; f sends e_mu to
    -sum_rho e_rho b_{rho nu} u^{-1} and e_nu to 0, g sends e_kappa to
    e_kappa - e_nu u^{-1} b_{mu kappa}, and h sends e_mu to e_nu u^{-1}.
    One step's maps compose with the ones before: f <- f1 f, g <- g g1 and
    h <- h + g h1 f.  The survivors keep their names and are ordered by
    (degree, position); a new coefficient joins generators of strictly
    increasing degree, so N' is strictly lower triangular.  N' is
    validated like any module, and the maps are rechecked by substitution.
    With no unit coefficient, N itself, f = g = id and h = 0: nothing is
    built."""
    alg = N.algebra
    unit = alg.unit_mono()
    degrees = N.degrees
    pair = _unit_pair(N.diff, degrees, unit)
    if pair is None:
        ident = ChainMap.identity(N)
        return MinimalModel(N, N, ident, ident, {})
    one = alg.one()
    D = dict(N.diff)
    F = {(i, i): one for i in range(N.n_gens)}  # N -> the survivors
    G = dict(F)                                 # the survivors -> N
    H: dict = {}
    alive = set(range(N.n_gens))
    while pair is not None:
        mu, nu = pair
        alive -= {mu, nu}
        v = _unit_inverse(D[pair])
        # a_rho = -b_{rho nu} u^{-1} and b_kappa = b_{mu kappa}, so each
        # update below is one outer product added; degree-0 v commutes
        a = [(r, (x * v).neg()) for (r, c), x in D.items() if c == nu and r != mu]
        b = [(c, x) for (r, c), x in D.items() if r == mu and c != nu]
        f_mu = [(c, x) for (r, c), x in F.items() if r == mu]
        g_nu = [(r, (x * v).neg()) for (r, c), x in G.items() if c == nu]
        D = {k: x for k, x in D.items() if k[0] in alive and k[1] in alive}
        _add_outer(D, a, b)
        F = {k: x for k, x in F.items() if k[0] in alive}
        _add_outer(F, a, f_mu)
        G = {k: x for k, x in G.items() if k[1] in alive}
        _add_outer(G, g_nu, b)
        _add_outer(H, g_nu, [(c, x.neg()) for c, x in f_mu])
        pair = _unit_pair(D, degrees, unit)
    order = sorted(alive, key=lambda i: (degrees[i], i))
    pos = {old: new for new, old in enumerate(order)}
    Np = SemifreeModule(alg, [N.names[i] for i in order], [degrees[i] for i in order],
                        dict(sorted(((pos[r], pos[c]), x) for (r, c), x in D.items())))
    f = ChainMap(N, Np, 0, {(pos[r], c): x for (r, c), x in F.items()}, _validate=False)
    g = ChainMap(Np, N, 0, {(r, pos[c]): x for (r, c), x in G.items()}, _validate=False)
    return MinimalModel(N, Np, f, g, H).recheck()


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
