"""Chain-map spaces and homotopy-category Hom computations.

A degree-s chain map out of a semifree module is determined by the images of
the finitely many generators, so right-linearity is built into the unknowns:
for f: N -> Sigma^s Y the unknown block for generator e_lam is a coordinate
vector in Y_{deg(lam) - s}, the chain condition
(-1)^s D_Y f(e_lam) = sum_mu f(e_mu) * b_{mu lam} is a sparse linear system,
and homotopies h live one degree higher with boundary
(-1)^s D_Y h(e_lam) + sum_mu h(e_mu) * b_{mu lam}.  Everything is exact;
every witness is rechecked by substitution before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .carriers import AlgebraCarrier, Carrier, SemifreeCarrier
from .errors import DimensionMismatch
from .linalg import Echelon, SparseMatrix, vec_axpy
from .modules import ChainMap, SemifreeModule


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
        """(-1)^s D f - f d per generator; empty when f is a chain map."""
        f = self.source.algebra.field
        out = {}
        for lam in range(self.source.n_gens):
            d = self.source.degrees[lam] - self.shift
            acc: dict = {}
            v = self.cols.get(lam)
            if v:
                img = self.target.diff(d).mat_vec(v)
                sgn = f.neg(f.one) if self.shift % 2 else f.one
                vec_axpy(f, acc, sgn, img)
            for mu, b in self.source.diff_column(lam):
                w = self.cols.get(mu)
                if w:
                    dmu = self.source.degrees[mu] - self.shift
                    img = self.target.element_act_right(b, dmu, w)
                    vec_axpy(f, acc, f.neg(f.one), img)
            if acc:
                out[lam] = acc
        return out

    def validate(self):
        bad = self.chain_defect()
        if bad:
            lam = min(bad)
            raise DimensionMismatch(
                f"chain condition fails on generator {self.source.names[lam]}")
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
                          {k: {i: f.mul(c, x) for i, x in v.items()}
                           for k, v in self.cols.items()})

    def sub(self, other: "CarrierMap") -> "CarrierMap":
        f = self.source.algebra.field
        return self.add(other.scale(f.neg(f.one)))


def chain_map_to_carrier(cm: ChainMap) -> CarrierMap:
    """Express a semifree-to-semifree chain map in target carrier coordinates."""
    tgt = cm.target.carrier()
    f = cm.source.algebra.field
    cols: dict = {}
    for (mu, lam), el in cm.entries.items():
        d = cm.source.degrees[lam] - cm.shift
        acc = cols.setdefault(lam, {})
        for u, c in el.terms.items():
            idx = tgt.index(d, mu, u)
            s = f.add(acc.get(idx, f.zero), c)
            if f.is_zero(s):
                acc.pop(idx, None)
            else:
                acc[idx] = s
    return CarrierMap(cm.source, tgt, cm.shift, {k: v for k, v in cols.items() if v})


def carrier_map_to_chain(cmap: CarrierMap) -> ChainMap:
    """Back to a matrix over B when the target is a semifree carrier."""
    tgt = cmap.target
    if not _is_module_carrier(tgt):
        raise DimensionMismatch("target is not a semifree module carrier")
    src = cmap.source
    alg = src.algebra
    entries: dict = {}
    for lam, vec in cmap.cols.items():
        d = src.degrees[lam] - cmap.shift
        labels = tgt.labels(d)
        for i, c in vec.items():
            mu, mono = labels[i]
            key = (mu, lam)
            add = alg.from_mono(mono, c)
            entries[key] = entries[key] + add if key in entries else add
    return ChainMap(src, tgt.module, cmap.shift, entries)


@dataclass
class HomotopyWitness:
    """A graded map h with f - g = d h + h d, stored as generator images
    one degree up; rechecked exactly at construction time."""

    source: SemifreeModule
    target: Carrier
    shift: int
    cols: dict

    def boundary(self) -> CarrierMap:
        f = self.source.algebra.field
        out: dict = {}
        for lam in range(self.source.n_gens):
            d = self.source.degrees[lam] - self.shift
            acc: dict = {}
            v = self.cols.get(lam)
            if v:
                img = self.target.diff(d + 1).mat_vec(v)
                sgn = f.neg(f.one) if self.shift % 2 else f.one
                vec_axpy(f, acc, sgn, img)
            for mu, b in self.source.diff_column(lam):
                w = self.cols.get(mu)
                if w:
                    dmu = self.source.degrees[mu] - self.shift + 1
                    img = self.target.element_act_right(b, dmu, w)
                    vec_axpy(f, acc, f.one, img)
            if acc:
                out[lam] = acc
        return CarrierMap(self.source, self.target, self.shift, out)


class HomSpace:
    """Cycles, boundaries, and homotopy classes of shift-s chain maps."""

    def __init__(self, source: SemifreeModule, target, shift: int = 0,
                 strict_triangular: bool = False):
        self.source = source
        self.target = _as_carrier(target)
        self.shift = shift
        self.field = source.algebra.field
        self.layout = MapLayout(source, self.target, shift)
        self.h_layout = MapLayout(source, self.target, shift - 1)
        self._strict = strict_triangular
        self._cmat: SparseMatrix | None = None
        self._built = False

    # ----- linear systems -----

    def _allowed_mask(self):
        """Unknown filter for strict-triangular sampling (same-module targets)."""
        if not self._strict:
            return None
        tgt = self.target
        if not _is_module_carrier(tgt) or tgt.module is not self.source:
            raise DimensionMismatch("strict triangular masking needs the identity target")
        allowed = set()
        for lam in range(self.source.n_gens):
            off, d, n = self.layout.block(lam)
            labels = tgt.labels(d)
            for i in range(n):
                mu, _ = labels[i]
                if mu < lam:
                    allowed.add(off + i)
        return allowed

    def chain_matrix(self) -> SparseMatrix:
        """The chain-condition matrix, built once: the class computation and
        the strict-splitting search share it."""
        if self._cmat is None:
            self._cmat = self._chain_matrix()
        return self._cmat

    def _chain_matrix(self) -> SparseMatrix:
        """Rows: chain conditions; columns: generator-image unknowns."""
        f = self.field
        src, tgt, s = self.source, self.target, self.shift
        rows: list[dict] = []
        row_offsets = []
        roff = 0
        for lam in range(src.n_gens):
            d = src.degrees[lam] - s
            row_offsets.append(roff)
            roff += tgt.dim(d - 1)
        total_rows = roff
        ent: dict = {}
        sgn = f.neg(f.one) if s % 2 else f.one
        for lam in range(src.n_gens):
            off, d, n = self.layout.block(lam)
            ro = row_offsets[lam]
            D = tgt.diff(d)
            for (i, j), c in D.entries.items():
                ent[(ro + i, off + j)] = f.mul(sgn, c)
            for mu, b in src.diff_column(lam):
                offm, dm, nm = self.layout.block(mu)
                for u, cu in b.terms.items():
                    act = tgt.action("r", u, dm)
                    for (i, j), c in act.entries.items():
                        key = (ro + i, offm + j)
                        v = f.add(ent.get(key, f.zero), f.neg(f.mul(cu, c)))
                        if f.is_zero(v):
                            ent.pop(key, None)
                        else:
                            ent[key] = v
        m = SparseMatrix(f, total_rows, self.layout.total, ent)
        mask = self._allowed_mask()
        if mask is not None:
            # forbid masked-out unknowns by pinning them to zero
            extra = dict(m.entries)
            r = total_rows
            for j in range(self.layout.total):
                if j not in mask:
                    extra[(r, j)] = f.one
                    r += 1
            m = SparseMatrix(f, r, self.layout.total, extra)
        return m

    def _boundary_matrix(self) -> SparseMatrix:
        """Columns: homotopy unknowns; output in generator-image coordinates."""
        f = self.field
        src, tgt, s = self.source, self.target, self.shift
        ent: dict = {}
        sgn = f.neg(f.one) if s % 2 else f.one
        for lam in range(src.n_gens):
            hoff, hd, hn = self.h_layout.block(lam)
            foff, fd, fn = self.layout.block(lam)
            D = tgt.diff(hd)
            for (i, j), c in D.entries.items():
                ent[(foff + i, hoff + j)] = f.mul(sgn, c)
        for lam in range(src.n_gens):
            foff, fd, fn = self.layout.block(lam)
            for mu, b in src.diff_column(lam):
                hoffm, hdm, _ = self.h_layout.block(mu)
                for u, cu in b.terms.items():
                    act = tgt.action("r", u, hdm)
                    for (i, j), c in act.entries.items():
                        key = (foff + i, hoffm + j)
                        v = f.add(ent.get(key, f.zero), f.mul(cu, c))
                        if f.is_zero(v):
                            ent.pop(key, None)
                        else:
                            ent[key] = v
        return SparseMatrix(f, self.layout.total, self.h_layout.total, ent)

    def _build(self):
        if self._built:
            return
        self._cycles = self.chain_matrix().kernel_basis()
        self._bmat = self._boundary_matrix()
        img = self._bmat.column_space_echelon()
        self._brank = img.rank
        self._img_rows = [dict(r) for r in img.rows]
        # class representatives: cycles independent modulo boundaries
        ech = Echelon(self.field, self.layout.total)
        for r in self._img_rows:
            ech.add_row(dict(r))
        reps = []
        for v in self._cycles:
            if ech.add_row(v):
                reps.append(v)
        self._reps = reps
        self._built = True

    # ----- public queries -----

    @property
    def cycle_dim(self) -> int:
        self._build()
        return len(self._cycles)

    @property
    def boundary_dim(self) -> int:
        self._build()
        return self._brank

    @property
    def dim_K(self) -> int:
        self._build()
        return len(self._reps)

    def cycles(self) -> list[CarrierMap]:
        self._build()
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._cycles]

    def class_reps(self) -> list[CarrierMap]:
        self._build()
        return [CarrierMap(self.source, self.target, self.shift,
                           self.layout.from_flat(v)) for v in self._reps]

    def express(self, cmap: CarrierMap) -> list:
        """Coordinates of the homotopy class of cmap over class_reps."""
        self._build()
        f = self.field
        flat = cmap.flat(self.layout)
        basis = [dict(r) for r in self._img_rows] + self._reps
        m = SparseMatrix.from_cols(f, self.layout.total, basis)
        sol = m.solve(flat)
        if sol is None:
            raise DimensionMismatch("map is not a cycle in this Hom space")
        return sol[len(self._img_rows):]

    def null_homotopy(self, cmap: CarrierMap) -> HomotopyWitness | None:
        """An exact witness h with f = d h + h d, or None (certified absence).

        Free coordinates of the solve are zero, so witnesses are reproducible.
        """
        self._build()
        flat = cmap.flat(self.layout)
        sol = self._bmat.solve(flat)
        if sol is None:
            return None
        f = self.field
        w = HomotopyWitness(self.source, self.target, self.shift,
                            self.h_layout.from_flat(
                                {i: c for i, c in enumerate(sol) if not f.is_zero(c)}))
        # recheck by substitution
        if not w.boundary().sub(cmap).is_zero():
            raise DimensionMismatch("homotopy witness failed substitution recheck")
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


def check_AR1(N: SemifreeModule, B_module: SemifreeModule | None = None) -> ConditionReport:
    """(i) non-negative generator degrees; (ii) perfectness over A, verified by
    the finite monomial A-basis when A is the base ring; (iii) vanishing of
    Hom into positive shifts of B over the finite certifying range.

    Maps out of a generator of degree t into Sigma^n B land in B_{t-n} = 0
    once n exceeds the top generator degree, so the range 1..max_degree
    certifies the unbounded claim; the bound is recorded.
    """
    alg = N.algebra
    from .modules import regular_module
    B = B_module if B_module is not None else regular_module(alg)
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
    dims = {}
    ok_iii = True
    first_fail = None
    for n in range(1, bound + 1):
        dn = hom_k_dim(N, B, n)
        dims[n] = dn
        if dn != 0 and ok_iii:
            ok_iii = False
            first_fail = n
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


def check_AR2(N: SemifreeModule) -> ConditionReport:
    """Hom(N, Sigma^n N) = 0 for n >= 1, certified on 1..(span) where
    span = max degree - min degree; beyond it every generator image lands in a
    zero graded piece."""
    bound = max(0, (N.max_degree - N.min_degree) if N.n_gens else 0)
    dims = {}
    ok = True
    first_fail = None
    for n in range(1, bound + 1):
        dn = hom_k_dim(N, N, n)
        dims[n] = dn
        if dn != 0 and ok:
            ok = False
            first_fail = n
    return ConditionReport(
        holds=ok,
        detail={"dims": dims, "bound": bound, "first_failure": first_fail,
                "bound_note": "zero beyond the bound by generator degree span"},
    )
