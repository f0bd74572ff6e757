"""Naive-liftability decisions: splitting search, the equivalence battery,
summand witnesses, the factorization ideal, and the kernel-sequence checks.

A module is naively liftable when the counit of base change admits a strict
right inverse among module maps.  The battery evaluates nine certificates:
the strict splitting, vanishing and nilpotency of the obstruction class, the
tensor-graded endomorphism dimensions, and the free-summand witness; under
the verified Ext-vanishing hypotheses every verdict must agree, and any
disagreement is flagged as a fatal inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .carriers import Carrier
from .diagonal import Diagonal
from .errors import DimensionMismatch, FiltrationStuck
from .homotopy import (CarrierMap, ConditionReport, HomSpace, HomotopyWitness, MapLayout,
                       MinimalModel, carrier_map_to_chain, chain_map_to_carrier, check_AR1,
                       check_AR2, hom_k_dim, space_name)
from .linalg import SparseMatrix
from .modules import (ChainMap, SemifreeModule, cols_to_entries, composite_is_identity,
                      free_module, graded_map_boundary, homology_dim, matrix_product)
from .obstruction import (chain_map_operator, chi_powers, gamma_dim, induced_matrix,
                          omega_action_matrix)


# ----- strict splitting -----------------------------------------------------


def splitting_search(N: SemifreeModule, diag: Diagonal) -> ChainMap | None:
    """A strict section of the counit: sigma with pi . sigma = id exactly,
    or None when no such sigma exists.

    Decided on N's minimal model N' = diag.minimal(N).module, with
    (f, g, h) its retraction: one solve of the chain-and-section system
    pi tau = g for a chain map tau: N' -> G, on Hom(N', G), the space that
    p_ideal_dims reads too: the system is [delta_1; pi o -] tau = [0; g],
    delta_1 tau = 0 making tau a chain map and pi o tau = g making it a
    lift of g through pi.  Then sigma = tau f + delta(s0 h), s0 sending
    e_lam to e_lam (x) 1, has pi sigma = g f + delta h = id, since pi s0 is
    the identity and pi commutes with delta.  Conversely a section sigma would make
    tau = sigma g a solution, so the solve's None, whose absence
    certificate it has rechecked on N', means that no sigma exists.  When
    N' is N the system is the one on Hom(N, G) and sigma = tau; when N' = 0
    nothing is solved and sigma = delta(s0 h).  sigma is rechecked on N as
    a chain map and as a strict section."""
    G, pi = diag.base_change(N)
    model = diag.minimal(N)
    M, f = model.module, N.algebra.field
    gcar = G.carrier()
    sigma = CarrierMap(N, gcar, 0, {})
    if M.n_gens:
        hs = diag.hom(M, G)
        pi_op = chain_map_operator(pi)
        images = MapLayout(M, N.carrier(), 0)
        post_pi = SparseMatrix.from_blocks(f, images.offsets, hs.layout.offsets, (
            (k, k, f.one, pi_op.mat(hs.layout.block(k)[1])) for k in range(M.n_gens)))
        d1 = hs.chain_matrix()
        system = SparseMatrix.from_blocks(
            f, [0, d1.nrows, d1.nrows + images.total], [0, hs.layout.total],
            ((0, 0, f.one, d1), (1, 0, f.one, post_pi)))
        g_flat = chain_map_to_carrier(model.g).flat(images)
        try:
            sol = system.solve({d1.nrows + i: c for i, c in g_flat.items()})
        except DimensionMismatch as exc:
            raise DimensionMismatch(f"{exc} in the section system on the "
                                    f"{space_name(M, gcar, 0)}") from exc
        if sol is None:
            return None
        sigma = CarrierMap(M, gcar, 0, hs.layout.from_flat(sol))
        if M is not N:
            sigma = sigma.precompose(N, model.f.entries)
    if model.h:
        # e_lam (x) 1 is the generator of G over e_lam of e_lam's own degree
        s0 = CarrierMap(N, gcar, 0, {lam: gcar.gen_vector(k)[1] for lam, k in pi.entries
                                     if G.degrees[k] == N.degrees[lam]})
        sigma = sigma.add(CarrierMap(N, gcar, 0, s0.precompose(N, model.h, -1).chain_defect()))
    # carrier_map_to_chain's ChainMap checks sigma's chain condition over B
    sigma = carrier_map_to_chain(sigma)
    if not composite_is_identity(pi, sigma, {}):
        raise DimensionMismatch(f"splitting failed the strict section recheck in the "
                                f"{space_name(N, gcar, 0)}")
    return sigma


# ----- summand witness ------------------------------------------------------


@dataclass
class SummandWitness:
    """Maps g: N -> B^m and h: B^m -> N with h.g homotopic to the identity,
    plus the homotopy H, with h g = id + d H + H d; rechecked exactly at
    construction."""

    m: int
    g: ChainMap
    h: ChainMap
    homotopy: dict  # graded-map entries N -> Sigma^{-1} N

    def recheck(self) -> bool:
        """Whether h g - id = d(homotopy) + (homotopy) d, by substitution
        (composite_is_identity)."""
        return composite_is_identity(self.h, self.g, self.homotopy)


def summand_witness(N: SemifreeModule, sigma: ChainMap, G: SemifreeModule, pi: ChainMap,
                    model: MinimalModel) -> SummandWitness:
    """Push a strict splitting down the generator-degree filtration of the
    base-change module, correcting by null-homotopies of the components into
    each shifted-free layer, until it lands in the degree-zero layer.

    One loop runs the level k from the top down to 0.  At each level the
    layer's generators are renumbered by a position map into the free
    module Quot on as many generators of degree k, and the component is
    sigma's rows restricted through that map; an empty positive layer is
    skipped.  At k = 0 the component is g: N -> F0 and pi restricted
    through the same map is h: F0 -> N.

    Each null-homotopy is decided on N's minimal model (model, from
    diag.minimal(N)) by MinimalModel.null_homotopy: on the layer's space
    of maps out of N', none when N' = 0, and carried back to N, where it is
    rechecked by substitution.  Minus the witness, lifted to G's rows of
    the layer, is the correcting homotopy: sigma gains its boundary through
    ChainMap.add, which rechecks the sum as a chain map, and the summand's
    homotopy is pi after the sum of the correcting homotopies.

    Raises FiltrationStuck when a layer component is not null-homotopic,
    which can only happen if the positive-shift Hom vanishing was not
    actually verified, and when sigma has a row on a generator of negative
    degree: the descent only moves rows down to the degree-0 layer.
    """
    alg = N.algebra
    levels = G.degrees  # the filtration level of a generator is its degree
    g = min((g for g, _ in sigma.entries), key=levels.__getitem__, default=None)
    if g is not None and levels[g] < 0:
        raise FiltrationStuck(f"sigma has a row on generator {G.names[g]} of negative "
                              f"degree {levels[g]}, below the degree-0 layer")
    sigma_cur = sigma
    h_total: dict = {}  # every layer's null-homotopy, as G rows
    for k in range(max(0, max(levels, default=0)), -1, -1):
        layer = [g for g in range(G.n_gens) if levels[g] == k]
        if k and not layer:
            continue
        pos = {g: i for i, g in enumerate(layer)}
        Quot = free_module(alg, len(layer), k, prefix=f"q{k}.")
        comp = ChainMap(N, Quot, 0, {(pos[g], lam): el for (g, lam), el
                                     in sigma_cur.entries.items() if g in pos})
        if not k:
            break
        wit = model.null_homotopy(chain_map_to_carrier(comp), HomSpace)
        if wit is None:
            lam = min(lam for _, lam in comp.entries)
            raise FiltrationStuck(
                f"component into the level-{k} layer is not null-homotopic; "
                f"its first nonzero image is that of generator {N.names[lam]}")
        # lift minus the witness to G rows and correct sigma by its boundary
        h_entries = {(layer[qi], lam): el.neg() for (qi, lam), el
                     in cols_to_entries(wit.cols, N, Quot.carrier(), -1).items()}
        sigma_cur = sigma_cur.add(ChainMap(N, G, 0, graded_map_boundary(h_entries, N, G, 0),
                                           _validate=False))
        for (g, lam) in sigma_cur.entries:
            if levels[g] >= k:
                raise FiltrationStuck(f"correction left a row at level {levels[g]}")
        h_total.update(h_entries)  # layers own disjoint rows
    hmap = ChainMap(Quot, N, 0, {(kappa, pos[g]): el for (kappa, g), el in pi.entries.items()
                                 if g in pos})
    wit = SummandWitness(len(layer), comp, hmap, matrix_product(pi.entries, h_total))
    if not wit.recheck():
        raise DimensionMismatch(f"summand witness of {N!r} failed its homotopy recheck")
    return wit


# ----- factorization ideal and kernel sequence ------------------------------


def p_ideal_dims(N: SemifreeModule, diag: Diagonal):
    """dim of the ideal of endomorphism classes factoring through finite
    frees, computed two independent ways: as the image of composition with
    the counit, and as the kernel of the obstruction action on tensor-degree
    zero.  Returns (via factorization, via kernel, rank identity holds).
    With s = gamma^0 and t = gamma^1 the source and target dimensions of
    the action and r its rank, the kernel is s - r, and the rank identity
    (s - r) + t = s holds exactly when r = t.

    Both are homotopy invariants, read on N's minimal model N' =
    diag.minimal(N).module: the first is the rank of pi o - : [N', G] ->
    [N', N], with G -> N still the base change of N (precomposing with
    g: N' -> N identifies [N, -] with [N', -]), and the second reads the
    obstruction action of N'.  A contractible N has N' = 0, so [N', G] = 0
    and G is not built for it."""
    M = diag.minimal(N).module
    via_factorization = 0
    if M.n_gens:
        G, pi = diag.base_change(N)
        via_factorization = induced_matrix(diag.hom(M, G), diag.hom(M, N),
                                           chain_map_operator(pi)).rank()
    mat, s_dim, t_dim = omega_action_matrix(M, diag, 0, 0)
    rank = mat.rank()
    return via_factorization, s_dim - rank, rank == t_dim


def kernel_sequence_check(N: SemifreeModule, diag: Diagonal):
    """Degreewise rank bookkeeping of the four-term sequence
    0 -> p -> Gamma -> Gamma[1] -> End[1] -> 0, for tensor degrees below the
    config's max_tensor: kernel in degree zero equals the factorization
    ideal, and the middle maps are bijective.  Degree-zero surjectivity is
    p_ideal_dims's rank identity: with s = gamma^0, t = gamma^1 and r the
    rank of the action, (s - r) + t = s exactly when r = t.  The cokernel
    slot carries End, which is gamma^0 by construction (one memoized space),
    so cokernel_slot_matches_end is not an independent check.  Every rank
    is a homotopy invariant, read on N's minimal model N' =
    diag.minimal(N).module, as in p_ideal_dims."""
    L = diag.config.max_tensor
    via_fact, via_ker, identity_ok = p_ideal_dims(N, diag)
    gamma0 = gamma_dim(N, diag, 0)
    M = diag.minimal(N).module
    middle = {}
    for n in range(1, L):
        mat, s, t = omega_action_matrix(M, diag, n, 0)
        r = mat.rank()
        middle[n] = {"dim_source": s, "dim_target": t, "rank": r,
                     "bijective": r == s and r == t}
    return {
        "p_via_factorization": via_fact,
        "p_via_kernel": via_ker,
        "p_agree": via_fact == via_ker,
        "rank_identity": identity_ok,
        "gamma0": gamma0,
        "end_dim": gamma0,
        "cokernel_slot_matches_end": True,
        "degree0_surjective": identity_ok,
        "middle_bijective": middle,
        "ok": (via_fact == via_ker and identity_ok
               and all(v["bijective"] for v in middle.values())),
    }


# ----- the equivalence battery ----------------------------------------------


@dataclass
class LiftReport:
    module: str
    ar1: ConditionReport
    ar2: ConditionReport
    verdicts: dict = dc_field(default_factory=dict)
    notes: dict = dc_field(default_factory=dict)
    gamma: dict = dc_field(default_factory=dict)
    bound: int = 0
    agreement: bool = True
    lemma_free_equivalence: bool = True
    flag: str | None = None
    # the null-homotopy of the least null-homotopic power chi^l, if any;
    # kept out of to_dict, so the canonical report does not show it
    witness: HomotopyWitness | None = None

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "AR1": {"holds": self.ar1.holds,
                    **{k: v for k, v in self.ar1.detail.items()
                       if k in ("i_nonnegative", "ii_perfect_over_A", "iii_holds",
                                "iii_bound", "iii_first_failure")}},
            "AR2": {"holds": self.ar2.holds, "bound": self.ar2.detail.get("bound")},
            "verdicts": dict(sorted(self.verdicts.items())),
            "gamma": {str(k): v for k, v in sorted(self.gamma.items())},
            "notes": dict(sorted(self.notes.items())),
            "bound": self.bound,
            "agreement": self.agreement,
            "splitting_iff_omega_zero": self.lemma_free_equivalence,
            "flag": self.flag,
        }


def naive_lift_battery(N: SemifreeModule, diag: Diagonal, name: str = "N") -> LiftReport:
    """Evaluate the nine liftability certificates and cross-check agreement.

    The bound L is max_tensor of diag's config: the powers chi^n and the
    pieces gamma^n are read for n <= L, and Diagonal.T refuses the rest,
    so an L below 1 raises CapExceeded at the first power chi^1.  Verdicts
    ii and iii read one search for the least null-homotopic power over one
    walk of chi_powers, which stops there: ii holds when it is chi^1, iii
    when there is one, and report.witness keeps that power's null-homotopy
    (None when there is none).  The
    bound-limited conditions carry notes; under verified AR1 the
    surjectivity of the obstruction action propagates vanishing beyond the
    bound, so the finite data is a complete certificate there.  Verdict
    iv's gamma^0 = End holds by construction, End being the space
    gamma_dim reads for n = 0, and is not an independent check.

    Which module each verdict reads: i (strict section), ii and iii
    (null-homotopies with witnesses) and ix (summand witness) return
    witnesses on N, but each is decided on N's minimal model
    N' = diag.minimal(N).module by one solve on a space of maps out of N',
    none when N' = 0, and carried back to N by its retraction (f, g, h),
    where the witness is rechecked (MinimalModel.null_homotopy and
    splitting_search); a "no" is an absence certificate rechecked on N'.
    The notes read off N's degrees and homology and the certifying bounds
    read N.  iv-viii read the gamma^n, and the AR1 (iii) and AR2 tables
    their dimensions; these are homotopy invariants, computed on N'.
    """
    L = diag.config.max_tensor
    ar1 = check_AR1(N, diag)
    ar2 = check_AR2(N, diag)
    report = LiftReport(module=name, ar1=ar1, ar2=ar2, bound=L)

    sigma = splitting_search(N, diag)
    report.verdicts["i"] = sigma is not None
    report.notes["i"] = "strict section found" if sigma else "section system inconsistent"

    # ii asks whether chi^1 is null-homotopic, iii whether some chi^l is
    model = diag.minimal(N)
    nil_power = None
    for ell, chi in enumerate(chi_powers(N, diag, max(L, 1))):
        if ell and (wit := model.null_homotopy(chi, diag.hom)) is not None:
            nil_power, report.witness = ell, wit
            break
    report.verdicts["ii"] = nil_power == 1
    report.notes["ii"] = ("null-homotopy witness stored" if nil_power == 1
                          else "no homotopy exists (exact certificate)")
    report.verdicts["iii"] = nil_power is not None
    report.notes["iii"] = (f"power {nil_power} null-homotopic" if nil_power
                           else f"no nilpotency up to bound {L}")

    gammas = {n: gamma_dim(N, diag, n) for n in range(0, L + 1)}
    report.gamma = gammas
    positive_all_zero = all(gammas[n] == 0 for n in range(1, L + 1))
    positive_any_zero = any(gammas[n] == 0 for n in range(1, L + 1))
    report.verdicts["iv"] = positive_all_zero
    report.notes["iv"] = f"gamma^0 = {gammas[0]}, End = {gammas[0]}; positive pieces zero: {positive_all_zero}"
    report.verdicts["v"] = positive_any_zero
    report.notes["v"] = ("finite generation certified by a vanishing piece"
                         if positive_any_zero else f"no vanishing piece up to {L}")
    report.verdicts["vi"] = positive_all_zero
    report.verdicts["vii"] = positive_any_zero
    report.verdicts["viii"] = gammas.get(1, 0) == 0

    if sigma is not None and ar1.detail.get("iii_holds"):
        try:
            sw = summand_witness(N, sigma, *diag.base_change(N), diag.minimal(N))
            report.verdicts["ix"] = True
            report.notes["ix"] = f"summand of {sw.m} free copies; homotopy rechecked"
        except FiltrationStuck as exc:
            report.verdicts["ix"] = False
            report.notes["ix"] = f"filtration descent stuck: {exc}"
    elif sigma is not None:
        report.verdicts["ix"] = None
        report.notes["ix"] = "splitting exists but positive-shift vanishing unverified; not attempted"
    else:
        report.verdicts["ix"] = False
        report.notes["ix"] = "no splitting to push down the filtration"

    # informational: for resolution-like modules (homology concentrated in
    # degree zero within the window) finite generation over H_0 of the algebra
    # coincides with verdict (v)
    prof = homology_profile(N)
    if N.n_gens and all(v == 0 for d, v in prof.items() if d != 0):
        report.notes["v_primed"] = (
            "module resolves its degree-zero homology within the inspected "
            "window; finite generation over H_0 of the algebra is equivalent "
            "to verdict (v)")

    report.lemma_free_equivalence = report.verdicts["i"] == report.verdicts["ii"]
    if not report.lemma_free_equivalence:
        report.flag = ("FATAL: strict splitting and obstruction vanishing disagree "
                       "(violates the bound-free equivalence)")
    if ar1.holds:
        decided = [v for v in report.verdicts.values() if v is not None]
        report.agreement = len(set(decided)) <= 1
        if not report.agreement:
            report.flag = ("FATAL: battery verdicts disagree on an instance with "
                           "verified Ext-vanishing hypotheses; potential "
                           "conjecture-relevant event or engine bug")
    return report


# ----- appendix battery ------------------------------------------------------


def homology_profile(M: SemifreeModule | Carrier, lo: int | None = None,
                     hi: int | None = None):
    """dim_k H_d of M for d in lo..hi; the default window, from one below
    M's lowest generator degree to two above its highest, needs M semifree,
    so a carrier comes with explicit bounds."""
    lo = M.min_degree - 1 if lo is None else lo
    hi = M.max_degree + 2 if hi is None else hi
    return {d: homology_dim(M, d) for d in range(lo, hi + 1)}


def appendix_battery(instances):
    """Negative-shift vanishing checks driven by homology profiles.

    For modules whose homology is concentrated in degree zero (within the
    inspected window) the negative self-shift Homs must vanish; when the
    algebra has no positive homology and the module none in negative degrees,
    Homs into negative shifts of the algebra must vanish.  Instances that
    violate the concentration hypothesis serve as counterexample material and
    get their nonvanishing recorded instead.  The instances may span several
    algebras and no Diagonal is in scope, so the Homs go through hom_k_dim.
    """
    results = []
    for name, N in instances:
        alg = N.algebra
        B = alg.carrier()
        span = max(1, N.max_degree - N.min_degree)
        prof_N = homology_profile(N)
        prof_B = homology_profile(B, 0, N.max_degree + 2)
        concentrated = all(v == 0 for d, v in prof_N.items() if d != 0)
        b_positive_zero = all(v == 0 for d, v in prof_B.items() if d >= 1)
        neg_self = {ell: hom_k_dim(N, N, ell) for ell in range(-1, -(span + 2), -1)}
        neg_to_B = {i: hom_k_dim(N, B, i) for i in range(-1, -(N.max_degree + 2), -1)}
        entry = {
            "name": name,
            "homology_N": {str(k): v for k, v in prof_N.items()},
            "homology_B": {str(k): v for k, v in prof_B.items()},
            "concentrated_in_zero": concentrated,
            "B_positive_homology_zero": b_positive_zero,
            "negative_self_hom": {str(k): v for k, v in neg_self.items()},
            "negative_hom_to_B": {str(k): v for k, v in neg_to_B.items()},
        }
        if concentrated:
            entry["proposition_vanishing_ok"] = all(v == 0 for v in neg_self.values())
        if b_positive_zero:
            entry["corollary_vanishing_ok"] = all(v == 0 for v in neg_to_B.values())
        results.append(entry)
    return results
