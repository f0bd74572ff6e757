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

from .diagonal import Diagonal
from .errors import DimensionMismatch, FiltrationStuck
from .homotopy import (CarrierMap, ConditionReport, HomSpace, carrier_map_to_chain,
                       chain_map_to_carrier, check_AR1, check_AR2, cols_to_entries,
                       hom_k_dim)
from .linalg import SparseMatrix
from .modules import (ChainMap, SemifreeModule, graded_map_boundary, homology_dim,
                      matrix_product, regular_module)
from .obstruction import (chain_map_operator, chi_power, gamma_dim, induced_matrix,
                          omega_action_matrix, omega_is_zero)


# ----- strict splitting -----------------------------------------------------


def splitting_search(N: SemifreeModule, diag: Diagonal) -> ChainMap | None:
    """A strict section of the counit: sigma with pi . sigma = id exactly,
    or None when the combined chain-and-section system is inconsistent.

    The base change G -> N and the Hom space N -> G come from the memo of
    diag, which p_ideal_dims shares."""
    G, pi = diag.base_change(N)
    f = N.algebra.field
    hs = diag.hom(N, G)
    C = hs.chain_matrix()
    pi_op = chain_map_operator(pi)
    ncar = N.carrier()
    rows = C.rows()
    rhs = [f.zero] * len(rows)
    for lam in range(N.n_gens):
        off, d, n = hs.layout.block(lam)
        want = ncar.index(d, lam, N.algebra.unit_mono())
        for i, prow in enumerate(pi_op.mat(d).rows()):
            rows.append({off + j: c for j, c in prow.items()})
            rhs.append(f.one if i == want else f.zero)
    m = SparseMatrix.from_rows(f, hs.layout.total, rows)
    sol = m.solve(rhs)
    if sol is None:
        return None
    flat = {i: c for i, c in enumerate(sol) if not f.is_zero(c)}
    cmap = CarrierMap(N, G.carrier(), 0, hs.layout.from_flat(flat)).validate()
    sigma = carrier_map_to_chain(cmap)
    if pi.compose(sigma).entries != ChainMap.identity(N).entries:
        raise DimensionMismatch("splitting failed the strict section recheck")
    return sigma


# ----- summand witness ------------------------------------------------------


@dataclass
class SummandWitness:
    """Maps g: N -> B^m and h: B^m -> N with h.g homotopic to the identity,
    plus the homotopy; rechecked exactly at construction."""

    m: int
    g: ChainMap
    h: ChainMap
    homotopy: dict  # graded-map entries N -> Sigma^{-1} N

    def recheck(self) -> bool:
        N = self.g.source
        composite = self.h.compose(self.g)
        ident = ChainMap.identity(N)
        lhs = composite.add(ident.neg())
        bnd = graded_map_boundary(self.homotopy, N, N, 0)
        keys = set(lhs.entries) | set(bnd.keys())
        zero = N.algebra.zero()
        return all(lhs.entries.get(k, zero) == bnd.get(k, zero) for k in keys)


def summand_witness(N: SemifreeModule, sigma: ChainMap,
                    G: SemifreeModule, pi: ChainMap) -> SummandWitness:
    """Push a strict splitting down the generator-degree filtration of the
    base-change module, correcting by null-homotopies of the components into
    each shifted-free layer, until it lands in the degree-zero layer.

    Raises FiltrationStuck when a layer component is not null-homotopic,
    which can only happen if the positive-shift Hom vanishing was not
    actually verified.
    """
    alg = N.algebra
    levels = G.degrees  # the filtration level of a generator is its degree
    top = max(levels, default=0)
    sigma_cur = sigma
    h_total: dict = {}  # every layer's null-homotopy, as G rows
    for k in range(top, 0, -1):
        layer = [g for g in range(G.n_gens) if levels[g] == k]
        if not layer:
            continue
        comp_entries = {}
        for (g, lam), el in sigma_cur.entries.items():
            if levels[g] == k:
                comp_entries[(layer.index(g), lam)] = el
        Quot = SemifreeModule(alg, tuple(f"q{k}.{i}" for i in range(len(layer))),
                              (k,) * len(layer), {})
        comp = ChainMap(N, Quot, 0, comp_entries)
        hs = HomSpace(N, Quot, 0)
        wit = hs.null_homotopy(chain_map_to_carrier(comp))
        if wit is None:
            lam = min(lam for _, lam in comp.entries)
            raise FiltrationStuck(
                f"component into the level-{k} layer is not null-homotopic; "
                f"its first nonzero image is that of generator {N.names[lam]}")
        # lift the witness to G rows and correct sigma by its boundary
        h_entries = {(layer[qi], lam): el for (qi, lam), el
                     in cols_to_entries(wit.cols, N, Quot.carrier(), -1).items()}
        bnd = graded_map_boundary(h_entries, N, G, 0)
        new_entries = dict(sigma_cur.entries)
        for key, el in bnd.items():
            cur = new_entries.get(key)
            new_entries[key] = el.neg() if cur is None else cur - el
        sigma_cur = ChainMap(N, G, 0, new_entries)
        for (g, lam) in sigma_cur.entries:
            if levels[g] >= k:
                raise FiltrationStuck(f"correction left a row at level {levels[g]}")
        h_total.update(h_entries)  # layers own disjoint rows
    layer0 = [g for g in range(G.n_gens) if levels[g] == 0]
    F0 = SemifreeModule(alg, tuple(G.names[g] for g in layer0),
                        (0,) * len(layer0), {})
    g_entries = {}
    for (g, lam), el in sigma_cur.entries.items():
        g_entries[(layer0.index(g), lam)] = el
    gmap = ChainMap(N, F0, 0, g_entries)
    h_entries = {}
    for (kappa, g), el in pi.entries.items():
        if g in layer0:
            h_entries[(kappa, layer0.index(g))] = el
    hmap = ChainMap(F0, N, 0, h_entries)
    homotopy = {k: v.neg() for k, v in matrix_product(pi.entries, h_total).items()}
    wit = SummandWitness(len(layer0), gmap, hmap, homotopy)
    if not wit.recheck():
        raise DimensionMismatch("summand witness failed its homotopy recheck")
    return wit


# ----- factorization ideal and kernel sequence ------------------------------


def p_ideal_dims(N: SemifreeModule, diag: Diagonal):
    """dim of the ideal of endomorphism classes factoring through finite
    frees, computed two independent ways: as the image of composition with
    the counit, and as the kernel of the obstruction action on tensor-degree
    zero.  Returns (via factorization, via kernel, rank identity holds)."""
    G, pi = diag.base_change(N)
    via_factorization = induced_matrix(diag.hom(N, G), diag.hom(N, N),
                                       chain_map_operator(pi)).rank()
    mat, s_dim, t_dim = omega_action_matrix(N, diag, 0, 0)
    via_kernel = s_dim - mat.rank()
    identity_ok = via_kernel + gamma_dim(N, diag, 1) == gamma_dim(N, diag, 0)
    return via_factorization, via_kernel, identity_ok


def kernel_sequence_check(N: SemifreeModule, diag: Diagonal):
    """Degreewise rank bookkeeping of the four-term sequence
    0 -> p -> Gamma -> Gamma[1] -> End[1] -> 0, for tensor degrees below the
    config's max_tensor: kernel in degree zero equals the factorization
    ideal, and the middle maps are bijective.  Degree-zero surjectivity is
    p_ideal_dims's rank identity: with s = gamma^0, t = gamma^1 and r the
    rank of the action, (s - r) + t = s exactly when r = t.  The cokernel
    slot carries End, which is gamma^0 by construction (one memoized space),
    so cokernel_slot_matches_end is not an independent check."""
    L = diag.config.max_tensor
    via_fact, via_ker, identity_ok = p_ideal_dims(N, diag)
    gamma0 = gamma_dim(N, diag, 0)
    middle = {}
    for n in range(1, L):
        mat, s, t = omega_action_matrix(N, diag, n, 0)
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

    The bound is min(lift_bound, max_tensor) of diag's config.  The
    bound-limited conditions carry notes; under verified AR1 the
    surjectivity of the obstruction action propagates vanishing beyond the
    bound, so the finite data is a complete certificate there.  Verdict
    iv's gamma^0 = End holds by construction, diag.hom(N, N) being
    diag.hom(N, diag.NT(N, 0)), and is not an independent check.
    """
    L_bound = min(diag.config.lift_bound, diag.config.max_tensor)
    ar1 = check_AR1(N, diag)
    ar2 = check_AR2(N, diag)
    report = LiftReport(module=name, ar1=ar1, ar2=ar2, bound=L_bound)

    sigma = splitting_search(N, diag)
    report.verdicts["i"] = sigma is not None
    report.notes["i"] = "strict section found" if sigma else "section system inconsistent"

    wit = omega_is_zero(N, diag)
    report.verdicts["ii"] = wit is not None
    report.notes["ii"] = "null-homotopy witness stored" if wit else "no homotopy exists (exact certificate)"

    # whether chi^1 is null-homotopic is verdict ii's question, so the search
    # for a null-homotopic power starts at 2 when ii failed
    nil_power = 1 if wit is not None and L_bound >= 1 else None
    if wit is None:
        for ell in range(2, L_bound + 1):
            chi = chi_power(N, diag, ell)
            if diag.hom(N, chi.target).null_homotopy(chi) is not None:
                nil_power = ell
                break
    report.verdicts["iii"] = nil_power is not None
    report.notes["iii"] = (f"power {nil_power} null-homotopic" if nil_power
                           else f"no nilpotency up to bound {L_bound}")

    gammas = {n: gamma_dim(N, diag, n) for n in range(0, L_bound + 1)}
    report.gamma = gammas
    positive_all_zero = all(gammas[n] == 0 for n in range(1, L_bound + 1))
    positive_any_zero = any(gammas[n] == 0 for n in range(1, L_bound + 1))
    report.verdicts["iv"] = positive_all_zero
    report.notes["iv"] = f"gamma^0 = {gammas[0]}, End = {gammas[0]}; positive pieces zero: {positive_all_zero}"
    report.verdicts["v"] = positive_any_zero
    report.notes["v"] = ("finite generation certified by a vanishing piece"
                         if positive_any_zero else f"no vanishing piece up to {L_bound}")
    report.verdicts["vi"] = positive_all_zero
    report.verdicts["vii"] = positive_any_zero
    report.verdicts["viii"] = gammas.get(1, 0) == 0

    if sigma is not None and ar1.detail.get("iii_holds"):
        try:
            sw = summand_witness(N, sigma, *diag.base_change(N))
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


def homology_profile(M: SemifreeModule, lo: int | None = None, hi: int | None = None):
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
        B = regular_module(alg)
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
