"""The direct route: verdicts i, ii, iii and ix decided on N itself.

The engine decides these verdicts on N's minimal model N' and carries each
witness back to N (MinimalModel.null_homotopy, splitting_search).  This
oracle solves the systems on Hom spaces out of the whole of N instead, as
the engine did before: the section system on Hom(N, G), chi^l on
Hom(N, N (x) T^l), and the summand descent with the identity retraction of
N onto itself, which solves each layer on HomSpace(N, layer).
"""

from __future__ import annotations

from dglift.errors import DimensionMismatch, FiltrationStuck
from dglift.homotopy import CarrierMap, MinimalModel, carrier_map_to_chain
from dglift.liftcheck import summand_witness
from dglift.linalg import SparseMatrix
from dglift.modules import ChainMap, composite_is_identity
from dglift.obstruction import chain_map_operator, chi_power


def identity_model(N) -> MinimalModel:
    """N as its own minimal model: f = g = id, h = 0."""
    ident = ChainMap.identity(N)
    return MinimalModel(N, N, ident, ident, {})


def direct_splitting(N, diag) -> ChainMap | None:
    """A strict section sigma of the counit G -> N, solved on Hom(N, G):
    the chain rows delta_1 sigma = 0 stacked with the rows of pi sigma = id."""
    G, pi = diag.base_change(N)
    f = N.algebra.field
    hs = diag.hom(N, G)
    pi_op = chain_map_operator(pi)
    ncar = N.carrier()
    rows = hs.chain_matrix().rows()
    rhs = {}
    for lam in range(N.n_gens):
        off, d, n = hs.layout.block(lam)
        rhs[len(rows) + ncar.index(d, lam, N.algebra.unit_mono())] = f.one
        for prow in pi_op.mat(d).rows():
            rows.append({off + j: c for j, c in prow.items()})
    sol = SparseMatrix.from_rows(f, hs.layout.total, rows).solve(rhs)
    if sol is None:
        return None
    sigma = carrier_map_to_chain(CarrierMap(N, G.carrier(), 0, hs.layout.from_flat(sol)))
    if not composite_is_identity(pi, sigma, {}):
        raise DimensionMismatch("direct splitting failed the strict section recheck")
    return sigma


def direct_chi_witness(N, diag, ell: int):
    """A null-homotopy of chi^ell, solved on Hom(N, N (x) T^ell), or None."""
    chi = chi_power(N, diag, ell)
    return diag.hom(N, chi.target).null_homotopy(chi)


def direct_verdicts(N, diag, ar1_iii: bool, bound: int) -> dict:
    """Verdicts i, ii, iii and ix as naive_lift_battery reports them, each
    decided on N: iii is the least power up to bound that is null-homotopic
    (None for none), and ix is attempted when sigma exists and AR1 (iii)
    holds."""
    sigma = direct_splitting(N, diag)
    ii = direct_chi_witness(N, diag, 1) is not None
    nil = 1 if ii else next((ell for ell in range(2, bound + 1)
                             if direct_chi_witness(N, diag, ell) is not None), None)
    if sigma is None:
        ix = False
    elif not ar1_iii:
        ix = None
    else:
        try:
            ix = summand_witness(N, sigma, *diag.base_change(N), identity_model(N)).recheck()
        except FiltrationStuck:
            ix = False
    return {"i": sigma is not None, "ii": ii, "iii": nil is not None, "nil_power": nil,
            "ix": ix}
