"""Independent Hom-complex differential at the level of algebra elements.

The engine writes delta_s(h) = (-1)^s D_Y h + h d_N once, as blocks of carrier
matrices.  This oracle writes it from the definition instead, for a graded
map h: N -> Sigma^{s-1} Y between semifree modules given as a matrix over B:
entry (mu, lam) is the coefficient of e'_mu in h(e_lam), and

    D_Y(e'_mu a) = sum_nu e'_nu b'_{nu mu} a + (-1)^{|e'_mu|} e'_mu d(a),
    h(d e_lam)   = sum_mu h(e_mu) b_{mu lam}.

It shares no code with the engine's carriers, layouts or sparse matrices.
"""

from __future__ import annotations


def delta_by_elements(h: dict, N, Y, s: int) -> dict:
    """delta_s h as a matrix over B; zero entries are dropped."""
    out: dict = {}

    def add(key, el, sign=1):
        el = el if sign > 0 else el.neg()
        out[key] = out[key] + el if key in out else el

    sign_s = -1 if s % 2 else 1
    for (mu, lam), a in h.items():
        for nu, b in Y.diff_column(mu):
            add((nu, lam), b * a, sign_s)
        add((mu, lam), a.differentiate(), sign_s * (-1 if Y.degrees[mu] % 2 else 1))
    for lam in range(N.n_gens):
        for mu, b in N.diff_column(lam):
            for (nu, m2), a in h.items():
                if m2 == mu:
                    add((nu, lam), a * b)
    return {k: v for k, v in out.items() if not v.is_zero()}
