"""The operators of the enveloping algebra B (x)_A B, pair by pair.

EnvelopingCarrier builds its differential and both actions with one
builder on B's own matrices: it visits only their nonzero columns, writes a
left-slot image as a canonical pair directly and reduces a right-slot image
by pair_vector.  This oracle builds each operator the way that assumes
nothing of that: for every pair (u, m) of the degree, each half of the
tensor rule is written from monomial arithmetic (diff_mono and mono_mul)
and both halves are reduced by pair_vector.

core_product builds the enveloping route's core the same way, as a product
of full matrices: rho over all of N_d, the assembled differential of
N (x) B^e, and sigma over all of (N (x) B^e)_{d-1}.  The engine's
core_matrix instead applies the differential to each placed vector and
sigma only to the basis vectors that the result reaches.
"""

from __future__ import annotations

from dglift.linalg import SparseMatrix, vec_axpy


def enveloping_diff(env, d: int) -> SparseMatrix:
    """d(u (x) m) = du (x) m + (-1)^{|u|} u (x) dm, for every pair of
    degree d, each half written from diff_mono and reduced by pair_vector."""
    alg, f = env.algebra, env.field
    cols = []
    for u, m in env.labels(d):
        out: dict = {}
        for w, c in alg.diff_mono(u).terms.items():
            vec_axpy(f, out, f.one, env.pair_vector(w, m, c)[1])
        sgn = -1 if alg.mono_degree(u) % 2 else 1
        for w, c in alg.diff_mono(m).terms.items():
            vec_axpy(f, out, f.one, env.pair_vector(u, w, c if sgn > 0 else f.neg(c))[1])
        cols.append(out)
    return SparseMatrix.from_cols(f, env.dim(d - 1), cols)


def enveloping_left_act(env, mono, d: int) -> SparseMatrix:
    """mono (u (x) m) = (mono u) (x) m, for every pair of degree d."""
    alg, f = env.algebra, env.field
    cols = []
    for u, m in env.labels(d):
        sgn, w = alg.mono_mul(mono, u)
        cols.append({} if w is None else env.pair_vector(w, m, f.from_int(sgn))[1])
    return SparseMatrix.from_cols(f, env.dim(d + alg.mono_degree(mono)), cols)


def enveloping_right_act(env, mono, d: int) -> SparseMatrix:
    """(u (x) m) mono = u (x) (m mono), for every pair of degree d."""
    alg, f = env.algebra, env.field
    cols = []
    for u, m in env.labels(d):
        sgn, w = alg.mono_mul(m, mono)
        cols.append({} if w is None else env.pair_vector(u, w, f.from_int(sgn))[1])
    return SparseMatrix.from_cols(f, env.dim(d + alg.mono_degree(mono)), cols)


def core_product(route, d: int) -> SparseMatrix:
    """sigma . (d^{N (x) B^e} . rho) : N_d -> (N (x) J)_{d-1} for an
    EnvelopingRouteTower: rho places e_lam w as e_lam (x) (1 (x) w), and
    sigma sends every basis vector e_lam (x) (u (x) m) of degree d - 1 to
    u (x) m - 1 (x) um, read through J.coords."""
    N, env, J = route.N, route.diag.env, route.diag.J
    alg, f = N.algebra, N.algebra.field
    NBe, NJ = route._carriers()
    unit = alg.unit_mono()
    rho = SparseMatrix.from_cols(f, NBe.dim(d), [
        NBe.place(lam, *env.pair_vector(unit, w)) for lam, w in N.carrier().labels(d)])
    sigma_cols = []
    for k in range(NBe.dim(d - 1)):
        lam, j = NBe.block(d - 1, k)
        bd = d - 1 - N.degrees[lam]
        u, m = env.labels(bd)[j]
        out = {j: f.one}
        sgn, prod = alg.mono_mul(u, m)
        if prod is not None:
            vec_axpy(f, out, f.from_int(-sgn), env.pair_vector(unit, prod)[1])
        sigma_cols.append(NJ.place(lam, bd, J.coords(bd, out)))
    sigma = SparseMatrix.from_cols(f, NJ.dim(d - 1), sigma_cols)
    return sigma @ (NBe.diff(d) @ rho)
