"""The operators of the enveloping algebra B (x)_A B, pair by pair.

EnvelopingCarrier builds its differential and both actions with one
builder on B's own matrices: it visits only their nonzero columns, writes a
left-slot image as a canonical pair directly and reduces a right-slot image
by pair_vector.  This oracle builds each operator the way that assumes
nothing of that: for every pair (u, m) of the degree, each half of the
tensor rule is written from monomial arithmetic (diff_mono and mono_mul)
and both halves are reduced by pair_vector.
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
