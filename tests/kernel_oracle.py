"""The diagonal ideal J by elimination, and its operators by the generic route.

KernelSubCarrier reads J's basis off the columns of the multiplication map
pi in closed form, since each column of pi holds at most one entry, and
skips the pass over a zero parent operator.  EnvelopingCarrier.diff builds
the differential of B (x)_A B by the Leibniz rule from the columns of B's
differential.  This oracle does each the way that assumes nothing of the
shape: the RREF kernel basis of pi by elimination (a sweep and an
Echelon), every basis vector pushed through the parent operator and read
through coords, and the enveloping differential pair by pair from
diff_mono.
"""

from __future__ import annotations

from dglift.linalg import SparseMatrix, vec_axpy


def kernel_basis(env, d: int) -> list:
    """The RREF kernel basis of pi in degree d, by elimination."""
    if env.dim(d) == 0:
        return []
    return env.pi_matrix(d).kernel_basis()


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


def pushed(J, d: int, out_deg: int, parent_mat: SparseMatrix) -> SparseMatrix:
    """parent_mat on J: every basis vector of the elimination route pushed
    through it and read through coords, the zero operator too."""
    cols = [J.coords(out_deg, parent_mat.mat_vec(v)) for v in kernel_basis(J.parent, d)]
    return SparseMatrix.from_cols(J.field, J.dim(out_deg), cols)
