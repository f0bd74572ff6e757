"""The diagonal ideal J by elimination, and its operators by the generic route.

KernelSubCarrier reads J's basis off the columns of the multiplication map
pi in closed form, since each column of pi holds at most one entry, and
skips the pass over a zero parent operator.  This oracle does each the
way that assumes nothing of the shape: the RREF kernel basis of pi by
elimination (a sweep and an Echelon), and every basis vector pushed
through the parent operator and read through coords.  The enveloping
operators themselves have their oracle in enveloping_oracle.
"""

from __future__ import annotations

from dglift.linalg import SparseMatrix


def kernel_basis(env, d: int) -> list:
    """The RREF kernel basis of pi in degree d, by elimination."""
    if env.dim(d) == 0:
        return []
    return env.pi_matrix(d).kernel_basis()


def pushed(J, d: int, out_deg: int, parent_mat: SparseMatrix) -> SparseMatrix:
    """parent_mat on J: every basis vector of the elimination route pushed
    through it and read through coords, the zero operator too."""
    cols = [J.coords(out_deg, parent_mat.mat_vec(v)) for v in kernel_basis(J.parent, d)]
    return SparseMatrix.from_cols(J.field, J.dim(out_deg), cols)
