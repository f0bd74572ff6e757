"""The relation quotient X (x)_R Y built from every relation row.

TensorCarrier never builds the echelon of the relations of X (x)_B Y: it
reads the pivots and every reduction off a basis of B_+ Y, certified by a
freeness check and an ordering check.  This oracle builds it from every
relation: for every block p, every non-unit monomial b of the ring R and
every pair (x_i, y_j), the row x_i b (x) y_j - x_i (x) b y_j, written into
the block columns.  It needs no freeness and chooses nothing, so its
echelon form, unique for a row space, gives the free columns and the
reductions the carrier's must equal.  R is B, or the prefix subalgebra A:
the engine builds no quotient over A and only computes the dimensions of
B (x)_A T^n and N (x)_A T^n in closed form (Diagonal.BT_A, Diagonal.NT_A),
and this echelon is what they are checked against.  It stays sparse,
unlike the dense oracle in test_carriers, so that the larger quotients
(T^2 and T^3 over the exterior algebra on five generators and over tate2)
can be checked against it too: dense rows over their free spaces would be
too slow for the test suite.
"""

from __future__ import annotations

from dglift.linalg import Echelon


def block_starts(X, Y, d: int) -> dict:
    """base: block p = X_p (x) Y_{d-p} of the free space in degree d starts
    at column base[p], p ascending; the entry one past the last block is the
    free dimension.  Written from the factors' dimensions alone, so the
    carrier's own layout is not trusted here."""
    top = d - Y.min_degree()
    base = {}
    k = 0
    for p in range(X.min_degree(), top + 1):
        base[p] = k
        k += X.dim(p) * Y.dim(d - p)
    base[top + 1] = k
    return base


def all_rows_echelon(X, Y, d: int, ring: str = "B") -> Echelon:
    """The echelon of every relation row of X (x)_R Y in degree d, R = B or
    R = A (ring "A"): only the monomials b of A, whose non-A part is the
    unit, then give relations."""
    f, alg = X.field, X.algebra
    base = block_starts(X, Y, d)
    top = d - Y.min_degree()
    ech = Echelon(f, base[top + 1])
    minus = f.neg(f.one)
    for p in range(top, X.min_degree() - 1, -1):
        nx = X.dim(p)
        o, wy = base[p], Y.dim(d - p)
        for e in range(top - p + 1):
            q = d - p - e
            ny = Y.dim(q)
            if not (nx and ny):
                continue
            for b in alg.monomials(e):
                if alg.mono_is_unit(b) or (
                        ring == "A" and not alg.mono_is_unit(alg.mono_split_A(b)[1])):
                    continue
                xb = X.action("r", b, p).cols()
                by = Y.action("l", b, q).cols()
                for i in range(nx - 1, -1, -1):
                    for j in range(ny - 1, -1, -1):
                        row = {base[p + e] + i2 * ny + j: c for i2, c in xb[i].items()}
                        f.axpy(row, minus, {o + i * wy + j2: c for j2, c in by[j].items()})
                        if row:
                            ech.add_row(row)
    return ech
