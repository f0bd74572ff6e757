"""The relation quotient of a TensorCarrier built from every relation row.

TensorCarrier never builds the echelon of the relations of X (x)_R Y: it
reads the pivots and every reduction off a basis of R_+ Y, certified by a
freeness check and an ordering check.  This oracle builds it from every
relation: for every block p, every non-unit monomial b of the ring and every
pair (x_i, y_j), the row x_i b (x) y_j - x_i (x) b y_j, written into the
carrier's block columns.  It needs no freeness and chooses nothing, so its
echelon form, unique for a row space, gives the free columns and the
reductions the carrier's must equal.  It stays sparse, unlike the dense oracle in test_carriers, so that
the larger quotients (T^2, T^3 and B (x)_A T^n over the exterior algebra on
five generators and over tate2) can be checked against it too: dense rows
over their free spaces would be too slow for the test suite.
"""

from __future__ import annotations

from dglift.linalg import Echelon


def all_rows_echelon(T, d: int) -> Echelon:
    X, Y, f, alg = T.X, T.Y, T.field, T.algebra
    base = T._blocks(d)
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
                if alg.mono_is_unit(b) or (T.ring == "A" and not alg.mono_in_A(b)):
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
