"""Independent dense Gaussian elimination oracle for cross-checking linalg.

Deliberately naive: dense row lists, leftmost-pivot elimination, no sparse
structures or pivot heuristics shared with the engine.
"""

from __future__ import annotations


def dense_echelon(field, rows):
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_rank(field, rows) -> int:
    ech, piv = dense_echelon(field, rows)
    return len(piv)


def dense_kernel(field, rows, ncols):
    ech, pivots = dense_echelon(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(ech, pivots):
            v[pc] = field.neg(row[fc])
        out.append(v)
    return out


def dense_solve(field, rows, b):
    if not rows:
        return None if any(not field.is_zero(x) for x in b) else []
    ncols = len(rows[0])
    aug = [list(r) + [x] for r, x in zip(rows, b)]
    ech, pivots = dense_echelon(field, aug)
    x = [field.zero] * ncols
    for row, pc in zip(ech, pivots):
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    # verify
    for r, bb in zip(rows, b):
        s = field.zero
        for c, v in zip(r, x):
            s = field.add(s, field.mul(c, v))
        if not field.is_zero(field.sub(s, bb)):
            return None
    return x


def dense_certifies_absence(field, rows, b, y) -> bool:
    """Whether the dense vector y certifies that rows x = b has no solution:
    y^T rows = 0 and y.b != 0."""
    def dot(u, v):
        s = field.zero
        for a, c in zip(u, v):
            s = field.add(s, field.mul(a, c))
        return s
    ncols = len(rows[0]) if rows else 0
    left = [dot(y, [r[j] for r in rows]) for j in range(ncols)]
    return all(field.is_zero(c) for c in left) and not field.is_zero(dot(y, b))
