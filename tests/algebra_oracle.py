"""The element arithmetic and the expression tokenizer of dglift.algebra,
op by op.

Elements are terms dicts {monomial: coefficient}.  Each function is the
term-by-term definition through the field's scalar operations (add, mul,
neg, is_zero), with the zero values filtered out of every result as the
public AlgebraElement constructor does: the reference that the fused
kernels in dglift.algebra must reproduce, values and terms order alike.
mono_mul and mono_degree are the loop definitions over every variable, and
Tokens is the character-by-character tokenizer.
"""

from __future__ import annotations


def _nonzero(f, terms: dict) -> dict:
    return {u: c for u, c in terms.items() if not f.is_zero(c)}


def mono_degree(alg, u) -> int:
    return sum(e * d for e, d in zip(u[1:], alg.var_degrees))


def mono_mul(alg, u, v):
    """(sign, monomial) or (0, None); Koszul sign from odd-odd swaps."""
    base_e = u[0] + v[0]
    if alg.base.order is not None and base_e >= alg.base.order:
        return 0, None
    exps = [base_e]
    swaps = 0
    for j in range(alg.nvars):
        vj = v[1 + j]
        uj = u[1 + j]
        if vj and (alg.var_degrees[j] % 2 == 1):
            if uj:
                return 0, None
            for i in range(j + 1, alg.nvars):
                if u[1 + i] and (alg.var_degrees[i] % 2 == 1):
                    swaps += u[1 + i]
        exps.append(uj + vj)
    return (-1) ** swaps, tuple(exps)


def add(alg, x: dict, y: dict) -> dict:
    f = alg.field
    out = dict(x)
    for u, c in y.items():
        s = f.add(out.get(u, f.zero), c)
        if f.is_zero(s):
            out.pop(u, None)
        else:
            out[u] = s
    return _nonzero(f, out)


def neg(alg, x: dict) -> dict:
    f = alg.field
    return _nonzero(f, {u: f.neg(c) for u, c in x.items()})


def sub(alg, x: dict, y: dict) -> dict:
    return add(alg, x, neg(alg, y))


def scale(alg, c, x: dict) -> dict:
    f = alg.field
    return _nonzero(f, {u: f.mul(c, a) for u, a in x.items()})


def mul(alg, x: dict, y: dict) -> dict:
    f = alg.field
    out: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            sgn, w = mono_mul(alg, u, v)
            if w is None:
                continue
            c = f.mul(cu, cv)
            if sgn < 0:
                c = f.neg(c)
            s = f.add(out.get(w, f.zero), c)
            if f.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
    return _nonzero(f, out)


def diff_mono(alg, u) -> dict:
    """d(u) by the Leibniz rule across the ordered factors of u."""
    f = alg.field
    unit = [0] * (1 + alg.nvars)
    total: dict = {}
    prefix_deg = 0
    for i in range(alg.nvars):
        e = u[1 + i]
        if e == 0:
            continue
        dxi = alg.var_diffs[i].terms
        if dxi:
            prefix = list(u[:1 + i]) + [0] * (alg.nvars - i)
            suffix = [0] * (1 + i) + list(u[1 + i:])
            suffix[1 + i] = 0
            mid = list(unit)
            mid[1 + i] = e - 1
            piece = mul(alg, {tuple(prefix): f.one}, dxi)
            if e > 1:
                piece = mul(alg, piece, {tuple(mid): f.one})
            piece = mul(alg, piece, {tuple(suffix): f.one})
            sign = -1 if prefix_deg % 2 else 1
            coeff = f.mul(f.from_int(sign), f.from_int(e))
            total = add(alg, total, scale(alg, coeff, piece))
        prefix_deg += e * alg.var_degrees[i]
    return total


def differentiate(alg, x: dict) -> dict:
    total: dict = {}
    for u, c in x.items():
        total = add(alg, total, scale(alg, c, diff_mono(alg, u)))
    return total


class Tokens:
    """The expression tokenizer, one character at a time."""

    def __init__(self, text: str):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                self.toks.append(("int", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
