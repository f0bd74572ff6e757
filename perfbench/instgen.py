"""Seeded generator of valid instance files for the small-instances workload.

Algebras have at most three variables: exterior algebras on odd cycles, an
odd/even cycle pair, and Tate-style algebras over k[q]/(q^m).  Modules are
free, two-step and Koszul pieces on cycles of the algebra, transformed by
shifts, direct sums and cones of identities, so d^2 = 0 holds by
construction and every file parses.  The output depends only on the seed:
the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class AlgebraSpec:
    """A presentation plus a basis of cycles in each degree."""

    ring: str
    prefix: int
    variables: tuple   # (name, degree, differential expression)
    cycles: dict       # degree -> monomials spanning cycles of that degree


# A coefficient is a tuple of (integer, monomial text) terms, "" for the unit.
UNIT = ((1, ""),)


def _neg(coef: tuple) -> tuple:
    return tuple((-c, m) for c, m in coef)


def _coef_text(coef: tuple) -> str:
    parts = []
    for c, m in coef:
        body = m if m else "1"
        if c == 1:
            parts.append(("+", body))
        elif c == -1:
            parts.append(("-", body))
        else:
            parts.append(("+" if c > 0 else "-", f"{abs(c)}*{body}"))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(frozen=True)
class ModuleSpec:
    gens: tuple    # (name, degree), strictly triangular in this order
    diff: tuple    # ((row name, column name), coefficient)

    @property
    def top_degree(self) -> int:
        return max(d for _, d in self.gens)


def _module(gens, diff: dict) -> ModuleSpec:
    # an entry of d(e) sits on a generator of lower degree than e, so a stable
    # sort by degree keeps the differential strictly lower triangular
    order = sorted(range(len(gens)), key=lambda k: gens[k][1])
    return ModuleSpec(tuple(gens[k] for k in order), tuple(sorted(diff.items())))


def free(rank: int, degree: int) -> ModuleSpec:
    return _module([(f"f{i}", degree) for i in range(rank)], {})


def two_step(cycle) -> ModuleSpec:
    deg, coef = cycle
    return _module([("e0", 0), ("e1", deg + 1)], {("e0", "e1"): coef})


def koszul(c1, c2) -> ModuleSpec:
    """e0, e1, e2, e3 with d e1 = e0 c1, d e2 = e0 c2 and
    d e3 = e1 c2 - (-1)^{|c1||c2|} e2 c1."""
    (a, x1), (b, x2) = c1, c2
    return _module([("e0", 0), ("e1", a + 1), ("e2", b + 1), ("e3", a + b + 2)],
                   {("e0", "e1"): x1, ("e0", "e2"): x2,
                    ("e1", "e3"): x2, ("e2", "e3"): x1 if (a * b) % 2 else _neg(x1)})


def shift(M: ModuleSpec, s: int) -> ModuleSpec:
    """Degrees raised by s, differential entries scaled by (-1)^s."""
    diff = {k: (_neg(c) if s % 2 else c) for k, c in M.diff}
    return _module([(n, d + s) for n, d in M.gens], diff)


def direct_sum(M: ModuleSpec, N: ModuleSpec) -> ModuleSpec:
    gens = [(n + "a", d) for n, d in M.gens] + [(n + "b", d) for n, d in N.gens]
    diff = {(r + "a", c + "a"): v for (r, c), v in M.diff}
    diff.update({(r + "b", c + "b"): v for (r, c), v in N.diff})
    return _module(gens, diff)


def cone_identity(M: ModuleSpec) -> ModuleSpec:
    """d(s e) = -s(d e) + c e and d(c e) = c(d e)."""
    gens = [("s" + n, d + 1) for n, d in M.gens] + [("c" + n, d) for n, d in M.gens]
    diff = {}
    for (r, c), v in M.diff:
        diff[("s" + r, "s" + c)] = _neg(v)
        diff[("c" + r, "c" + c)] = v
    for n, _ in M.gens:
        diff[("c" + n, "s" + n)] = UNIT
    return _module(gens, diff)


class CycleDraw:
    """Random cycles of an algebra: integer combinations of its basis cycles
    of one degree with every coefficient in {-2, -1, 1, 2}."""

    def __init__(self, rng: random.Random, alg: AlgebraSpec):
        self.rng = rng
        self.alg = alg

    def __call__(self, degree: int):
        coef = tuple((self.rng.choice((-2, -1, 1, 2)), m) for m in self.alg.cycles[degree])
        return degree, coef

    def pair(self, degree: int):
        """Two cycles that are not proportional, where the degree allows it."""
        first = self(degree)
        while True:
            second = self(degree)
            u, v = [c for c, _ in first[1]], [c for c, _ in second[1]]
            if len(u) == 1 or any(u[0] * v[i] != u[i] * v[0] for i in range(len(u))):
                return first, second


EXT2 = AlgebraSpec("k", 0, (("y0", 1, "0"), ("y1", 1, "0")),
                   {1: ("y0", "y1"), 2: ("y0*y1",)})
EXT3 = AlgebraSpec("k", 1, (("y0", 1, "0"), ("y1", 1, "0"), ("y2", 1, "0")),
                   {1: ("y0", "y1", "y2"), 2: ("y0*y1", "y0*y2", "y1*y2")})
MIXED = AlgebraSpec("k", 0, (("y", 1, "0"), ("Y", 2, "0")), {1: ("y",), 2: ("Y",)})
TATE = AlgebraSpec("k[q]/(q^2)", 0, (("X", 1, "q"),), {0: ("q",), 1: ("q*X",)})
TATE3 = AlgebraSpec("k[q]/(q^3)", 0, (("X", 1, "q"),), {0: ("q", "q^2"), 1: ("q^2*X",)})
TATE2 = AlgebraSpec("k[q]/(q^2)", 0, (("X", 1, "q"), ("Y", 2, "q*X")),
                    {0: ("q",), 1: ("q*X",), 2: ("q*Y",)})

# One file per entry: an algebra and the shapes of its two modules.  The seed
# draws the cycles; fixing the shapes keeps the cost of one seed's instances
# close to that of any other seed's.
FILE_SHAPES = (
    (EXT2, lambda c: {"M0": two_step(c(1)), "M1": koszul(*c.pair(1))}),
    (EXT3, lambda c: {"M0": cone_identity(two_step(c(1))),
                      "M1": direct_sum(free(1, 0), two_step(c(2)))}),
    (MIXED, lambda c: {"M0": two_step(c(1)), "M1": two_step(c(2))}),
    (TATE, lambda c: {"M0": two_step(c(0)), "M1": cone_identity(two_step(c(1)))}),
    (TATE3, lambda c: {"M0": koszul(c(0), c(1)),
                       "M1": direct_sum(two_step(c(0)), free(1, 1))}),
    (TATE2, lambda c: {"M0": two_step(c(1)), "M1": shift(two_step(c(0)), 1)}),
)


def render(alg: AlgebraSpec, modules: dict) -> str:
    lines = ["# generated small instance", "[base]", f"ring = {alg.ring}",
             "[algebra]", f"A = {alg.prefix}"]
    lines += [f"var {n} : {d} = {e}" for n, d, e in alg.variables]
    for mname, M in modules.items():
        lines.append(f"[module {mname}]")
        lines += [f"gen {n} : {d}" for n, d in M.gens]
        by_col: dict = {}
        for (r, c), v in M.diff:
            by_col.setdefault(c, []).append(f"{r}*({_coef_text(v)})")
        lines += [f"d {c} = " + " + ".join(terms) for c, terms in sorted(by_col.items())]
    # the appendix reaches Hom into negative shifts down to -(top + 1)
    top = max(M.top_degree for M in modules.values())
    lines += ["[limits]", f"max_degree = {2 * top + 3}", "max_tensor = 3"]
    return "\n".join(lines) + "\n"


def generate(seed: int) -> list[tuple[str, str]]:
    """[(file name, text)] for the seed."""
    rng = random.Random(f"dglift-small-instances-{seed}")
    return [(f"gen{i}.dg", render(alg, shapes(CycleDraw(rng, alg))))
            for i, (alg, shapes) in enumerate(FILE_SHAPES)]


def write(seed: int, directory: str) -> tuple[list[str], str]:
    """Write the seed's files; returns their paths and a digest of their bytes."""
    os.makedirs(directory, exist_ok=True)
    h = hashlib.sha256()
    paths = []
    for name, text in generate(seed):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(text)
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
        paths.append(path)
    return paths, h.hexdigest()
