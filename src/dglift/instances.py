"""Built-in instance corpus used by the test suite and the experiment script.

Every instance is rebuilt per configuration so the scalar backend can vary;
the names are stable and the bases deterministic, which keeps golden values
meaningful across backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BaseRing, DGAlgebra, build_algebra
from .config import DEFAULT_CONFIG, EngineConfig
from .diagonal import Diagonal
from .memo import memo
from .modules import ChainMap, cone, free_module, make_module, shift


@dataclass
class Instance:
    name: str
    algebra: DGAlgebra
    modules: dict
    battery: tuple          # module names run through the lift battery
    ar1_expected: tuple     # module names expected to satisfy the checker

    @property
    @memo
    def diag(self) -> Diagonal:
        return Diagonal(self.algebra)


def exterior(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """The exterior algebra on one odd generator over the base field."""
    alg = build_algebra(BaseRing(), [("y", 1, "0")], 0,
                        config.with_limits(max_degree=min(config.max_degree, 12)))
    y = alg.gen("y")
    B = free_module(alg, 1, prefix="b")
    B2 = free_module(alg, 2, prefix="b")
    B3 = free_module(alg, 3, prefix="b")
    two_step = make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): y})
    three_step = make_module(alg, [("e0", 0), ("e1", 2), ("e2", 4)],
                             {("e0", "e1"): y, ("e1", "e2"): y})
    cone_id = cone(ChainMap.identity(B))
    summand = make_module(alg, [("g1", 0), ("g2", 0), ("g3", 1)],
                          {("g2", "g3"): alg.one()})
    shifted = shift(B, 1)
    return Instance(
        name="exterior",
        algebra=alg,
        modules={"B": B, "B2": B2, "B3": B3, "two_step": two_step,
                 "three_step": three_step, "cone_id": cone_id,
                 "summand": summand, "shifted": shifted},
        battery=("B", "B2", "B3", "two_step", "three_step", "cone_id", "summand"),
        ar1_expected=("B", "B2", "B3", "cone_id", "summand"),
    )


def koszul(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """R = k[a]/(a^2) with the two-term complex on the zero divisor."""
    alg = build_algebra(BaseRing("a", 2), [], 0,
                        config.with_limits(max_degree=min(config.max_degree, 8)))
    a = alg.gen("a")
    K = make_module(alg, [("e0", 0), ("e1", 1)], {("e0", "e1"): a})
    B = free_module(alg, 1, prefix="r")
    return Instance(
        name="koszul",
        algebra=alg,
        modules={"K": K, "B": B},
        battery=("K", "B"),
        ar1_expected=("B",),
    )


def tate(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """One adjoined odd variable killing the base nilpotent: dX = q."""
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0,
                        config.with_limits(max_degree=min(config.max_degree, 8)))
    B = free_module(alg, 1, prefix="b")
    q, X = alg.gen("q"), alg.gen("X")
    M = make_module(alg, [("h0", 0), ("h1", 2)], {("h0", "h1"): q * X})
    return Instance(
        name="tate",
        algebra=alg,
        modules={"B": B, "M": M},
        battery=("B", "M"),
        ar1_expected=("B",),
    )


def tate2(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """Two adjoined variables (odd then even) resolving the base field."""
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0,
                        config.with_limits(max_degree=min(config.max_degree, 6)))
    B = free_module(alg, 1, prefix="b")
    q, X = alg.gen("q"), alg.gen("X")
    M = make_module(alg, [("g0", 0), ("g1", 1), ("g2", 2)],
                    {("g0", "g1"): q, ("g1", "g2"): alg.one().neg(), ("g0", "g2"): X})
    return Instance(
        name="tate2",
        algebra=alg,
        modules={"B": B, "M": M},
        battery=("B", "M"),
        ar1_expected=(),
    )


def prefix(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """A genuinely proper subalgebra: A is the exterior algebra on the first
    of two odd generators.  The derivation kills A, so the module whose
    differential entry lies in A lifts while its twin does not."""
    alg = build_algebra(BaseRing(), [("u", 1, "0"), ("y", 1, "0")], 1,
                        config.with_limits(max_degree=min(config.max_degree, 8)))
    u, y = alg.gen("u"), alg.gen("y")
    B = free_module(alg, 1, prefix="b")
    M_in = make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): u})
    M_out = make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): y})
    return Instance(
        name="prefix",
        algebra=alg,
        modules={"B": B, "M_in": M_in, "M_out": M_out},
        battery=("B", "M_in", "M_out"),
        ar1_expected=("B",),
    )


def mixed(config: EngineConfig = DEFAULT_CONFIG) -> Instance:
    """An odd and an even cycle generator over the base field."""
    alg = build_algebra(BaseRing(), [("y", 1, "0"), ("Y", 2, "0")], 0,
                        config.with_limits(max_degree=min(config.max_degree, 6)))
    y = alg.gen("y")
    B = free_module(alg, 1, prefix="b")
    M = make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): y})
    return Instance(
        name="mixed",
        algebra=alg,
        modules={"B": B, "M": M},
        battery=("B", "M"),
        ar1_expected=(),
    )


BUILDERS = {
    "exterior": exterior,
    "koszul": koszul,
    "tate": tate,
    "tate2": tate2,
    "prefix": prefix,
    "mixed": mixed,
}


def build_corpus(config: EngineConfig = DEFAULT_CONFIG, names=None) -> dict:
    names = tuple(BUILDERS) if names is None else tuple(names)
    return {n: BUILDERS[n](config) for n in names}


def battery_pairs(corpus) -> list:
    """(instance, module name, module) for every battery-flagged module."""
    out = []
    for inst in corpus.values():
        for mname in inst.battery:
            out.append((inst, mname, inst.modules[mname]))
    return out
