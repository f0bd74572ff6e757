"""Built-in instance corpus used by the test suite and the experiment script.

Each instance is an instance file, corpus/<name>.dg, read by
cli.parse_instance: the same reader, and the same grammar, as
`dglift battery corpus/<name>.dg --module NAME`.  Every instance is rebuilt
per configuration so the scalar backend can vary; the names are stable and
the bases deterministic, which keeps golden values meaningful across
backends.

A file's [limits] max_degree is the instance's cap: the caller's config may
lower it but never raise it, so an instance gets the smaller of the two.
The files set no max_tensor, which is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .algebra import DGAlgebra
from .cli import parse_instance
from .config import DEFAULT_CONFIG, EngineConfig
from .diagonal import Diagonal
from .memo import memo

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# name -> (module names run through the lift battery, module names expected
# to satisfy the AR1 checker)
CORPUS = {
    "exterior": (("B", "B2", "B3", "two_step", "three_step", "cone_id", "summand"),
                 ("B", "B2", "B3", "cone_id", "summand")),
    "koszul": (("K", "B"), ("B",)),
    "tate": (("B", "M"), ("B",)),
    "tate2": (("B", "M"), ()),
    "prefix": (("B", "M_in", "M_out"), ("B",)),
    "mixed": (("B", "M"), ()),
}


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


def build_corpus(config: EngineConfig = DEFAULT_CONFIG, names=None) -> dict:
    """The named corpus instances (all of them by default), each parsed from
    its file on config's field, with max_degree the smaller of the file's
    cap and config's."""
    corpus = {}
    for name in CORPUS if names is None else names:
        path = str(CORPUS_DIR / f"{name}.dg")
        parsed = parse_instance(path, config)
        if parsed.algebra.config.max_degree > config.max_degree:
            parsed = parse_instance(path, config, {"max_degree": config.max_degree})
        corpus[name] = Instance(name, parsed.algebra, parsed.modules, *CORPUS[name])
    return corpus


def battery_pairs(corpus) -> list:
    """(instance, module name, module) for every battery-flagged module."""
    out = []
    for inst in corpus.values():
        for mname in inst.battery:
            out.append((inst, mname, inst.modules[mname]))
    return out
