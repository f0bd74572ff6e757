"""Corpus construction, frozen verdicts, and cap discipline."""

import io
import json
from contextlib import redirect_stdout

import pytest

from dglift import cli
from dglift.config import EngineConfig
from dglift.errors import CapExceeded
from dglift.homotopy import HomSpace
from dglift.instances import CORPUS, CORPUS_DIR, battery_pairs, build_corpus
from dglift.liftcheck import naive_lift_battery
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS, field_from_spec


def test_corpus_builds_under_both_backends():
    for field in (RATIONALS, PrimeField(DEFAULT_PRIME)):
        corpus = build_corpus(EngineConfig(field=field, max_degree=8))
        assert set(corpus) == {"exterior", "koszul", "tate", "tate2", "prefix", "mixed"}
        assert len(battery_pairs(corpus)) >= 8


def test_prefix_instance_verdicts():
    corpus = build_corpus(EngineConfig(field=RATIONALS, max_degree=8))
    inst = corpus["prefix"]
    r_in = naive_lift_battery(inst.modules["M_in"], inst.diag, name="M_in")
    r_out = naive_lift_battery(inst.modules["M_out"], inst.diag, name="M_out")
    # the A-valued differential entry lifts, the outside entry does not
    assert r_in.verdicts["i"] is True and r_in.verdicts["ii"] is True
    assert r_out.verdicts["i"] is False and r_out.verdicts["ii"] is False
    assert r_in.lemma_free_equivalence and r_out.lemma_free_equivalence


def test_tate_module_liftable_without_summand_status():
    # liftable over the trivial-extension-like setting, but (ix) cannot be
    # decided without the verified vanishing hypotheses
    corpus = build_corpus(EngineConfig(field=RATIONALS, max_degree=8))
    inst = corpus["koszul"]
    r = naive_lift_battery(inst.modules["K"], inst.diag, name="K")
    assert r.verdicts["i"] is True
    assert r.verdicts["ix"] is None
    assert not r.ar1.holds


def test_cap_exceeded_is_loud():
    corpus = build_corpus(EngineConfig(field=RATIONALS, max_degree=3))
    inst = corpus["exterior"]
    M = inst.modules["three_step"]  # top generator degree 4 > cap 3
    with pytest.raises(CapExceeded):
        HomSpace(M, M, 0).dim_K


def max_degrees(config=None) -> dict:
    corpus = build_corpus() if config is None else build_corpus(config)
    return {name: inst.algebra.config.max_degree for name, inst in corpus.items()}


def test_a_corpus_file_caps_max_degree_and_the_config_may_only_lower_it():
    caps = {"exterior": 12, "koszul": 8, "tate": 8, "tate2": 6, "prefix": 8, "mixed": 6}
    assert max_degrees() == caps
    assert max_degrees(EngineConfig(max_degree=8)) == {n: min(c, 8) for n, c in caps.items()}
    assert max_degrees(EngineConfig(max_degree=3)) == dict.fromkeys(caps, 3)
    # the files set no max_tensor, so the caller's stands
    for inst in build_corpus(EngineConfig(max_tensor=2)).values():
        assert inst.algebra.config.max_tensor == 2


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_the_cli_on_a_corpus_file_reports_the_library_battery(backend):
    """`dglift battery corpus/<name>.dg --module m --json` is the battery
    the library runs on the built corpus, for every battery pair."""
    corpus = build_corpus(EngineConfig(field=field_from_spec(backend)))
    pairs = battery_pairs(corpus)
    assert len(pairs) == sum(len(battery) for battery, _ in CORPUS.values()) == 18
    for inst, mname, M in pairs:
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["battery", str(CORPUS_DIR / f"{inst.name}.dg"), "--module", mname,
                      "--field", backend, "--json"])
        report = json.loads(out.getvalue())
        for key in ("command", "instance", "backend"):
            del report[key]
        assert report == naive_lift_battery(M, inst.diag, name=mname).to_dict(), \
            f"{inst.name}/{mname}"
