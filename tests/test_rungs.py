"""scripts/rungs.py runs a rung in a process of its own and prints one JSON
object per rung and field.  Only the shape of that output is checked here:
the rungs exist to measure, and no time or memory is bounded.  Their inputs
are the instance files in scripts/rung_inputs/, which the CLI reads too."""

import importlib.util
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dglift import cli
from dglift.config import EngineConfig
from dglift.scalars import field_from_spec

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ROOT / "scripts" / "rungs.py"
INPUTS = ROOT / "scripts" / "rung_inputs"
# the modules that the rungs read from each file
RUNG_MODULES = {"ext5": ["len5", "len6", "len7"], "ext6": ["len5"],
                "tate_ext4": ["len5"], "tate_ext5": ["len5"]}
CONE_EXT5_LEN5_SHA256 = "76ba248317f9042f24e748866693e8161bd9dadbc9733ba667d3f3080a815831"
LADDER_EXT5_D12_SHA256 = "c9d27912d7554eacc5cd8bea112770b020a567a034893de809eb72dc7477f388"
TATE_EXT4_LEN5_SHA256 = "e4f942a2e72d535e00ad9e9f775211af93805c4fdd57e7b69c7ae245cca19b16"


def run(*args):
    return subprocess.run([sys.executable, str(RUNGS), *args], capture_output=True,
                          text=True, cwd=ROOT)


def test_the_smallest_rung_prints_one_measured_json_line_per_field():
    names = run("--list").stdout.split()
    assert "cone_ext5_len5" in names and len(names) == len(set(names)) == 11
    proc = run("cone_ext5_len5")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["rung"], r["field"]) for r in lines] == [("cone_ext5_len5", "Q"),
                                                         ("cone_ext5_len5", "Fp")]
    for r in lines:
        assert set(r) == {"rung", "field", "cpu_s", "peak_rss_mb", "sha256"}
        assert isinstance(r["cpu_s"], float) and r["cpu_s"] >= 0
        assert isinstance(r["peak_rss_mb"], float) and r["peak_rss_mb"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", r["sha256"])
    # the battery over the 5-generator exterior algebra, which no digest line
    # covers, gives one result on both fields
    assert {r["sha256"] for r in lines} == {CONE_EXT5_LEN5_SHA256}


def test_the_tensor_ladder_rung_keeps_its_digest():
    """dim, labels and diff of T^n over the 5-generator exterior algebra in
    every degree up to 12, n = 1..4, on Q: J and every T^n past the degree
    7 that the tensor-ladder benchmark stops at."""
    proc = run("--field", "Q", "ladder_ext5_d12")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["sha256"] == LADDER_EXT5_D12_SHA256


def test_the_tate_rung_keeps_its_digest_on_both_fields():
    """The battery on a chain over k[q]/(q^2) with four odd X_i, d X_i = q:
    a rung whose algebra has a nonzero differential.  Its chain is its own
    minimal model, and both fields give one result."""
    proc = run("tate_ext4_len5")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["field"] for r in lines] == ["Q", "Fp"]
    assert {r["sha256"] for r in lines} == {TATE_EXT4_LEN5_SHA256}


def test_an_unknown_rung_is_a_usage_error():
    proc = run("no_such_rung")
    assert proc.returncode == 2 and "unknown rung 'no_such_rung'" in proc.stderr


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_every_rung_file_parses_and_holds_the_modules_the_rungs_read(backend):
    assert sorted(p.stem for p in INPUTS.glob("*.dg")) == sorted(RUNG_MODULES)
    config = EngineConfig(field=field_from_spec(backend))
    for name, modules in RUNG_MODULES.items():
        inst = cli.parse_instance(str(INPUTS / f"{name}.dg"), config)
        assert list(inst.modules) == modules, name


def test_the_cli_on_a_rung_file_reports_the_rung():
    """`dglift battery ext5.dg --module len5 --json` is the report of the
    chain_ext5_len5 rung, which names its module "rung"."""
    spec = importlib.util.spec_from_file_location("rungs", RUNGS)
    rungs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rungs)
    rung, _ = rungs.RUNGS["chain_ext5_len5"]
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["battery", str(INPUTS / "ext5.dg"), "--module", "len5", "--json"])
    report = json.loads(out.getvalue())
    assert report.pop("module") == "len5"
    for key in ("command", "instance", "backend"):
        del report[key]
    want = rung("Q").to_dict()
    assert want.pop("module") == "rung"
    assert report == want
