"""Instance parsing, command dispatch, exit codes, report determinism."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dglift.algebra import AlgebraElement, DGAlgebra
from dglift.cli import main, parse_instance, ParseError
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import DSquaredNonzero, IllFormedPresentation
from dglift.modules import make_module
from dglift.obstruction import EnvelopingRouteTower
from dglift.scalars import RATIONALS

from conftest import DATA


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_parse_koszul_instance():
    cfg = EngineConfig(field=RATIONALS)
    inst = parse_instance(str(DATA / "koszul.dg"), cfg)
    assert inst.algebra.base.order == 2
    assert "N" in inst.modules
    assert inst.modules["N"].degrees == (0, 1)
    assert inst.algebra.config.max_degree == 8


def test_parse_rejects_d_squared():
    cfg = EngineConfig(field=RATIONALS)
    with pytest.raises(DSquaredNonzero) as exc:
        parse_instance(str(DATA / "bad_dsq.dg"), cfg)
    assert "e1" in str(exc.value)


def test_parse_rejects_bad_variable_degree():
    cfg = EngineConfig(field=RATIONALS)
    with pytest.raises(IllFormedPresentation) as exc:
        parse_instance(str(DATA / "bad_degree.dg"), cfg)
    assert "Z" in str(exc.value)


def test_parse_syntax_error_carries_line(tmp_path):
    p = tmp_path / "bad.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y 1 = 0\n")
    cfg = EngineConfig(field=RATIONALS)
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), cfg)
    assert exc.value.lineno == 4


@pytest.mark.parametrize("ring, code, message", [
    ("banana", 2, "syntax error: line 2: cannot parse base ring 'banana' "
                  "(expected k or k[a]/(a^m))"),
    ("k[a]/(a^x)", 2, "syntax error: line 2: cannot parse base ring 'k[a]/(a^x)' "
                      "(expected k or k[a]/(a^m))"),
    ("k[a]/(a^1)", 1, "invalid instance: base quotient order must be >= 2"),
    ("k[a]/(q^2)", 2, "syntax error: line 2: base ring 'k[a]/(q^2)' names 'a' in "
                      "brackets but raises 'q' to a power"),
    ("k[]/(^2)", 2, "syntax error: line 2: cannot parse base ring 'k[]/(^2)' "
                    "(expected k or k[a]/(a^m))"),
    ("k[a]/(a^+2)", 2, "syntax error: line 2: cannot parse base ring 'k[a]/(a^+2)' "
                       "(expected k or k[a]/(a^m))"),
    ("Q", 2, "syntax error: line 2: cannot parse base ring 'Q' (expected k or k[a]/(a^m))"),
    ("field", 2, "syntax error: line 2: cannot parse base ring 'field' "
                 "(expected k or k[a]/(a^m))"),
], ids=["no-form", "order-not-an-integer", "order-below-two", "names-differ",
        "no-name", "order-signed", "Q", "field"])
def test_a_bad_ring_line(tmp_path, ring, code, message):
    """A ring spec of neither form is a syntax error at its own line, and so
    is one whose bracket name is not the base of its power; a well-formed
    spec of order below 2 is a semantic error.  The field is named k only:
    the backend (--field) is not a property of the file."""
    p = tmp_path / "ring.dg"
    p.write_text(f"[base]\nring = {ring}\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\n")
    assert run_cli(["check", str(p)]) == (code, "", message + "\n")


def test_a_ring_line_may_space_its_name(tmp_path):
    p = tmp_path / "ring.dg"
    p.write_text("[base]\nring = k[ a ]/( a ^2)\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\n")
    assert parse_instance(str(p), EngineConfig(field=RATIONALS)).algebra.base.describe() \
        == "k[a]/(a^2)"
    assert run_cli(["check", str(p)])[0] == 0


def test_a_bad_variable_differential_is_a_syntax_error_at_its_line(tmp_path):
    p = tmp_path / "var.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar x : 1 = 0\nvar y : 1 = $\n"
                 "[module N]\ngen e0 : 0\n")
    assert run_cli(["check", str(p)]) == (
        2, "", "syntax error: line 5: d(y): unexpected character '$' in expression\n")


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--max-degree", "-3"),
    ("gamma", "--max-tensor", "-1"),
    ("battery", "--max-tensor", "-2"),
    ("check", "--max-degree", "x"),
    ("check", "--max-degree", "1_2"),
    ("battery", "--max-tensor", "+2"),
    ("hom", "--shift", "1_0"),
])
def test_a_negative_limit_flag_is_a_usage_error(command, flag, value):
    """A negative or non-integer limit is refused before any run, naming its
    flag; zero is accepted, and a run it cannot serve fails cleanly with
    CapExceeded.  An integer, --shift's too, is read as in an instance
    file: '1_2', '+2' and '1_0', which int() would take, are not integers."""
    code, out, err = run_cli([command, str(DATA / "two_step.dg"), f"{flag}={value}"])
    assert (code, out) == (2, "")
    why = (f"must be nonnegative, got {value}" if value.startswith("-")
           else f"invalid int value: {value!r}")
    assert err.endswith(f"error: argument {flag}: {why}\n")
    assert run_cli([command, str(DATA / "two_step.dg"), flag, "0"])[0] in (0, 1)


# Every valid module of tests/data, as (file, --module or None).
BATTERY_MODULES = [("cone_id.dg", None), ("free3.dg", None), ("koszul.dg", None),
                   ("mixed.dg", None), ("prefix.dg", "Min"), ("prefix.dg", "Mout"),
                   ("tate.dg", None), ("two_step.dg", None)]


@pytest.mark.parametrize("name, module", BATTERY_MODULES,
                         ids=[f"{n}:{m}" if m else n for n, m in BATTERY_MODULES])
def test_the_battery_reads_max_tensor_as_its_bound(name, module):
    """The battery's bound is the tensor cap: for each L from 1 to the
    file's max_tensor it reports bound L and gamma^0..gamma^L, and with a
    cap of 0 the first piece it needs, T^1, is refused."""
    args = ["battery", str(DATA / name), "--json"] + (["--module", module] if module else [])
    top = parse_instance(str(DATA / name), EngineConfig(field=RATIONALS)).algebra.config.max_tensor
    for L in range(1, top + 1):
        code, out, err = run_cli(args + ["--max-tensor", str(L)])
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["bound"] == L
        assert sorted(report["gamma"], key=int) == [str(n) for n in range(L + 1)]
    assert run_cli(args + ["--max-tensor", "0"]) == (
        1, "", "error: tensor degree 1 exceeds configured cap 0; raise the limit\n")


def test_max_tensor_is_the_only_depth_setting(tmp_path):
    """No second setting bounds the battery: lbound is neither a flag nor a
    [limits] key."""
    free3 = DATA / "free3.dg"
    code, out, err = run_cli(["battery", str(free3), "--lbound", "2"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --lbound 2\n")
    p = tmp_path / "lbound.dg"
    p.write_text(free3.read_text() + "lbound = 2\n")
    assert run_cli(["battery", str(p)]) == (
        2, "", "syntax error: line 14: unknown limit 'lbound'\n")


def test_a_malformed_field_spec_is_a_usage_error_that_names_it():
    assert run_cli(["check", str(DATA / "two_step.dg"), "--field", "Fp:7x"]) == \
        (2, "", "error: unknown field spec 'Fp:7x'\n")


def test_a_negative_sample_count_is_a_usage_error():
    """check --samples -3 draws nothing and must not report ok; zero samples
    is a valid request."""
    code, out, err = run_cli(["check", str(DATA / "two_step.dg"), "--samples", "-3", "--json"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --samples: must be nonnegative, got -3\n")
    code, out, _ = run_cli(["check", str(DATA / "two_step.dg"), "--samples", "0", "--json"])
    assert code == 0 and json.loads(out)["random_samples"] == 0


def test_an_unknown_hom_target_names_the_instance_file():
    path = str(DATA / "two_step.dg")
    assert run_cli(["hom", path, "--target", "nosuch"]) == (
        1, "", f"error: no module named 'nosuch' in {path}\n")


def test_a_negative_limit_line_is_a_syntax_error_at_its_line(tmp_path):
    p = tmp_path / "limits.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\n[limits]\nmax_degree = -3\n")
    assert run_cli(["check", str(p)]) == (
        2, "", "syntax error: line 8: max_degree must be nonnegative, got -3\n")


BASE = "[base]\nring = k\n"
ALG = BASE + "[algebra]\nvar y : 1 = 0\n"
MOD = ALG + "[module N]\ngen e0 : 0\ngen e1 : 2\n"


@pytest.mark.parametrize("lines, lineno, message", [
    (BASE + "[algebra]\nvar  : 1 = 0\n[module N]\ngen e0 : 0\n", 5,
     "variable name '' is not an identifier"),
    (BASE + "[algebra]\nvar y-1 : 1 = 0\n[module N]\ngen e0 : 0\n", 5,
     "variable name 'y-1' is not an identifier"),
    (ALG + "[module N]\ngen  : 0\n", 7, "generator name '' is not an identifier"),
    (ALG + "[modules N]\ngen e0 : 0\n", 6, "unknown section 'modules N'"),
    (ALG + "[moduleN]\ngen e0 : 0\n", 6, "unknown section 'moduleN'"),
    (ALG + "[module N 2]\ngen e0 : 0\n", 6, "module name 'N 2' is not an identifier"),
    ("ring = k\n" + ALG, 2, "content before any section header"),
    ("[base]\nring k\n", 3, "expected key = value"),
    (MOD + "[limits]\nmax_degree 6\n", 10, "expected key = value"),
    ("[base]\nrng = k\n", 3, "unknown base key 'rng'"),
    (ALG + "B = 0\n", 6, "unknown algebra key 'B'"),
    (MOD + "[limits]\nmax_deg = 6\n", 10, "unknown limit 'max_deg'"),
    (ALG + "[module]\n", 6, "module section needs a name"),
    (ALG + "A = x\n", 6, "A must be an integer prefix length"),
    (ALG + "y : 1\n", 6, "cannot parse algebra line 'y : 1'"),
    (MOD + "generator e2 : 4\n", 9, "cannot parse module line 'generator e2 : 4'"),
    (MOD + "gen e2 4\n", 9, "expected: gen NAME : DEGREE"),
    (MOD + "d e1 e0 * y\n", 9, "expected: d NAME = EXPR"),
    (MOD + "[limits]\nmax_degree = x\n", 10, "max_degree must be an integer"),
    (MOD + "d e9 = e0 * y\n", 9, "unknown generator 'e9'"),
    (MOD + "d e1 = 2 * e0\n", 9, "term must start with a generator, got '2'"),
    (MOD.replace("var y", "var z : 1 = 0\nvar y") + "d e1 = e0 * y * -z\n", 10,
     "bad coefficient expression: unexpected token '-'"),
    (MOD + "d e1 =\n", 9, "expected a term, found the end of the line"),
    (MOD + "d e1 = -\n", 9, "expected a term, found the end of the line"),
    (MOD + "d e1 = e0 * y +\n", 9, "expected a term, found the end of the line"),
    (MOD + "d e1 = (e0) * y\n", 9, "term must start with a generator, got '('"),
    (MOD + "d e1 = e0 y\n", 9, "expected '*' or a sign after 'e0', found 'y'"),
    (MOD + "d e1 = e0 * y (y)\n", 9, "bad coefficient expression: trailing input at '('"),
    (BASE + "[algebra]\nvar x : 2 = y\nvar y : 1 = 0\n[module N]\ngen e0 : 0\n", 5,
     "d(x): name 'y' not allowed here"),
    (BASE + "[algebra]\nvar y : 3 = y*z\nvar z : 1 = 0\n[module N]\ngen e0 : 0\n", 5,
     "d(y): name 'y' not allowed here"),
], ids=["var-unnamed", "var-not-identifier", "gen-unnamed", "modules-header",
        "module-unspaced", "module-two-words", "before-any-section", "base-no-equals",
        "limits-no-equals", "unknown-base-key", "unknown-algebra-key", "unknown-limit",
        "module-unnamed", "A-not-an-integer", "algebra-line", "module-line", "gen-line",
        "d-line", "limit-not-an-integer", "d-unknown-generator", "term-not-a-generator",
        "sign-after-a-coefficient-factor", "d-empty", "d-sign-only", "d-dangling-sign",
        "d-parenthesized-generator", "d-missing-star", "d-juxtaposed-coefficient",
        "var-d-later-variable", "var-d-itself-and-later"])
def test_a_malformed_name_or_header_is_a_syntax_error_at_its_line(tmp_path, lines, lineno,
                                                                   message):
    """Variable, generator and module names are identifiers, and a module
    header reads `module NAME`; anything else is refused at its line, as is
    every line that fits no form of its section."""
    p = tmp_path / "names.dg"
    p.write_text("# names\n" + lines)
    with pytest.raises(ParseError, match=f"^line {lineno}: ") as exc:
        parse_instance(str(p), EngineConfig(field=RATIONALS))
    assert (exc.value.lineno, str(exc.value)) == (lineno, f"line {lineno}: {message}")
    assert run_cli(["check", str(p)]) == (2, "", f"syntax error: line {lineno}: {message}\n")


HEAD = "[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module N]\ngen e0 : 0\n"


@pytest.mark.parametrize("text, lineno, message", [
    (HEAD + "gen e0 : 1\n", 7, "duplicate generator 'e0' in module 'N'"),
    (HEAD.replace("[module", "var y : 2 = 0\n[module"), 5, "duplicate variable 'y'"),
    (HEAD + "[algebra]\nvar y : 1 = 0\n", 8, "duplicate variable 'y'"),
    (HEAD.replace("[algebra]", "ring = k[a]/(a^2)\n[algebra]"), 3, "duplicate base key 'ring'"),
    (HEAD.replace("[module", "A = 0\nA = 1\n[module"), 6, "duplicate algebra key 'A'"),
    (HEAD + "[limits]\nmax_degree = 6\nmax_tensor = 2\nmax_degree = 8\n", 10,
     "duplicate limit 'max_degree'"),
    (HEAD + "[limits]\nmax_tensor = 2\n[limits]\nmax_tensor = 3\n", 10,
     "duplicate limit 'max_tensor'"),
    (HEAD + "[module N]\ngen f0 : 0\n", 7, "duplicate module 'N'"),
    (HEAD.replace("[module", "A = 5\n[module"), 5,
     "A must lie in 0..1, the number of variables, got 5"),
    (HEAD.replace("[module", "A = -1\n[module"), 5,
     "A must lie in 0..1, the number of variables, got -1"),
], ids=["generator", "variable", "variable-second-section", "ring", "A", "limit",
        "limit-second-section", "module", "A-beyond-the-variables", "A-negative"])
def test_a_repeated_name_or_key_is_a_syntax_error_at_its_line(tmp_path, text, lineno, message):
    """A name or key given twice is refused at the second, named, instead of
    overriding the first or failing in the engine with no line; so is an A
    prefix longer than the variables or negative, at its own line."""
    p = tmp_path / "twice.dg"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), EngineConfig(field=RATIONALS))
    assert (exc.value.lineno, str(exc.value)) == (lineno, f"line {lineno}: {message}")
    assert run_cli(["check", str(p)]) == (2, "", f"syntax error: line {lineno}: {message}\n")


def test_several_d_lines_of_one_generator_add_up(tmp_path):
    p = tmp_path / "sum.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module N]\n"
                 "gen e0 : 0\ngen e1 : 2\nd e1 = e0 * y\nd e1 = e0 * y\n")
    M = parse_instance(str(p), EngineConfig(field=RATIONALS)).modules["N"]
    assert M.diff == {(0, 1): M.algebra.gen("y").scale(2)}


def test_a_sign_after_star_belongs_to_the_coefficient(tmp_path):
    """e0 * -y reads as -(e0 y), the same differential as - e0 * y."""
    diffs = []
    for line in ("d e1 = e0 * -y", "d e1 = - e0 * y"):
        p = tmp_path / "sign.dg"
        p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module N]\n"
                     f"gen e0 : 0\ngen e1 : 2\n{line}\n")
        M = parse_instance(str(p), EngineConfig(field=RATIONALS)).modules["N"]
        diffs.append({key: el.terms for key, el in M.diff.items()})
    assert diffs[0] == diffs[1] == {(0, 1): M.algebra.gen("y").neg().terms}


@pytest.mark.parametrize("line, want", [
    ("d e1 = e0 * x + f0 * y", lambda x, y: {("e0", "e1"): x, ("f0", "e1"): y}),
    ("d e1 = e0 * (x + y) - f0 * y", lambda x, y: {("e0", "e1"): x + y, ("f0", "e1"): y.neg()}),
    ("d e1 = e0 * (x - y)", lambda x, y: {("e0", "e1"): x - y}),
    ("d e1 = e0*x+f0*y", lambda x, y: {("e0", "e1"): x, ("f0", "e1"): y}),
    ("d e1 = e0 * x - e0 * x", lambda x, y: {}),
    ("d e1 = 0", lambda x, y: {}),
], ids=["sum", "parenthesized-sum", "parenthesized-difference", "no-spaces", "cancelling",
        "zero"])
def test_a_module_differential_of_several_terms(tmp_path, line, want):
    """The parser splits a differential at its top-level signs only (not
    inside parentheses), skips a "0" term and drops a sum that cancels: its
    module equals the one make_module builds from the same coefficients."""
    p = tmp_path / "terms.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar x : 1 = 0\nvar y : 1 = 0\n"
                 f"[module N]\ngen e0 : 0\ngen f0 : 0\ngen e1 : 2\n{line}\n")
    M = parse_instance(str(p), EngineConfig(field=RATIONALS)).modules["N"]
    alg = M.algebra
    ref = make_module(alg, [("e0", 0), ("f0", 0), ("e1", 2)], want(alg.gen("x"), alg.gen("y")))
    assert {k: el.terms for k, el in M.diff.items()} == \
        {k: el.terms for k, el in ref.diff.items()}


def test_run_corpus_rejects_a_bad_field_like_the_cli():
    proc = subprocess.run(
        [sys.executable, str(DATA.parent.parent / "scripts" / "run_corpus.py"),
         "--field", "Fp:4"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: 4 is not prime\n")
    assert run_cli(["check", str(DATA / "free3.dg"), "--field", "Fp:4"]) == \
        (2, "", "error: 4 is not prime\n")


def test_run_corpus_runs_without_pythonpath(tmp_path):
    """run_corpus.py puts the checkout's src on its own path, as rungs.py
    and report_digests.py do, so it runs with PYTHONPATH unset from any
    directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(DATA.parent.parent / "scripts" / "run_corpus.py"), "--json"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"]


SIGN = {True: "+", False: "-", None: "?"}


@pytest.mark.parametrize("field", ["Q", "Fp"])
def test_run_corpus_prints_the_json_verdicts_as_a_table(field):
    """The text table holds one row per corpus module, in the order of the
    --json rows, whose +, - and ? signs are the --json AR1, AR2, verdicts
    and kernel-sequence result, and a footer naming the backend."""
    def run(*flags):
        proc = subprocess.run(
            [sys.executable, str(DATA.parent.parent / "scripts" / "run_corpus.py"),
             "--field", field, *flags], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout

    report = json.loads(run("--json"))
    head, rule, *lines = run().splitlines()
    conditions = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]
    assert head.split() == ["instance", "AR1", "AR2", *conditions]
    assert set(rule) == {"-"} and len(rule) == len(head)
    *rows, blank, footer = lines
    assert blank == "" and len(rows) == len(report["rows"]) == 18
    assert re.fullmatch(rf"18 modules, backend {re.escape(report['backend'])}, \d+\.\d\ds",
                        footer), footer
    for text, row in zip(rows, report["rows"]):
        want = [row["instance"], SIGN[row["AR1"]], SIGN[row["AR2"]],
                *(SIGN[row["verdicts"][c]] for c in conditions)]
        if "kernel_sequence_ok" in row:
            want.append("ks=" + SIGN[row["kernel_sequence_ok"]])
        assert text.split() == want


def test_battery_exit_codes_and_verdicts():
    code, out, _ = run_cli(["battery", str(DATA / "two_step.dg"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["i"] is False
    assert report["verdicts"]["ii"] is False
    assert report["AR1"]["holds"] is False
    assert report["splitting_iff_omega_zero"] is True


def test_battery_on_a_generator_of_negative_degree(tmp_path):
    """B shifted to degree -1 splits strictly, so the battery tries the
    summand witness, whose descent cannot reach a negative degree: it
    reports ix false with the reason instead of a traceback."""
    p = tmp_path / "negative.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module N]\ngen e0 : -1\n")
    code, out, err = run_cli(["battery", str(p), "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdicts"]["ix"] is False
    assert "e0(x)1 of negative degree -1" in report["notes"]["ix"]


def test_a_carrier_cap_error_names_the_carrier():
    assert run_cli(["gamma", str(DATA / "mixed.dg"), "--max-degree", "1"]) == (
        1, "", "error: SemifreeCarrier([e0:0, e1:2] (x)_B AlgebraCarrier): DG degree 2 "
               "exceeds configured cap 1; raise the limit\n")


def test_omega_command_on_free():
    code, out, _ = run_cli(["omega", str(DATA / "free3.dg"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["omega_zero"] is True
    assert report["witness"] == "stored"
    assert report["construction_routes_agree"] is True


def test_omega_reports_routes_that_disagree(monkeypatch):
    """With the enveloping route's core doubled, its tower no longer equals
    the direct one entrywise: omega says so and exits 1."""
    honest = EnvelopingRouteTower.core_matrix
    monkeypatch.setattr(EnvelopingRouteTower, "core_matrix", lambda self, d: honest(
        self, d).scale(self.N.algebra.field.from_int(2)))
    code, out, _ = run_cli(["omega", str(DATA / "two_step.dg"), "--json"])
    assert (code, json.loads(out)["construction_routes_agree"]) == (1, False)


def test_python_m_dglift_is_the_cli():
    """python -m dglift runs cli.main: the same report, byte for byte, and
    the same exit code."""
    args = ["check", str(DATA / "two_step.dg"), "--json"]
    env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "dglift", *args],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(args)


def test_hom_command_negative_shift():
    code, out, _ = run_cli(["hom", str(DATA / "koszul.dg"), "--shift=-1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] >= 1


def test_gamma_command():
    code, out, _ = run_cli(["gamma", str(DATA / "two_step.dg"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["dims"]["-1"] == 0
    assert report["dims"]["0"] == report["end_dim"] == 1
    assert report["dims"]["1"] == 1


def test_check_command_ok():
    code, out, _ = run_cli(["check", str(DATA / "tate.dg"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["identity_failures"] == []


def unsigned_mono_mul(alg, u, v, signed=DGAlgebra.mono_mul):
    """mono_mul with its Koszul sign dropped."""
    _, w = signed(alg, u, v)
    return (0 if w is None else 1), w


def unbalanced_in_degree_one(diag, d, honest=Diagonal.check_basic_sequence):
    """check_basic_sequence reporting degree 1 alone as unbalanced."""
    return {**honest(diag, d), "balanced": d != 1}


@pytest.mark.parametrize("owner, name, fake, failures", [
    # d = id: d(dx) = x and d(xy) = xy against dx y +- x dy = (1 +- 1) xy
    (AlgebraElement, "differentiate", lambda self: self, ["d_squared", "leibniz"]),
    # two odd variables that commute, so yu = uy and not -uy
    (DGAlgebra, "mono_mul", unsigned_mono_mul, ["graded_commutativity"]),
    # dim J_1 + dim B_1 != dim (B^e)_1
    (Diagonal, "check_basic_sequence", unbalanced_in_degree_one, ["diagonal_balance"]),
], ids=["identity-differential", "unsigned-product", "unbalanced-diagonal"])
def test_check_names_each_identity_that_fails(monkeypatch, owner, name, fake, failures):
    """Broken after the file is read, the algebra fails exactly the
    identities that the break violates, and check reports them and exits 1."""
    import dglift.cli as cli
    honest = cli.parse_instance

    def parse_then_break(*args):
        inst = honest(*args)
        monkeypatch.setattr(owner, name, fake)
        return inst

    monkeypatch.setattr(cli, "parse_instance", parse_then_break)
    code, out, _ = run_cli(["check", str(DATA / "prefix.dg"), "--json"])
    report = json.loads(out)
    assert (code, report["ok"], report["identity_failures"]) == (1, False, failures)


def test_appendix_command():
    code, out, _ = run_cli(["appendix", str(DATA / "koszul.dg"), "--json"])
    # the Koszul instance is the counterexample: no vanishing claim applies,
    # so the command reports ok (nothing violated) with the dims recorded
    report = json.loads(out)
    entry = report["results"][0]
    assert entry["negative_self_hom"]["-1"] >= 1
    assert code == 0


def test_semantic_failure_exit_one():
    code, out, err = run_cli(["check", str(DATA / "bad_dsq.dg")])
    assert code == 1
    assert "e1" in err


def test_usage_errors_exit_two(tmp_path):
    code, _, _ = run_cli(["battery", str(tmp_path / "missing.dg")])
    assert code == 2
    p = tmp_path / "syntax.dg"
    p.write_text("[nonsense]\n")
    code, _, err = run_cli(["check", str(p)])
    assert code == 2
    assert "line 1" in err
    code, _, _ = run_cli(["battery", str(DATA / "two_step.dg"), "--field=R"])
    assert code == 2


def test_a_path_that_cannot_be_read_is_a_usage_error(tmp_path):
    """A directory is no instance file: exit 2, naming the path and why."""
    code, out, err = run_cli(["check", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(tmp_path)!r}: ")


def test_a_byte_that_is_not_utf8_is_a_syntax_error_on_its_line(tmp_path):
    """Lines are counted at universal newlines, a lone CR among them."""
    p = tmp_path / "latin1.dg"
    p.write_bytes(b"[base]\r\nring = k\r# caf\xe9\n[algebra]\n")
    assert run_cli(["check", str(p)]) == \
        (2, "", "syntax error: line 3: byte 0xe9 is not UTF-8 text\n")


def test_an_instance_file_is_utf8_on_every_locale(tmp_path):
    """Under the C locale with no UTF-8 mode, a UTF-8 comment and a name
    outside ASCII read as on a UTF-8 locale: the same report, byte for byte."""
    p = tmp_path / "utf8.dg"
    p.write_text("[base]\nring = k  # café\n[algebra]\nvar y² : 1 = 0\n"
                 "[module M]\ngen e : 0\n", encoding="utf-8")
    args = ["check", str(p), "--json"]
    env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src"), "LC_ALL": "C",
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-m", "dglift", *args],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(args)
    assert proc.returncode == 0


def test_a_text_report_escapes_what_stdout_cannot_encode(tmp_path):
    """On an ASCII stdout the text report escapes a name outside ASCII, as
    the messages on stderr do, and exits 0; the JSON report is unchanged."""
    p = tmp_path / "utf8.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y² : 1 = 0\n"
                 "[module M]\ngen e : 0\n", encoding="utf-8")

    def on_ascii_stdout(args):
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="ascii")
        with redirect_stdout(out):
            code = main(args)
        out.flush()
        return code, raw.getvalue().decode("ascii")

    text, wide = on_ascii_stdout(["check", str(p)]), run_cli(["check", str(p)])
    assert "k<y²:1>" in wide[1]
    assert text == (0, wide[1].replace("²", "\\xb2"))
    args = ["check", str(p), "--json"]
    assert on_ascii_stdout(args) == run_cli(args)[:2]


def test_reports_are_deterministic():
    runs = [run_cli(["battery", str(DATA / "two_step.dg"), "--json"])[1]
            for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli(["gamma", str(DATA / "koszul.dg"), "--json"])[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_backend_flag_changes_backend_only():
    q = json.loads(run_cli(["gamma", str(DATA / "two_step.dg"), "--json"])[1])
    p = json.loads(run_cli(["gamma", str(DATA / "two_step.dg"), "--json",
                            "--field=Fp"])[1])
    assert q["dims"] == p["dims"]
    assert q["backend"] != p["backend"]


def test_prefix_instance_two_modules():
    code, out, _ = run_cli(["battery", str(DATA / "prefix.dg"), "--json",
                            "--module", "Min"])
    assert code == 0
    assert json.loads(out)["verdicts"]["i"] is True
    code, out, _ = run_cli(["battery", str(DATA / "prefix.dg"), "--json",
                            "--module", "Mout"])
    assert code == 0
    assert json.loads(out)["verdicts"]["i"] is False
    # several modules and no --module is a usage-level error surfaced as 1
    code, _, err = run_cli(["battery", str(DATA / "prefix.dg")])
    assert code == 1 and "module" in err


@pytest.mark.parametrize("command", ["battery", "hom", "omega", "gamma"])
def test_an_instance_with_no_module_says_so(tmp_path, command):
    """A file with no [module ...] section is refused by every command that
    reads a module, with exit 1 and a message naming what is missing, not
    the one for several modules."""
    p = tmp_path / "nomodule.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n")
    assert run_cli([command, str(p)]) == (1, "", f"error: instance {p} declares no module\n")


def test_flag_overrides_file_limits():
    code, out, _ = run_cli(["gamma", str(DATA / "mixed.dg"), "--json",
                            "--max-tensor", "2"])
    assert code == 0
    dims = json.loads(out)["dims"]
    assert "2" in dims and "4" not in dims


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dglift", "check", str(DATA / "free3.dg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok = True" in proc.stdout
