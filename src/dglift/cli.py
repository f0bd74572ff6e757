"""Command-line interface: instance files, dispatch, and reports.

Instance files are line-oriented and sectioned:

    [base]
    ring = k              # or k[a]/(a^2)
    [algebra]
    A = 0                 # number of leading variables in the subalgebra
    var y : 1 = 0         # name : degree = differential expression
    [module N]
    gen e0 : 0
    gen e1 : 2
    d e1 = e0 * y
    [limits]
    max_degree = 12
    max_tensor = 4

A variable, generator, module or base generator is named by one name token
of the expression grammar (algebra.is_name).  An integer, in the file and
as a flag, is written as the grammar writes one: an optional '-' and a run
of decimal digits (_read_int); limits are nonnegative.

Commands: check, hom, omega, battery, gamma, appendix.  Exit code 0 on
all-pass, 1 on any property violation, 2 on usage or syntax errors.
Machine reports (--json) are canonical: sorted keys, no volatile data.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import suppress
from functools import cache
from typing import NamedTuple

from .algebra import (AlgebraElement, BaseRing, DGAlgebra, _signed_term, _Tokens,
                      build_algebra, is_name)
from .config import EngineConfig
from .diagonal import Diagonal
from .errors import BadExpression, DGLiftError
from .homotopy import HomSpace
from .liftcheck import appendix_battery, naive_lift_battery
from .modules import SemifreeModule, make_module
from .obstruction import (EnvelopingRouteTower, ObstructionTower, gamma_dim,
                          omega_is_zero, towers_agree)
from .scalars import field_from_spec


class ParseError(DGLiftError):
    def __init__(self, lineno, msg):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {msg}")


class InstanceFile(NamedTuple):
    """Parsed and validated instance: algebra and named modules."""

    algebra: DGAlgebra
    modules: dict
    path: str


# The sections other than [module NAME], each with what a message calls
# one of its keys and the keys of its key = value lines.
_KEYS = {"base": ("base key", ("ring",)), "algebra": ("algebra key", ("A",)),
         "limits": ("limit", ("max_degree", "max_tensor"))}
# The lines of each section that start with a word, by that word: the
# usage is the form, the word and then fields, and the line is split at
# the separators between the fields in turn, read off the usage here once.
_FORMS = {section: {word: (usage, usage.split()[2::2]) for word, usage in forms.items()}
          for section, forms in {
              "algebra": {"var": "var NAME : DEGREE = EXPR"},
              "module": {"gen": "gen NAME : DEGREE", "d": "d NAME = EXPR"}}.items()}


def parse_instance(path: str, config: EngineConfig,
                   flag_limits: dict | None = None) -> InstanceFile:
    """Read and validate an instance file.  Each line form is read by one
    reader: section headers, key = value lines (_KEYS), and the forms that
    start with a word (_FORMS), whose NAME : DEGREE heads are read alike.
    A declared name, of a variable, generator, module or base generator,
    must be one name token of the expression grammar (is_name), so that
    every name the file declares can be written in its expressions.

    The file is UTF-8 text on every locale, its lines split at universal
    newlines; a byte that is not UTF-8 is a ParseError on its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()

    section = mname = None
    values = {}               # key -> (value, lineno)
    variables = []            # (name, degree, diff expr, lineno)
    module_lines = {}         # name -> ([(gen, degree)], [(gen, expr, lineno)])
    seen = set()              # every name and key given so far

    for lineno, raw in enumerate(lines, 1):
        try:
            raw.encode()
        except UnicodeEncodeError as exc:  # a byte surrogateescape kept as U+DC80..U+DCFF
            raise ParseError(lineno, f"byte {ord(raw[exc.start]) - 0xDC00:#04x} is not "
                                     "UTF-8 text") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section.split()[:1] == ["module"]:
                mname = section[len("module"):].strip()
                if not mname:
                    raise ParseError(lineno, "module section needs a name")
                _declare(seen, "module", mname, lineno)
                module_lines[mname] = ([], [])
                section = "module"
            elif section not in _KEYS:
                raise ParseError(lineno, f"unknown section {section!r}")
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        forms = _FORMS.get(section, {})
        word, space, body = line.partition(" ")
        if space and word in forms:
            usage, seps = forms[word]
            fields = _fields(body, usage, seps, lineno)
            if word == "d":
                module_lines[mname][1].append((*fields, lineno))
                continue
            # the NAME : DEGREE head of a var or gen line
            name, degree, *expr = fields
            degree = _integer(degree, lineno, f"expected: {usage}")
            if word == "var":
                _declare(seen, "variable", name, lineno)
                variables.append((name, degree, *expr, lineno))
            else:
                _declare(seen, "generator", name, lineno, f" in module {mname!r}")
                module_lines[mname][0].append((name, degree))
        elif section in _KEYS and ("=" in line or not forms):
            what, keys = _KEYS[section]
            key, eq, text = (s.strip() for s in line.partition("="))
            if not eq:
                raise ParseError(lineno, "expected key = value")
            if key not in keys:
                raise ParseError(lineno, f"unknown {what} {key!r}")
            _once(seen, f"{what} {key!r}", lineno)  # a listed key is a name
            if key == "ring":
                value = _parse_ring(text, lineno)
            elif key == "A":  # its range waits for the number of variables
                value = _integer(text, lineno, "A must be an integer prefix length")
            elif (value := _integer(text, lineno, f"{key} must be an integer")) < 0:
                raise ParseError(lineno, f"{key} must be nonnegative, got {value}")
            values[key] = value, lineno
        else:
            raise ParseError(lineno, f"cannot parse {section} line {line!r}")

    # explicit command-line limits take precedence over the file's block
    given = {key: value for key, (value, _) in values.items()} | {
        key: value for key, value in (flag_limits or {}).items() if value is not None}
    a_prefix = given.get("A", 0)
    if not 0 <= a_prefix <= len(variables):
        raise ParseError(values["A"][1], f"A must lie in 0..{len(variables)}, the "
                                         f"number of variables, got {a_prefix}")
    cfg = config.with_limits(max_degree=given.get("max_degree"),
                             max_tensor=given.get("max_tensor"))
    try:
        algebra = build_algebra(given.get("ring", BaseRing()),
                                [v[:3] for v in variables], a_prefix, cfg)
    except BadExpression as exc:
        raise ParseError(variables[exc.index][3], str(exc))

    modules = {}
    for mname, (gens, diff_lines) in module_lines.items():
        gen_names = [g for g, _ in gens]
        diff = {}
        for gname, expr, lineno in diff_lines:
            if gname not in gen_names:
                raise ParseError(lineno, f"unknown generator {gname!r}")
            for mu, el in _parse_module_expr(algebra, gen_names, expr, lineno).items():
                key = (mu, gname)
                diff[key] = diff[key] + el if key in diff else el
        modules[mname] = make_module(algebra, gens, diff)
    return InstanceFile(algebra, modules, path)


def _fields(text: str, usage: str, seps: list, lineno: int) -> list:
    """The fields of a line of the given usage after its word: text split
    at each of the usage's separators seps in turn, and stripped.  A
    missing separator refuses the line with its usage."""
    fields = []
    for sep in seps:
        field, found, text = text.partition(sep)
        if not found:
            raise ParseError(lineno, f"expected: {usage}")
        fields.append(field.strip())
    fields.append(text.strip())
    return fields


def _declare(seen: set, kind: str, name: str, lineno: int, where: str = "") -> None:
    """A variable, generator or module given at line lineno must be a name
    (is_name), and is given once (_once)."""
    if not is_name(name):
        raise ParseError(lineno, f"{kind} name {name!r} is not an identifier")
    _once(seen, f"{kind} {name!r}{where}", lineno)


def _once(seen: set, what: str, lineno: int) -> None:
    """A name or key given twice is refused at the second, not overridden or
    left to an engine error that names neither."""
    if what in seen:
        raise ParseError(lineno, f"duplicate {what}")
    seen.add(what)


def _read_int(text: str) -> int:
    """An integer as the expression grammar writes one: an optional '-' and
    a run of str.isdecimal() digits.  int() alone would also take '+2',
    '1_0' and surrounding spaces; those raise ValueError here."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _integer(text: str, lineno: int, message: str) -> int:
    """A degree, A or a limit: text as an integer (_read_int), or else a
    syntax error at line lineno with the message."""
    try:
        return _read_int(text)
    except ValueError:
        raise ParseError(lineno, message)


def _parse_ring(spec: str, lineno: int) -> BaseRing:
    """The base ring of the `ring =` line lineno: k, or k[a]/(a^m), the name
    in brackets a name (is_name) and the base of the power, and m an integer
    (_read_int).  A spec of neither form is a ParseError; an order below 2
    is BaseRing's semantic error."""
    if spec == "k":
        return BaseRing()
    if spec.startswith("k[") and "]/(" in spec and spec.endswith(")"):
        name, _, power = spec[2:-1].partition("]/(")
        base, _, m = power.partition("^")
        name, base = name.strip(), base.strip()
        if is_name(name):
            if base != name:
                raise ParseError(lineno, f"base ring {spec!r} names {name!r} in "
                                         f"brackets but raises {base!r} to a power")
            with suppress(ValueError):
                return BaseRing(name, _read_int(m.strip()))
    raise ParseError(lineno, f"cannot parse base ring {spec!r} (expected k or k[a]/(a^m))")


def _parse_module_expr(algebra, gen_names, expr: str, lineno: int) -> dict:
    """The right-hand side of a d line, signed terms GEN [* coefficient] or
    0, -> {gen name: coefficient}: signs in a row multiply, and a coefficient
    is the algebra grammar's signed term (e0 * -y is -(e0 y)), whose errors
    are a bad coefficient expression."""
    out, ends, negative = {}, (None, "+", "-"), False
    try:
        toks = _Tokens(expr)
        while True:
            kind, head = toks.take()
            if kind in ("+", "-"):
                negative ^= kind == "-"
                continue
            if kind is None:
                raise ParseError(lineno, "expected a term, found the end of the line")
            if (kind, head) == ("int", "0") and toks.peek()[0] in ends:
                el = None  # a 0 term adds nothing
            elif kind != "name" or head not in gen_names:
                raise ParseError(lineno, f"term must start with a generator, got {head!r}")
            elif toks.peek()[0] != "*":
                el = algebra.one()
            else:
                toks.take()
                el = _signed_term(algebra, set(algebra.var_names), toks)
                if toks.peek()[0] not in ends:
                    raise ValueError(f"trailing input at {toks.peek()[1]!r}")
            after, text = toks.peek()
            if after not in ends:
                raise ParseError(lineno, f"expected '*' or a sign after {head!r}, "
                                         f"found {text!r}")
            if el is not None:
                el = el.neg() if negative else el
                out[head] = out[head] + el if head in out else el
            if after is None:
                return {g: el for g, el in out.items() if not el.is_zero()}
            negative = False
    except ValueError as exc:
        raise ParseError(lineno, f"bad coefficient expression: {exc}")


# ----- reports ---------------------------------------------------------------


def emit(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj, key=str):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]} = {obj}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _module_arg(inst: InstanceFile, name: str | None) -> tuple[str, SemifreeModule]:
    if name is None:
        if not inst.modules:
            raise DGLiftError(f"instance {inst.path} declares no module")
        if len(inst.modules) != 1:
            raise DGLiftError("instance has several modules; pass --module")
        name = next(iter(inst.modules))
    if name not in inst.modules:
        raise DGLiftError(f"no module named {name!r} in {inst.path}")
    return name, inst.modules[name]


def cmd_check(inst: InstanceFile, args) -> tuple[dict, bool]:
    alg = inst.algebra
    rng = random.Random(20240901)
    samples = args.samples
    failures = []
    window = min(alg.config.max_degree, 6)

    def random_element(max_deg):
        """An element of a random degree up to max_deg, each monomial's
        coefficient drawn from -3..3 (a zero drops it)."""
        d = rng.randint(0, max_deg)
        return AlgebraElement(alg, {u: alg.field.from_int(rng.randint(-3, 3))
                                    for u in alg.monomials(d)}), d

    for _ in range(samples):
        x, dx = random_element(window)
        y, dy = random_element(window - dx if window > dx else 0)
        # each identity by equality of its two sides: terms are canonical
        x_diff = x.differentiate()
        if not x_diff.differentiate().is_zero():
            failures.append("d_squared")
        xy, yx = x * y, y * x
        if xy != (yx.neg() if dx * dy % 2 else yx):
            failures.append("graded_commutativity")
        x_ydiff = x * y.differentiate()
        if xy.differentiate() != x_diff * y + (x_ydiff.neg() if dx % 2 else x_ydiff):
            failures.append("leibniz")
    diag = Diagonal(alg)
    shallow = min(alg.config.max_degree, 4)
    if not all(diag.check_basic_sequence(d)["balanced"] for d in range(shallow + 1)):
        failures.append("diagonal_balance")
    return {
        "algebra": alg.describe(),
        "limits": {"max_degree": alg.config.max_degree,
                   "max_tensor": alg.config.max_tensor},
        "modules": {name: {"generators": list(M.names),
                           "degrees": list(M.degrees),
                           "valid": True}
                    for name, M in inst.modules.items()},
        "random_samples": samples,
        "diagonal_balance_window": shallow,
        "identity_failures": sorted(set(failures)),
        "ok": not failures,
    }, not failures


def cmd_hom(inst: InstanceFile, args) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    tname, target = _module_arg(inst, args.target or name)
    hs = HomSpace(M, target, args.shift)
    return {
        "module": name,
        "target": tname,
        "shift": args.shift,
        "cycles": hs.cycle_dim,
        "boundaries": hs.boundary_dim,
        "dim": hs.dim_K,
    }, True


def cmd_omega(inst: InstanceFile, args) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    wit = omega_is_zero(M, diag)
    tower = ObstructionTower(M, diag)
    route = EnvelopingRouteTower(M, diag)
    degrees = range(M.min_degree, M.max_degree + 2)
    agree = towers_agree(tower, route, 0, degrees)
    return {
        "module": name,
        "omega_zero": wit is not None,
        "witness": "stored" if wit is not None else "absence certificate (inconsistent system)",
        "construction_routes_agree": agree,
    }, agree


def cmd_gamma(inst: InstanceFile, args) -> tuple[dict, bool]:
    """gamma^n for n = -1..max_tensor, read on the module's minimal model
    (see gamma_dim).  end_dim is gamma^0: End is the same memoized space,
    so the two agree by construction and are not independent counts."""
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    L = inst.algebra.config.max_tensor
    dims = {str(n): gamma_dim(M, diag, n) for n in range(0, L + 1)}
    dims["-1"] = gamma_dim(M, diag, -1)
    return {"module": name, "end_dim": dims["0"], "dims": dims}, True


def cmd_battery(inst: InstanceFile, args) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    r = naive_lift_battery(M, diag, name=name)
    return r.to_dict(), r.flag is None


def cmd_appendix(inst: InstanceFile, args) -> tuple[dict, bool]:
    results = appendix_battery(list(inst.modules.items()))
    ok = all(r.get("proposition_vanishing_ok", True)
             and r.get("corollary_vanishing_ok", True) for r in results)
    return {"results": results, "ok": ok}, ok


COMMANDS = {
    "check": cmd_check,
    "hom": cmd_hom,
    "omega": cmd_omega,
    "gamma": cmd_gamma,
    "battery": cmd_battery,
    "appendix": cmd_appendix,
}


def _int_flag(text: str) -> int:
    """An integer flag's value, read as in an instance file (_read_int)."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonnegative(text: str) -> int:
    """A limit or count flag's value: an integer, zero or more."""
    value = _int_flag(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="dglift",
        description="Exact engine for semifree DG modules and lifting obstructions")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("instance", help="instance file (.dg)")
    p.add_argument("--field", default="Q",
                   help="scalar backend: Q (default) or Fp[:prime]")
    p.add_argument("--max-degree", type=_nonnegative, default=None)
    p.add_argument("--max-tensor", type=_nonnegative, default=None)
    p.add_argument("--module", default=None, help="module name inside the instance")
    p.add_argument("--target", default=None, help="target module for hom")
    p.add_argument("--shift", type=_int_flag, default=0, help="shift for hom")
    p.add_argument("--samples", type=_nonnegative, default=50,
                   help="random elements for the check command")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = EngineConfig(field=field)
    flag_limits = {"max_degree": args.max_degree, "max_tensor": args.max_tensor}
    try:
        inst = parse_instance(args.instance, config, flag_limits)
    except FileNotFoundError:
        print(f"error: no such file {args.instance!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.instance!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except DGLiftError as exc:
        # a parseable file violating a semantic invariant is a property failure
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    try:
        body, ok = COMMANDS[args.command](inst, args)
    except DGLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, "instance": inst.path, "backend": field.name, **body}
    text = emit(report, args.json)
    enc = getattr(sys.stdout, "encoding", None)
    if enc:  # a name stdout cannot encode is escaped, as on stderr
        text = text.encode(enc, "backslashreplace").decode(enc)
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
