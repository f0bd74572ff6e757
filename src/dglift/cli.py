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

Commands: check, hom, omega, battery, gamma, appendix.  Exit code 0 on
all-pass, 1 on any property violation, 2 on usage or syntax errors.
Machine reports (--json) are canonical: sorted keys, no volatile data.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import AlgebraElement, BaseRing, DGAlgebra, build_algebra, parse_element
from .config import EngineConfig
from .diagonal import Diagonal
from .errors import DGLiftError
from .homotopy import HomSpace
from .liftcheck import appendix_battery, naive_lift_battery
from .modules import SemifreeModule
from .obstruction import (EnvelopingRouteTower, ObstructionTower, gamma_dim,
                          omega_is_zero, towers_agree)
from .scalars import field_from_spec


class ParseError(DGLiftError):
    def __init__(self, lineno, msg):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {msg}")


class InstanceFile:
    """Parsed and validated instance: algebra and named modules."""

    def __init__(self, algebra: DGAlgebra, modules: dict, path: str):
        self.algebra = algebra
        self.modules = modules
        self.path = path


def parse_instance(path: str, config: EngineConfig,
                   flag_limits: dict | None = None) -> InstanceFile:
    with open(path) as fh:
        lines = fh.readlines()

    section = None
    ring_spec = "k"
    a_prefix = 0
    variables = []            # (name, degree, diff expr, lineno)
    module_order = []
    module_gens = {}          # name -> [(gen, degree, lineno)]
    module_diffs = {}         # name -> [(gen, expr, lineno)]
    limits = {}

    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].strip()
            if head == "base":
                section = ("base",)
            elif head == "algebra":
                section = ("algebra",)
            elif head.startswith("module"):
                mname = head[len("module"):].strip()
                if not mname:
                    raise ParseError(lineno, "module section needs a name")
                if mname in module_gens:
                    raise ParseError(lineno, f"duplicate module {mname!r}")
                module_order.append(mname)
                module_gens[mname] = []
                module_diffs[mname] = []
                section = ("module", mname)
            elif head == "limits":
                section = ("limits",)
            else:
                raise ParseError(lineno, f"unknown section {head!r}")
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        kind = section[0]
        if kind == "base":
            if "=" not in line:
                raise ParseError(lineno, "expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key != "ring":
                raise ParseError(lineno, f"unknown base key {key!r}")
            ring_spec = val
        elif kind == "algebra":
            if line.startswith("var "):
                body = line[4:]
                try:
                    name_part, rest = body.split(":", 1)
                    deg_part, dexpr = rest.split("=", 1)
                    variables.append((name_part.strip(), int(deg_part.strip()),
                                      dexpr.strip(), lineno))
                except ValueError:
                    raise ParseError(lineno, "expected: var NAME : DEGREE = EXPR")
            elif "=" in line:
                key, val = (s.strip() for s in line.split("=", 1))
                if key != "A":
                    raise ParseError(lineno, f"unknown algebra key {key!r}")
                try:
                    a_prefix = int(val)
                except ValueError:
                    raise ParseError(lineno, "A must be an integer prefix length")
            else:
                raise ParseError(lineno, f"cannot parse algebra line {line!r}")
        elif kind == "module":
            mname = section[1]
            if line.startswith("gen "):
                body = line[4:]
                try:
                    gname, deg = body.split(":", 1)
                    module_gens[mname].append((gname.strip(), int(deg.strip()), lineno))
                except ValueError:
                    raise ParseError(lineno, "expected: gen NAME : DEGREE")
            elif line.startswith("d "):
                body = line[2:]
                if "=" not in body:
                    raise ParseError(lineno, "expected: d NAME = EXPR")
                gname, expr = body.split("=", 1)
                module_diffs[mname].append((gname.strip(), expr.strip(), lineno))
            else:
                raise ParseError(lineno, f"cannot parse module line {line!r}")
        elif kind == "limits":
            if "=" not in line:
                raise ParseError(lineno, "expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in ("max_degree", "max_tensor", "lbound"):
                raise ParseError(lineno, f"unknown limit {key!r}")
            try:
                limits[key] = int(val)
            except ValueError:
                raise ParseError(lineno, f"{key} must be an integer")

    # explicit command-line limits take precedence over the file's block
    if flag_limits:
        for key, val in flag_limits.items():
            if val is not None:
                limits[key] = val
    cfg = config.with_limits(max_degree=limits.get("max_degree"),
                             max_tensor=limits.get("max_tensor"),
                             lift_bound=limits.get("lbound"))
    base = _parse_ring(ring_spec)
    try:
        algebra = build_algebra(base, [(n, d, e) for (n, d, e, _) in variables],
                                a_prefix, cfg)
    except DGLiftError:
        raise
    except ValueError as exc:
        raise ParseError(variables[0][3] if variables else 1, str(exc))

    modules = {}
    for mname in module_order:
        gens = [(g, d) for (g, d, _) in module_gens[mname]]
        gen_names = [g for g, _ in gens]
        diff = {}
        for gname, expr, lineno in module_diffs[mname]:
            if gname not in gen_names:
                raise ParseError(lineno, f"unknown generator {gname!r}")
            for mu, el in _parse_module_expr(algebra, gen_names, expr, lineno).items():
                key = (mu, gname)
                diff[key] = diff[key] + el if key in diff else el
        from .modules import make_module
        modules[mname] = make_module(algebra, gens, diff)
    return InstanceFile(algebra, modules, path)


def _parse_ring(spec: str) -> BaseRing:
    spec = spec.strip()
    if spec in ("k", "Q", "field"):
        return BaseRing()
    # k[a]/(a^m)
    if spec.startswith("k[") and "]/(" in spec:
        inner = spec[2:spec.index("]")]
        tail = spec[spec.index("]/(") + 3:]
        if not tail.endswith(")"):
            raise ValueError(f"cannot parse base ring {spec!r}")
        power = tail[:-1]
        if "^" in power:
            gname, m = power.split("^", 1)
            return BaseRing(gname.strip(), int(m))
        raise ValueError(f"cannot parse base ring {spec!r} (expected a^m)")
    raise ValueError(f"cannot parse base ring {spec!r}")


def _parse_module_expr(algebra, gen_names, expr: str, lineno: int) -> dict:
    """Sum of GEN [* algebra-expr] terms -> {gen name: coefficient}."""
    out = {}
    # split on top-level + and - (no parentheses cross gens in this grammar)
    terms = []
    cur = ""
    depth = 0
    sign = 1
    pending_sign = 1
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((pending_sign, cur.strip()))
            pending_sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch in "+-" and not cur.strip():
            pending_sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if cur.strip():
        terms.append((pending_sign, cur.strip()))
    if expr.strip() == "0":
        return {}
    for sgn, term in terms:
        if term == "0":
            continue
        if "*" in term:
            gname, rest = term.split("*", 1)
            gname = gname.strip()
            coeff_text = rest.strip()
        else:
            gname, coeff_text = term.strip(), "1"
        if gname not in gen_names:
            raise ParseError(lineno, f"term must start with a generator, got {gname!r}")
        try:
            el = parse_element(algebra, coeff_text)
        except ValueError as exc:
            raise ParseError(lineno, f"bad coefficient expression: {exc}")
        if sgn < 0:
            el = el.neg()
        out[gname] = out[gname] + el if gname in out else el
    return {g: el for g, el in out.items() if not el.is_zero()}


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
        if len(inst.modules) != 1:
            raise DGLiftError("instance has several modules; pass --module")
        name = next(iter(inst.modules))
    if name not in inst.modules:
        raise DGLiftError(f"no module named {name!r} in {inst.path}")
    return name, inst.modules[name]


def cmd_check(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    alg = inst.algebra
    import random
    rng = random.Random(20240901)
    samples = args.samples
    failures = []
    window = min(alg.config.max_degree, 6)
    from_int = alg.field.from_int

    def random_element(max_deg):
        d = rng.randint(0, max_deg)
        terms = {}
        for u in alg.monomials(d):
            c = rng.randint(-3, 3)
            if c:
                terms[u] = from_int(c)
        return AlgebraElement(alg, terms), d

    for _ in range(samples):
        x, dx = random_element(window)
        y, dy = random_element(window - dx if window > dx else 0)
        if not x.differentiate().differentiate().is_zero():
            failures.append("d_squared")
        xy = x * y
        sgn = (-1) ** (dx * dy)
        rhs = y * x if sgn > 0 else (y * x).neg()
        if not (xy - rhs).is_zero():
            failures.append("graded_commutativity")
        leib = xy.differentiate() - (
            x.differentiate() * y
            + ((x * y.differentiate()) if dx % 2 == 0 else (x * y.differentiate()).neg()))
        if not leib.is_zero():
            failures.append("leibniz")
    diag = Diagonal(alg)
    shallow = min(alg.config.max_degree, 4)
    balance = all(diag.check_basic_sequence(d)["balanced"]
                  for d in range(0, shallow + 1))
    if not balance:
        failures.append("diagonal_balance")
    report = {
        "command": "check",
        "instance": inst.path,
        "backend": config.field.name,
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
    }
    return report, not failures


def cmd_hom(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    tname = args.target or name
    if tname not in inst.modules:
        raise DGLiftError(f"no module named {tname!r}")
    target = inst.modules[tname]
    s = args.shift
    hs = HomSpace(M, target, s)
    report = {
        "command": "hom",
        "instance": inst.path,
        "backend": config.field.name,
        "module": name,
        "target": tname,
        "shift": s,
        "cycles": hs.cycle_dim,
        "boundaries": hs.boundary_dim,
        "dim": hs.dim_K,
    }
    return report, True


def cmd_omega(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    wit = omega_is_zero(M, diag)
    tower = ObstructionTower(M, diag)
    route = EnvelopingRouteTower(M, diag)
    degrees = range(M.min_degree, M.max_degree + 2)
    agree = towers_agree(tower, route, 0, degrees)
    report = {
        "command": "omega",
        "instance": inst.path,
        "backend": config.field.name,
        "module": name,
        "omega_zero": wit is not None,
        "witness": "stored" if wit is not None else "absence certificate (inconsistent system)",
        "construction_routes_agree": agree,
    }
    return report, agree


def cmd_gamma(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    """gamma^n for n = -1..max_tensor.  end_dim is gamma^0: End is one
    memoized space with diag.hom(M, diag.NT(M, 0)), so the two agree by
    construction and are not independent counts."""
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    L = inst.algebra.config.max_tensor
    dims = {str(n): gamma_dim(M, diag, n) for n in range(0, L + 1)}
    dims["-1"] = gamma_dim(M, diag, -1)
    report = {
        "command": "gamma",
        "instance": inst.path,
        "backend": config.field.name,
        "module": name,
        "end_dim": dims["0"],
        "dims": dims,
    }
    return report, True


def cmd_battery(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    name, M = _module_arg(inst, args.module)
    diag = Diagonal(inst.algebra)
    r = naive_lift_battery(M, diag, name=name)
    report = {
        "command": "battery",
        "instance": inst.path,
        "backend": config.field.name,
        **r.to_dict(),
    }
    ok = r.flag is None
    return report, ok


def cmd_appendix(inst: InstanceFile, args, config) -> tuple[dict, bool]:
    pairs = [(name, M) for name, M in inst.modules.items()]
    results = appendix_battery(pairs)
    ok = all(r.get("proposition_vanishing_ok", True)
             and r.get("corollary_vanishing_ok", True) for r in results)
    report = {
        "command": "appendix",
        "instance": inst.path,
        "backend": config.field.name,
        "results": results,
        "ok": ok,
    }
    return report, ok


COMMANDS = {
    "check": cmd_check,
    "hom": cmd_hom,
    "omega": cmd_omega,
    "gamma": cmd_gamma,
    "battery": cmd_battery,
    "appendix": cmd_appendix,
}


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
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-tensor", type=int, default=None)
    p.add_argument("--lbound", type=int, default=None)
    p.add_argument("--module", default=None, help="module name inside the instance")
    p.add_argument("--target", default=None, help="target module for hom")
    p.add_argument("--shift", type=int, default=0, help="shift for hom")
    p.add_argument("--samples", type=int, default=50,
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
    flag_limits = {"max_degree": args.max_degree, "max_tensor": args.max_tensor,
                   "lbound": args.lbound}
    try:
        inst = parse_instance(args.instance, config, flag_limits)
    except FileNotFoundError:
        print(f"error: no such file {args.instance!r}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except DGLiftError as exc:
        # a parseable file violating a semantic invariant is a property failure
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    try:
        report, ok = COMMANDS[args.command](inst, args, config)
    except DGLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report, args.json))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
