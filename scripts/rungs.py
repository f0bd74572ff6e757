#!/usr/bin/env python3
"""The engine's heavy workloads ("rungs"), each with fixed inputs, each
run in a process of its own.

    python3 scripts/rungs.py [--field Q|Fp ...] [RUNG ...]
    python3 scripts/rungs.py --list

Runs the named rungs (all of them by default) on each field (Q and Fp by
default), one fresh Python process per rung and field, and prints one JSON
object per run: {"rung", "field", "cpu_s", "peak_rss_mb", "sha256"}.
cpu_s is the process's CPU time in the rung alone, and peak_rss_mb its
peak resident set read right after the rung; sha256 hashes the rung's
canonical result, computed after both are read, so equal digests on two
commits mean equal results.

Each rung reads its inputs from an instance file in scripts/rung_inputs/,
parsed with the default caps (max_degree 16, max_tensor 4), so any of its
chains runs on the command line too:

    dglift battery scripts/rung_inputs/ext5.dg --module len5

The files: ext5.dg and ext6.dg, the exterior algebra on 5 or 6 odd
generators y0, y1, ... with zero differential, and tate_ext4.dg and
tate_ext5.dg, the Tate-ext algebra k[q]/(q^2) on 4 or 5 odd X0, X1, ...
with d X_i = q, whose differential is not zero.  Their modules lenL are
the chains e0..e_{L-1}, e_j in degree 2j, with d e_{j+1} = e_j y0 over
the exterior algebras (L = 5, 6, 7 in ext5.dg, L = 5 in ext6.dg) and
d e_{j+1} = e_j (X0 - X1) over the Tate-ext ones (L = 5).  The rungs:
  ladder_ext5_d12, ladder_ext5_d13   on ext5.dg's algebra, dim, labels and
                                     diff of T^n in every degree 2n..12
                                     (..13), n = 1..4; the digest hashes
                                     the three
  chain_ext5_len5, chain_ext5_len6,  the nine-verdict battery on len5, len6
  chain_ext5_len7, chain_ext6_len5   and len7 of ext5.dg and on len5 of
                                     ext6.dg; the digest hashes the report
  cone_ext5_len5, cone_ext6_len5     the battery on the cone of the identity
                                     of the two len5 chains
  kernel_ext5_len5                   kernel_sequence_check alone on len5 of
                                     ext5.dg; the digest hashes its result
  tate_ext4_len5, tate_ext5_len5     the battery on len5 of tate_ext4.dg and
                                     tate_ext5.dg; the digest hashes the
                                     report
The Tate-ext chain of length 6 over 5 generators (tate_ext5_len6) is left
out: its battery took about 7 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dglift.cli import parse_instance  # noqa: E402
from dglift.config import EngineConfig  # noqa: E402
from dglift.diagonal import Diagonal  # noqa: E402
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery  # noqa: E402
from dglift.modules import ChainMap, cone  # noqa: E402
from dglift.scalars import field_from_spec  # noqa: E402

FIELDS = ("Q", "Fp")
INPUTS = ROOT / "scripts" / "rung_inputs"


def read(algebra: str, field: str):
    """scripts/rung_inputs/<algebra>.dg, parsed on the field with the
    default caps."""
    return parse_instance(str(INPUTS / f"{algebra}.dg"),
                          EngineConfig(field=field_from_spec(field)))


def ladder(top: int):
    """dim, labels and diff of T^n in every degree 2n..top, n = 1..4, on the
    exterior algebra on 5 generators (ext5.dg); returns the Diagonal, whose
    memos keep every diff."""
    def rung(field):
        diag = Diagonal(read("ext5", field).algebra)
        for n in range(1, 5):
            car = diag.T(n)
            for d in range(2 * n, top + 1):
                car.dim(d), car.labels(d), car.diff(d)
        return diag

    def digest(diag, h):
        for n in range(1, 5):
            car = diag.T(n)
            for d in range(2 * n, top + 1):
                h.update(repr((n, d, car.dim(d), car.labels(d))).encode())
                cols = car.diff(d).columns()
                for j in sorted(cols):
                    h.update(repr((j, sorted(cols[j].items()))).encode())
    return rung, digest


def battery(algebra: str, module: str, of_cone: bool = False):
    """The battery on the module of this name in <algebra>.dg, or on the
    cone of its identity."""
    def rung(field):
        M = read(algebra, field).modules[module]
        if of_cone:
            M = cone(ChainMap.identity(M))
        return naive_lift_battery(M, Diagonal(M.algebra), name="rung")

    def digest(report, h):
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return rung, digest


def kernel_sequence(algebra: str, module: str):
    """kernel_sequence_check on the module of this name in <algebra>.dg,
    with no battery before it."""
    def rung(field):
        M = read(algebra, field).modules[module]
        return kernel_sequence_check(M, Diagonal(M.algebra))

    def digest(result, h):
        h.update(json.dumps(result, sort_keys=True).encode())
    return rung, digest


RUNGS = {
    "ladder_ext5_d12": ladder(12),
    "ladder_ext5_d13": ladder(13),
    "chain_ext5_len5": battery("ext5", "len5"),
    "chain_ext5_len6": battery("ext5", "len6"),
    "chain_ext5_len7": battery("ext5", "len7"),
    "chain_ext6_len5": battery("ext6", "len5"),
    "cone_ext5_len5": battery("ext5", "len5", of_cone=True),
    "cone_ext6_len5": battery("ext6", "len5", of_cone=True),
    "kernel_ext5_len5": kernel_sequence("ext5", "len5"),
    "tate_ext4_len5": battery("tate_ext4", "len5"),
    "tate_ext5_len5": battery("tate_ext5", "len5"),
}


def run_here(name: str, field: str) -> dict:
    """Run one rung in this process and measure it."""
    rung, digest = RUNGS[name]
    t0 = time.process_time()
    result = rung(field)
    cpu = time.process_time() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    h = hashlib.sha256()
    digest(result, h)
    return {"rung": name, "field": field, "cpu_s": round(cpu, 3),
            "peak_rss_mb": round(peak, 1), "sha256": h.hexdigest()}


def run_apart(name: str, field: str) -> dict:
    """Run one rung in a fresh process and read its JSON line."""
    proc = subprocess.run([sys.executable, __file__, "--here", name, "--field", field],
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"rung {name} on {field} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rungs", nargs="*", metavar="RUNG")
    ap.add_argument("--field", action="append", choices=FIELDS)
    ap.add_argument("--list", action="store_true", help="print the rung names")
    ap.add_argument("--here", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(RUNGS))
        return 0
    unknown = [r for r in args.rungs if r not in RUNGS]
    if unknown:
        ap.error(f"unknown rung {unknown[0]!r}; --list names them")
    if args.here:
        if len(args.rungs) != 1 or len(args.field or ()) != 1:
            ap.error("--here runs one rung on one field")
        print(json.dumps(run_here(args.rungs[0], args.field[0])))
        return 0
    for name in args.rungs or RUNGS:
        for field in args.field or FIELDS:
            print(json.dumps(run_apart(name, field)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
