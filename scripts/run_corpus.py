#!/usr/bin/env python3
"""Run the lift battery over the built-in corpus and print a verdict table.

    python3 scripts/run_corpus.py [--field Q|Fp[:p]] [--json]

Exit status 1 if any instance raises the disagreement flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dglift.config import EngineConfig  # noqa: E402
from dglift.instances import battery_pairs, build_corpus  # noqa: E402
from dglift.liftcheck import kernel_sequence_check, naive_lift_battery  # noqa: E402
from dglift.scalars import field_from_spec  # noqa: E402

CONDITIONS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")


def fmt(v):
    return {True: "+", False: "-", None: "?"}[v]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="Q")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = EngineConfig(field=field, max_degree=8)
    corpus = build_corpus(config)
    t0 = time.time()
    rows = []
    flagged = False
    for inst, mname, M in battery_pairs(corpus):
        r = naive_lift_battery(M, inst.diag, name=f"{inst.name}/{mname}")
        row = {
            "instance": f"{inst.name}/{mname}",
            "AR1": r.ar1.holds,
            "AR2": r.ar2.holds,
            "verdicts": {c: r.verdicts.get(c) for c in CONDITIONS},
            "gamma": {str(k): v for k, v in sorted(r.gamma.items())},
            "agreement": r.agreement,
            "flag": r.flag,
        }
        if r.ar1.holds:
            ks = kernel_sequence_check(M, inst.diag)
            row["kernel_sequence_ok"] = ks["ok"]
        rows.append(row)
        if r.flag:
            flagged = True
    elapsed = time.time() - t0
    if args.json:
        print(json.dumps({"backend": config.field.name, "rows": rows,
                          "seconds": round(elapsed, 3)},
                         sort_keys=True, indent=1))
    else:
        head = f"{'instance':24s} AR1 AR2  " + " ".join(f"{c:>4s}" for c in CONDITIONS)
        print(head)
        print("-" * len(head))
        for row in rows:
            vs = " ".join(f"{fmt(row['verdicts'][c]):>4s}" for c in CONDITIONS)
            print(f"{row['instance']:24s} {fmt(row['AR1']):>3s} {fmt(row['AR2']):>3s}  {vs}"
                  + ("   ks=" + fmt(row["kernel_sequence_ok"]) if "kernel_sequence_ok" in row else "")
                  + (f"   FLAG: {row['flag']}" if row["flag"] else ""))
        print(f"\n{len(rows)} modules, backend {config.field.name}, {elapsed:.2f}s")
        if flagged:
            print("DISAGREEMENT FLAG RAISED — inspect the rows above")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
