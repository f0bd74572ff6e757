#!/usr/bin/env python3
"""dglift benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, single-threaded in one process.
Set-up (a fresh import of the engine, input generation, and building the
algebras, modules and Diagonal objects) is repeated several times and its
median reported.  Then round(--seconds / seconds_per_pass) whole passes
run, at least one; at --seconds 25 that is 2 passes of tensor-ladder and of
deep-battery, and 8 of small-instances.  Every run of a workload thus
measures the same number of passes, which matters because the first pass of
a process is slower than the next ones.  Each pass after the
first rebuilds the engine objects untimed, times each operation, and checks
every output against the recorded reference and Q against Fp.  With --trace 1 one more pass runs with
per-layer probes installed, and the per-layer metrics are reported instead,
with the tracing overhead measured against the untraced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import types
from statistics import median
from time import perf_counter

BENCH_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gate import Gate, tail_percentile  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")   # metric names and units
REFERENCE = os.path.join(HERE, "reference.json")
GENERATED = os.path.join("perfbench", "generated")
TRACE_DIR = os.path.join("perfbench", "out")
ENGINE_MODULES = ("scalars", "config", "errors", "linalg", "algebra", "modules",
                  "carriers", "diagonal", "homotopy", "obstruction", "liftcheck",
                  "instances", "cli")


def import_engine():
    """A fresh import of the engine package, as a user's process pays it."""
    for name in [m for m in sys.modules if m == "dglift" or m.startswith("dglift.")]:
        del sys.modules[name]
    return engine_namespace()


def engine_namespace():
    """The engine's modules by name, imported if they are not yet."""
    eng = types.SimpleNamespace()
    for name in ENGINE_MODULES:
        setattr(eng, name, importlib.import_module(f"dglift.{name}"))
    eng.all_modules = [getattr(eng, name) for name in ENGINE_MODULES]
    return eng


def setup(workload, seed: int, repeats: int):
    """Set up `repeats` times; returns the last set-up and the scaled
    duration of each, the first measured from the start of the benchmark."""
    durations = []
    start = BENCH_START
    with SpeedSampler() as sampler:
        for _ in range(repeats):
            spent = sampler.spent
            eng = import_engine()
            inputs, inputs_digest = workload.prepare(eng, seed, GENERATED)
            units = workload.build(eng, inputs, seed)
            now = perf_counter()
            durations.append((now - start - (sampler.spent - spent)) * sampler.scale(start, now))
            start = now
    return eng, inputs, inputs_digest, units, durations


def run_pass(units: list, gate: Gate, probes=None) -> dict:
    """Run every operation once.  Units are consumed, so each unit's engine
    objects can be freed as soon as it is done."""
    timings = []            # (backend, start, end, seconds without sampling)
    failed = 0
    tracer = probes.tracer if probes else None
    root = tracer.intern("bench:op") if tracer is not None else None
    with SpeedSampler() as sampler:
        while units:
            for op in units.pop(0):
                if tracer is not None:
                    tracer.op_id = len(timings)
                    span = tracer.open(root)
                spent = sampler.spent
                t0 = perf_counter()
                try:
                    result, error = op.query(), None
                except Exception as exc:  # an unexpected raise is a failed operation
                    result, error = None, f"raised {type(exc).__name__}: {exc}"
                t1 = perf_counter()
                if tracer is not None:
                    tracer.close(span)
                    probes.end_op()
                timings.append((op.backend, t0, t1, t1 - t0 - (sampler.spent - spent)))
                if error is None:
                    try:
                        output, cross = op.summarize(result)
                    except Exception as exc:
                        error = f"unreadable output: {type(exc).__name__}: {exc}"
                if error is not None:
                    gate.fail(op.key, op.backend, error)
                    failed += 1
                elif not gate.check(op.key, op.backend, output, cross, op.pinned):
                    failed += 1
    failed += gate.cross_check()
    walls = {"Q": 0.0, "Fp": 0.0}
    raw = {"Q": 0.0, "Fp": 0.0}
    latencies = []
    for backend, t0, t1, dt in timings:
        scaled = dt * sampler.scale(t0, t1)
        latencies.append(scaled)
        walls[backend] += scaled
        raw[backend] += dt
    tail_pct, tail = tail_percentile(latencies)
    return {"q": walls["Q"], "fp": walls["Fp"], "wall": walls["Q"] + walls["Fp"],
            "raw_q": raw["Q"], "raw_fp": raw["Fp"],
            "kernel": median(sampler.kernel_s) if len(sampler.kernel_s) else 0.0,
            "p50": median(latencies), "tail": tail, "tail_pct": tail_pct,
            "attempted": len(latencies), "failed": failed}


def traced_pass(eng, workload, inputs, seed: int, gate: Gate, untraced: list):
    """One more pass with per-layer probes installed.  Returns the pass and
    the per-layer metrics, with the tracing overhead against the median
    untraced pass; the spans are written to the trace directory."""
    # imported here so that untraced runs do not carry the probes' modules
    # in peak_rss_mb
    from probes import LayerProbes
    from spans import Tracer

    units = workload.build(eng, inputs, seed)
    probes = LayerProbes(eng, Tracer())
    probes.install()
    try:
        traced = run_pass(units, gate, probes)
    finally:
        probes.uninstall()
    values = probes.metrics()
    values["trace.overhead_share"] = traced["wall"] / median([p["wall"] for p in untraced]) - 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    probes.tracer.write(os.path.join(TRACE_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz"))
    return traced, values


def end_to_end(setups: list, passes: list) -> dict:
    return {
        "setup_s": median(setups),
        "q_wall_s": median([p["q"] for p in passes]),
        "fp_wall_s": median([p["fp"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "dglift", "__init__.py")):
        print("error: no engine sources at src/dglift; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = WORKLOADS[args.workload]
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload.name]

    eng, inputs, inputs_digest, units, setups = setup(workload, args.seed, SETUP_REPEATS)
    gate = Gate(reference["ops"])
    want = reference["inputs"].get(str(args.seed), reference["inputs"].get("any"))
    inputs_ok = want in (None, inputs_digest)
    if not inputs_ok:
        gate.failures.append(f"inputs digest {inputs_digest[:12]} differs from "
                             f"reference {want[:12]}")
    passes = [run_pass(units, gate)]
    for _ in range(max(1, round(args.seconds / workload.seconds_per_pass)) - 1):
        passes.append(run_pass(workload.build(eng, inputs, args.seed), gate))
    values = end_to_end(setups, passes)
    per_pass = passes[0]["attempted"]
    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
          f"operations per pass {per_pass}")
    print(f"inputs sha256 {inputs_digest}")
    print(f"setup_s is the median of {len(setups)} set-ups; other times are medians over "
          f"the passes, scaled to the reference machine speed")
    print(f"op_p50_ms {1000 * median([p['p50'] for p in passes])!r} ms  op_tail_ms "
          f"{1000 * median([p['tail'] for p in passes])!r} ms  (p{passes[0]['tail_pct']:.1f} "
          f"of {per_pass} operations per pass)")
    print(f"unscaled: q_wall_s {median([p['raw_q'] for p in passes])!r} s  fp_wall_s "
          f"{median([p['raw_fp'] for p in passes])!r} s  speed kernel "
          f"{1000 * median([p['kernel'] for p in passes])!r} ms")
    table = metric_units("end_to_end")
    if args.trace:
        traced, values = traced_pass(eng, workload, inputs, args.seed, gate, passes)
        passes.append(traced)
        table = metric_units("per_layer")
        print("per-layer metrics from one traced pass")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"fail_share {failed / attempted!r} ratio  ({failed} failed of {attempted} attempted)")
    for name, unit in table.items():
        print(f"{name:36s} {values[name]!r} {unit}")
    for msg in gate.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": inputs_ok and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in table.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
