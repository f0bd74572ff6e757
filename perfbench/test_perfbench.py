"""Tests of the benchmark's own logic: span self times, the tail-percentile
rule, the instance generator, the output gate, speed scaling, and agreement
of the reported metrics and operations with BENCHMARK.json and the recorded
reference."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.append(os.path.join(ROOT, "src"))

import instgen  # noqa: E402
import run  # noqa: E402
from gate import Gate, digest, tail_percentile  # noqa: E402
from probes import LayerProbes  # noqa: E402
from spans import Tracer, self_times, span_wrapper  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


# ----- spans -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    start = [0.0, 0.5, 0.75, 2.0, 2.5]
    end = [4.0, 1.5, 1.25, 3.5, 3.0]
    parent = [-1, 0, 1, 0, 3]
    assert sum(self_times(start, end, parent)) == pytest.approx(4.0)


def test_tracer_records_nesting_and_operation():
    tr = Tracer()
    inner = span_wrapper(tr, "inner", lambda: 1)
    outer = span_wrapper(tr, "outer", lambda: inner() + inner())
    tr.op_id = 7
    assert outer() == 2
    assert [tr.names[i] for i in tr.name] == ["outer", "inner", "inner"]
    assert list(tr.parent) == [-1, 0, 0]
    assert list(tr.op) == [7, 7, 7]
    selfs = self_times(tr.start, tr.end, tr.parent)
    assert all(s >= 0 for s in selfs)
    assert selfs[0] <= tr.end[0] - tr.start[0]


def test_span_closes_when_the_call_raises():
    tr = Tracer()
    errors = []

    def boom():
        raise KeyError("x")

    wrapped = span_wrapper(tr, "boom", boom, on_error=errors.append)
    with pytest.raises(KeyError):
        wrapped()
    assert tr.end[0] >= tr.start[0] and not tr._stack and len(errors) == 1


# ----- tail percentile ---------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    pct, value = tail_percentile(range(1, 101))
    assert (pct, value) == (90.0, 90)
    pct, value = tail_percentile([5.0] * 3 + [1.0] * 17)
    assert pct == 50.0 and value == 1.0


def test_tail_percentile_falls_back_to_maximum():
    assert tail_percentile([3, 1, 2]) == (100.0, 3)
    assert tail_percentile(range(10)) == (100.0, 9)
    pct, value = tail_percentile(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)


# ----- instance generator ------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    assert instgen.generate(5) == instgen.generate(5)
    assert instgen.generate(5) != instgen.generate(6)
    paths_a, digest_a = instgen.write(5, str(tmp_path / "a"))
    paths_b, digest_b = instgen.write(5, str(tmp_path / "b"))
    assert digest_a == digest_b
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


@pytest.mark.parametrize("backend", ["Q", "Fp"])
def test_generated_files_parse(tmp_path, backend):
    eng = run.engine_namespace()
    config = eng.config.EngineConfig(field=eng.scalars.field_from_spec(backend))
    for seed in range(12):
        paths, _ = instgen.write(seed, str(tmp_path / str(seed)))
        for path in paths:
            inst = eng.cli.parse_instance(path, config)
            assert sorted(inst.modules) == ["M0", "M1"]


def test_cone_and_shift_follow_the_engine_signs():
    M = instgen.two_step((1, ((2, "y0"),)))
    assert instgen.shift(M, 1).diff == ((("e0", "e1"), ((-2, "y0"),)),)
    C = instgen.cone_identity(M)
    assert [d for _, d in C.gens] == [0, 1, 2, 3]
    assert dict(C.diff)[("se0", "se1")] == ((-2, "y0"),)
    assert dict(C.diff)[("ce0", "se0")] == instgen.UNIT


# ----- output gate -------------------------------------------------------------


def _op(key, backend, value):
    return Op(key, backend, lambda: value, lambda r: (r, r))


def test_gate_catches_a_corrupted_digest_without_aborting():
    good = digest(1)
    reference = {"a": {"Q": good, "Fp": good},
                 "b": {"Q": "0" * 64, "Fp": digest(2)},
                 "c": {"Q": digest(3), "Fp": digest(3)}}
    gate = Gate(reference)
    units = [[_op("a", "Q", 1), _op("b", "Q", 2), _op("c", "Q", 3),
              _op("a", "Fp", 1), _op("b", "Fp", 2), _op("c", "Fp", 3)]]
    result = run.run_pass(units, gate)
    assert result["attempted"] == 6
    assert result["failed"] == 1
    assert any("b [Q]" in f and "differs from reference" in f for f in gate.failures)


def test_gate_fails_q_fp_disagreement_and_raising_operations():
    def boom():
        raise ValueError("x")

    gate = Gate(None)
    units = [[_op("a", "Q", 1), _op("a", "Fp", 2), Op("b", "Q", boom, lambda r: (r, r))]]
    result = run.run_pass(units, gate)
    assert result["failed"] == 2
    assert any("disagree" in f for f in gate.failures)
    assert any("raised ValueError" in f for f in gate.failures)


def test_gate_requires_a_reference_for_pinned_operations():
    gate = Gate({})
    assert not gate.check("k", "Q", 1, 1, pinned=True)
    assert gate.check("k", "Q", 1, 1, pinned=False)


# ----- BENCHMARK.json and the reference ------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    with open(run.BENCHMARK) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    passes = [{"q": 1.0, "fp": 2.0}]
    assert set(run.end_to_end([0.5], passes)) == set(run.metric_units("end_to_end"))
    per_layer = set(LayerProbes(run.engine_namespace(), Tracer()).metrics())
    assert per_layer | {"trace.overhead_share"} == set(run.metric_units("per_layer"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pinned_operation_has_a_reference(tmp_path, name):
    eng = run.engine_namespace()
    workload = WORKLOADS[name]
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)[name]["ops"]
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        inputs, _ = workload.prepare(eng, 1, str(tmp_path))
        units = workload.build(eng, inputs, 1)
    finally:
        os.chdir(cwd)
    pinned = [(op.key, op.backend) for unit in units for op in unit if op.pinned]
    assert pinned
    assert all(backend in reference.get(key, {}) for key, backend in pinned)


# ----- machine speed -------------------------------------------------------------


def test_speed_scale_uses_samples_near_the_operation():
    from speed import REFERENCE_KERNEL_S, WINDOW, SpeedSampler

    s = SpeedSampler()
    s.times.extend([0.0, 10.0, 10.2, 10.4, 30.0])
    s.kernel_s.extend([9.0, 2 * REFERENCE_KERNEL_S, 4 * REFERENCE_KERNEL_S,
                       4 * REFERENCE_KERNEL_S, 9.0])
    assert s.scale(10.1, 10.2) == pytest.approx(0.25)
    assert s.scale(20.0, 20.0 + WINDOW) == 1.0


def test_sampler_time_is_not_charged_to_operations():
    import speed

    def slow():
        t = speed.perf_counter() + 0.3
        while speed.perf_counter() < t:
            pass
        return 0

    gate = Gate(None)
    result = run.run_pass([[Op("k", "Q", slow, lambda r: (r, r))]], gate)
    assert result["failed"] == 0
    assert 0.25 < result["raw_q"] < 0.3
