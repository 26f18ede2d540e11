"""Tests of the benchmark itself: seeded inputs, exact counts, metric
names and units, and the refusal to run without the program sources."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from perfbench import host, inputs, report
from perfbench.spans import Tracer
from perfbench.workloads import (
    ColdSearch, ServeMix, SimValidate, _closed_outcome,
)

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("build", [
    inputs.cold_search_layers,
    inputs.sim_validate_inputs,
    inputs.serve_mix_schedule,
])
def test_one_seed_gives_one_op_sequence(build):
    assert build(7, SECONDS) == build(7, SECONDS)
    assert build(7, SECONDS) != build(8, SECONDS)


def test_cold_search_searches_one_distinct_set_for_every_seed():
    layers = inputs.cold_search_layers(3, SECONDS)
    assert len(layers) == inputs.op_count(SECONDS, inputs.COLD_OPS_PER_S)
    assert len({inputs.shape_key(layer) for layer in layers}) == len(layers)
    other = inputs.cold_search_layers(4, SECONDS)
    assert sorted(map(inputs.shape_key, layers)) == sorted(
        map(inputs.shape_key, other)
    )


def test_sim_validate_work_does_not_depend_on_seed():
    one = inputs.sim_validate_inputs(1, SECONDS)
    two = inputs.sim_validate_inputs(2, SECONDS)
    assert one.layers == two.layers
    assert Counter(one.ops) == Counter(two.ops)
    assert len(one.ops) >= inputs.MIN_OPS


def test_serve_mix_schedule_shape():
    schedule = inputs.serve_mix_schedule(5, SECONDS)
    assert len({a.tenant for a in schedule}) >= 4
    assert all(
        (a.deadline_ms is not None) == (a.tenant == inputs.DEADLINE_TENANT)
        for a in schedule
    )
    cold = [a for a in schedule if a.cold]
    assert len(cold) == len(inputs.COLD_PAIR) * inputs.COLD_PAIRS
    assert len({a.label for a in cold}) == len(cold)
    assert max(a.index for a in cold) < len(schedule) * inputs.COLD_WINDOW
    assert [a.due_s for a in schedule] == sorted(a.due_s for a in schedule)
    other = inputs.serve_mix_schedule(6, SECONDS)
    hot = Counter(a.network for a in schedule if not a.cold)
    assert hot == Counter(a.network for a in other if not a.cold)


def _traced_counts(workload) -> dict:
    """Per-layer figures of one untraced and one traced pass."""
    passes = []
    tracer = Tracer()
    for active in (None, tracer):
        state = workload.setup()
        try:
            passes.append(workload.run(state, active))
        finally:
            workload.teardown(state)
    plain, traced = passes
    assert plain.failed == traced.failed == 0
    emitted = set(report.end_to_end(plain, 1.0, 1.0))
    assert emitted - set(report.SERVE_END_TO_END) == set(report.END_TO_END)
    return report.per_layer(traced, plain, tracer.spans, host_speed=1.0)


def test_exact_counts_repeat_for_one_seed(tmp_path):
    runs = []
    for _ in range(2):
        cold = ColdSearch(11, SECONDS, tmp_path)
        cold.make_inputs()
        cold.inputs = cold.inputs[:3]
        sim = SimValidate(11, SECONDS, tmp_path)
        sim.make_inputs()
        sim.inputs = inputs.SimInputs(
            layers=sim.inputs.layers[:2], ops=(1, 0, 1)
        )
        runs.append((_traced_counts(cold), _traced_counts(sim)))
    (cold_a, sim_a), (cold_b, sim_b) = runs
    for name in report.EXACT_COUNTS:
        assert cold_a[name] == cold_b[name], name
        assert sim_a[name] == sim_b[name], name
    assert cold_a["optimizer.search.calls"] == 3
    assert cold_a["optimizer.allocation.calls"] > 0
    assert cold_a["optimizer.config_store.puts"] == 3
    assert sim_a["sim.pipeline_sim.calls"] == 3
    assert sim_a["optimizer.config_store.hit_ratio"] == 1.0
    assert sim_a["optimizer.search.calls"] == 0
    assert set(cold_a) == set(report.PER_LAYER)
    assert 0.5 <= sim_a["sim.pipeline_sim.cycle_ratio_min"] <= (
        sim_a["sim.pipeline_sim.cycle_ratio_max"]
    ) <= 2.0


def test_serve_mix_checks_pass_on_a_short_schedule(tmp_path):
    """A few hot requests, one deadline-bounded cold request and one
    ordinary cold request, sent 50 ms apart."""
    serve = ServeMix(4, SECONDS, tmp_path)
    serve.make_inputs()
    cold = [a for a in serve.inputs if a.cold][:2]
    hot = [a for a in serve.inputs if not a.cold][:4]
    serve.inputs = tuple(
        dataclasses.replace(arrival, index=i, due_s=0.05 * i)
        for i, arrival in enumerate(hot[:2] + cold + hot[2:])
    )
    counts = _traced_counts(serve)
    assert cold[0].deadline_ms is not None
    assert counts["serve.exhausted_share"] > 0
    assert counts["serve.rejected"] == 0
    assert counts["optimizer.engine.memo_hits"] > 0
    assert counts["optimizer.engine.searched"] > 0
    assert set(counts) == set(report.PER_LAYER) | set(report.SERVE_PER_LAYER)


def test_closed_loop_times_carry_each_ops_host_scale():
    """Probes at the reference time, then a spell at twice it: the ops
    inside the spell count half their wall time."""
    probes = [host.REFERENCE_PROBE_S] * 5 + [2 * host.REFERENCE_PROBE_S] * 5
    scales = host.op_scales(probes)
    assert scales[0] == pytest.approx(1.0)
    assert scales[4] == pytest.approx(1 / 1.5)
    assert scales[-1] == pytest.approx(0.5)
    outcome = _closed_outcome(
        [None] * 9, [True] * 9, [0.1] * 9, [0.01] * 9, probes
    )
    assert outcome.latencies_s == pytest.approx([0.1 * s for s in scales])
    assert outcome.wall_s == pytest.approx(0.11 * sum(scales))
    assert outcome.host_scale == pytest.approx(1 / 1.5)
    values = report.end_to_end(outcome, setup_s=2.0, rss_mb=1.0)
    assert values["throughput_ops_per_s"] == pytest.approx(
        9 / outcome.wall_s
    )
    assert values["latency_p90_ms"] == pytest.approx(100.0)
    assert values["setup_s"] == 2.0


def test_benchmark_json_names_every_emitted_metric():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        report.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        report.PER_LAYER
    )
    from perfbench.workloads import WORKLOADS

    listed = {w["name"] for w in spec["workloads"]}
    assert listed | {"serve_mix"} == set(WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
