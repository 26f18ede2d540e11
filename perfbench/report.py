"""Metric names, units and their computation from a pass.

``END_TO_END`` is what a user of the system sees; ``PER_LAYER`` comes
from the traced pass.  Every workload listed in BENCHMARK.json reports
every one of these names: a layer a workload does not exercise reads 0
(README.md says which workload each metric is meant for).  The unlisted
``serve_mix`` workload reports the ``SERVE_*`` metrics as well.
"""

from __future__ import annotations

from perfbench.host import percentile
from perfbench.spans import LayerTotals, Span, layer_totals
from perfbench.workloads import Outcome

END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimizer.allocation.calls": "count",
    "optimizer.allocation.busy_ms": "ms",
    "optimizer.space.busy_ms": "ms",
    "core.batch.calls": "count",
    "core.batch.rows": "count",
    "core.batch.busy_ms": "ms",
    "core.evaluate.calls": "count",
    "core.evaluate.busy_ms": "ms",
    "optimizer.search.calls": "count",
    "optimizer.search.self_ms": "ms",
    "optimizer.search.evaluated": "count",
    "optimizer.search.pruned": "count",
    "optimizer.search.prune_ratio": "ratio",
    "optimizer.config_store.puts": "count",
    "optimizer.config_store.put_ms": "ms",
    "optimizer.config_store.gets": "count",
    "optimizer.config_store.get_ms": "ms",
    "optimizer.config_store.hit_ratio": "ratio",
    "sim.trace.calls": "count",
    "sim.trace.busy_ms": "ms",
    "sim.pipeline_sim.calls": "count",
    "sim.pipeline_sim.busy_ms": "ms",
    "sim.pipeline_sim.tiles": "count",
    "sim.pipeline_sim.tiles_per_s": "1/s",
    "sim.pipeline_sim.cycle_ratio_min": "ratio",
    "sim.pipeline_sim.cycle_ratio_max": "ratio",
    "api.self_ms": "ms",
    "optimizer.engine.self_ms": "ms",
    "optimizer.engine.memo_hits": "count",
    "optimizer.engine.searched": "count",
    "optimizer.engine.coalesced": "count",
    "harness.generator_lag_p99_ms": "ms",
    "harness.host_speed": "1/s",
    "harness.tracing_overhead_pct": "%",
}

SERVE_END_TO_END = {
    "goodput_ops_per_s": "1/s",
}

SERVE_PER_LAYER = {
    "serve.first_layer_ms": "ms",
    "serve.peak_queue_depth": "count",
    "serve.rejected": "count",
    "serve.coalesce_rate": "ratio",
    "serve.exhausted_share": "ratio",
    "serve.deadline_overshoot_ms": "ms",
}

#: Counts that must repeat exactly across runs of one seed on the
#: closed-loop workloads (searches and simulations are deterministic).
EXACT_COUNTS = (
    "optimizer.allocation.calls",
    "core.batch.calls",
    "core.batch.rows",
    "core.evaluate.calls",
    "optimizer.search.calls",
    "optimizer.search.evaluated",
    "optimizer.search.pruned",
    "sim.pipeline_sim.calls",
    "sim.pipeline_sim.tiles",
)


def units(values: dict) -> dict[str, str]:
    """The unit of each metric in ``values``."""
    known = {**END_TO_END, **PER_LAYER, **SERVE_END_TO_END, **SERVE_PER_LAYER}
    return {name: known[name] for name in values}


def _serve_extra(outcome: Outcome, names: dict) -> dict:
    return {
        name: outcome.extra[name] for name in names if name in outcome.extra
    }


def end_to_end(outcome: Outcome, setup_s: float, rss_mb: float) -> dict:
    """The outcome's times and ``setup_s`` come in already scaled to
    the reference host (closed loops; see ``perfbench/host.py``)."""
    return {
        "throughput_ops_per_s": outcome.completed / outcome.wall_s,
        "latency_p50_ms": percentile(outcome.latencies_s, 50) * 1e3,
        "latency_p90_ms": percentile(outcome.latencies_s, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **_serve_extra(outcome, SERVE_END_TO_END),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    traced: Outcome, untraced: Outcome, spans: list[Span], host_speed: float
) -> dict:
    totals = layer_totals(spans)
    empty = LayerTotals()

    def layer(name: str) -> LayerTotals:
        return totals.get(name, empty)

    allocation = layer("optimizer.allocation")
    space = layer("optimizer.space")
    batch = layer("core.batch")
    evaluate = layer("core.evaluate")
    search = layer("optimizer.search")
    puts = layer("optimizer.config_store.put")
    gets = layer("optimizer.config_store.get")
    trace = layer("sim.trace")
    pipeline = layer("sim.pipeline_sim")
    engine = layer("optimizer.engine")
    evaluated = search.attrs.get("evaluated", 0)
    pruned = search.attrs.get("pruned", 0)
    tiles = pipeline.attrs.get("tiles", 0)
    traced_s = sum(traced.latencies_s)
    untraced_s = sum(untraced.latencies_s)
    metrics = {
        "optimizer.allocation.calls": allocation.calls,
        "optimizer.allocation.busy_ms": allocation.busy_s * 1e3,
        "optimizer.space.busy_ms": space.busy_s * 1e3,
        "core.batch.calls": batch.calls,
        "core.batch.rows": batch.attrs.get("rows", 0),
        "core.batch.busy_ms": batch.busy_s * 1e3,
        "core.evaluate.calls": evaluate.calls,
        "core.evaluate.busy_ms": evaluate.busy_s * 1e3,
        "optimizer.search.calls": search.calls,
        "optimizer.search.self_ms": search.self_s * 1e3,
        "optimizer.search.evaluated": evaluated,
        "optimizer.search.pruned": pruned,
        "optimizer.search.prune_ratio": _ratio(pruned, evaluated + pruned),
        "optimizer.config_store.puts": puts.calls,
        "optimizer.config_store.put_ms": puts.busy_s * 1e3,
        "optimizer.config_store.gets": gets.calls,
        "optimizer.config_store.get_ms": gets.busy_s * 1e3,
        "optimizer.config_store.hit_ratio": _ratio(
            gets.attrs.get("hit", 0), gets.calls
        ),
        "sim.trace.calls": trace.calls,
        "sim.trace.busy_ms": trace.busy_s * 1e3,
        "sim.pipeline_sim.calls": pipeline.calls,
        "sim.pipeline_sim.busy_ms": pipeline.busy_s * 1e3,
        "sim.pipeline_sim.tiles": tiles,
        "sim.pipeline_sim.tiles_per_s": _ratio(tiles, pipeline.busy_s),
        "sim.pipeline_sim.cycle_ratio_min": traced.extra.get(
            "sim.pipeline_sim.cycle_ratio_min", 0.0
        ),
        "sim.pipeline_sim.cycle_ratio_max": traced.extra.get(
            "sim.pipeline_sim.cycle_ratio_max", 0.0
        ),
        "api.self_ms": layer("api").self_s * 1e3,
        "optimizer.engine.self_ms": engine.self_s * 1e3,
        "optimizer.engine.memo_hits": engine.attrs.get("memo_hits", 0),
        "optimizer.engine.searched": engine.attrs.get("searched", 0),
        "optimizer.engine.coalesced": engine.attrs.get("coalesced", 0),
        "harness.generator_lag_p99_ms": (
            percentile(traced.generator_lags_s, 99) * 1e3
            if traced.generator_lags_s else 0.0
        ),
        "harness.host_speed": host_speed,
        "harness.tracing_overhead_pct": (
            (traced_s - untraced_s) / untraced_s * 100.0
        ),
    }
    metrics.update(_serve_extra(traced, SERVE_PER_LAYER))
    return metrics
