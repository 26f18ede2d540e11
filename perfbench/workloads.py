"""The three workloads: set-up, timed op sequence and output checks.

Each workload is driven from one process through the public surface
(``repro.Session`` and ``Session.serve()``).  A pass is: set-up (untimed
by the pass; the caller times it as ``setup_s``), the timed op sequence,
then the output checks, which run after the timed window so they cost
the measured ops nothing.  A failed op is one that raised, was rejected
or failed a check.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

import repro
from repro import OptimizerOptions, Session, SessionConfig, morph
from repro.core.access_model import compute_traffic
from repro.core.dims import DataType
from repro.core.evaluate import evaluate
from repro.core.performance_model import compute_performance
from repro.optimizer.config_store import LocalDirectoryStore, dataflow_from_json
from repro.optimizer.engine import search_signature, signature_key
from repro.optimizer.search import OBJECTIVES
from repro.serve import ServeRequest
from repro.serve.engine import ServeEngine
from perfbench import inputs
from perfbench.host import host_scale, op_scales, percentile, probe
from perfbench.spans import Tracer

#: serve_mix latency objective, timed from each request's due time, for
#: requests without a deadline (a deadline request is held to its
#: deadline).  It is four times the hot-request p90 measured on a 2-vCPU
#: host (about 25 ms), so a hot request queued behind cold searches
#: misses it; a cold request, which searches for 0.4-2 s, always does.
SLO_MS = 100.0
SERVE_WORKERS = 2
#: Analytic-vs-trace fill tolerance and cycle-ratio band of
#: tests/test_sim_network_validation.py.
FILL_SLACK_FACTOR = 3.0
FILL_SLACK_BYTES = 512
CYCLE_RATIO_BAND = (0.5, 2.0)


@dataclasses.dataclass
class Outcome:
    """What one timed pass measured."""

    attempted: int
    #: Ops that returned a result (serve: requests served, not rejected).
    completed: int
    failed: int
    #: Closed loop: each op's wall time times its host scale (see
    #: ``perfbench/host.py``); open loop: raw wall time from due time to
    #: completion.
    latencies_s: list[float]
    #: Closed loop: the op latencies plus the memo clearing before each
    #: op, scaled the same way; open loop: first due time to last
    #: completion.
    wall_s: float
    #: Closed loop: the memo clearing before each op, scaled; open loop:
    #: how late each request was sent.
    generator_lags_s: list[float]
    #: Workload-specific figures (the ``serve.*`` metrics, serve goodput
    #: and the pipeline cycle ratios).
    extra: dict[str, float]
    #: Closed loop: the host scale of the whole pass, for the record;
    #: the open loop runs no probes and reads 1.
    host_scale: float = 1.0


def _fresh_dir(workdir: Path, prefix: str) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=workdir))


def _tracing(tracer: Tracer | None, store_types: tuple[type, ...] = ()):
    """Spans on for the timed window only, so checks are not traced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.installed(store_types)


def _closed_loop(ops, do_op, tracer: Tracer | None,
                 store_types: tuple[type, ...]):
    """One client: run the host probe, clear the memos, then time
    ``do_op`` on each op in turn; probe once more at the end.  Returns
    the outcomes (an op that raised yields its exception), the per-op
    latencies, the memo-clearing gaps before each op and the probe
    times, all raw wall time."""
    outcomes: list[Any] = []
    latencies, lags, probes = [], [], []
    with _tracing(tracer, store_types):
        for index, op in enumerate(ops):
            probes.append(probe())
            cleared = time.perf_counter()
            repro.clear_cache()
            begin = time.perf_counter()
            lags.append(begin - cleared)
            try:
                if tracer is None:
                    outcome = do_op(op)
                else:
                    with tracer.op(f"op-{index}"):
                        outcome = do_op(op)
            except Exception as error:  # counted as a failed op
                outcome = error
            latencies.append(time.perf_counter() - begin)
            outcomes.append(outcome)
        probes.append(probe())
    return outcomes, latencies, lags, probes


def _closed_outcome(outcomes, passed, latencies, lags, probes,
                    extra=None) -> Outcome:
    """The pass's outcome, every time scaled to the reference host."""
    scales = op_scales(probes)
    latencies = [t * s for t, s in zip(latencies, scales)]
    lags = [t * s for t, s in zip(lags, scales)]
    return Outcome(
        attempted=len(outcomes),
        completed=sum(not isinstance(o, Exception) for o in outcomes),
        failed=sum(not ok for ok in passed),
        latencies_s=latencies, wall_s=sum(latencies) + sum(lags),
        generator_lags_s=lags,
        extra=extra or {},
        host_scale=host_scale(probes),
    )


def _same_result(served, reference) -> bool:
    """Bit-identity of one layer's result, ignoring the anytime
    telemetry a budgeted engine adds to a search it completed."""
    if served.bound_gap == 0.0 and not served.budget_exhausted:
        served = dataclasses.replace(served, bound_gap=None)
    return served == reference


class Workload:
    """One workload: ``make_inputs`` reads the seed; ``setup`` builds the
    state a pass needs; ``run`` times the op sequence and checks it."""

    name = ""
    store_types: tuple[type, ...] = ()

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.arch = morph()
        self.options = OptimizerOptions.fast()
        self.inputs: Any = None

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` made."""


# ----------------------------------------------------------------------
class ColdSearch(Workload):
    """Closed loop, one client: one cold ``Session.optimize_layer`` per
    op on a distinct layer, memos cleared first, records written to a
    fresh ``local`` store."""

    name = "cold_search"
    store_types = (LocalDirectoryStore,)

    def make_inputs(self) -> None:
        self.inputs = inputs.cold_search_layers(self.seed, self.seconds)

    def setup(self) -> tuple[Session, Path]:
        store_dir = _fresh_dir(self.workdir, "cold-store-")
        session = Session(SessionConfig(
            parallelism=1, cache_dir=store_dir, cache_backend="local",
            use_cache=True,
        ))
        return session, store_dir

    def teardown(self, state) -> None:
        session, store_dir = state
        session.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    def run(self, state, tracer) -> Outcome:
        session, _ = state

        def search(layer):
            return session.optimize_layer(layer, self.arch, self.options)

        results, latencies, lags, probes = _closed_loop(
            self.inputs, search, tracer, self.store_types
        )
        store = session.store()
        passed = [
            self._check(layer, result, store)
            for layer, result in zip(self.inputs, results)
        ]
        return _closed_outcome(results, passed, latencies, lags, probes)

    def _check(self, layer, result, store) -> bool:
        """The winner re-evaluates to the reported score, and its store
        record decodes to the identical configuration."""
        if isinstance(result, Exception) or result.budget_exhausted:
            return False
        score = OBJECTIVES[result.objective](
            evaluate(result.best.dataflow, self.arch)
        )
        if score != result.score:
            return False
        payload = store.get(signature_key(
            search_signature(layer, self.arch, self.options)
        ))
        if payload is None:
            return False
        return dataflow_from_json(layer, payload["dataflow"]) == (
            result.best.dataflow
        )


# ----------------------------------------------------------------------
class SimValidate(Workload):
    """Closed loop, one client: recall one layer from the store (memos
    cleared first), then trace- and pipeline-simulate its configuration
    and hold the analytic models to the simulators."""

    name = "sim_validate"
    store_types = (LocalDirectoryStore,)

    def make_inputs(self) -> None:
        self.inputs = inputs.sim_validate_inputs(self.seed, self.seconds)

    def setup(self):
        store_dir = _fresh_dir(self.workdir, "sim-store-")
        session = Session(SessionConfig(
            parallelism=1, cache_dir=store_dir, cache_backend="local",
            use_cache=True,
        ))
        repro.clear_cache()
        searched = [
            session.optimize_layer(layer, self.arch, self.options)
            for layer in self.inputs.layers
        ]
        return session, store_dir, searched

    def teardown(self, state) -> None:
        session, store_dir, _ = state
        session.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    def run(self, state, tracer) -> Outcome:
        session, _, searched = state

        def recall_and_simulate(index):
            disk_hits = session.stats.disk_hits
            recalled = session.optimize_layer(
                self.inputs.layers[index], self.arch, self.options
            )
            dataflow = recalled.best.dataflow
            trace = session.trace(dataflow)
            pipeline = session.simulate(dataflow, self.arch)
            return (
                recalled, session.stats.disk_hits - disk_hits,
                [dict(b.fill_bytes) for b in trace.boundaries], pipeline,
            )

        observed, latencies, lags, probes = _closed_loop(
            self.inputs.ops, recall_and_simulate, tracer, self.store_types
        )
        analytic: dict[int, Any] = {}
        passed, ratios = [], []
        for index, outcome in zip(self.inputs.ops, observed):
            ok, ratio = self._check(searched[index], outcome, analytic, index)
            passed.append(ok)
            if ratio is not None:
                ratios.append(ratio)
        return _closed_outcome(
            observed, passed, latencies, lags, probes,
            {
                "sim.pipeline_sim.cycle_ratio_min": min(ratios, default=0.0),
                "sim.pipeline_sim.cycle_ratio_max": max(ratios, default=0.0),
            },
        )

    def _check(
        self, searched, outcome, analytic, index
    ) -> tuple[bool, float | None]:
        """The recall came from the store and matches the set-up search;
        the analytic fills bound the traced fills within the tolerance;
        the pipeline cycles sit within the ratio band of the model.
        Also returns the pipeline/analytic cycle ratio, once computed."""
        if isinstance(outcome, Exception):
            return False, None
        recalled, disk_hits, fills, pipeline = outcome
        dataflow = recalled.best.dataflow
        if disk_hits != 1 or recalled.best != searched.best:
            return False, None
        if index not in analytic:
            traffic = compute_traffic(dataflow, self.arch.precision)
            analytic[index] = (
                traffic, compute_performance(traffic, self.arch, dataflow)
            )
        traffic, performance = analytic[index]
        for expected, seen in zip(traffic.boundaries, fills):
            for data_type in (DataType.INPUTS, DataType.WEIGHTS):
                a_bytes = expected.of(data_type).fill_bytes
                t_bytes = seen[data_type]
                if not (
                    t_bytes <= a_bytes
                    <= t_bytes * FILL_SLACK_FACTOR + FILL_SLACK_BYTES
                ):
                    return False, None
        ratio = pipeline.cycles / performance.cycles
        low, high = CYCLE_RATIO_BAND
        ok = (
            low <= ratio <= high
            and pipeline.load_bound_tiles + pipeline.compute_bound_tiles
            == pipeline.tiles
        )
        return ok, ratio


# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Served:
    arrival: inputs.Arrival
    due: float
    sent: float
    first_layer: float = math.nan
    done: float = math.nan
    result: Any = None
    error: BaseException | None = None


class ServeMix(Workload):
    """Open loop: a seeded arrival schedule from one asyncio generator
    against ``Session.serve(max_workers=2)``, hot set warmed in set-up."""

    name = "serve_mix"

    def make_inputs(self) -> None:
        self.inputs = inputs.serve_mix_schedule(self.seed, self.seconds)

    def setup(self):
        session = Session(SessionConfig(parallelism=1, use_cache=True))
        repro.clear_cache()
        references = {
            name: session.optimize_network(
                session.build_network(name), self.arch, self.options
            )
            for name in inputs.HOT_NETWORKS
        }
        return session, references

    def teardown(self, state) -> None:
        state[0].close()

    def run(self, state, tracer) -> Outcome:
        session, references = state
        serve = session.serve(max_workers=SERVE_WORKERS)
        with _tracing(tracer):
            served, start, metrics = asyncio.run(self._drive(serve, tracer))
        end = max(s.done for s in served if not math.isnan(s.done))
        references = dict(references)
        repro.clear_cache()
        for s in served:
            if s.arrival.cold and s.arrival.label not in references:
                network = session.build_network(
                    s.arrival.network, frames=s.arrival.frames
                )
                references[s.arrival.label] = session.optimize_network(
                    network, self.arch, self.options
                )

        failed = good = exhausted = 0
        latencies, overshoots = [], []
        for s in served:
            latency = s.done - s.due
            latencies.append(latency if s.error is None else math.inf)
            ok = s.error is None and self._check(
                s.result, references[s.arrival.label]
            )
            failed += not ok
            slo_ms = s.arrival.deadline_ms or SLO_MS
            good += ok and latency * 1e3 <= slo_ms
            if ok and s.result.budget_exhausted:
                exhausted += 1
            if s.arrival.deadline_ms is not None and s.error is None:
                overshoots.append(latency * 1e3 - s.arrival.deadline_ms)
        first_layers = [
            s.first_layer - s.due for s in served
            if not math.isnan(s.first_layer)
        ]
        completed = len(served) - sum(s.error is not None for s in served)
        return Outcome(
            attempted=len(served), completed=completed,
            failed=failed, latencies_s=latencies,
            wall_s=end - start,
            generator_lags_s=[s.sent - s.due for s in served],
            extra={
                "goodput_ops_per_s": good / (end - start),
                "serve.first_layer_ms": (
                    percentile(first_layers, 50) * 1e3 if first_layers else 0.0
                ),
                "serve.peak_queue_depth": metrics.peak_queue_depth,
                "serve.rejected": (
                    metrics.rejected_quota + metrics.rejected_backpressure
                    + metrics.rejected_closed
                ),
                "serve.coalesce_rate": metrics.coalesce_rate,
                "serve.exhausted_share": (
                    exhausted / completed if completed else 0.0
                ),
                "serve.deadline_overshoot_ms": max([0.0, *overshoots]),
            },
        )

    async def _drive(self, serve: ServeEngine, tracer: Tracer | None):
        """The arrival generator: sends each request at its due time and
        never waits for replies (open loop)."""
        served: list[_Served] = []
        tasks = []
        start = time.perf_counter()
        for arrival in self.inputs:
            due = start + arrival.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = _Served(arrival=arrival, due=due,
                             sent=time.perf_counter())
            request_id = f"req-{arrival.index}"
            if tracer is not None:
                tracer.begin_request(request_id, record.sent)
            served.append(record)
            tasks.append(asyncio.create_task(
                self._request(serve, record, request_id)
            ))
        await asyncio.gather(*tasks)
        metrics = serve.metrics()
        await serve.aclose()
        if tracer is not None:
            for record in served:
                tracer.end_request(f"req-{record.arrival.index}", record.done)
        return served, start, metrics

    async def _request(self, serve: ServeEngine, record: _Served,
                       request_id: str) -> None:
        arrival = record.arrival
        request = ServeRequest(
            network=arrival.network,
            tenant=arrival.tenant,
            config=(
                None if arrival.frames is None
                else SessionConfig(frames=arrival.frames)
            ),
            deadline_ms=arrival.deadline_ms,
            request_id=request_id,
        )
        try:
            async for event in serve.stream(request):
                if event.kind == "layer" and math.isnan(record.first_layer):
                    record.first_layer = time.perf_counter()
                elif event.kind == "result":
                    record.result = event.result
        except Exception as error:  # rejections too; counted as failed
            record.error = error
        record.done = time.perf_counter()

    def _check(self, served, reference) -> bool:
        """Layers that finished within their budget are bit-identical to
        a direct ``Session.optimize_network``; budget-exhausted layers
        carry a certified ``bound_gap >= 0``."""
        if len(served.result.layers) != len(reference.layers):
            return False
        for layer, expected in zip(served.result.layers, reference.layers):
            if layer.budget_exhausted:
                if layer.bound_gap is None or not layer.bound_gap >= 0:
                    return False
            elif not _same_result(layer, expected):
                return False
        return True


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ColdSearch, SimValidate, ServeMix)
}
