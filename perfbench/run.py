"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload cold_search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
(no install step).  ``--trace 0`` times the workload with tracing off and
reports the end-to-end metrics, scaled to the reference host by the
probe of ``perfbench/host.py``; ``--trace 1`` runs the same op sequence
untraced and then traced, and reports the per-layer metrics, including
the tracing overhead between the two.  Earlier output lines are the run
metadata and a readable summary; the full record, with every span of a
traced run, is written under ``perfbench/out/``.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above times every import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from ``src/`` and the benchmark package."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"perfbench: no program sources under {ROOT / 'src'}; run from "
            "the root of a full checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The benchmark fixes its own configuration; a $REPRO_* variable in
    # the caller's environment must not change what is measured.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    from perfbench import host, report, workloads

    return host, report, workloads


def _setup(workload, repeats: int):
    """Run the set-up ``repeats`` times; keep the last state."""
    times, state = [], None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
        begin = time.perf_counter()
        workload.make_inputs()
        state = workload.setup()
        times.append(time.perf_counter() - begin)
    return state, times


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    host, report, workloads = _import_program()
    import_s = time.perf_counter() - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return _run(args, host, report, workloads, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, host, report, workloads, import_s: float, workdir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, workdir
    )
    meta = host.metadata()
    probes_before = host.calibrate()
    state, setup_times = _setup(workload, 1 if args.trace else SETUP_REPEATS)
    setup_scale = host.host_scale(probes_before + host.calibrate())
    try:
        plain = workload.run(state, None)
    finally:
        workload.teardown(state)
    traced = tracer = None
    if args.trace:
        from perfbench.spans import Tracer

        tracer = Tracer()
        state, _ = _setup(workload, 1)
        try:
            traced = workload.run(state, tracer)
        finally:
            workload.teardown(state)
    probes_after = host.calibrate()
    speed_before = host.host_speed(probes_before)
    speed_after = host.host_speed(probes_after)
    speed = (speed_before + speed_after) / 2.0

    measured = traced if traced is not None else plain
    setup_s = (import_s + statistics.median(setup_times)) * setup_scale
    if args.trace:
        values = report.per_layer(traced, plain, tracer.spans, speed)
    else:
        values = report.end_to_end(plain, setup_s, host.peak_rss_mb())
    units = report.units(values)
    p90 = host.percentile(measured.latencies_s, 90)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_speed_before": speed_before,
        "host_speed_after": speed_after,
        "host_scale": measured.host_scale,
        "setup_host_scale": setup_scale,
        "ops_per_run": measured.attempted,
        "samples_beyond_p90": host.beyond(measured.latencies_s, p90),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "failed_share": measured.failed / measured.attempted,
        "loadavg_after": list(os.getloadavg()),
    })
    result = {
        "correct": measured.failed == 0 and plain.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"metadata": meta, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    print("metadata " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
