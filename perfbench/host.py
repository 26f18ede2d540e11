"""Run metadata, the host-speed probe and the host scale.

The probe is fixed work owned by the benchmark: a pure-Python loop and
NumPy sorts of a 32 KiB array, the two kinds of work the program's
searches and simulations mix.  It runs no code of the program.  Each
probe runs its work once untimed and then once timed, so the timed run
finds its data in the cache whatever ran before it.  The closed-loop
workloads run a probe before every op and once after the last, outside
the timed ops.

Each op's time is multiplied by its host scale: ``REFERENCE_PROBE_S``
over the median of the three probes run just before the op and the
three run just after it.  The op's time then reads as the time it would
have taken on a host as fast as the reference VM.  Set-up is scaled the
same way, by probes run back to back just before and just after it.  On
a shared host the probe and the program slow down together, so the
scale takes out the host's slow and fast spells, which last seconds to
minutes and which no length of run averages away.  A scale per op, not
per run, also takes out the spells that slow a few ops in a row, which
set the tail percentiles.

Why this probe: probes that read memory at random tracked the searches
as well, but their time depended on what the op before them had left in
the shared cache (up to 2.4 times slower after an op than back to
back), so a change to the program's memory use would have moved the
scale.  A warm probe whose data stays in the core's own caches cannot be
moved by the program, and within a run it slowed as much as the
searches did.
"""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import resource
import statistics
import time

import numpy

#: Pure-Python iterations and NumPy sorts per probe run.
PROBE_ITERATIONS = 5_000
PROBE_SORTS = 20
_PROBE_ARRAY = numpy.random.default_rng(0).random(1 << 12)
#: Median probe time between the ops of a run on the reference VM
#: (2 vCPUs, Python 3.11, NumPy 2.4).  A fixed constant: it only sets
#: the units of the scaled timings, and both sides of a comparison use
#: the same value.
REFERENCE_PROBE_S = 0.86e-3
#: Probes on each side of an op whose median sets the op's scale.
NEIGHBOURS = 3
#: Seconds of back-to-back probes around the set-ups and the run.
CALIBRATION_SECONDS = 0.25


def _probe_work() -> None:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += (i * i) % 7
    for _ in range(PROBE_SORTS):
        numpy.sort(_PROBE_ARRAY * 1.0001)[::7].sum()


def probe() -> float:
    """Run the probe once; return the wall time of its timed run."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def host_scale(probes_s: list[float]) -> float:
    """The factor that converts wall time to reference-host time over
    the span of these probes: below 1 when the host ran slower than the
    reference."""
    return REFERENCE_PROBE_S / statistics.median(probes_s)


def op_scales(probes_s: list[float]) -> list[float]:
    """The host scale of each op of a closed loop, where
    ``probes_s[i]`` ran just before op ``i`` and ``probes_s[i + 1]``
    just after it: from the ``NEIGHBOURS`` probes on each side."""
    return [
        host_scale(probes_s[max(0, op + 1 - NEIGHBOURS):op + 1 + NEIGHBOURS])
        for op in range(len(probes_s) - 1)
    ]


def calibrate() -> list[float]:
    """Back-to-back probe times over about a quarter second."""
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < CALIBRATION_SECONDS:
        times.append(probe())
    return times


def host_speed(probes_s: list[float]) -> float:
    """Probes per second, from their median."""
    return 1.0 / statistics.median(probes_s)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the serve engine's definition)."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def beyond(values: list[float], threshold: float) -> int:
    return sum(value > threshold for value in values)
