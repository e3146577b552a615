"""The host-speed probe that the end-to-end times are scaled by.

The reference machine is a 2-core share of a busy host. Its speed for
interpreted code moves between two levels about 1.6x apart, in phases of a
second to many minutes, so a run's raw median says as much about the host as
about the program: raw `op_p50_s` medians of 20-second windows of one fixed
`boundary_design` loop spread 28% between the quartiles.

A fixed pure-Python kernel, independent of the program, is timed right before
and right after every timed operation (and around set-up). An operation that
took `raw` seconds is reported as

    raw * REFERENCE_S / median(the SIDE probes before it and the SIDE after it)

that is, the time it would have taken on a host where the probe takes
REFERENCE_S. The median over a few neighbouring probes follows the host's
phases and ignores a single probe caught in a spike. On the same loop,
scaling by the probes around each operation brought the spread to 3.5%. The
raw times and every probe are kept in the run's record under
`bench/results/`.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

ITERATIONS = 200_000
# the probe's time on the reference machine when its host is at the faster level
REFERENCE_S = 0.020
# probes taken into the median on each side of an operation
SIDE = 3


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(ITERATIONS):
        acc += math.erfc(i * 1e-6)
    if not acc > 0:  # keeps the loop's result in use
        raise RuntimeError("host-speed probe computed nothing")
    return perf_counter() - t0


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time at the reference speed; probes[i] and probes[i + 1] bracket times[i]."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} probes, got {len(probes)}")
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, i + 1 - SIDE): i + 1 + SIDE])
        for i, t in enumerate(times)
    ]
