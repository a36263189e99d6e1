"""CPU time, and host speed sampled with a fixed pure-Python loop.

On a shared host the same code takes a third more or less time from one
minute to the next, for two reasons: the host takes the CPU away (steal and
preemption, which wall time counts and CPU time does not), and the CPU runs
slower or faster while it is ours (which CPU time counts too). The benchmark
therefore times work in CPU seconds (`cpu_seconds`) and scales that by the
CPU time of this loop, timed next to the work: a rate r measured while the
loop takes c CPU seconds (median) is reported as r * c / REFERENCE_LOOP_S,
where REFERENCE_LOOP_S is the loop's median on the reference host (see
README.md). The loop is the benchmark's own code; no qck code runs in it,
so a change to qck moves the scaled figures exactly as much as the raw ones.
"""

import resource
import statistics
import time

REFERENCE_LOOP_S = 0.0027
SETUP_LOOPS = 7  # loop timings taken right after a worker's set-up


def loop_seconds():
    """CPU seconds of one pass of the calibration loop. It multiplies two sparse
    coefficient maps keyed by (exponent, tuple) the way qck multiplies
    Laurent coefficients: small dicts, tuples and ints, rebuilt every pass."""
    start = time.process_time()
    left = {(i, (i % 3, 1)): i + 1 for i in range(10)}
    right = {(i, (1, -1)): 2 for i in range(6)}
    for _ in range(25):
        out = {}
        for (e1, g1), v1 in left.items():
            for (e2, g2), v2 in right.items():
                key = (e1 + e2, tuple(x + y for x, y in zip(g1, g2)))
                value = out.get(key, 0) + v1 * v2
                if value:
                    out[key] = value
                else:
                    del out[key]
    return time.process_time() - start


def cpu_seconds():
    """CPU time of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def slowness(samples):
    """Host slowness over a span from the loop timings taken during it."""
    return statistics.median(samples) / REFERENCE_LOOP_S
