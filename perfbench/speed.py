"""Speed probe: puts times taken at different machine speeds on one scale.

The speed this process gets drifts by up to 2x over seconds when other
tenants share the cores.  A fixed loop of interpreter-bound integer and
bit operations slows by the same factor as the library does, so the
benchmark times it every few milliseconds around the operations and
scales every reported time to the speed at which the loop takes
PROBE_REF_NS.  This module imports nothing but `time`, so that a fresh
interpreter can load it before timing the library's import.
"""

import time

PROBE_LOOPS = 1000
PROBE_REF_NS = 170_000
PROBE_EVERY_NS = 5_000_000
_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]


def probe_ns() -> int:
    """Duration of the fixed loop; it allocates no tracked objects, so it
    never triggers the garbage collector."""
    table = _TABLE
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(PROBE_LOOPS):
        m = table[i & 255] ^ i
        acc += (m & -m).bit_length() + (m >> 3).bit_count()
    return time.perf_counter_ns() - t0


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def speed_factors(n: int, probes: list) -> list:
    """Factor PROBE_REF_NS / probe duration for each of n operations, given
    (index of the op a probe preceded, duration) pairs that start at op 0
    and end at op n.  An op's probe duration is the median of the two
    probes on each side of it, so one probe hit by an interrupt cannot
    skew it."""
    at = [i for i, _ in probes]
    ns = [v for _, v in probes]
    factors = []
    j = 0  # the first probe taken after op i
    for i in range(n):
        while at[j] <= i:
            j += 1
        factors.append(PROBE_REF_NS / _median(ns[max(0, j - 2) : j + 2]))
    return factors


def scaled(elapsed_ns: int, before_ns: int, after_ns: int) -> float:
    """Elapsed time in seconds at the reference speed, given the probe
    durations taken just before and just after it."""
    return elapsed_ns / 1e9 * PROBE_REF_NS * 2 / (before_ns + after_ns)
