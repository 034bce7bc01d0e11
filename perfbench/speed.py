"""Host speed, from a fixed reference loop timed next to every op.

The 2-vCPU virtual machine this benchmark was built on runs one thread at
one of two speeds about 1.6 times apart, switching every few seconds, and
the share of time at each drifts over minutes: 20-second runs of the same
ops differed by up to 35% in wall time. So the reference is timed before
the first op and after every op, and each op's time is scaled by
``NOMINAL_S`` over the mean of the references on either side of it. In
five-run checks of each workload the quartile spread of throughput was
18-28% in wall time and 3-8% scaled.

A scaled time reads as the time the op would take on a machine where the
reference takes ``NOMINAL_S``. The reference is plain Python over dicts,
sets and tuples, the kind of work the program does, small enough to stay
in cache (a ten times larger graph tracked the ops worse), and it does
not import ``powerdom``, so a change to the program does not change it.
"""

from __future__ import annotations

import gc
import time

# the reference at the faster speed of the build machine
NOMINAL_S = 0.0001

PASSES = 5
_N = 400
_ADJ = {i: ((i + 1) % _N, (i * 7 + 1) % _N, (i * 13 + 5) % _N) for i in range(_N)}


def _search() -> float:
    started = time.perf_counter()
    seen, stack = {0}, [0]
    while stack:
        for y in _ADJ[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    took = time.perf_counter() - started
    if len(seen) != _N:
        raise AssertionError("reference loop did not visit every vertex")
    return took


def reference() -> float:
    """Seconds the reference takes now: the fastest of PASSES depth-first
    searches over a fixed graph, so an interrupt in one pass does not count.
    The cyclic garbage collector is paused, so a collection of the
    program's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_search() for _ in range(PASSES))
    finally:
        if enabled:
            gc.enable()


def scaled(took: float, before: float, after: float) -> float:
    """``took`` seconds, measured between reference passes of ``before``
    and ``after`` seconds, at the nominal speed."""
    return took * 2 * NOMINAL_S / (before + after)
