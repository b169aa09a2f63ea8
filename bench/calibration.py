"""Reference kernels that measure how fast the machine runs at each moment of a run.

On a shared machine the same code runs up to about 1.7x slower for seconds to
minutes at a time, and CPU time slows with wall time, so neither shows the
change on its own.  The runner times these kernels right before and right
after every set-up and every op, and divides the set-up or op time by the mean
of the two slow-downs (``slowdown``): the gated times are then in seconds of a
machine that runs the kernels in their reference times.  The kernels are the
benchmark's own fixed code, so a change to the library cannot move them.

Two kernels, because the slow mode does not slow all code alike; a workload
weighs them by how its own time splits:

- ``interpreter``: a pure-Python loop with small numpy calls, as in the
  set-family search, the overlap sweep and the dense min-cut oracle.
- ``memory``: fills a fresh 8 MiB array and gathers from it at random, as
  the AGM sketch does with its 79 MB hash tables.  It allocates no more than
  an AGM op has freed, so it does not raise the workload's peak RSS.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: Kernel runs per measurement; their median is the machine's speed at that moment.
REPEATS = 3

_VECTOR = np.arange(512, dtype=np.int64)
_WORDS = 1 << 20
_GATHER = np.random.default_rng(0).integers(0, _WORDS, size=150_000)


def interpreter() -> None:
    vector = _VECTOR.copy()
    table: dict[int, int] = {}
    acc = 0
    for i in range(300):
        j = int(np.argmax(vector))
        vector[j] -= 600
        vector += 1
        for t in range(30):
            table[(i * t) & 1023] = acc
            acc += t ^ i


def memory() -> None:
    words = np.random.default_rng(1).integers(0, 1 << 62, size=_WORDS, dtype=np.uint64)
    words[_GATHER].sum()


#: Kernel and its time, in seconds, on the reference machine
#: (2-CPU Intel Xeon, 105 MiB L3, Python 3.11, numpy 2.4, in its fast mode).
KERNELS = {
    "interpreter": (interpreter, 0.0025),
    "memory": (memory, 0.0120),
}


def warm_up() -> None:
    """Run every kernel once, so that no measurement pays a first call's costs."""
    for kernel, _ in KERNELS.values():
        kernel()


def slowdown(weights: dict[str, float]) -> float:
    """How many times slower than the reference machine this one runs now: the
    geometric mean, weighted by ``weights``, of each kernel's median time over
    its reference time."""
    factor = 1.0
    for name, weight in weights.items():
        kernel, reference = KERNELS[name]
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        factor *= (median(times) / reference) ** weight
    return factor


def scaled(times: list[float], slowdowns: list[float]) -> list[float]:
    """Each time divided by the mean slow-down measured right before and right after it."""
    return [t * 2 / (a + b) for t, a, b in zip(times, slowdowns, slowdowns[1:])]
