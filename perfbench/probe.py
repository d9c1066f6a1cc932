"""Host-speed probe: a fixed pure-Python kernel timed between ops.

On a shared host the interpreter's speed drifts by up to a factor of two
over tens of seconds, which would swamp any change to relfix.  The kernel
below allocates small dicts and tuples, indexes them and formats floats with
repr, the same mix of work as relfix's ledger building and JSON encoding,
so its time rises and falls with the ops' time.  The benchmark reports each
op's wall time rescaled to a host on which the kernel takes REF_S seconds:

    t_reported = t_wall * REF_S / probe_s

where probe_s is the probe measured just before the op.  The raw wall times
are printed alongside.  The kernel never changes with relfix, so the
rescaling cancels in every parent-versus-change comparison.
"""

from __future__ import annotations

import random
import statistics
import time

REF_S = 0.002      # about the kernel's time on an unloaded 2-CPU host
REPEATS = 3

_rng = random.Random(5)
_VALUES = [_rng.random() for _ in range(2000)]
_ORDER = list(range(len(_VALUES)))
_rng.shuffle(_ORDER)


def kernel() -> float:
    rows = [{"a": x, "b": x * 0.5, "k": (i, i + 1)} for i, x in enumerate(_VALUES)]
    index = {r["k"]: r for r in rows}
    acc = 0.0
    for i in _ORDER:
        acc += index[(i, i + 1)]["b"]
    return acc + len(",".join(repr(r["a"]) for r in rows))


def probe() -> float:
    """Median seconds of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
