"""The speed of the VM right now, read from a fixed reference task.

On a shared 2-core VM the speed of one process jumps between a usual level
and one about 1.7x faster, in spells from milliseconds to tens of seconds,
depending on what the rest of the host runs; a whole 25 s run can fall into
one fast spell.  A timed run therefore runs ``probe`` before every operation
that runs in the harness process and after the last, and scales each such
operation's time by ``REFERENCE_S`` over the mean of the probes just before
and just after it.  A probe reads the speed of its own process only: the
fresh interpreters that time set-up run their own probes right after their
timed part.  The reported times
are times at the reference speed, the speed at which ``probe`` takes
``REFERENCE_S`` when it runs among the operations; that is the usual level
of the 2-core VM the benchmark was tuned on, so they read close to the wall
times seen there outside fast spells.  The unscaled metrics are kept in the
run's record.

The task is pure-Python arithmetic on small fractions and dictionary
updates, the kind of work the package's matrix and lattice layers do.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0014  # probe time among the operations at the usual level of the reference VM
REPEATS = 40


def probe() -> float:
    """Seconds one run of the reference task takes now."""
    start = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    for i in range(REPEATS):
        acc = Fraction(0)
        for k in range(1, 9):
            acc += Fraction(i % 5 + 1, k)
        key = (i % 7, acc.numerator % 11)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def factor(probes) -> float:
    """Multiplier from measured seconds to seconds at the reference speed,
    given the probe times taken among the measured work; the median probe
    stands for them, so one probe disturbed on its own does not move it."""
    return REFERENCE_S / statistics.median(probes)
