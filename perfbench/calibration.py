"""How fast the machine runs right now, from one fixed pure-Python loop.

On a shared two-core machine the same code runs up to about 30 % slower
for seconds to minutes at a time, so raw seconds from two runs a minute
apart differ by more than any bound worth setting.  The benchmark
therefore runs this loop once per second of timed calls, between calls,
and gates ``wall_rel``: the pass time divided by the loop time of the same
run, a dimensionless figure that a change to visitprob moves and a busy
machine mostly does not.  Contention only ever slows work down, and it
slows the loop more than some workloads (about 1.7x against 1.35x for
dist_exact), so each side is taken as the mean of its faster half
(``fast_half``), the samples least disturbed.  Set-up is corrected by the
loop run in the same fresh process right after it; because the contract
for ``setup_s`` asks for seconds, that ratio is multiplied by
``NOMINAL_S``, which cancels out of every comparison of two runs.  Raw
seconds are printed beside both.

The loop mixes the kinds of work the workloads do (Fraction arithmetic,
``lgamma`` and float products, 64-bit word mixing, string building and
parsing), so that contention on any of them moves it.  It is the
benchmark's own code, so no change to visitprob can move it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

EVERY_S = 1.0  # seconds of timed calls per run of the loop
# The loop's seconds on an idle core of the 2-core x86_64 machine the
# benchmark was tuned on; it only turns a ratio back into seconds.
NOMINAL_S = 0.2

_MASK = (1 << 64) - 1


def _loop() -> None:
    p, q, total = Fraction(13, 97), Fraction(41, 89), Fraction(0)
    for i in range(1, 2000):
        total += p ** (i % 97) * q ** (i % 89)
    x = 0.0
    for i in range(1, 200_000):
        x += math.lgamma(i) * 1.0000001 + (x if x < 1 else 0.0)
    state, visits = 42, 0
    for _ in range(80_000):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        visits += ((z ^ (z >> 31)) >> 11) * 2.0**-53 < 0.3
    chars = 0
    for i in range(25_000):
        a, b = f"{i}/{i + 7}".split("/")
        chars += len(repr(int(a) / int(b)))


def fast_half(seconds: list[float]) -> float:
    """Mean of the faster half of ``seconds`` (at least one value)."""
    fast = sorted(seconds)[: max(1, len(seconds) // 2)]
    return sum(fast) / len(fast)


def loop_seconds() -> float:
    """Seconds the loop takes now."""
    started = perf_counter()
    _loop()
    return perf_counter() - started


class Calibration:
    """Loop times sampled through a run: one per ``EVERY_S`` seconds of
    timed calls, so that the samples weigh each stretch of the run by its
    share of the timed work, plus one at the start and one at the end."""

    def __init__(self) -> None:
        self.samples = [loop_seconds()]
        self._owed = 0.0

    def timed(self, seconds: float) -> None:
        """Account ``seconds`` of timed calls; run the loop as often as due."""
        self._owed += seconds
        while self._owed >= EVERY_S:
            self._owed -= EVERY_S
            self.samples.append(loop_seconds())
