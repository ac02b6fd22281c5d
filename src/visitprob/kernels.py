"""Hot kernels: trajectory simulation and float path enumeration.

The pseudo-random generator is pinned to splitmix64:

    state <- state + 0x9E3779B97F4A7C15              (mod 2**64)
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9      (mod 2**64)
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB      (mod 2**64)
    output <- z XOR (z >> 31)

Each output maps to a uniform double u in [0, 1) as (output >> 11) * 2**-53
(exact in IEEE-754).  One trajectory consumes exactly n draws: the first
decides the initial state (S1 iff u < p1), each later draw decides one
transition (leave the current state iff u < its leave-probability).
Trajectories are drawn one after another from a single stream seeded with
``seed``.

The generator is counter-based: draw i of the stream uses the state
seed + i*gamma (mod 2**64).  So step s (0-based) of trajectory t uses

    state = seed + (t*n + s + 1) * 0x9E3779B97F4A7C15   (mod 2**64)

and no trajectory needs the draws before it.  ``simulate_counts`` uses
that to run a block of trajectories at once, SIMD within a register: one
Python integer holds one 128-bit lane per trajectory, with the state in
the lane's low 64 bits, and every step is a few whole-word operations.
A lane is wide enough for the 64x64-bit products; each shift or product
is masked back to 64 bits per lane before the next operation.  Instead of
forming u, the kernel compares integers, by the identity

    u < p  <=>  (output >> 11) < ceil(p * 2**53)  <=>  output < ceil(p * 2**53) << 11

(``output >> 11`` is an integer and p * 2**53 is exact for p in [0, 1]).
Lane-wise, ``output < T`` is bit 65 of the non-negative lane value
2**65 + T - 1 - output.  Words go to and from bytes in little-endian
order with explicit formats, so no step depends on the host's byte order.
The histogram equals the one-at-a-time loop's bit for bit;
``tests/test_kernels.py`` keeps that loop as the reference.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

__all__ = ["simulate_counts", "enumerate_visit_mass", "backend_name"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = 9007199254740992.0  # 2**53

_BLOCK = 4096  # trajectories (lanes) per word: 64 KiB per word
_LANE = struct.Struct("<Q8x")  # one lane holding a 64-bit value
_GUARD = 65  # lane bit that holds a comparison result
_BIAS = (1 << _GUARD) - 1


def _threshold(p: float) -> int:
    """T such that u < p iff output < T, for every 64-bit output."""
    return min(max(math.ceil(p * _TWO53), 0), 1 << 53) << 11


def _lane_values(value: int, width: int) -> tuple[int, ...]:
    """The low 64 bits of each of the ``width`` lanes of ``value``."""
    return struct.unpack(f"<{2 * width}Q", value.to_bytes(16 * width, "little"))[::2]


def simulate_counts(
    n: int, p01: float, p10: float, p1: float, trials: int, seed: int
) -> list[int]:
    """Histogram over k = 0..n of S1 visits in ``trials`` sampled trajectories."""
    counts = [0] * (n + 1)
    t01 = _threshold(p01)
    dt = _threshold(p10) - t01
    stride = (n * _GAMMA) & _MASK  # state advance per trajectory
    first = seed & _MASK  # lane 0's state before its first draw
    full, rest = divmod(trials, _BLOCK)
    for width, blocks in ((_BLOCK, full), (rest, 1 if rest else 0)):
        if not blocks:
            continue
        ones = int.from_bytes(_LANE.pack(1) * width, "little")
        m64 = ones * _MASK
        step = ones * _GAMMA
        c1 = ones * (_BIAS + _threshold(p1))
        c01 = ones * (_BIAS + t01)
        lanes = b"".join(map(_LANE.pack, range(width)))
        ramp = int.from_bytes(lanes, "little") * stride  # lane t: t * n * gamma
        for _ in range(blocks):
            state = (ones * first + ramp) & m64
            s = visits = 0
            c = c1  # the first draw compares against p1 (s is 0 in every lane)
            for _ in range(n):
                state = (state + step) & m64
                z = state ^ ((state >> 30) & m64)
                z = (z * _MIX1) & m64
                z ^= (z >> 27) & m64
                z = (z * _MIX2) & m64
                z = (z ^ (z >> 31)) & m64
                s ^= ((c + dt * s - z) >> _GUARD) & ones  # lane: 2**65 - 1 + T - output
                visits += s
                c = c01
            for k, count in Counter(_lane_values(visits, width)).items():
                counts[k] += count
            first = (first + width * stride) & _MASK
    return counts


def enumerate_visit_mass(n: int, p01: float, p10: float, p1: float) -> list[float]:
    """Total probability of each S1-visit count over all 2**n trajectories.

    Depth-first in lexicographic state order (S0 branch before S1), with
    per-bucket Neumaier compensation, so results are reproducible bit for
    bit across implementations.  The probabilities must lie in [0, 1], so
    every path mass and running sum is nonnegative.
    """
    p00 = 1.0 - p01
    p11 = 1.0 - p10
    p0 = 1.0 - p1
    sums = [0.0] * (n + 1)
    comps = [0.0] * (n + 1)

    def walk(depth: int, state: int, prob: float, visits: int) -> None:
        if depth == n:
            # Neumaier step; s and prob are nonnegative, so s >= prob
            # picks the larger magnitude.
            s = sums[visits]
            t = s + prob
            if s >= prob:
                comps[visits] += (s - t) + prob
            else:
                comps[visits] += (prob - t) + s
            sums[visits] = t
            return
        if state:
            walk(depth + 1, 0, prob * p10, visits)
            walk(depth + 1, 1, prob * p11, visits + 1)
        else:
            walk(depth + 1, 0, prob * p00, visits)
            walk(depth + 1, 1, prob * p01, visits + 1)

    walk(1, 0, p0, 0)
    walk(1, 1, p1, 1)
    return [sums[k] + comps[k] for k in range(n + 1)]


def backend_name() -> str:
    """Name of the kernel implementation, recorded with simulation output."""
    return "pure-python"
