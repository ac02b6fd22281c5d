"""Hot kernels: trajectory simulation and exact path enumeration.

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

The enumeration kernel knows no probabilities and no numeric mode: it
sums integer path weights per visit count, and
:func:`visitprob.oracle.oracle_distribution` scales the chain to those
integers and divides once at the end.  It meets in the middle: it walks
every head of the first ceil(n/2) positions and every tail of the rest,
then combines head and tail sums that share the state between them, so
it walks about 3 * 2**(n/2) half-paths, recurses about n/2 deep, and
still counts each of the 2**n paths once.
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


def _walk(rows, start: int, length: int) -> tuple[list[int], list[int]]:
    """Summed weight of every ``length``-position path by S1-visit count,
    one list per last state; the first position is placed by ``rows[start]``.

    Depth-first, one recursion level per position; the last position's
    two weights go into their buckets in place.
    """
    sums = ([0] * (length + 1), [0] * (length + 1))
    ends0, ends1 = sums
    last = length - 1

    def walk(depth: int, state: int, weight: int, visits: int) -> None:
        to0, to1 = rows[state]
        if depth == last:
            ends0[visits] += weight * to0
            ends1[visits + 1] += weight * to1
            return
        walk(depth + 1, 0, weight * to0, visits)
        walk(depth + 1, 1, weight * to1, visits + 1)

    walk(0, start, 1, 0)
    return sums


def enumerate_visit_mass(
    n: int, p0: int, p1: int, p00: int, p01: int, p10: int, p11: int
) -> list[int]:
    """Summed integer weight of each S1-visit count over all 2**n trajectories.

    A path's weight is the product of its initial weight (``p0`` or
    ``p1``) and its n - 1 transition weights (``pab`` for a -> b), all
    nonnegative integers, so every bucket sum is exact and the order in
    which paths are added does not show in it.

    The sum meets in the middle (Horowitz and Sahni, J. ACM 21, 1974): a
    path is a head of its first a = ceil(n/2) positions and a tail of the
    other n - a, and the tail's weight depends on the head only through
    the head's last state s, whose row places the tail's first position.
    So the heads are walked once from the initial row, summed by visit
    count and last state, the tails once from each row s, summed by visit
    count, and ``sums[v + u] += head[s][v] * tail_s[u]``.  That is
    2**a + 2 * 2**(n - a) half-paths and 2(a + 1)(n - a + 1) products in
    place of 2**n paths, with each path still counted exactly once.
    """
    rows = ((p00, p01), (p10, p11), (p0, p1))  # row 2: the initial placement
    a = n - n // 2
    sums = [0] * (n + 1)
    for s, head in enumerate(_walk(rows, 2, a)):
        # At n == 1 the tail is empty: one path of weight 1 and no visits.
        tail = [x + y for x, y in zip(*_walk(rows, s, n - a))] if n > a else [1]
        for v, h in enumerate(head):
            for u, t in enumerate(tail, v):
                sums[u] += h * t
    return sums


def backend_name() -> str:
    """Name of the kernel implementation, recorded with simulation output."""
    return "pure-python"
