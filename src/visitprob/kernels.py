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
"""

from __future__ import annotations

__all__ = ["simulate_counts", "enumerate_visit_mass", "backend_name"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def simulate_counts(
    n: int, p01: float, p10: float, p1: float, trials: int, seed: int
) -> list[int]:
    """Histogram over k = 0..n of S1 visits in ``trials`` sampled trajectories."""
    state = seed & _MASK
    counts = [0] * (n + 1)
    steps = n - 1
    for _ in range(trials):
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        u = ((z ^ (z >> 31)) >> 11) * _INV53
        s = 1 if u < p1 else 0
        visits = s
        for _ in range(steps):
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u = ((z ^ (z >> 31)) >> 11) * _INV53
            if s:
                s = 0 if u < p10 else 1
            else:
                s = 1 if u < p01 else 0
            visits += s
        counts[visits] += 1
    return counts


def enumerate_visit_mass(n: int, p01: float, p10: float, p1: float) -> list[float]:
    """Total probability of each S1-visit count over all 2**n trajectories.

    Depth-first in lexicographic state order (S0 branch before S1), with
    per-bucket Neumaier compensation, so results are reproducible bit for
    bit across implementations.
    """
    p00 = 1.0 - p01
    p11 = 1.0 - p10
    p0 = 1.0 - p1
    sums = [0.0] * (n + 1)
    comps = [0.0] * (n + 1)

    def add(k: int, x: float) -> None:
        s = sums[k]
        t = s + x
        if abs(s) >= abs(x):
            comps[k] += (s - t) + x
        else:
            comps[k] += (x - t) + s
        sums[k] = t

    def walk(depth: int, state: int, prob: float, visits: int) -> None:
        if depth == n:
            add(visits, prob)
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
