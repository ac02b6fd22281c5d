"""Independent ground truth for the closed form.

Three referees live here:

* exhaustive enumeration of all 2**N trajectories with their exact
  probabilities (the brute-force distribution), and a depth-first census
  walk that carries only the current state, the visit count and the four
  transition counters, pruning a branch once its visits pass k or can no
  longer reach it;
* a seeded Monte Carlo simulator with a pinned generator, so histograms
  are reproducible bit for bit across runs and machines;
* total-variation distance for comparing any two distributions.

In EXACT mode the enumeration multiplies and sums plain integers: with w
the denominator of p0 and p1, d0 that of p00 and p01, and d1 that of p10
and p11 (row sums are exact, so each pair shares one), every path's
probability is an integer numerator over w*(d0*d1)**(N-1), and one
``Fraction`` per visit count is built at the end.

Nothing in this module evaluates the closed-form sums; agreement between
the two routes is asserted by the test suite, not assumed here.

Both walks are guarded: horizons above 25 (override with the
``VISITPROB_ENUM_GUARD`` environment variable) are refused because the
path count doubles per step.  Zero-probability paths are still walked:
they contribute zero mass, and the census counts paths, not probability.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

from visitprob import kernels
from visitprob.chain_model import (
    ChainSpec,
    State,
    TransitionCounts,
    _check_horizon,
    _check_state,
    _check_visits,
)
from visitprob.closed_form import VisitDistribution
from visitprob.errors import EnumerationGuardError, ParameterError, VisitProbError
from visitprob.numerics import ARITHMETIC, NumericMode, ProbValue, _is_int, pow_prob

__all__ = [
    "CensusCell",
    "SimulationResult",
    "enumeration_guard",
    "oracle_distribution",
    "census_by_j",
    "simulate",
    "total_variation",
]

_DEFAULT_GUARD = 25
_SEED_MASK = (1 << 64) - 1


def enumeration_guard() -> int:
    """Largest horizon exhaustive enumeration will accept."""
    raw = os.environ.get("VISITPROB_ENUM_GUARD")
    if raw is None:
        return _DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"VISITPROB_ENUM_GUARD must be an integer, got {raw!r}") from exc


def _check_enumerable(n: int, guard: int | None, k: int | None = None) -> None:
    """Validate the horizon, then ``k`` when given, then the guard."""
    _check_horizon(n)
    if k is not None:
        _check_visits(k, n)
    limit = guard if guard is not None else enumeration_guard()
    if n > limit:
        raise EnumerationGuardError(
            f"horizon {n} would enumerate 2**{n} = {2 ** n} trajectories, "
            f"above the guard of {limit}"
        )


def _raw_values(chain: ChainSpec):
    """Initial and transition payloads.

    LOGSPACE payloads are the chain's logs.  EXACT payloads are integer
    numerators: p0 and p1 over w, moves out of S0 scaled by d1 and moves
    out of S1 by d0, so every step is over d0*d1 (see the module
    docstring).
    """
    if chain.mode is NumericMode.LOGSPACE:
        init = (chain.p0.value, chain.p1.value)
        trans = (
            (chain.p00.value, chain.p01.value),
            (chain.p10.value, chain.p11.value),
        )
        return init, trans
    d0 = chain.p01.value.denominator
    d1 = chain.p10.value.denominator
    init = (chain.p0.value.numerator, chain.p1.value.numerator)
    trans = (
        (chain.p00.value.numerator * d1, chain.p01.value.numerator * d1),
        (chain.p10.value.numerator * d0, chain.p11.value.numerator * d0),
    )
    return init, trans


def oracle_distribution(
    n: int, target: State, chain: ChainSpec, *, guard: int | None = None
) -> VisitDistribution:
    """Visit-count distribution by exhaustive enumeration.

    Exact in EXACT mode: path numerators are summed as integers per visit
    count, and each sum becomes one ``Fraction`` over w*(d0*d1)**(n-1).
    FLOAT mode dispatches to
    :func:`visitprob.kernels.enumerate_visit_mass`; LOGSPACE accumulates
    per-bucket running log-sum-exp.
    """
    _check_state(target, "target")
    _check_enumerable(n, guard)
    mode = chain.mode
    if mode is NumericMode.FLOAT:
        p01f, p10f, p1f = chain.float_params()
        buckets = kernels.enumerate_visit_mass(n, p01f, p10f, p1f)
    else:
        init, trans = _raw_values(chain)
        ar = ARITHMETIC[mode]
        add, mul = ar.add, ar.mul
        buckets = [ar.zero] * (n + 1)

        def walk(depth: int, prev: int, acc, visits: int) -> None:
            if depth == n:
                buckets[visits] = add(buckets[visits], acc)
                return
            walk(depth + 1, 0, mul(acc, trans[prev][0]), visits)
            walk(depth + 1, 1, mul(acc, trans[prev][1]), visits + 1)

        walk(1, 0, init[0], 0)
        walk(1, 1, init[1], 1)
        if mode is NumericMode.EXACT:
            step = chain.p01.value.denominator * chain.p10.value.denominator
            denominator = chain.p1.value.denominator * step ** (n - 1)
            buckets = [Fraction(b, denominator) for b in buckets]
    if target is State.S0:
        buckets = buckets[::-1]  # k visits to S0 == n-k visits to S1
    return VisitDistribution(
        horizon_n=n,
        target=target,
        mode=mode,
        mass=tuple(ProbValue(mode, b) for b in buckets),
    )


@dataclass(frozen=True, slots=True)
class CensusCell:
    """All same-signature paths in one census group."""

    j: int
    count: int
    transitions: TransitionCounts
    term: ProbValue  # the shared transition-probability monomial


def census_by_j(
    n: int,
    k: int,
    initial: State,
    final: State,
    chain: ChainSpec,
    *,
    guard: int | None = None,
) -> dict[int, CensusCell]:
    """Group the paths (initial -> ... -> final, exactly k visits to S1) by
    their number of S1 -> S0 transitions.

    Walks only the paths that start in ``initial`` and can still end with
    k visits.  Verifies monomial homogeneity: every matching path in a
    group must carry the same transition-type counts, hence the same
    probability monomial.  The returned ``term`` is that shared monomial
    (initial-placement factor excluded).
    """
    _check_state(initial, "initial")
    _check_state(final, "final")
    _check_enumerable(n, guard, k)
    seen: dict[int, list] = {}
    counts = [[0, 0], [0, 0]]  # counts[a][b]: transitions a -> b so far

    def walk(depth: int, prev: int, visits: int) -> None:
        # Prune: too many visits already, or too few positions left for k.
        if visits > k or visits + n - depth < k:
            return
        if depth == n:
            if prev == final:
                tc = TransitionCounts(
                    n00=counts[0][0], n01=counts[0][1],
                    n10=counts[1][0], n11=counts[1][1],
                )
                cell = seen.get(tc.n10)
                if cell is None:
                    seen[tc.n10] = [1, tc]
                elif tc != cell[1]:
                    raise VisitProbError(
                        f"monomial homogeneity violated in census cell j={tc.n10}: "
                        f"{tc} vs {cell[1]}"
                    )
                else:
                    cell[0] += 1
            return
        for nxt in (0, 1):
            counts[prev][nxt] += 1
            walk(depth + 1, nxt, visits + nxt)
            counts[prev][nxt] -= 1

    walk(1, int(initial), int(initial))
    out: dict[int, CensusCell] = {}
    for j in sorted(seen):
        count, tc = seen[j]
        term = (
            pow_prob(chain.p11, tc.n11)
            * pow_prob(chain.p10, tc.n10)
            * pow_prob(chain.p01, tc.n01)
            * pow_prob(chain.p00, tc.n00)
        )
        out[j] = CensusCell(j=j, count=count, transitions=tc, term=term)
    return out


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Seeded Monte Carlo histogram of S1 visit counts."""

    horizon_n: int
    trials: int
    seed: int
    counts: tuple[int, ...]
    elapsed: float

    def empirical_distribution(self, target: State = State.S1) -> VisitDistribution:
        _check_state(target, "target")
        freqs = [c / self.trials for c in self.counts]
        if target is State.S0:
            freqs = freqs[::-1]
        return VisitDistribution(
            horizon_n=self.horizon_n,
            target=target,
            mode=NumericMode.FLOAT,
            mass=tuple(ProbValue(NumericMode.FLOAT, f) for f in freqs),
        )


def simulate(n: int, chain: ChainSpec, trials: int, seed: int) -> SimulationResult:
    """Sample ``trials`` independent trajectories and histogram S1 visits.

    Deterministic: the generator is pinned (splitmix64; see
    :mod:`visitprob.kernels` for the exact draw rules), so equal
    ``(n, chain, trials, seed)`` always produce equal counts, across
    runs, machines and process restarts.  Chains in any backend are
    converted to doubles first.
    """
    _check_horizon(n)
    if not _is_int(trials) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials}")
    if not _is_int(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    p01f, p10f, p1f = chain.float_params()
    started = time.perf_counter()
    counts = kernels.simulate_counts(n, p01f, p10f, p1f, trials, seed & _SEED_MASK)
    elapsed = time.perf_counter() - started
    if sum(counts) != trials:
        raise VisitProbError("simulation histogram does not sum to the trial count")
    return SimulationResult(
        horizon_n=n,
        trials=trials,
        seed=seed & _SEED_MASK,
        counts=tuple(counts),
        elapsed=elapsed,
    )


def total_variation(a: VisitDistribution, b: VisitDistribution) -> float:
    """Half the L1 distance between two mass functions on the same horizon."""
    if a.horizon_n != b.horizon_n:
        raise ParameterError(
            f"horizon mismatch: {a.horizon_n} vs {b.horizon_n}"
        )
    af = a.to_floats()
    bf = b.to_floats()
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(af, bf))
