"""Independent ground truth for the closed form.

Three referees live here:

* exhaustive enumeration of all 2**N trajectories with their exact
  probabilities (the brute-force distribution, summed by meeting in the
  middle: every head of the first ceil(N/2) positions is combined with
  every tail of the rest), and a path census that
  builds only the paths it counts, each from the positions of its visits
  to S1, and reads their transition counts from adjacent pairs;
* a seeded Monte Carlo simulator with a pinned generator, so histograms
  are reproducible bit for bit across runs and machines;
* total-variation distance for comparing any two distributions.

The enumeration counts in integers in every mode: with w the denominator
of p0 and p1, d0 that of p00 and p01, and d1 that of p10 and p11 (each
complement shares its parameter's denominator), p0 and p1 are weighted
by their numerators over w, moves out of S0 by theirs times d1 and moves
out of S1 by theirs times d0, so every step is over d0*d1 and every
path's probability is an integer over w*(d0*d1)**(N-1).  Each visit
count's exact mass is one ``Fraction`` built at the end and then
converted to the chain's mode: a FLOAT mass is the exact one correctly
rounded, a LOGSPACE mass is the log of the exact one.  The cost of each
half-path and product grows with the size of those denominators.

Nothing in this module evaluates the closed-form sums; agreement between
the two routes is asserted by the test suite, not assumed here.

Both referees are guarded: horizons above 25 (override with the
``VISITPROB_ENUM_GUARD`` environment variable, the one guard setting)
are refused, because the distribution's path count doubles per step
(its half-walks double every two steps).  A distribution horizon past
the interpreter's recursion limit is refused too, whatever the guard.
The census builds C(N-2, k-ends) paths, so with the guard raised it stays
cheap for few or many visits.  Zero-probability paths are still counted:
they contribute zero mass, and the census counts paths, not probability.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import gt, lt, mul

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
from visitprob.numerics import NumericMode, ProbValue, _is_int, convert, pow_prob

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


def _check_enumerable(n: int, k: int | None = None) -> None:
    """Validate the horizon, then ``k`` when given, then the guard."""
    _check_horizon(n)
    if k is not None:
        _check_visits(k, n)
    if n > (limit := enumeration_guard()):
        raise EnumerationGuardError(
            f"horizon {n} would enumerate 2**{n} trajectories, above the guard of {limit}"
        )


def oracle_distribution(n: int, target: State, chain: ChainSpec) -> VisitDistribution:
    """Visit-count distribution by exhaustive enumeration.

    One integer walk (:func:`visitprob.kernels.enumerate_visit_mass`) in
    every mode; each bucket sum over w*(d0*d1)**(n-1) is the exact mass,
    which is converted once to the chain's mode (see the module docstring).
    The walk recurses about n/2 deep, but a horizon past the interpreter's
    recursion limit is refused like one past the guard: with the guard
    raised that far, the 2**(n/2) half-paths would never finish.
    """
    _check_state(target, "target")
    _check_enumerable(n)
    if n > (depth := sys.getrecursionlimit()):
        raise EnumerationGuardError(
            f"horizon {n} is past the enumeration walk's recursion limit of {depth}"
        )
    e01, e10, e1 = chain.exact
    w, d0, d1 = e1.denominator, e01.denominator, e10.denominator
    sums = kernels.enumerate_visit_mass(
        n,
        w - e1.numerator, e1.numerator,  # initial placement, over w
        (d0 - e01.numerator) * d1, e01.numerator * d1,  # out of S0, over d0*d1
        e10.numerator * d0, (d1 - e10.numerator) * d0,  # out of S1, over d0*d1
    )
    denominator = w * (d0 * d1) ** (n - 1)
    if target is State.S0:
        sums = sums[::-1]  # k visits to S0 == n-k visits to S1
    return VisitDistribution(
        horizon_n=n,
        target=target,
        mode=chain.mode,
        mass=tuple(
            convert(ProbValue(NumericMode.EXACT, Fraction(s, denominator)), chain.mode)
            for s in sums
        ),
    )


@dataclass(frozen=True, slots=True)
class CensusCell:
    """All same-signature paths in one census group."""

    j: int
    count: int
    transitions: TransitionCounts
    term: ProbValue  # the shared transition-probability monomial


def census_by_j(
    n: int, k: int, initial: State, final: State, chain: ChainSpec
) -> dict[int, CensusCell]:
    """Group the paths (initial -> ... -> final, exactly k visits to S1) by
    their number of S1 -> S0 transitions.

    Builds each matching path from the positions of its k visits:
    ``initial`` and ``final`` fix the two ends, and the remaining visits
    take every choice of inner positions.  Each path's transition counts
    are read from its adjacent pairs.  Verifies monomial homogeneity:
    every matching path in a group must carry the same transition-type
    counts, hence the same probability monomial.  The returned ``term`` is
    that shared monomial (initial-placement factor excluded).
    """
    _check_state(initial, "initial")
    _check_state(final, "final")
    _check_enumerable(n, k)
    seen: dict[int, list] = {}
    ends = [0] * n
    ends[0], ends[-1] = int(initial), int(final)  # one slot when n == 1
    inner = k - sum(ends)
    # No path matches when one slot cannot hold two different ends, or when
    # the ends already carry more than k visits.
    if ends[0] == initial and inner >= 0:
        for visits in combinations(range(1, n - 1), inner):
            path = ends.copy()
            for i in visits:
                path[i] = 1
            nxt = path[1:]
            n11 = sum(map(mul, path, nxt))
            n10 = sum(map(gt, path, nxt))
            n01 = sum(map(lt, path, nxt))
            tc = TransitionCounts(n00=n - 1 - n11 - n10 - n01, n01=n01, n10=n10, n11=n11)
            cell = seen.setdefault(n10, [0, tc])
            if tc != cell[1]:
                raise VisitProbError(
                    f"monomial homogeneity violated in census cell j={n10}: {tc} vs {cell[1]}"
                )
            cell[0] += 1
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
    counts = kernels.simulate_counts(n, p01f, p10f, p1f, trials, seed & _SEED_MASK)
    if sum(counts) != trials:
        raise VisitProbError("simulation histogram does not sum to the trial count")
    return SimulationResult(
        horizon_n=n,
        trials=trials,
        seed=seed & _SEED_MASK,
        counts=tuple(counts),
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
