"""Two-state Markov chain specification and trajectory-length conventions.

A chain lives on states S0 and S1 with transition probabilities p01
(S0 -> S1) and p10 (S1 -> S0) and initial occupation probability p1 for
S1.  The complements p00, p11 and p0 are always derived, never supplied,
which makes the row-sum invariants unviolable by construction.

Horizon convention: a trajectory of horizon N occupies N positions.  The
first position is chosen from the initial distribution and the remaining
N-1 positions arise from transitions, so exponent budgets in every
probability monomial sum to N-1.  Consecutive stays in a state count as
additional visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from visitprob.errors import ParameterError
from visitprob.numerics import (
    NumericMode,
    ProbValue,
    _is_int,
    convert,
    parse_probability,
)

__all__ = [
    "State",
    "TransitionCounts",
    "ChainSpec",
    "VisitQuery",
    "build_chain",
    "swap_labels",
]


class State(IntEnum):
    S0 = 0
    S1 = 1


def _check_state(value, name: str) -> None:
    """Reject a ``State`` argument that is not one (a plain 0 or 1 among them)."""
    if not isinstance(value, State):
        raise ParameterError(f"{name} must be a State, got {value!r}")


def _check_horizon(n: int) -> None:
    """Reject a horizon that is not a positive integer (``bool`` included)."""
    if not _is_int(n) or n < 1:
        raise ParameterError(f"horizon must be a positive integer, got {n}")


def _check_visits(k: int, n: int) -> None:
    """Reject a visit count that is not an integer (``bool`` included) in [0, n]."""
    if not _is_int(k) or not 0 <= k <= n:
        raise ParameterError(f"k must be an integer in [0, {n}], got {k!r}")


@dataclass(frozen=True, slots=True)
class TransitionCounts:
    """Counts of the four transition types along one trajectory."""

    n00: int = 0
    n01: int = 0
    n10: int = 0
    n11: int = 0

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    def of(self, src: State, dst: State) -> int:
        return getattr(self, f"n{src.value}{dst.value}")


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """A validated two-state chain from its three free parameters.

    ``p01``, ``p10`` and ``p1`` accept anything
    :func:`~visitprob.numerics.parse_probability` reads (strings as
    ``"a/b"`` or decimal, read exactly).  They are kept as ``Fraction``s in
    ``exact``, the complements are formed from them in exact arithmetic,
    and only then is each of the six probabilities converted to ``mode``.
    """

    p01: ProbValue
    p10: ProbValue
    p1: ProbValue
    mode: NumericMode = NumericMode.EXACT
    exact: tuple[Fraction, Fraction, Fraction] = field(init=False, compare=False)
    p0: ProbValue = field(init=False)
    p00: ProbValue = field(init=False)
    p11: ProbValue = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, NumericMode):
            raise ParameterError(f"mode must be a NumericMode, got {self.mode!r}")
        e01, e10, e1 = exact = tuple(
            parse_probability(raw, NumericMode.EXACT, name=name).value
            for name, raw in (("p01", self.p01), ("p10", self.p10), ("p1", self.p1))
        )
        object.__setattr__(self, "exact", exact)
        for name, value in (
            ("p0", 1 - e1),
            ("p1", e1),
            ("p00", 1 - e01),
            ("p01", e01),
            ("p10", e10),
            ("p11", 1 - e10),
        ):
            object.__setattr__(self, name, convert(ProbValue(NumericMode.EXACT, value), self.mode))

    def initial(self, state: State) -> ProbValue:
        _check_state(state, "state")
        return self.p1 if state is State.S1 else self.p0

    def transition(self, src: State, dst: State) -> ProbValue:
        _check_state(src, "src")
        _check_state(dst, "dst")
        return getattr(self, f"p{src.value}{dst.value}")

    def as_mode(self, target: NumericMode) -> "ChainSpec":
        """The same chain in ``target``, converted from the exact parameters."""
        if target is self.mode:
            return self
        return ChainSpec(*self.exact, target)

    def float_params(self) -> tuple[float, float, float]:
        """(p01, p10, p1) as doubles, for the simulation kernel."""
        return (self.p01.to_float(), self.p10.to_float(), self.p1.to_float())


def build_chain(
    p01: "ProbValue | Fraction | float | int | str",
    p10: "ProbValue | Fraction | float | int | str",
    p1: "ProbValue | Fraction | float | int | str",
    mode: NumericMode = NumericMode.EXACT,
) -> ChainSpec:
    """Parse, validate and complete a chain specification (see :class:`ChainSpec`)."""
    return ChainSpec(p01, p10, p1, mode)


def swap_labels(chain: ChainSpec) -> ChainSpec:
    """Exchange the roles of S0 and S1 (an involution, field for field)."""
    e01, e10, e1 = chain.exact
    return ChainSpec(e10, e01, 1 - e1, chain.mode)


@dataclass(frozen=True, slots=True)
class VisitQuery:
    """Ask for the probability of exactly ``visits_k`` visits to ``target``
    over a trajectory occupying ``horizon_n`` positions."""

    horizon_n: int
    visits_k: int
    target: State = State.S1

    def __post_init__(self) -> None:
        _check_horizon(self.horizon_n)
        _check_visits(self.visits_k, self.horizon_n)
        _check_state(self.target, "target")
