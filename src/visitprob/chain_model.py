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

from dataclasses import dataclass
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


_ROW_TOLERANCE = 1e-12


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """A validated two-state chain; all six probabilities share one backend."""

    mode: NumericMode
    p0: ProbValue
    p1: ProbValue
    p00: ProbValue
    p01: ProbValue
    p10: ProbValue
    p11: ProbValue

    def __post_init__(self) -> None:
        fields = (self.p0, self.p1, self.p00, self.p01, self.p10, self.p11)
        for v in fields:
            if v.mode is not self.mode:
                raise ParameterError(
                    f"chain field in mode {v.mode.value} does not match chain mode "
                    f"{self.mode.value}"
                )
        for a, b, label in (
            (self.p00, self.p01, "p00+p01"),
            (self.p10, self.p11, "p10+p11"),
            (self.p0, self.p1, "p0+p1"),
        ):
            s = a.to_float() + b.to_float()
            if self.mode is NumericMode.EXACT:
                if a.value + b.value != 1:
                    raise ParameterError(f"{label} must equal 1, got {a.value + b.value}")
            elif abs(s - 1.0) > _ROW_TOLERANCE:
                raise ParameterError(f"{label} must equal 1 within {_ROW_TOLERANCE}, got {s}")

    def initial(self, state: State) -> ProbValue:
        _check_state(state, "state")
        return self.p1 if state is State.S1 else self.p0

    def transition(self, src: State, dst: State) -> ProbValue:
        _check_state(src, "src")
        _check_state(dst, "dst")
        return getattr(self, f"p{src.value}{dst.value}")

    def as_mode(self, target: NumericMode) -> "ChainSpec":
        if target is self.mode:
            return self
        return ChainSpec(
            mode=target,
            p0=convert(self.p0, target),
            p1=convert(self.p1, target),
            p00=convert(self.p00, target),
            p01=convert(self.p01, target),
            p10=convert(self.p10, target),
            p11=convert(self.p11, target),
        )

    def float_params(self) -> tuple[float, float, float]:
        """(p01, p10, p1) as doubles, for the simulation/enumeration kernels."""
        return (self.p01.to_float(), self.p10.to_float(), self.p1.to_float())


def build_chain(
    p01: "ProbValue | Fraction | float | int | str",
    p10: "ProbValue | Fraction | float | int | str",
    p1: "ProbValue | Fraction | float | int | str",
    mode: NumericMode = NumericMode.EXACT,
) -> ChainSpec:
    """Parse, validate and complete a chain specification.

    Inputs are read exactly (strings as ``"a/b"`` or decimal), complements
    are formed in exact arithmetic, and only then is everything converted
    to the requested backend.
    """
    exact = {}
    for name, raw in (("p01", p01), ("p10", p10), ("p1", p1)):
        exact[name] = parse_probability(raw, NumericMode.EXACT, name=name).value
    e01, e10, e1 = exact["p01"], exact["p10"], exact["p1"]
    as_mode = lambda f: convert(ProbValue(NumericMode.EXACT, f), mode)  # noqa: E731
    return ChainSpec(
        mode=mode,
        p0=as_mode(1 - e1),
        p1=as_mode(e1),
        p00=as_mode(1 - e01),
        p01=as_mode(e01),
        p10=as_mode(e10),
        p11=as_mode(1 - e10),
    )


def swap_labels(chain: ChainSpec) -> ChainSpec:
    """Exchange the roles of S0 and S1 (an involution, field for field)."""
    return ChainSpec(
        mode=chain.mode,
        p0=chain.p1,
        p1=chain.p0,
        p00=chain.p11,
        p01=chain.p10,
        p10=chain.p01,
        p11=chain.p00,
    )


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
