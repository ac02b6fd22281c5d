"""Probability arithmetic under three interchangeable numeric backends.

Every quantity the library manipulates is a :class:`ProbValue`: a
nonnegative real tagged with the backend it lives in.

* ``EXACT`` -- arbitrary-precision rationals (:class:`fractions.Fraction`).
  All arithmetic is exact, so results can be compared bit-for-bit.
* ``FLOAT`` -- IEEE-754 doubles.  Sums use compensated (Neumaier)
  summation so that long series of terms with wildly different magnitudes
  stay accurate to a few ulp.
* ``LOGSPACE`` -- doubles holding the natural log of the value, with
  ``-inf`` as the distinguished representation of zero.  Sums use a
  log-sum-exp reduction anchored at the largest term, the exps summed by
  ``math.fsum``.  It sums the window of terms within 49 nats of the anchor
  and keeps that sum only if adding a bound on all the other terms leaves it
  unchanged; otherwise it sums every term.  Either way the bits are those of
  the sum over every term.  This backend keeps horizons in the thousands
  representable where plain doubles underflow.

Each backend's arithmetic on raw payloads (``ProbValue.value``) is written
once, in its :class:`Arithmetic` record ``ARITHMETIC[mode]``.  ``ProbValue``,
:func:`pow_prob`, :func:`sum_values`, the closed-form evaluator and the
enumeration walk read it and do not branch on the mode to compute.

The convention ``0**0 == 1`` holds in every backend: the boundary masses
of the closed form raise a possibly-zero probability to the zeroth power
when the horizon is a single step, and the result must be one.

All values are immutable and all operations are pure functions, so they
are safe to share across threads without synchronization.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable

from visitprob.errors import BackendMismatchError, ParameterError

__all__ = [
    "ARITHMETIC",
    "Arithmetic",
    "NumericMode",
    "ProbValue",
    "pow_prob",
    "sum_values",
    "convert",
    "parse_probability",
]

_NEG_INF = float("-inf")


class NumericMode(str, Enum):
    """Numeric backend selector; one mode per computation."""

    EXACT = "exact"
    FLOAT = "float"
    LOGSPACE = "logspace"


@dataclass(frozen=True, slots=True)
class ProbValue:
    """A nonnegative real number under a fixed numeric backend.

    ``value`` holds a ``Fraction`` in EXACT mode, the number itself in
    FLOAT mode, and its natural log in LOGSPACE mode (``-inf`` for zero).
    Probabilities proper lie in [0, 1]; moment computations may carry
    larger values through the same arithmetic.
    """

    mode: NumericMode
    value: Fraction | float

    def __post_init__(self) -> None:
        if self.mode is NumericMode.EXACT:
            if not isinstance(self.value, Fraction):
                object.__setattr__(self, "value", Fraction(self.value))
            if self.value.numerator < 0:
                raise ParameterError(f"exact value must be >= 0, got {self.value}")
        elif self.mode is NumericMode.FLOAT:
            v = float(self.value)
            object.__setattr__(self, "value", v)
            if math.isnan(v) or math.isinf(v):
                raise ParameterError(f"float value must be finite, got {v}")
            if v < 0.0:
                raise ParameterError(f"float value must be >= 0, got {v}")
        elif self.mode is NumericMode.LOGSPACE:
            v = float(self.value)
            object.__setattr__(self, "value", v)
            if math.isnan(v) or v == math.inf:
                raise ParameterError(f"log value must be in [-inf, inf), got {v}")
        else:  # pragma: no cover - enum is closed
            raise ParameterError(f"unknown numeric mode {self.mode!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def exact(cls, value: Fraction | int | str) -> "ProbValue":
        return cls(NumericMode.EXACT, Fraction(value))

    @classmethod
    def from_float(cls, value: float) -> "ProbValue":
        return cls(NumericMode.FLOAT, float(value))

    @classmethod
    def from_log(cls, log_value: float) -> "ProbValue":
        return cls(NumericMode.LOGSPACE, float(log_value))

    @classmethod
    def zero(cls, mode: NumericMode) -> "ProbValue":
        return cls(mode, ARITHMETIC[mode].zero)

    @classmethod
    def one(cls, mode: NumericMode) -> "ProbValue":
        return cls(mode, ARITHMETIC[mode].one)

    @classmethod
    def from_int(cls, n: int, mode: NumericMode) -> "ProbValue":
        """Embed a nonnegative integer (used for moment weights)."""
        if n < 0:
            raise ParameterError(f"expected a nonnegative integer, got {n}")
        return convert(cls(NumericMode.EXACT, n), mode)

    # -- views -------------------------------------------------------------

    def to_float(self) -> float:
        if self.mode is NumericMode.LOGSPACE:
            return math.exp(self.value)
        return float(self.value)

    def __float__(self) -> float:
        return self.to_float()

    def as_fraction(self) -> Fraction:
        """Exact payload view; FLOAT/LOGSPACE go through the nearest double."""
        if self.mode is NumericMode.EXACT:
            return self.value
        return Fraction(self.to_float())

    def is_zero(self) -> bool:
        return self.value == ARITHMETIC[self.mode].zero

    # -- arithmetic ---------------------------------------------------------

    def _require_same_mode(self, other: "ProbValue") -> None:
        if not isinstance(other, ProbValue):
            raise BackendMismatchError(
                f"expected a ProbValue, got {type(other).__name__}"
            )
        if other.mode is not self.mode:
            raise BackendMismatchError(
                f"backend mismatch: {self.mode.value} vs {other.mode.value}"
            )

    def __add__(self, other: "ProbValue") -> "ProbValue":
        self._require_same_mode(other)
        return ProbValue(self.mode, ARITHMETIC[self.mode].add(self.value, other.value))

    def __mul__(self, other: "ProbValue") -> "ProbValue":
        self._require_same_mode(other)
        return ProbValue(self.mode, ARITHMETIC[self.mode].mul(self.value, other.value))

    def __sub__(self, other: "ProbValue") -> "ProbValue":
        """Difference, clamping negative rounding residue to zero.

        Used by moment computations (variance); an operand ordering that
        is negative beyond rounding noise is a caller bug and raises.
        """
        self._require_same_mode(other)
        if self.mode is NumericMode.EXACT:
            if other.value > self.value:
                raise ParameterError("exact subtraction would be negative")
            return ProbValue(self.mode, self.value - other.value)
        if self.mode is NumericMode.FLOAT:
            diff = self.value - other.value
            if diff < 0.0:
                if diff >= -1e-9 * max(self.value, other.value, 1.0):
                    diff = 0.0
                else:
                    raise ParameterError("float subtraction would be negative")
            return ProbValue(self.mode, diff)
        return ProbValue(self.mode, _log_sub(self.value, other.value))


def _log_add(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_sub(a: float, b: float) -> float:
    """log(exp(a) - exp(b)); overshoot within rounding noise clamps to -inf."""
    if b == _NEG_INF:
        return a
    if b >= a:
        if b - a <= 1e-9:
            return _NEG_INF
        raise ParameterError("log-space subtraction would be negative")
    return a + math.log1p(-math.exp(b - a))


def _compensated_sum(values: list[float]) -> float:
    """Neumaier-compensated sum of nonnegative doubles.

    Every input must be a nonnegative double (``inf`` included): then the
    running total is too, and ``total >= x`` picks the same branch as the
    textbook ``abs(total) >= abs(x)``.  ``ProbValue`` rejects negative
    floats, and closed-form terms are products of nonnegative factors.
    """
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if total >= x:
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


# Width in nats of the log-sum-exp window: exp(-49) < 2**-70, so a term this
# far below the anchor is under 2**-70 of the anchor's exp, 1.
_LSE_WINDOW = 49.0


def _log_sum_exp(values: list[float]) -> float:
    """Log-sum-exp anchored at the maximum; all-zero input yields -inf.

    Only the window around the anchor, from the first value within
    ``_LSE_WINDOW`` of it on the left to the last on the right (found by
    bisection, as for unimodal terms), is summed, and only if that gives the
    bits of the full sum.  The rest, the tail, has exps of at most
    ``top = exp(max(tail) - anchor)`` each (to a rounding error), so their sum
    is below ``bound = top * 2**(bit_length(len(tail)) + 1)``.  ``math.fsum``
    rounds correctly and rounding is monotone, so if adding ``bound`` to the
    window leaves its sum unchanged, adding the tail does too.  Otherwise
    every exp is summed.  The check, not the shape of the terms, makes the
    result equal to the full sum's.
    """
    if not values:
        return _NEG_INF
    anchor = max(values)
    if anchor == _NEG_INF:
        return _NEG_INF
    peak = values.index(anchor)
    cut = anchor - _LSE_WINDOW
    lo = bisect.bisect_left(values, cut, 0, peak)
    hi = bisect.bisect_right(values, -cut, peak + 1, len(values), key=operator.neg)
    if lo or hi < len(values):
        window = list(map(math.exp, map(operator.sub, values[lo:hi], repeat(anchor))))
        total = math.fsum(window)
        tail = values[:lo] + values[hi:]
        # The floor covers exps that underflow below the smallest normal double.
        top = max(math.exp(max(tail) - anchor), sys.float_info.min)
        window.append(math.ldexp(top, len(tail).bit_length() + 1))
        if math.fsum(window) == total:
            return anchor + math.log(total)
    return anchor + math.log(math.fsum(map(math.exp, map(operator.sub, values, repeat(anchor)))))


def _running_powers(base, n: int) -> list:
    """base**0..n by running product (in floats, ``**`` would round
    differently); base**0 is one of base's own type."""
    return list(accumulate(repeat(base, n), operator.mul, initial=base**0))


@dataclass(frozen=True, slots=True)
class Arithmetic:
    """One backend's payloads of 0 and 1, add, multiply, ``power(x, e)`` =
    x**e for an integer e >= 0, ``powers(b, n)`` = [b**0, ..., b**n] (in
    FLOAT by running product, which can differ from ``**`` in the last
    bits) and ``total``, the sum of a list."""

    zero: object
    one: object
    add: Callable
    mul: Callable
    power: Callable
    powers: Callable
    total: Callable


ARITHMETIC = {
    NumericMode.EXACT: Arithmetic(
        0, 1, operator.add, operator.mul, operator.pow, _running_powers, sum
    ),
    NumericMode.FLOAT: Arithmetic(
        0.0, 1.0, operator.add, operator.mul, operator.pow, _running_powers, _compensated_sum
    ),
    # Logs: a product is a sum and x**e is e*x, but x**0 is 0.0 even for -inf.
    NumericMode.LOGSPACE: Arithmetic(
        _NEG_INF, 0.0, _log_add, operator.add, lambda x, e: 0.0 if e == 0 else e * x,
        lambda x, n: [0.0] + [e * x for e in range(1, n + 1)], _log_sum_exp,
    ),
}


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: ``True`` is a flag, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def pow_prob(base: ProbValue, exponent: int) -> ProbValue:
    """``base ** exponent`` for integer ``exponent >= 0``, with ``0**0 == 1``."""
    if not _is_int(exponent):
        raise ParameterError(f"exponent must be an integer, got {exponent!r}")
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    return ProbValue(base.mode, ARITHMETIC[base.mode].power(base.value, exponent))


def sum_values(terms: list[ProbValue], mode: NumericMode | None = None) -> ProbValue:
    """Sum a homogeneous list of values.

    EXACT sums exactly; FLOAT uses compensated summation; LOGSPACE uses a
    log-sum-exp reduction.  An empty list sums to zero in ``mode``
    (EXACT when unspecified).  Mixing backends raises
    :class:`BackendMismatchError`.
    """
    if mode is None:
        mode = terms[0].mode if terms else NumericMode.EXACT
    for t in terms:
        if not isinstance(t, ProbValue):
            raise BackendMismatchError(f"expected ProbValue, got {type(t).__name__}")
        if t.mode is not mode:
            raise BackendMismatchError(
                f"backend mismatch in sum: {t.mode.value} vs {mode.value}"
            )
    return ProbValue(mode, ARITHMETIC[mode].total([t.value for t in terms]))


def convert(value: ProbValue, target: NumericMode) -> ProbValue:
    """Re-express ``value`` in the ``target`` backend.

    EXACT -> FLOAT rounds to nearest; FLOAT -> EXACT is lossless (doubles
    are dyadic rationals); EXACT -> LOGSPACE takes logs of numerator and
    denominator separately so probabilities far below the double underflow
    threshold keep an accurate log.
    """
    if value.mode is target:
        return value
    if value.mode is NumericMode.EXACT:
        frac: Fraction = value.value
        if target is NumericMode.FLOAT:
            return ProbValue(target, float(frac))
        if frac == 0:
            return ProbValue(target, _NEG_INF)
        return ProbValue(target, math.log(frac.numerator) - math.log(frac.denominator))
    if value.mode is NumericMode.FLOAT:
        if target is NumericMode.EXACT:
            return ProbValue(target, Fraction(value.value))
        return ProbValue(target, math.log(value.value) if value.value > 0.0 else _NEG_INF)
    # LOGSPACE source: exponentiate, then convert losslessly if EXACT.
    as_float = math.exp(value.value)
    if target is NumericMode.FLOAT:
        return ProbValue(target, as_float)
    return ProbValue(target, Fraction(as_float))


def parse_probability(
    value: "ProbValue | Fraction | float | int | str",
    mode: NumericMode = NumericMode.EXACT,
    name: str = "probability",
) -> ProbValue:
    """Parse a probability in [0, 1] into the requested backend.

    Strings accept the forms ``"a/b"`` and decimal literals; both are read
    exactly (``"0.3"`` becomes 3/10) before any mode conversion, so EXACT
    chains built from decimal strings carry no binary rounding.
    """
    if isinstance(value, ProbValue):
        exact = value.as_fraction()
    else:
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise ParameterError(f"{name}: cannot parse {value!r} as a probability") from exc
    if not 0 <= exact <= 1:
        raise ParameterError(f"{name} must be in [0, 1], got {exact}")
    return convert(ProbValue(NumericMode.EXACT, exact), mode)
