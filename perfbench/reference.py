"""Independent reference distributions for checking the program's outputs.

The reference is a forward recursion over (position, state, visits so far)
in integer numerators over one common denominator, the classical
Markov-binomial recursion.  It shares no code with ``visitprob``: every
step multiplies by a transition numerator scaled to the step denominator
``d01 * d10``, so the mass of k visits is exactly
``numerators[k] / (d1 * (d01 * d10) ** (n - 1))``.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


class Reference:
    """Exact visit-count masses of S1 for one rational chain and horizon."""

    def __init__(self, n: int, p01: Fraction, p10: Fraction, p1: Fraction) -> None:
        a01, d01 = p01.numerator, p01.denominator
        a10, d10 = p10.numerator, p10.denominator
        a1, d1 = p1.numerator, p1.denominator
        stay0, leave0 = (d01 - a01) * d10, a01 * d10
        leave1, stay1 = a10 * d01, (d10 - a10) * d01
        # in0[v] / in1[v]: mass of paths now in S0 / S1 with v visits to S1.
        in0, in1 = [d1 - a1, 0], [0, a1]
        for _ in range(n - 1):
            in0, in1 = (
                [x * stay0 + y * leave1 for x, y in zip(in0, in1)] + [0],
                [0] + [x * leave0 + y * stay1 for x, y in zip(in0, in1)],
            )
        self.n = n
        self.numerators = [x + y for x, y in zip(in0, in1)]
        self.denominator = d1 * (d01 * d10) ** (n - 1)

    def fractions(self) -> list[Fraction]:
        return [Fraction(x, self.denominator) for x in self.numerators]

    def float_rel_errors(self, values: list[float], floor: float) -> list[float]:
        """Exact relative error of each double against the reference.

        Masses below ``floor`` lie outside the double range the float
        backend is held to; for them the absolute error is returned.
        """
        den = self.denominator
        out = []
        for num, v in zip(self.numerators, values):
            err = abs(Fraction(v) * den - num)
            if num and Fraction(num, den) >= floor:
                out.append(float(err / num))
            else:
                out.append(float(err / den))
        return out

    def log_abs_errors(self, logs: list[float]) -> list[float]:
        """|log value - log reference|; zero masses must read -inf."""
        out = []
        for num, lv in zip(self.numerators, logs):
            if num == 0:
                out.append(0.0 if lv == -math.inf else math.inf)
                continue
            ratio = num / self.denominator  # true division of ints is correctly rounded
            ref = math.log(ratio) if ratio > 1e-300 else math.log(num) - math.log(self.denominator)
            out.append(abs(lv - ref))
        return out


def digest(masses: list[Fraction]) -> str:
    """SHA-256 of the masses written as reduced ``num/den`` lines."""
    text = "\n".join(f"{m.numerator}/{m.denominator}" for m in masses)
    return hashlib.sha256(text.encode()).hexdigest()
