"""Binomial coefficients.

Binomials are zero-extended: ``binomial(n, r) == 0`` whenever ``r < 0``,
``r > n`` or ``n < 0``.  The closed-form summation limits exist only to
keep binomial arguments in range, so under zero-extension they become
redundant safety rather than load-bearing.  Two tests check this:
``tests/test_acceptance.py::test_criterion_6_limit_redundancy`` sums every
interior branch over j = 0..N with :func:`binomial` and matches the closed
form bit for bit, and ``tests/test_closed_form.py::TestInteriorTerms`` runs a
per-term loop to j = N against the branch values every mode derives from its
three pair sums and pins each pair's term count to its limits.
"""

from __future__ import annotations

import math

from visitprob.errors import ParameterError

__all__ = [
    "binomial",
    "log_binomial",
    "BinomialTable",
]

_NEG_INF = float("-inf")


def binomial(n: int, r: int) -> int:
    """C(n, r) as an arbitrary-precision integer, zero outside 0 <= r <= n."""
    if n < 0 or r < 0 or r > n:
        return 0
    return math.comb(n, r)


def log_binomial(n: int, r: int) -> float:
    """log C(n, r) via log-factorial differences; -inf outside range."""
    if n < 0 or r < 0 or r > n:
        return _NEG_INF
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


class BinomialTable:
    """Pascal-triangle cache of C(n, r) for 0 <= r <= n <= max_n.

    A public helper for callers that read many coefficients of one triangle;
    the library itself builds none (the exact closed form steps between
    terms by their ratio).  Lookups outside the triangle are zero-extended
    like :func:`binomial`.
    """

    __slots__ = ("max_n", "_rows")

    def __init__(self, max_n: int) -> None:
        if max_n < 0:
            raise ParameterError(f"max_n must be >= 0, got {max_n}")
        self.max_n = max_n
        rows = [[1]]
        for n in range(1, max_n + 1):
            prev = rows[n - 1]
            rows.append([1] + [prev[r - 1] + prev[r] for r in range(1, n)] + [1])
        self._rows = rows

    def get(self, n: int, r: int) -> int:
        if n < 0 or r < 0 or r > n:
            return 0
        if n > self.max_n:
            raise ParameterError(f"binomial row {n} exceeds table size {self.max_n}")
        return self._rows[n][r]

    def row(self, n: int) -> list[int]:
        """C(n, 0..n): the stored list itself, so callers must not mutate it.

        Zero-extended like :meth:`get`: a negative ``n`` has no nonzero
        entry and gives an empty row.
        """
        if n < 0:
            return []
        if n > self.max_n:
            raise ParameterError(f"binomial row {n} exceeds table size {self.max_n}")
        return self._rows[n]
