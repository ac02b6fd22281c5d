"""Closed-form distribution of visit counts in a two-state Markov chain.

A trajectory of horizon N occupies N positions (initial placement plus
N-1 transitions).  The probability that state S1 is occupied exactly k
times decomposes over the initial state:

    P(N1 = k | N) = p1 * P(k | start S1) + p0 * P(k | start S0)

Each conditional factor has boundary branches (k = 0 forces an all-S0
path, k = N an all-S1 path) and, for 0 < k < N, splits into two sums --
one per possible final state -- indexed by j, the number of S1 -> S0
cross-transitions along the path.  A path with fixed transition-type
counts has probability equal to one monomial in p00, p01, p10, p11; the
number of such paths is the product of two weak-composition counts (ways
to spread the S1 self-transitions over the S1 runs, times the same for
S0), each a binomial coefficient.

The summation limits c1 = min(k, N-k), c2 = min(k-1, N-k) and
c3 = min(k, N-k-1) are exactly the j-ranges in which both binomials are
nonzero, so with zero-extended binomials the sums may equivalently run to
N.  Each sum stops where the first of its two binomials runs out, at c1,
c2 or c3, and so drops exactly the zero terms.

Every mode sums each pair (m, n-m), 0 < m <= n/2, once.  A branch at k and
its mirror at n-k differ only in that the powers of p00 and p11 trade
places, and S1->S0 and S0->S1 differ only in a factor p10 against p01 (the
Markov-binomial symmetry; Gabriel, Biometrika 46, 1959).  With
X = p01*p10, Y = p00*p11, a = m-1, b = n-m-1 and c1, c2, c3 the limits of
k = m, the pair needs three sums of one form, term i standing for j = i+1:

    T(c, d1, d2) = sum_{i=0..c-1} C(a, i+d1) * C(b, i+d2) * X**(i+d1+d2) * Y**(c-1-i)

    T_A = T(c1, 0, 0),  T_B = T(c2, 1, 0),  T_C = T(c3, 0, 1)

At k = m the branch sums are S1->S0 = p10 * p00**(n-2m) * T_A,
S0->S1 = p01 * p00**(n-2m) * T_A, S1->S1 = p00**(n-2m+1) * T_B and
S0->S0 = p00**(n-m-1-c3) * p11**(m-c3) * T_C.  At k = n-m, whose limits are
c1, c3 and c2, p00 and p11 trade places in these factors and T_B and T_C
trade branches: T_B gives S0->S0 and T_C gives S1->S1.  A pair so forms
c1 + c2 + c3 terms where its eight branch sums have 2 * (2c1 + c2 + c3).
Each mode supplies the three sums and the operator that applies these
factors (product, or sum of logs); the rest is shared.  In EXACT mode a
whole distribution does not form the eight branch values: with
e = n-2m-1, every factor of k = m holds p00**e and every one of k = n-m
holds p11**e, so ``_Evaluator._factored`` takes each of the two masses
from T_A, T_B and T_C, a few small per-chain constants and one product by
that power.  Integer products associate, so its integers are those of the
branch values assembled one by one; FLOAT and LOGSPACE, whose rounding
would move, and a single k keep the branch values.

FLOAT and LOGSPACE read each sum's terms from slices of binomial rows a and
b (incremental doubles, or log-factorial differences) and of the powers
0..n/2 of X and Y (running products, or exponent-weighted logs).  Term i
reads each of its four factors at an index linear in i, so one slice per
factor (the powers of Y read reversed, as their exponent falls), joined by
``map`` in C, rows first, then X, then Y, gives the sum's terms.  A
compensated sum, or log-sum-exp (which keeps horizons in the thousands
stable), reduces them.  Row a is read whole (m entries) and row b only to
index m, so that row is built only to there: m+1 entries where it has n-m.

EXACT mode works in integers.  p00 and p01 sum to exactly 1, so in lowest
terms they share one denominator d0; likewise p10 and p11 share d1, and p0
and p1 share w.  Its sums are those above in the *numerators* P00..P11 of
the four probabilities, and a branch's integer sum is its numerator over
d0**a * d1**b, where a = n-k+o00+o01 and b = k+o10+o11 count the branch's
transitions out of S0 and out of S1 (both independent of j).  A branch
ending in S0 has a = n-k-1 and b = k, one ending in S1 a = n-k and
b = k-1, so scaling the first by d0 and the second by d1 puts all four
branches of one k over d0**(n-k) * d1**k.  Weighted by the numerators of p1
and p0, they make one integer over D_k = w * d0**(n-k) * d1**k: one
``Fraction`` per k, equal to the sum of the per-term fractions.  No prime
outside s = w * d0 * d1 divides D_k, so ``_lowest_terms`` reduces the pair
by common factors of s, each found by a gcd with the small s and removed in
linear time, and hands ``Fraction`` the coprime pair, which it takes as it
is: no gcd of two full-size integers.  A distribution takes each D_k from
the one before (D_{k+1} = D_k // d0 * d1), not by two powers per k.

Each EXACT pair sum is a terminating hypergeometric sum, summed by term
ratios with no binomial table (Petkovsek, Wilf and Zeilberger, A = B,
1996).  With r1 and r2 the lower indices of its two binomials, term j+1
over term j is (a-r1)(b-r2) * X / ((r1+1)(r2+1) * Y).  The first term is a
power of Y times 1, a or b (its binomials) and 1 or X, and each next one
comes from one product and one exact floor division by small integers.
Where Y = 0 the ratio is undefined, but every term except the last (j = c)
carries a power of Y, so that one term is formed directly; where X = 0
every term after the first is 0.

A whole EXACT distribution does not sum every pair so.  As sequences in m,
0 < m < n/2, T_A, T_B and T_C each satisfy a linear recurrence of order 2
whose coefficients are integer polynomials in m, n, X and Y, cubic in m,
derived by Zeilberger's creative telescoping with a certificate that a
test checks term by term (see ``_recurrence_coefficients``); T_A and T_B
keep to theirs through the middle pair m = n/2.  There T_C stops at
c3 = m-1 and leaves its sequence, but rows a and b are both m-1, so
T_C = T_B.  So ``visit_distribution`` sums by term ratios only the seeds
m = 1 and 2 and forms each other pair's sums from the two pairs before it:
a few big-integer products and one exact floor division per sum, O(n)
steps where the term ratios form about 3n**2/8 terms.  The recurrence is a
polynomial identity in X and Y and its leading coefficient is positive at
every step, so X = 0, Y = 0 and X = Y need no fallback.  It runs in
increasing m and keeps two pairs' sums, so memory stays linear in n.  A
single k (``visit_probability``, the conditionals) keeps the term-ratio
sums: a recurrence from m = 1 would take as many steps as they have terms.

A FLOAT probability raises :class:`~visitprob.errors.NumericalError` where
its pair's two binomial rows multiply past the double range.  That depends
on N and k, not on the chain: up to N = FLOAT_MAX_HORIZON (1035) no k
overflows, and past it every distribution raises, but a single k raises
only inside a middle band (at N = 1100, 394 <= k <= 706; at N = 2000,
232 <= k <= 1768).  Outside it the value is usable: at N = 1100, k = 1, 100,
300 and 393 came within 7e-14 relative of exact on three chains.

Every mode assembles a mass from raw payloads (EXACT numerators, FLOAT
doubles, LOGSPACE logs) by the same steps, with its own constants and its
``numerics.ARITHMETIC``, and makes one ``ProbValue`` of it; at k = 0 and
k = N the conditionals are p00**(N-1) or p11**(N-1) and zero, scaled like
a branch.  An EXACT distribution takes its interior raw masses from
``_Evaluator._factored`` instead, the same integers by fewer products.
An interior mass reads only the shared power tables and, in
FLOAT and LOGSPACE, binomial rows k-1 and N-k-1, which only
P(N1 = N-k | N) also reads.  So a distribution is
evaluated by pairs (m, N-m), and the evaluator keeps just the two rows (or
row prefixes) of the current pair.  The power tables, of p00 and p11 to
N and of X and Y to N/2, hold O(N) values: O(N) floats, but in EXACT mode
integers of up to O(N) bits each, O(N**2) bits in all.
From N = 400 on, ``visit_distribution`` passes its evaluator to
:func:`visitprob.split.split_masses`, which, when a second CPU is free,
forks one child that evaluates the pairs with odd m and sends their raw
masses back through a pipe as plain ints or floats (in EXACT mode each
process runs the recurrence through every m up to its last and assembles
only its own pairs); the result is bit-identical to the serial loop.  It
stays serial where ``os.fork`` is missing, fewer than two CPUs are usable,
another thread is alive, or the fork fails.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from visitprob.chain_model import (
    ChainSpec,
    State,
    TransitionCounts,
    VisitQuery,
    _check_horizon,
    _check_state,
    _check_visits,
)
# BinomialTable and log_binomial are unused here, but perfbench/tracing.py looks
# them up on this module.
from visitprob.combinatorics import BinomialTable, binomial, log_binomial  # noqa: F401
from visitprob.errors import NumericalError, ParameterError
from visitprob.numerics import ARITHMETIC, NumericMode, ProbValue, _is_int, sum_values

__all__ = [
    "FLOAT_MAX_HORIZON",
    "SummationLimits",
    "VisitDistribution",
    "TermCell",
    "summation_limits",
    "prob_given_start_s1",
    "prob_given_start_s0",
    "visit_probability",
    "visit_distribution",
    "moments",
    "term_census",
]

# Largest horizon of a FLOAT distribution: from N = 1036 on, the product of
# a middle pair's two float binomials exceeds the double range for every
# chain, so the distribution raises.  A single probability past it raises
# only for the k whose own pair overflows (at N = 1100, 394 <= k <= 706).
FLOAT_MAX_HORIZON = 1035


@dataclass(frozen=True, slots=True)
class SummationLimits:
    """Upper limits of the three interior sums for a given (k, N)."""

    c1: int
    c2: int
    c3: int


def summation_limits(k: int, n: int) -> SummationLimits:
    """Limits for interior k; the boundary cases bypass the sums entirely."""
    if not (_is_int(k) and _is_int(n) and 0 < k < n):
        raise ParameterError(f"summation limits need integers 0 < k < n, got k={k!r}, n={n!r}")
    return SummationLimits(*[_branch_limit(o1, o2, k, n) for o1, o2 in _LIMIT_OFFSETS])


@dataclass(frozen=True, slots=True)
class VisitDistribution:
    """P(target visited exactly k times | horizon) for k = 0..horizon."""

    horizon_n: int
    target: State
    mode: NumericMode
    mass: tuple[ProbValue, ...]

    def probability(self, k: int) -> ProbValue:
        _check_visits(k, self.horizon_n)
        return self.mass[k]

    def total(self) -> ProbValue:
        return sum_values(list(self.mass), self.mode)

    def to_floats(self) -> list[float]:
        return [m.to_float() for m in self.mass]


# ---------------------------------------------------------------------------
# Interior-sum term structure, keyed by (start state, final state).
#
# Term j of a branch is C(k-1, j+o1) * C(n-k-1, j+o2) (run-placement counts
# for the S1 and S0 self-transitions) times the monomial
#
#     p00**(n-k-j+o00) * p01**(j+o01) * p10**(j+o10) * p11**(k-j+o11)
#
# whose exponents always sum to n-1.  Only the offsets differ by branch.
# ---------------------------------------------------------------------------

_OFFSETS: dict[tuple[State, State], tuple[int, int, int, int, int, int]] = {
    #                      o1  o2 o00 o01 o10 o11
    (State.S1, State.S0): (-1, -1,  0, -1,  0,  0),
    (State.S1, State.S1): ( 0, -1,  0,  0,  0, -1),
    (State.S0, State.S1): (-1, -1,  0,  0, -1,  0),
    (State.S0, State.S0): (-1,  0, -1,  0,  0,  0),
}


# (o1, o2) of the branches whose limits are c1, c2 and c3.
_LIMIT_OFFSETS = tuple(
    _OFFSETS[branch][:2]
    for branch in ((State.S1, State.S0), (State.S1, State.S1), (State.S0, State.S0))
)


def _branch_limit(o1: int, o2: int, k: int, n: int) -> int:
    """Largest j with both C(k-1, j+o1) and C(n-k-1, j+o2) nonzero: c1, c2 or
    c3 of the branch with binomial offsets o1 and o2."""
    return min(k - 1 - o1, n - k - 1 - o2)


def _term_shape(
    start: State, final: State, k: int, n: int, j: int
) -> tuple[int, int, int, int, int, int, int, int]:
    """(b1_n, b1_r, b2_n, b2_r, e00, e01, e10, e11) of interior term j."""
    o1, o2, o00, o01, o10, o11 = _OFFSETS[start, final]
    return (k - 1, j + o1, n - k - 1, j + o2, n - k - j + o00, j + o01, j + o10, k - j + o11)


def _float_row(m: int, length: int) -> list[float]:
    """C(m, 0..length-1) as doubles, length <= m+1; the running product
    overflows to inf past row 1020."""
    c = 1.0
    return [1.0] + [c := c * (m - i + 1) / i for i in range(1, length)]


def _finite_sum(terms: list[float], n: int) -> float:
    """Compensated sum of float terms; inf or NaN means a binomial product overflowed."""
    total = ARITHMETIC[NumericMode.FLOAT].total(terms)
    if not math.isfinite(total):
        raise NumericalError(
            f"float arithmetic overflowed at horizon N={n} (float mode reaches "
            f"N={FLOAT_MAX_HORIZON}); use logspace mode (--mode logspace)"
        )
    return total


class _Coprime(numbers.Rational):
    """A numerator and a positive denominator with no common factor.  Given
    a ``numbers.Rational`` alone, ``Fraction`` copies its two parts and takes
    no gcd, so ``Fraction(_Coprime(p, q))`` is the canonical p/q."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


# Only Fraction reads a _Coprime, and only its two parts, so it defines none
# of the arithmetic that numbers.Rational declares abstract.  It subclasses
# numbers.Rational rather than registering with it: the ABC caches a
# subclass for isinstance but looks a registered class up on every call.
_Coprime.__abstractmethods__ = frozenset()


def _lowest_terms(num: int, den: int, s: int) -> Fraction:
    """``Fraction(num, den)`` for num >= 0 and den > 0 where every prime
    factor of den divides s, with no gcd of two full-size integers.

    Each pass takes g = gcd(num, s, den), two O(size) remainders by a small
    s and g, and divides num and den by the largest g**(2**i) that divides
    both, so a prime that divides them many times takes few passes.  When
    g = 1, no prime of s, and so none of den, divides both.
    """
    if not num:
        return Fraction(0)
    while (g := math.gcd(num, s, den)) > 1:
        while not (num % (h := g * g) or den % h):
            g = h
        num //= g
        den //= g
    return Fraction(_Coprime(num, den))


# The EXACT pair sum T(c, d1, d2) of pair m has c = m - d1 for 0 < m < n/2,
# and its terms then run over every i where both binomials are nonzero.  As a
# sequence in m, with e = d1 - d2 and w = n - 2m - 2 + e, it satisfies
#
#     q0(m) * T(m) + q1(m) * T(m+1) + q2(m) * T(m+2) = 0      (m >= 1, m+2 < n/2)
#
# and T_A and T_B (e = 0, 1) satisfy it at m+2 = n/2 too.
#
#     q0 = Y**2 * m * (w-1) * (n-m-1+e)
#     q1 = -w * (X * (w-1) * (w+1) + Y * (2m * (n-m-1) + (1-e) * (w+1)))
#     q2 = (m+1-e) * (w+1) * (n-m-2)
#
# Zeilberger's creative telescoping gives it (Zeilberger, J. Symbolic Comput.
# 11, 1991; Petkovsek, Wilf and Zeilberger, A = B, 1996, ch. 6), derived
# offline.  With F(m, i) = C(m-1, i+d1) * C(n-m-1, i+d2) * X**(i+d1+d2) *
# Y**(m-1-d1-i) the summand, its certificate R(m, i) makes it telescope:
#
#     q0 F(m, i) + q1 F(m+1, i) + q2 F(m+2, i) = G(m, i+1) - G(m, i),
#     G(m, i) = R(m, i) * F(m, i)
#             = -(w-1) w (w+1) C(m, i+d1-1) C(n-m-2, i+d2-1) X**(i+d1+d2) Y**(m+1-d1-i),
#     R(m, i) = -(w-1) w (w+1) m (i+d1) (i+d2) Y**2 / ((m-i-d1) (m+1-i-d1) (n-m-1)).
#
# G(m, 0) = 0 (d1 * d2 = 0) and G(m, i) = 0 past i = m+1, so the sum over i
# telescopes to 0.  Both sides are integer polynomials in X and Y, so the
# recurrence holds at X = 0, Y = 0 and X = Y too, and q2 > 0 at every step
# taken (m+1-e >= m, w+1 > 2 and n-m-2 > m): no step needs a fallback.
# At the middle pair m+2 = n/2, T_C has c = m+1, one less than its sequence
# asks, so the step gives Y * T_C there; rows a and b are both m+1, so
# T_C = T_B instead.

# e = d1 - d2 of T_A, T_B and T_C.
_SHIFTS = (0, 1, -1)


def _recurrence_coefficients(m: int, n: int, x: int, y: int, e: int) -> tuple[int, int, int]:
    """(q0, q1, q2) at m of the pair sum with e = d1 - d2, for X = x and Y = y."""
    w = n - 2 * m - 2 + e
    return (
        y * y * m * (w - 1) * (n - m - 1 + e),
        -w * (x * (w - 1) * (w + 1) + y * (2 * m * (n - m - 1) + (1 - e) * (w + 1))),
        (m + 1 - e) * (w + 1) * (n - m - 2),
    )


class _Evaluator:
    """Shared per-call state in raw payloads (numerators in EXACT mode):
    powers 0..n of p00 and p11, p01 and p10 themselves, powers 0..n/2 of
    X = p01*p10 and Y = p00*p11, the boundary conditionals, ``_combine``
    and ``_add`` from the mode's ``numerics.ARITHMETIC``, its branch scales
    and start weights, its pair sum ``_sum`` over two binomial rows, and
    ``_sequence``, which gives the pair sums of a run of pairs: EXACT sums
    one pair by term ratios, so its rows are their indices, and a run by the
    recurrence in m; FLOAT and LOGSPACE keep the mode's row builder and
    reduction and sum every pair alone.  ``_pair`` evaluates every interior
    k, alone or with its mirror n-k.  ``_masses`` turns a pair's three sums
    into its raw masses in a distribution: EXACT's ``_factored`` with one
    full-size product per mass, FLOAT's and LOGSPACE's ``_branch_masses``
    through ``_pair``, ``_by_start`` and ``_mass``, as a single k goes."""

    __slots__ = (
        "chain", "n", "mode", "terms_evaluated", "_pows", "_cross", "_xy_pows", "_ends",
        "_combine", "_add", "_scales", "_weights", "_sure", "_sum", "_sequence", "_masses",
        "_factors", "_row", "_reduce",
    )

    def __init__(self, chain: ChainSpec, n: int):
        _check_horizon(n)
        self.chain = chain
        self.n = n
        self.mode = chain.mode
        self.terms_evaluated = 0
        ar = ARITHMETIC[self.mode]
        self._combine, self._add = ar.mul, ar.add
        bases = [p.value for p in (chain.p00, chain.p01, chain.p10, chain.p11)]
        # _sum and _sequence are functions, not bound methods, and no row
        # builder or reduction refers to self, so the evaluator makes no
        # reference cycle.
        if self.mode is NumericMode.EXACT:
            bases = [b.numerator for b in bases]
            u, w = chain.p1.value.numerator, chain.p1.value.denominator
            # p1 = u/w and p0 = (w-u)/w; w also weighs a sure start (conditional).
            self._scales = (chain.p01.value.denominator, chain.p10.value.denominator)
            self._weights, self._sure = (u, w - u), w
            # _pair_sum forms its binomials by term ratios: a row is its index.
            self._row, self._sum = (lambda r, length: r), _Evaluator._pair_sum
            self._sequence, self._masses = _Evaluator._recurrence_sums, _Evaluator._factored
            # alpha, beta and gamma of _factored: what T_A, T_B and T_C carry
            # into a mass besides the powers of p00 and p11.
            (d0, d1), (p01, p10) = self._scales, bases[1:3]
            self._factors = (u * p10 * d0 + (w - u) * p01 * d1, u * d1, (w - u) * d0)
        else:
            self._scales, self._sure = (ar.one, ar.one), ar.one
            self._weights = (chain.p1.value, chain.p0.value)
            self._sum, self._sequence = _Evaluator._sliced_sum, _Evaluator._each_pair_sums
            self._masses = _Evaluator._branch_masses
            if self.mode is NumericMode.FLOAT:
                self._row = _float_row
                self._reduce = lambda terms: _finite_sum(terms, n)
            else:
                # lf[i] = log i!; row entries subtract in log_binomial's order.
                lf = [math.lgamma(i + 1) for i in range(n)]
                self._row = lambda m, length: list(
                    map(
                        operator.sub,
                        map(operator.sub, repeat(lf[m], length), lf),
                        reversed(lf[m + 1 - length : m + 1]),
                    )
                )
                self._reduce = ar.total
        p00, p01, p10, p11 = bases
        # _pair reads every power of p00 and p11 but only p01 and p10 themselves.
        self._pows, self._cross = [ar.powers(p00, n), ar.powers(p11, n)], (p10, p01)
        self._xy_pows = [ar.powers(b, n // 2) for b in (ar.mul(p01, p10), ar.mul(p00, p11))]
        # Raw P(k | S1) and P(k | S0) at k = 0 and n: only the all-S0 or the
        # all-S1 path is left, scaled like a branch that ends in S0 or S1.
        # By power: a FLOAT table entry can differ from ** in its last bits.
        e0, e1 = self._scales
        self._ends = {
            0: (ar.zero, ar.mul(ar.power(p00, n - 1), e0)),
            n: (ar.mul(ar.power(p11, n - 1), e1), ar.zero),
        }

    def _pair_sums(self, m: int) -> tuple:
        """T_A, T_B and T_C of pair m, each by the mode's ``_sum`` over rows
        m-1 and n-m-1; every term formed counts in ``terms_evaluated``."""
        n = self.n
        c1, c2, c3 = [_branch_limit(o1, o2, m, n) for o1, o2 in _LIMIT_OFFSETS]
        self.terms_evaluated += c1 + c2 + c3
        pair_sum = functools.partial(self._sum, self)
        a, b = self._row(m - 1, m), self._row(n - m - 1, min(m + 1, n - m))
        return pair_sum(a, b, c1, 0, 0), pair_sum(a, b, c2, 1, 0), pair_sum(a, b, c3, 0, 1)

    def _each_pair_sums(self, ms: range):
        """(m, (T_A, T_B, T_C)) for each m in ``ms``, every pair summed alone."""
        for m in ms:
            yield m, self._pair_sums(m)

    def _recurrence_sums(self, ms: range):
        """EXACT (m, (T_A, T_B, T_C)) for each m in ``ms``, in increasing m.

        The seeds m = 1, 2 come from ``_pair_sums``; every other m up to
        n/2 takes its sums from the two pairs before it, one step of each
        sum's recurrence in m (see ``_recurrence_coefficients``), and counts
        three in ``terms_evaluated``.  At the middle pair m = n/2 only T_A
        and T_B step, and T_C = T_B.  So the recurrence runs through every m
        up to the last in ``ms``, and only the last two triples are kept.
        """
        if not ms:
            return
        n = self.n
        x, y = self._xy_pows[0][1], self._xy_pows[1][1]
        e_a, e_b, e_c = _SHIFTS
        older = newer = ()
        for m in range(1, ms[-1] + 1):
            if m < 3:
                sums = self._pair_sums(m)
            else:
                self.terms_evaluated += 3
                (a0, b0, c0), (a1, b1, c1) = older, newer
                q0, q1, q2 = _recurrence_coefficients(m - 2, n, x, y, e_a)
                t_a = -(q0 * a0 + q1 * a1) // q2
                q0, q1, q2 = _recurrence_coefficients(m - 2, n, x, y, e_b)
                t_b = -(q0 * b0 + q1 * b1) // q2
                if 2 * m < n:
                    q0, q1, q2 = _recurrence_coefficients(m - 2, n, x, y, e_c)
                    t_c = -(q0 * c0 + q1 * c1) // q2
                else:
                    t_c = t_b
                sums = (t_a, t_b, t_c)
            older, newer = newer, sums
            if m in ms:
                yield m, sums

    def _pair(self, ks: tuple[int, ...], sums: tuple | None = None) -> list[tuple]:
        """The four interior sums of each k in ``ks``, in the order of
        ``_OFFSETS`` (S1->S0, S1->S1, S0->S1, S0->S0): FLOAT or LOGSPACE
        values, or EXACT integer numerators over d0**a * d1**b.

        ``ks`` is one interior k, or the pair (m, n-m) with 0 < m < n/2.
        Every branch is derived from the three pair sums T_A, T_B and T_C of
        m = min(k, n-k), as the module docstring says: ``sums`` if given,
        else ``_pair_sums(m)``.
        """
        n = self.n
        m = min(ks[0], n - ks[0])
        t_a, t_b, t_c = self._pair_sums(m) if sums is None else sums
        c3 = _branch_limit(*_LIMIT_OFFSETS[2], m, n)
        op = self._combine
        (pow00, pow11), (p10, p01) = self._pows, self._cross
        branches = []
        for k in ks:
            # At k = n-m the powers of p00 and p11 trade places, and T_B and
            # T_C trade the two branches that end where they start.
            q0, q1 = (pow00, pow11) if k == m else (pow11, pow00)
            cross = op(q0[n - 2 * m], t_a)
            short = op(q0[n - 2 * m + 1], t_b)
            long = op(op(q0[n - m - 1 - c3], q1[m - c3]), t_c)
            same1, same0 = (short, long) if k == m else (long, short)
            branches.append((op(p10, cross), same1, op(p01, cross), same0))
        return branches

    def _branch_masses(self, m: int, sums: tuple) -> list[tuple]:
        """[(k, raw P(N1 = k))] for k = m and, if 2m < n, k = n-m, from the
        three pair sums of m: the eight branch values of ``_pair``, each k's
        scaled and weighted by ``_by_start`` and ``_mass``."""
        ks = (m, self.n - m) if 2 * m < self.n else (m,)
        return list(zip(ks, map(self._mass, map(self._by_start, self._pair(ks, sums)))))

    def _factored(self, m: int, sums: tuple) -> list[tuple]:
        """EXACT ``_branch_masses``, the same integers with one full-size
        product per mass.

        With e = n-2m-1, every branch factor of k = m holds P00**e and every
        one of k = n-m holds P11**e, so each mass takes that power once.
        With alpha = u*P10*d0 + (w-u)*P01*d1, beta = u*d1 and
        gamma = (w-u)*d0, where the weights u and w-u and the scales d0 and
        d1 are those of ``_mass`` and ``_by_start``,

            raw(m)   = P00**e * (P00 * (alpha*T_A + beta*P00*T_B) + gamma*T_C)
            raw(n-m) = P11**e * (P11 * (alpha*T_A + gamma*P11*T_B) + beta*T_C)

        and at the middle pair 2m = n, raw(m) = alpha*T_A + beta*P00*T_B +
        gamma*P11*T_C.  Integer products associate, so no bit differs from
        ``_branch_masses``.
        """
        n = self.n
        t_a, t_b, t_c = sums
        alpha, beta, gamma = self._factors
        pow00, pow11 = self._pows
        p00, p11 = pow00[1], pow11[1]
        if 2 * m == n:
            return [(m, alpha * t_a + beta * p00 * t_b + gamma * p11 * t_c)]
        e, cross = n - 2 * m - 1, alpha * t_a
        return [
            (m, pow00[e] * (p00 * (cross + beta * p00 * t_b) + gamma * t_c)),
            (n - m, pow11[e] * (p11 * (cross + gamma * p11 * t_b) + beta * t_c)),
        ]

    def _sliced_sum(self, row_a: list, row_b: list, c: int, d1: int, d2: int):
        """FLOAT or LOGSPACE sum over i = 0..c-1 of C(a, i+d1) * C(b, i+d2) *
        X**(i+d1+d2) * Y**(c-1-i), joined from slices of binomial rows a and
        b and the power tables in that order and reduced by the mode."""
        op = self._combine
        x_pows, y_pows = self._xy_pows
        d = d1 + d2
        terms = map(op, row_a[d1 : c + d1], row_b[d2 : c + d2])
        terms = map(op, terms, x_pows[d : c + d])
        return self._reduce(list(map(op, terms, reversed(y_pows[:c]))))

    def _pair_sum(self, a: int, b: int, c: int, d1: int, d2: int) -> int:
        """Sum over j = 1..c of C(a, j-1+d1) * C(b, j-1+d2) * Y**(c-j) *
        X**(j-1+d1+d2), with X = P01*P10 and Y = P00*P11, by term ratios;
        r1 and r2 are the lower indices of the two binomials."""
        if c < 1:
            return 0
        x_pows, y_pows = self._xy_pows
        x, y = x_pows[1], y_pows[1]
        if not y:  # every term but the last (j = c) carries a power of Y = 0
            return math.comb(a, c - 1 + d1) * math.comb(b, c - 1 + d2) * x_pows[c - 1 + d1 + d2]
        term = math.comb(a, d1) * math.comb(b, d2) * y_pows[c - 1] * x_pows[d1 + d2]
        total = term
        for r1, r2 in zip(range(d1, d1 + c - 1), range(d2, d2 + c - 1)):
            term = term * ((a - r1) * (b - r2) * x) // ((r1 + 1) * (r2 + 1) * y)
            total += term
        return total

    def _by_start(self, sums: tuple) -> tuple:
        """Raw P(k | S1) and P(k | S0) from the four interior sums of k.

        A path ending in S0 makes one transition out of S0 fewer than its
        n-k visits to S0 (a = n-k-1), and a path ending in S1 one out of S1
        fewer (b = k-1), so each EXACT sum is scaled by the missing factor,
        d0 or d1; FLOAT and LOGSPACE scale by the unit, which is exact.
        """
        s1_s0, s1_s1, s0_s1, s0_s0 = sums
        add, op = self._add, self._combine
        e0, e1 = self._scales
        return add(op(s1_s0, e0), op(s1_s1, e1)), add(op(s0_s1, e1), op(s0_s0, e0))

    def _starts(self, k: int) -> tuple:
        """Raw P(k | S1) and P(k | S0) for 0 <= k <= n."""
        if 0 < k < self.n:
            return self._by_start(self._pair((k,))[0])
        return self._ends[k]

    def _mass(self, starts: tuple):
        """Raw P(N1 = k) from the raw P(k | S1) and P(k | S0)."""
        s1, s0 = starts
        add, op = self._add, self._combine
        u1, u0 = self._weights
        return add(op(u1, s1), op(u0, s0))

    def _prob(self, raw, k: int) -> ProbValue:
        """The ``ProbValue`` of a raw mass of k; EXACT puts its numerator
        over w * d0**(n-k) * d1**k in lowest terms with ``_lowest_terms``."""
        if self.mode is NumericMode.EXACT:
            d0, d1 = self._scales
            w = self._sure
            raw = _lowest_terms(raw, w * d0 ** (self.n - k) * d1**k, w * d0 * d1)
        return ProbValue(self.mode, raw)

    def _probs(self, raws: list) -> list[ProbValue]:
        """The ``ProbValue``s of the raw masses of k = 0..n, each as ``_prob``
        makes it; EXACT takes each denominator from the one before, since
        w * d0**(n-k-1) * d1**(k+1) = w * d0**(n-k) * d1**k // d0 * d1."""
        if self.mode is NumericMode.EXACT:
            d0, d1 = self._scales
            w = self._sure
            dens = accumulate(
                repeat(d1, self.n), lambda den, d1: den // d0 * d1, initial=w * d0**self.n
            )
            raws = map(_lowest_terms, raws, dens, repeat(w * d0 * d1))
        return list(map(ProbValue, repeat(self.mode), raws))

    def conditional(self, start: State, k: int) -> ProbValue:
        """P(exactly k visits to S1 | trajectory starts in ``start``)."""
        _check_visits(k, self.n)
        s1, s0 = self._starts(k)
        return self._prob(self._combine(self._sure, s1 if start is State.S1 else s0), k)

    def visit_probability(self, k: int, target: State) -> ProbValue:
        _check_visits(k, self.n)
        if target is State.S0:
            # Complement identity: every position is in exactly one state,
            # so k visits to S0 means n-k visits to S1.
            k = self.n - k
        return self._prob(self._mass(self._starts(k)), k)


# Smallest horizon whose distribution is split over two processes
# (visitprob.split).  On a 2-core VM, when the second core is busy, the fork
# and a child that starts 2-6 ms late cost up to 25 % at N = 200-400 and
# about 10 % from N = 400 on.  With it idle, serial -> split, medians of 15,
# two or three runs, chain 3/10, 2/5, 1/2 (EXACT: minimum to median of 9, 7,
# 5 and 3 runs at N = 400, 1000, 2000 and 4000 in each of two sessions,
# chains 3/10, 2/5, 1/2, then 13/97, 41/89, 29/83, then 1/10000, 1/10000, 1/2):
#   EXACT     N = 400   0.0023-0.0030 -> 0.0048-0.0066 s, 0.0029-0.0037 -> 0.0063-0.0093 s,
#                       0.0084-0.0107 -> 0.011-0.017 s
#             N = 1000  0.0095-0.012 -> 0.016-0.020 s,    0.016-0.027 -> 0.027-0.044 s,
#                       0.059-0.070 -> 0.056-0.080 s
#             N = 2000  0.036-0.049 -> 0.056-0.068 s,     0.070-0.113 -> 0.096-0.149 s,
#                       0.29-0.35 -> 0.25-0.30 s
#             N = 4000  0.20-0.31 -> 0.25-0.38 s,         0.33-0.40 -> 0.33-0.52 s,
#                       1.43-1.83 -> 1.12-1.45 s
#   FLOAT     N = 200   0.006-0.008 -> 0.006-0.009 s
#             N = 400   0.016-0.018 -> 0.013-0.016 s
#             N = 1000  0.092-0.093 -> 0.057-0.062 s
#   LOGSPACE  N = 200   0.007-0.011 -> 0.009-0.011 s
#             N = 400   0.023-0.032 -> 0.017-0.021 s
#             N = 1000  0.11-0.16 -> 0.074-0.094 s
# EXACT takes its pair sums from the recurrence in m, its masses with one
# full-size product each and reduces them against w * d0 * d1, so its split
# costs time on the first two chains at every N measured (medians +21 % to
# +150 %), breaks even on the third, whose numerators are large, at
# N = 1000 and gains 14-21 % on it from N = 2000 on: both processes run the
# whole recurrence, and the parent builds every Fraction.  One threshold
# serves every mode.
_SPLIT_MIN_HORIZON = 400


def _pair_masses(ev: _Evaluator, ms: range) -> dict[int, object]:
    """{k: raw P(N1 = k)} for k = m and k = n-m, for each 0 < m <= n/2 in
    ``ms`` (increasing), as ``_Evaluator._probs`` reads them.

    The mode's ``_sequence`` gives the three pair sums of each m in ``ms``,
    and its ``_masses`` both masses of the pair from them: EXACT's
    ``_Evaluator._factored`` with one full-size product per mass, FLOAT's and
    LOGSPACE's ``_Evaluator._branch_masses`` through the eight branch values.
    """
    masses = {}
    for m, sums in ev._sequence(ev, ms):
        masses.update(ev._masses(ev, m, sums))
    return masses


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def prob_given_start_s1(k: int, n: int, chain: ChainSpec) -> ProbValue:
    """P(exactly k visits to S1 | start in S1), before initial-state weighting."""
    return _Evaluator(chain, n).conditional(State.S1, k)


def prob_given_start_s0(k: int, n: int, chain: ChainSpec) -> ProbValue:
    """P(exactly k visits to S1 | start in S0), before initial-state weighting."""
    return _Evaluator(chain, n).conditional(State.S0, k)


def visit_probability(query: VisitQuery, chain: ChainSpec) -> ProbValue:
    """P(target visited exactly k times | horizon N) for one query."""
    return _Evaluator(chain, query.horizon_n).visit_probability(query.visits_k, query.target)


def visit_distribution(n: int, target: State, chain: ChainSpec) -> VisitDistribution:
    """The full vector P(target = k | N) for k = 0..N.

    One evaluator serves every k: its power tables and, in FLOAT and
    LOGSPACE, the binomial rows of the current pair (k, N-k).  Each pair's
    raw masses come from its three pair sums, and those of k = 0 and k = N
    from p00**(N-1) and p11**(N-1), through the same raw assembly; each mass
    becomes one ``ProbValue`` (in EXACT mode the ``Fraction`` of an integer
    numerator over w * d0**(N-k) * d1**k, put in lowest terms by
    ``_lowest_terms``).  Target S0 reverses the masses of S1.
    """
    _check_state(target, "target")
    ev = _Evaluator(chain, n)
    if n >= _SPLIT_MIN_HORIZON:
        # Imported on first use: where no bytecode cache is written, compiling
        # it at import would raise every caller's peak memory by 0.25 MiB.
        from visitprob.split import split_masses

        raw = split_masses(ev)
    else:
        raw = _pair_masses(ev, range(1, n // 2 + 1))
    raw[0], raw[n] = ev._mass(ev._starts(0)), ev._mass(ev._starts(n))
    mass = ev._probs([raw[k] for k in range(n + 1)])
    if target is State.S0:
        mass.reverse()  # the complement identity of visit_probability
    return VisitDistribution(horizon_n=n, target=target, mode=chain.mode, mass=tuple(mass))


def moments(dist: VisitDistribution) -> tuple[ProbValue, ProbValue]:
    """(mean, variance) of a visit-count distribution, in its own backend."""
    mode = dist.mode
    weights = [ProbValue.from_int(k, mode) for k in range(dist.horizon_n + 1)]
    mean = sum_values([w * m for w, m in zip(weights, dist.mass)], mode)
    second = sum_values([w * w * m for w, m in zip(weights, dist.mass)], mode)
    return mean, second - mean * mean


@dataclass(frozen=True, slots=True)
class TermCell:
    """Path count and transition exponents predicted for one census cell."""

    count: int
    transitions: TransitionCounts


def term_census(k: int, n: int, initial: State, final: State) -> dict[int, TermCell]:
    """Formula-side census: how many paths from ``initial`` to ``final`` with
    exactly k visits to S1 share each transition-count signature.

    Keys are the number of S1 -> S0 transitions along the path; each cell's
    count is the product of the two binomial coefficients of the matching
    interior term.  Boundary k values yield the single uniform path or
    nothing.  Chain-independent: counts and exponents only.
    """
    _check_horizon(n)
    _check_visits(k, n)
    _check_state(initial, "initial")
    _check_state(final, "final")
    if k == 0:
        if initial is State.S0 and final is State.S0:
            return {0: TermCell(1, TransitionCounts(n00=n - 1))}
        return {}
    if k == n:
        if initial is State.S1 and final is State.S1:
            return {0: TermCell(1, TransitionCounts(n11=n - 1))}
        return {}
    cells: dict[int, TermCell] = {}
    for j in range(1, _branch_limit(*_OFFSETS[initial, final][:2], k, n) + 1):
        b1n, b1r, b2n, b2r, e00, e01, e10, e11 = _term_shape(initial, final, k, n, j)
        count = binomial(b1n, b1r) * binomial(b2n, b2r)
        cells[e10] = TermCell(count, TransitionCounts(n00=e00, n01=e01, n10=e10, n11=e11))
    return cells
