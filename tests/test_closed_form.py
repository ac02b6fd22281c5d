import functools
import hashlib
import marshal
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visitprob import closed_form, split
from visitprob.chain_model import State, VisitQuery, build_chain, swap_labels
from visitprob.closed_form import (
    _OFFSETS,
    _SHIFTS,
    _SPLIT_MIN_HORIZON,
    FLOAT_MAX_HORIZON,
    _Evaluator,
    _lowest_terms,
    _pair_masses,
    _recurrence_coefficients,
    moments,
    prob_given_start_s0,
    prob_given_start_s1,
    summation_limits,
    term_census,
    visit_distribution,
    visit_probability,
)
from visitprob.errors import NumericalError, ParameterError
from visitprob.numerics import ARITHMETIC, NumericMode, ProbValue, pow_prob
from visitprob.oracle import oracle_distribution

GENERIC = ("3/10", "2/5", "1/2")
SKEWED = ("13/97", "41/89", "29/83")

# Frozen expectations below were produced by the exhaustive-enumeration
# oracle (see tests/test_oracle.py) and are asserted bit-for-bit.
GENERIC_N5_K2 = Fraction(2487, 10_000)
GENERIC_N8_MASS = (
    Fraction(823543, 20_000_000),
    Fraction(2033647, 20_000_000),
    Fraction(1637139, 10_000_000),
    Fraction(994203, 5_000_000),
    Fraction(96147, 500_000),
    Fraction(187839, 1_250_000),
    Fraction(58563, 625_000),
    Fraction(13851, 312_500),
    Fraction(2187, 156_250),
)
GENERIC_N8_MEAN = Fraction(70_612_111, 20_000_000)
GENERIC_N8_VARIANCE = Fraction(1_342_109_040_123_679, 400_000_000_000_000)

# sha256 of the newline-joined reprs of every mass payload.  They pin each
# rounding step: any change in the order in which a term's factors are
# combined or its terms reduced shows up here.  Keys are (mode, chain,
# target) at the mode's MASS_DIGEST_HORIZON, or (mode, chain, target, N).
MASS_DIGESTS = {
    ("exact", "generic", "S0"): "66d2ec6198b9d6d50a4e4aced80bf504564e309d294b48b7822a553ac510f4af",
    ("exact", "generic", "S1"): "35e2abc76eff7572896287342fb89c38c893fc9b6c1cf56711b85af882b7fe61",
    ("exact", "skewed", "S0"): "c322d7080f75d93206d1de8e83059b07b953b2f39ac41e9950fa6cdb9a090469",
    ("exact", "skewed", "S1"): "10826d4ae08f78811197d10f535d491ff154202cda0ecefae7f583f2feafe3f0",
    ("float", "generic", "S0"): "08a656bc41f69e98606edbe38a7930f8392d1d3ca2c746bded55e3ac1d69399a",
    ("float", "generic", "S1"): "e3bca8cc42d07365c26b28e7dc113ab286c2188f463681ea8a7f6699f339a593",
    ("float", "skewed", "S0"): "feab4edfbac37d743c5325521f294757f679653eacae640e29739e402ca4398a",
    ("float", "skewed", "S1"): "b7a225d1ee19cd37f8fff1e3da18d231dc774ebe581dce717b818c380cb5d7b0",
    ("logspace", "generic", "S0"): "482be125646abdf065f153a9a0a312514988feda3c1129c523f475cdb144e0ef",
    ("logspace", "generic", "S1"): "53fe971a63ada9ff993e0d81fa5e99001c387853a102c4a8f6eaa5a31332daca",
    ("logspace", "skewed", "S0"): "b581a87619dff6002a4c079618526b7505ac291ae5154e2251880dff57d95093",
    ("logspace", "skewed", "S1"): "fcd0a5262200ed1d80d0baed41007c08146d33d4239a9e1ff140b3f3e128680d",
    ("exact", "generic", "S0", "200"): "8e0908f31bf795a29437e06fc4ba42b502f21fd6f47e63c3b8e28b768fa2ba84",
    ("exact", "generic", "S1", "200"): "2e53e43fd8b5d667ce249ca360f0932c23c77920b02aac69251bc3608c78d534",
    ("exact", "skewed", "S0", "200"): "c67b0a21925a7454e13712470dac2f6631451ba6f68438ad539a3a77d3e2ed9b",
    ("exact", "skewed", "S1", "200"): "2c11563aeace30523102702d52fc2fcbb39979d7d0cd2a52d315ea13f6fcc308",
    ("float", "generic", "S1", "1000"): "18feb60a8d2f27b30901e8ba4fc575a4714ebf2d8b379a9af19bac49cba15b31",
    ("float", "skewed", "S1", "1000"): "b7772dbbc6e78cd339f118076bf7122fbafc183924eb8e110cfe1c5e64ec2488",
    ("logspace", "generic", "S1", "1000"): "7b6d3b8bcf1582e0225b19d0c2034f76483fe118ceb64d6f97d3b5de69324b2b",
    ("logspace", "skewed", "S1", "1000"): "486f205f5590bf7f97e1cf79ee8f703b50eb32f88174d595b1d571c08fe9b336",
    ("float", "flip", "S1", "1035"): "66cfb45714e9d993f08cfd8b32c1b108cd886ec50ed92be562dccdc2e59f23ac",
    ("float", "absorbing", "S1", "1035"): "04dd6b35c006fe34238e95b6a7f9acb13f61e39ec9232e4fcf06784a9cba9a75",
}
# Logspace at N = 2000, past FLOAT_MAX_HORIZON, where each pair sum's terms
# span thousands of nats and log-sum-exp sums a narrow window of them.
# Target S1.
LOGSPACE_N2000_DIGESTS = {
    "generic": "61cfc64735438f8fe7c958b327acf8e92c485bc204bd2bde96ec014085f14373",
    "skewed": "56c8f2d459262f530a104f54a5c94a246c05938e243399b5d293e74bd8a76b43",
}
MASS_DIGEST_HORIZON = {"exact": 120, "float": 300, "logspace": 300}
MASS_DIGEST_CHAINS = {
    "generic": GENERIC,
    "skewed": SKEWED,
    "flip": (0, 1, "1/2"),
    "absorbing": (1, 0, 0),
}



def reference_row(mode, m):
    """Binomial row m, whole, as each mode's rows are built: ``math.comb``
    integers, the running product c * (m-i+1) / i in doubles, or
    log m! - log i! - log (m-i)! from ``lgamma``."""
    if mode is NumericMode.EXACT:
        return [math.comb(m, r) for r in range(m + 1)]
    if mode is NumericMode.FLOAT:
        row = [1.0]
        for i in range(1, m + 1):
            row.append(row[-1] * (m - i + 1) / i)
        return row
    lf = [math.lgamma(i + 1) for i in range(m + 1)]
    return [lf[m] - lf[i] - lf[m - i] for i in range(m + 1)]


def reference_interior_terms(ev, start, final, k):
    """The per-j loop of one branch, run to j = n: term j of one branch,
    skipping j past either binomial row (the zero-extended binomials).  It
    builds whole rows itself, and the powers of p01 and p10 from the
    evaluator's bases; in EXACT mode the factors, the evaluator's numerator
    powers of p00 and p11 among them, are multiplied."""
    n = ev.n
    o1, o2, o00, o01, o10, o11 = _OFFSETS[start, final]
    row1, row2 = reference_row(ev.mode, k - 1), reference_row(ev.mode, n - k - 1)
    op = ev._combine
    pow00, pow11 = ev._pows
    pow10, pow01 = (ARITHMETIC[ev.mode].powers(b, n) for b in ev._cross)
    out = []
    for j in range(1, n + 1):
        r1, r2 = j + o1, j + o2
        if r1 >= len(row1) or r2 >= len(row2):
            continue
        term = op(row1[r1], row2[r2])
        term = op(op(term, pow11[k - j + o11]), pow10[j + o10])
        out.append(op(op(term, pow01[j + o01]), pow00[n - k - j + o00]))
    return out


def reference_pair(ev, k):
    """FLOAT or LOGSPACE branch values of interior k, term by term: the
    three pair sums of m = min(k, n-k) over whole rows, each term joining
    C(a, i+d1), C(b, i+d2), X**(i+d1+d2) and Y**(c-1-i) in that order, then
    the factors of the module docstring.  Every power is taken here, by
    running product or as e * log."""
    n, mode, op = ev.n, ev.mode, ev._combine
    m = min(k, n - k)
    chain = ev.chain
    p00, p01, p10, p11 = (p.value for p in (chain.p00, chain.p01, chain.p10, chain.p11))
    if mode is NumericMode.FLOAT:
        x, y = p01 * p10, p00 * p11

        def power(base, e):
            value = 1.0
            for _ in range(e):
                value *= base
            return value
    else:
        x, y = p01 + p10, p00 + p11

        def power(base, e):
            return 0.0 if e == 0 else e * base

    row_a, row_b = reference_row(mode, m - 1), reference_row(mode, n - m - 1)

    def pair_sum(c, d1, d2):
        terms = []
        for i in range(c):
            term = op(row_a[i + d1], row_b[i + d2])
            terms.append(op(op(term, power(x, i + d1 + d2)), power(y, c - 1 - i)))
        return ev._reduce(terms)

    c1, c2, c3 = astuple(summation_limits(m, n))
    t_a, t_b, t_c = pair_sum(c1, 0, 0), pair_sum(c2, 1, 0), pair_sum(c3, 0, 1)
    q0, q1 = (p00, p11) if k == m else (p11, p00)
    cross = op(power(q0, n - 2 * m), t_a)
    short = op(power(q0, n - 2 * m + 1), t_b)
    long = op(op(power(q0, n - m - 1 - c3), power(q1, m - c3)), t_c)
    same1, same0 = (short, long) if k == m else (long, short)
    return op(power(p10, 1), cross), same1, op(power(p01, 1), cross), same0


def reference_exact_mass(ev, k, target):
    """The per-branch reduction the one-Fraction-per-k form replaced: each
    interior branch becomes Fraction(sum, d0**a * d1**b), where a and b count
    its transitions out of S0 and out of S1, and the branches and the initial
    weights combine through ProbValue arithmetic."""
    n, chain = ev.n, ev.chain
    if target is State.S0:
        k = n - k
    d0, d1 = chain.p01.value.denominator, chain.p10.value.denominator

    def branch(start, final):
        o00, o01, o10, o11 = _OFFSETS[start, final][2:]
        total = sum(reference_interior_terms(ev, start, final, k))
        return ProbValue.exact(Fraction(total, d0 ** (n - k + o00 + o01) * d1 ** (k + o10 + o11)))

    def conditional(start):
        if start is State.S1:
            if k == 0:
                return ProbValue.exact(0)
            if k == n:
                return pow_prob(chain.p11, n - 1)
            return branch(State.S1, State.S0) + branch(State.S1, State.S1)
        if k == 0:
            return pow_prob(chain.p00, n - 1)
        if k == n:
            return ProbValue.exact(0)
        return branch(State.S0, State.S1) + branch(State.S0, State.S0)

    return conditional(State.S1), conditional(State.S0), (
        chain.p1 * conditional(State.S1) + chain.p0 * conditional(State.S0)
    )


def fraction_parts(value):
    return value.numerator, value.denominator


rational = st.fractions(min_value=0, max_value=1, max_denominator=12)
chains = st.builds(build_chain, rational, rational, rational)
# Degenerate entries drawn often, not left to chance.
rational_or_edge = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=17),
)
edge_chains = st.builds(build_chain, rational_or_edge, rational_or_edge, rational_or_edge)


class TestSummationLimits:
    def test_low_k_regime(self):
        lim = summation_limits(4, 8)
        assert (lim.c1, lim.c2, lim.c3) == (4, 3, 3)

    def test_high_k_regime(self):
        lim = summation_limits(5, 8)
        assert (lim.c1, lim.c2, lim.c3) == (3, 3, 2)

    def test_smallest_interior_case(self):
        lim = summation_limits(1, 2)
        assert (lim.c1, lim.c2, lim.c3) == (1, 0, 0)

    @given(st.integers(min_value=2, max_value=100), st.data())
    def test_min_definitions(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        lim = summation_limits(k, n)
        assert lim.c1 == min(k, n - k)
        assert lim.c2 == min(k - 1, n - k)
        assert lim.c3 == min(k, n - k - 1)

    @pytest.mark.parametrize("k,n", [(0, 4), (4, 4), (-1, 4), (5, 4)])
    def test_boundary_k_rejected(self, k, n):
        with pytest.raises(ParameterError):
            summation_limits(k, n)

    @pytest.mark.parametrize("k,n", [(True, 3), (1.5, 3), (2.0, 4), (1, 3.0), ("1", 3)])
    def test_non_int_rejected(self, k, n):
        """A bool or float is not a count: True would pass as 1 and 1.5
        would give fractional limits."""
        with pytest.raises(ParameterError, match="integers"):
            summation_limits(k, n)


class TestConditionalBranches:
    def test_start_s1_zero_visits_impossible(self):
        c = build_chain(*GENERIC)
        for n in (1, 2, 5):
            assert prob_given_start_s1(0, n, c).value == 0

    def test_start_s1_all_visits(self):
        c = build_chain(*GENERIC)
        assert prob_given_start_s1(4, 4, c).value == Fraction(3, 5) ** 3

    def test_absorbing_s1(self):
        c = build_chain("1/4", 0, "1/2")
        assert prob_given_start_s1(6, 6, c).value == 1

    def test_start_s1_single_transition(self):
        c = build_chain(*GENERIC)
        assert prob_given_start_s1(1, 2, c).value == Fraction(2, 5)  # p10

    def test_start_s0_zero_visits(self):
        c = build_chain(*GENERIC)
        assert prob_given_start_s0(0, 3, c).value == Fraction(7, 10) ** 2

    def test_start_s0_all_visits_impossible(self):
        c = build_chain(*GENERIC)
        assert prob_given_start_s0(3, 3, c).value == 0

    def test_start_s0_single_transition(self):
        c = build_chain(*GENERIC)
        assert prob_given_start_s0(1, 2, c).value == Fraction(3, 10)  # p01

    def test_out_of_range_k(self):
        c = build_chain(*GENERIC)
        with pytest.raises(ParameterError):
            prob_given_start_s1(5, 4, c)
        with pytest.raises(ParameterError):
            prob_given_start_s0(-1, 4, c)


class TestVisitProbability:
    def test_uniform_chain_counts_paths(self):
        c = build_chain("1/2", "1/2", "1/2")
        assert visit_probability(VisitQuery(4, 2), c).value == Fraction(3, 8)

    def test_absorbing_start(self):
        c = build_chain("1/4", 0, 1)
        for n in (1, 3, 9):
            assert visit_probability(VisitQuery(n, n), c).value == 1

    def test_generic_chain_frozen_oracle_value(self):
        c = build_chain(*GENERIC)
        assert visit_probability(VisitQuery(5, 2), c).value == GENERIC_N5_K2

    def test_n2_decomposition(self):
        c = build_chain(*GENERIC)
        expected = c.p1.value * c.p10.value + c.p0.value * c.p01.value
        assert visit_probability(VisitQuery(2, 1), c).value == expected

    def test_float_overflow_raises_numerical_error(self):
        c = build_chain(*GENERIC, NumericMode.FLOAT)
        n = FLOAT_MAX_HORIZON
        assert visit_probability(VisitQuery(n, (n + 1) // 2), c).value > 0
        with pytest.raises(NumericalError, match=f"N={n + 1} .*N={n}\\)"):
            visit_probability(VisitQuery(n + 1, (n + 1) // 2), c)

    @pytest.mark.parametrize("params", [GENERIC, SKEWED, ("0", "1/2", "1/2")])
    def test_float_horizon_depends_on_k_not_on_the_chain(self, params):
        """Past FLOAT_MAX_HORIZON a single float probability raises only
        where its pair's two binomial rows multiply past the double range: at
        N = 1100 that is 394 <= k <= 706 on every chain.  A whole
        distribution covers those k, so it raises."""
        chain = build_chain(*params, NumericMode.FLOAT)
        below = visit_probability(VisitQuery(1100, 393), chain).value
        exact = visit_probability(VisitQuery(1100, 393), build_chain(*params)).value
        assert abs(Fraction(below) - exact) <= Fraction(1, 10**11) * exact
        with pytest.raises(NumericalError):
            visit_probability(VisitQuery(1100, 394), chain)
        with pytest.raises(NumericalError):
            visit_distribution(1100, State.S1, chain)


class TestVisitDistribution:
    def test_single_position(self):
        c = build_chain(*GENERIC)
        d = visit_distribution(1, State.S1, c)
        assert [m.value for m in d.mass] == [c.p0.value, c.p1.value]

    def test_uniform_chain_is_binomial(self):
        d = visit_distribution(4, State.S1, build_chain("1/2", "1/2", "1/2"))
        assert [m.value for m in d.mass] == [
            Fraction(x, 16) for x in (1, 4, 6, 4, 1)
        ]

    def test_generic_chain_frozen_oracle_distribution(self):
        d = visit_distribution(8, State.S1, build_chain(*GENERIC))
        assert tuple(m.value for m in d.mass) == GENERIC_N8_MASS

    def test_probability_accessor_bounds(self):
        d = visit_distribution(3, State.S1, build_chain(*GENERIC))
        assert d.probability(2) is d.mass[2]
        with pytest.raises(ParameterError):
            d.probability(4)

    @settings(max_examples=40, deadline=None)
    @given(chains, st.integers(min_value=1, max_value=40))
    def test_normalization_exact(self, chain, n):
        assert visit_distribution(n, State.S1, chain).total().value == 1

    @pytest.mark.parametrize(
        "params", [GENERIC, ("1/100", "99/100", "1/2"), ("49/100", "51/100", "1/100")]
    )
    def test_float_mode_tracks_exact(self, params):
        """Parameters at least 1/100 away from 0 and 1: within 1e-10 relative."""
        exact = visit_distribution(200, State.S1, build_chain(*params))
        float_ = visit_distribution(200, State.S1, build_chain(*params, NumericMode.FLOAT))
        for e, f in zip(exact.mass, float_.mass):
            assert f.value == pytest.approx(float(e.value), rel=1e-10)

    def test_logspace_mode_tracks_exact(self):
        exact = visit_distribution(60, State.S1, build_chain(*GENERIC))
        logd = visit_distribution(
            60, State.S1, build_chain(*GENERIC, NumericMode.LOGSPACE)
        )
        for e, l in zip(exact.mass, logd.mass):
            assert l.to_float() == pytest.approx(float(e.value), rel=1e-9)

    @pytest.mark.parametrize("key", list(MASS_DIGESTS), ids="-".join)
    def test_masses_are_bit_identical_to_frozen_digests(self, key):
        mode, chain, target, *horizon = key
        d = visit_distribution(
            int(horizon[0]) if horizon else MASS_DIGEST_HORIZON[mode],
            State[target],
            build_chain(*MASS_DIGEST_CHAINS[chain], NumericMode(mode)),
        )
        text = "\n".join(repr(m.value) for m in d.mass)
        assert hashlib.sha256(text.encode()).hexdigest() == MASS_DIGESTS[key]

    def test_serial_logspace_holds_two_binomial_rows(self, monkeypatch):
        """One process evaluates the pairs (k, N-k) and keeps only the two
        rows of the current pair: at N = 300 the call allocates about
        0.1 MiB at its peak, where a cache of all N rows reaches 1.5 MiB.
        The split is disabled so that the bound holds at any threshold."""
        monkeypatch.setattr(split, "_can_split", lambda: False)
        chain = build_chain(*GENERIC, NumericMode.LOGSPACE)
        tracemalloc.start()
        try:
            visit_distribution(300, State.S1, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, peak

    @settings(max_examples=60, deadline=None)
    @given(chains, st.integers(min_value=1, max_value=10), st.sampled_from(State))
    def test_exact_matches_oracle_bit_for_bit(self, chain, n, target):
        closed = visit_distribution(n, target, chain)
        assert [m.value for m in closed.mass] == [
            m.value for m in oracle_distribution(n, target, chain).mass
        ]


# Chains for the N = 1000 accuracy tests: GENERIC and SKEWED, X = p01*p10
# far below Y = p00*p11, X = Y, and X = 0 and Y = 0 (p01 = 0 and p01 = 1).
ACCURACY_CHAINS = {
    "generic": GENERIC,
    "skewed": SKEWED,
    "small-x": ("1/1000", "1/999", "1/2"),
    "x-equals-y": ("1/1000", "999/1000", "1/2"),
    "p01-zero": (0, "2/5", "1/2"),
    "p01-one": (1, "2/5", "1/2"),
}
# Smallest exact mass whose FLOAT value is checked: nearer the subnormal
# range (below 2.2e-308) a mass's factors lose digits to gradual underflow.
FLOAT_CHECKED_FROM = Fraction(1, 10**290)


@functools.cache
def exact_n1000(chain_name):
    """The exact N = 1000 masses of an ACCURACY_CHAINS chain, computed once
    for both modes' tests."""
    chain = build_chain(*ACCURACY_CHAINS[chain_name])
    return [m.value for m in visit_distribution(1000, State.S1, chain).mass]


def exact_log(value):
    """log of a nonnegative Fraction to about one ulp, for values far outside
    the double range: the log of a mantissa in [1/2, 2] plus e * log 2."""
    if value == 0:
        return -math.inf
    e = value.numerator.bit_length() - value.denominator.bit_length()
    mantissa = (value.numerator << max(-e, 0)) / (value.denominator << max(e, 0))
    return math.log(mantissa) + e * math.log(2)


class TestLargeHorizonAccuracy:
    """FLOAT and LOGSPACE against the exact masses at N = 1000, where each
    pair sum has up to 500 terms.  Before the pair sums replaced eight branch
    sums per pair, the largest errors on these chains were 6.3e-14 relative
    (FLOAT, masses from FLOAT_CHECKED_FROM on) and 2.2e-12 in log
    (LOGSPACE); after it, 6.3e-14 and 2.7e-12.  Exact zeros stay 0.0 and
    -inf.  The X = Y chain is left out of FLOAT: there intermediate powers
    of p11 = 1/1000 underflow, and 53 masses from 1e-290 up to 4.2e-176 are
    off by more than 1e-9 relative, as they were before."""

    @pytest.mark.parametrize("chain_name", list(ACCURACY_CHAINS))
    def test_logspace_within_1e_11_in_log(self, chain_name):
        chain = build_chain(*ACCURACY_CHAINS[chain_name], NumericMode.LOGSPACE)
        logd = visit_distribution(1000, State.S1, chain)
        for k, (e, l) in enumerate(zip(exact_n1000(chain_name), logd.mass)):
            want = exact_log(e)
            assert l.value == want or abs(l.value - want) <= 1e-11, k

    @pytest.mark.parametrize("chain_name", [c for c in ACCURACY_CHAINS if c != "x-equals-y"])
    def test_float_within_1e_12_relative(self, chain_name):
        chain = build_chain(*ACCURACY_CHAINS[chain_name], NumericMode.FLOAT)
        floats = visit_distribution(1000, State.S1, chain)
        for k, (e, f) in enumerate(zip(exact_n1000(chain_name), floats.mass)):
            if e == 0:
                assert f.value == 0.0, k
            elif e >= FLOAT_CHECKED_FROM:
                assert abs(Fraction(f.value) / e - 1) <= 1e-12, k


class TestSymmetries:
    @settings(max_examples=30, deadline=None)
    @given(chains, st.integers(min_value=1, max_value=10))
    def test_complement_identity(self, chain, n):
        s1 = visit_distribution(n, State.S1, chain)
        s0 = visit_distribution(n, State.S0, chain)
        for k in range(n + 1):
            assert s0.mass[k].value == s1.mass[n - k].value

    @settings(max_examples=30, deadline=None)
    @given(chains, st.integers(min_value=1, max_value=10))
    def test_label_swap_identity(self, chain, n):
        s0 = visit_distribution(n, State.S0, chain)
        swapped_s1 = visit_distribution(n, State.S1, swap_labels(chain))
        for k in range(n + 1):
            assert s0.mass[k].value == swapped_s1.mass[k].value


def recurrence_count(n, ms):
    """What EXACT ``_sequence`` over ``ms`` adds to ``terms_evaluated``: the
    c1 + c2 + c3 terms of each pair it sums alone (m = 1, 2) and three for
    every m it takes from the recurrence (3 <= m <= n/2, up to the last m in
    ``ms``)."""
    run = range(1, (ms[-1] if ms else 0) + 1)
    alone = [m for m in run if m < 3]
    return sum(sum(astuple(summation_limits(m, n))) for m in alone) + 3 * (len(run) - len(alone))


def assert_exact_branches_match_reference(ev):
    """At every k, each of the four branch numerators that the pair
    (m, n-m) derives from its three sums is the sum of the reference terms,
    with or without the other k of the pair, and whether the sums come from
    term ratios or from the recurrence in m.  A pair summed by term ratios
    forms c1 + c2 + c3 terms, the summation limits of k = m; the recurrence
    counts as ``recurrence_count`` says."""
    n = ev.n
    pairs = range(1, n // 2 + 1)
    before = ev.terms_evaluated
    stepped = dict(ev._sequence(ev, pairs))
    assert ev.terms_evaluated - before == recurrence_count(n, pairs)
    for m in pairs:
        ks = (m, n - m) if 2 * m < n else (m,)
        before = ev.terms_evaluated
        pair = ev._pair(ks)
        limits = summation_limits(m, n)
        assert ev.terms_evaluated - before == limits.c1 + limits.c2 + limits.c3
        for k, sums in zip(ks, pair):
            expected = [
                sum(reference_interior_terms(ev, start, final, k)) for start, final in _OFFSETS
            ]
            assert list(sums) == expected
            assert ev._pair((k,)) == [sums]
        assert ev._pair(ks, stepped[m]) == pair


# How far a branch value from the pair sums may lie from the reduction of
# the branch's own terms at N <= 41: relative in FLOAT, absolute in log in
# LOGSPACE.  The two orders round each term's factors and the sum apart; on
# the GENERIC and SKEWED chains at N = 2, 3, 9, 40 and 41 they differed by
# at most 6.1e-16 relative (FLOAT) and 5.3e-15 in log (LOGSPACE).
BRANCH_TOLERANCE = {
    NumericMode.FLOAT: {"rel_tol": 1e-14},
    NumericMode.LOGSPACE: {"rel_tol": 0.0, "abs_tol": 1e-13},
}


class TestInteriorTerms:
    @pytest.mark.parametrize("mode", [NumericMode.FLOAT, NumericMode.LOGSPACE])
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_pipeline_matches_reference_loop(self, mode, n):
        """``_pair`` gives the bits of the per-term loop over the three pair
        sums and their factors, whether k is evaluated with its mirror n-k
        or alone, and forms c1 + c2 + c3 terms per pair.  Each branch value
        is also within BRANCH_TOLERANCE of the reduction of that branch's
        own terms, the per-j loop the pair sums fold together."""
        ev = _Evaluator(build_chain(*SKEWED, mode), n)
        for m in range(1, n // 2 + 1):
            ks = (m, n - m) if 2 * m < n else (m,)
            before = ev.terms_evaluated
            pair = ev._pair(ks)
            limits = summation_limits(m, n)
            assert ev.terms_evaluated - before == limits.c1 + limits.c2 + limits.c3
            for k, sums in zip(ks, pair):
                assert sums == reference_pair(ev, k)
                assert ev._pair((k,)) == [sums]
                for branch, value in zip(_OFFSETS, sums):
                    branch_sum = ev._reduce(reference_interior_terms(ev, *branch, k))
                    assert math.isclose(value, branch_sum, **BRANCH_TOLERANCE[mode]), branch

    @pytest.mark.parametrize("mode", [NumericMode.FLOAT, NumericMode.LOGSPACE])
    @pytest.mark.parametrize("n", [2, 3, 9, 40, 41])
    def test_pair_builds_row_prefixes(self, mode, n):
        """Pair m builds row m-1 whole (m entries) and row n-m-1 only to
        index m (m+1 entries, or all n-m of it): the most any branch of m or
        n-m reads.  Each is a prefix of the whole row, bit for bit."""
        ev = _Evaluator(build_chain(*SKEWED, mode), n)
        row, built = ev._row, []

        def recording_row(r, length):
            entries = row(r, length)
            built.append((r, len(entries)))
            return entries

        ev._row = recording_row
        for m in range(1, n // 2 + 1):
            built.clear()
            ev._pair((m, n - m) if 2 * m < n else (m,))
            assert built == [(m - 1, m), (n - m - 1, min(m + 1, n - m))]
            for r, length in built:
                assert row(r, length) == reference_row(mode, r)[:length]

    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_exact_ratio_loop_matches_reference_loop(self, n):
        assert_exact_branches_match_reference(_Evaluator(build_chain(*SKEWED), n))

    @settings(max_examples=60, deadline=None)
    @given(edge_chains, st.integers(min_value=1, max_value=60))
    def test_exact_ratio_loop_matches_reference_on_edge_chains(self, chain, n):
        """Chains with p00, p01, p10 or p11 zero, where the step ratio has a
        zero numerator or divisor, included."""
        assert_exact_branches_match_reference(_Evaluator(chain, n))


def pair_summand(m, i, n, x, y, d1, d2):
    """F(m, i): term i of the pair sum T(m - d1, d1, d2) of pair m, with
    integer X = x and Y = y; 0 off the support of its two binomials."""
    if not (0 <= i + d1 <= m - 1 and 0 <= i + d2 <= n - m - 1):
        return 0
    return math.comb(m - 1, i + d1) * math.comb(n - m - 1, i + d2) * x ** (i + d1 + d2) * y ** (
        m - 1 - d1 - i
    )


def certificate_term(m, i, n, x, y, d1, d2):
    """G(m, i) = R(m, i) * F(m, i) of the recurrence's comment in
    ``closed_form``, as an integer: 0 off the support of its two binomials."""
    w = n - 2 * m - 2 + d1 - d2
    r1, r2 = i + d1 - 1, i + d2 - 1
    if not (0 <= r1 <= m and 0 <= r2 <= n - m - 2):
        return 0
    return (
        -(w - 1) * w * (w + 1) * math.comb(m, r1) * math.comb(n - m - 2, r2)
        * x ** (i + d1 + d2) * y ** (m + 1 - d1 - i)
    )


def certificate_ratio(m, i, n, y, d1, d2):
    """R(m, i) of the recurrence's comment in ``closed_form``, where F(m, i) != 0."""
    w = n - 2 * m - 2 + d1 - d2
    return Fraction(
        -(w - 1) * w * (w + 1) * m * (i + d1) * (i + d2) * y * y,
        (m - i - d1) * (m + 1 - i - d1) * (n - m - 1),
    )


def assert_recurrence_matches_pair_sums(ev):
    """EXACT ``_sequence`` gives every pair, and every other pair (each
    process of the split asks for one of those), the three sums of
    ``_pair_sums`` bit for bit, and counts as ``recurrence_count`` says."""
    n = ev.n
    pairs = range(1, n // 2 + 1)
    expected = [(m, ev._pair_sums(m)) for m in pairs]
    for ms in (pairs, pairs[::2], pairs[1::2]):
        before = ev.terms_evaluated
        assert list(ev._sequence(ev, ms)) == [expected[m - 1] for m in ms]
        assert ev.terms_evaluated - before == recurrence_count(n, ms)


# Integer X and Y, 0 and equal values drawn often.
xy_values = st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=10**6))


@st.composite
def telescoping_points(draw):
    """(n, m, i, X, Y) with m >= 1 and m+2 < n/2, i up to past the support."""
    n = draw(st.integers(min_value=7, max_value=400))
    m = draw(st.integers(min_value=1, max_value=(n - 5) // 2))
    i = draw(st.integers(min_value=0, max_value=m + 3))
    y = draw(xy_values)
    x = draw(st.one_of(st.just(y), st.just(0), xy_values))
    return n, m, i, x, y


@st.composite
def middle_pair_points(draw):
    """(n, m, i, X, Y) with n even and m+2 = n/2, the step to the middle pair."""
    n = 2 * draw(st.integers(min_value=3, max_value=200))
    m = n // 2 - 2
    i = draw(st.integers(min_value=0, max_value=m + 3))
    y = draw(xy_values)
    x = draw(st.one_of(st.just(y), st.just(0), xy_values))
    return n, m, i, x, y


def assert_telescopes(point, shifts):
    """q0 F(m, i) + q1 F(m+1, i) + q2 F(m+2, i) = G(m, i+1) - G(m, i) in
    integers for each sum whose e = d1 - d2 is in ``shifts``, with G = R * F
    wherever F(m, i) != 0."""
    n, m, i, x, y = point
    for (d1, d2), e in zip(((0, 0), (1, 0), (0, 1)), _SHIFTS):
        assert d1 - d2 == e
        if e not in shifts:
            continue
        q = _recurrence_coefficients(m, n, x, y, e)
        left = sum(q[j] * pair_summand(m + j, i, n, x, y, d1, d2) for j in range(3))
        g0, g1 = (certificate_term(m, i + s, n, x, y, d1, d2) for s in (0, 1))
        assert left == g1 - g0
        f = pair_summand(m, i, n, x, y, d1, d2)
        if f:
            assert certificate_ratio(m, i, n, y, d1, d2) * f == g0


GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

# X = 0, Y = 0, X = Y (numerators 1 and 1, 3 and 3, 999 and 999) and generic.
MIDDLE_PAIR_CHAINS = [
    GENERIC, SKEWED, ("0", "1/2", "1/2"), ("0", "0", "1/2"), ("1", "1/2", "1/2"),
    ("1", "1", "1/2"), ("1/2", "1/2", "1/2"), ("3/4", "1/4", "1/2"),
    ("1/1000", "999/1000", "1/2"), ("1/3", "2/7", "1/5"),
]


class TestPairSumRecurrence:
    """EXACT pair sums of a whole distribution by the recurrence in m, with
    its creative-telescoping certificate checked term by term."""

    @settings(max_examples=300, deadline=None)
    @given(telescoping_points())
    @example((7, 1, 1, 999, 999))
    @example((40, 10, 11, 0, 5))
    @example((40, 10, 9, 5, 0))
    def test_recurrence_telescopes_term_by_term(self, point):
        """The certificate identity of every sum, at X = Y, X = 0 and Y = 0
        too (``assert_telescopes``)."""
        assert_telescopes(point, _SHIFTS)

    @settings(max_examples=200, deadline=None)
    @given(middle_pair_points())
    @example((6, 1, 0, 1, 1))
    @example((40, 18, 19, 0, 5))
    @example((40, 18, 17, 5, 0))
    def test_recurrence_telescopes_to_the_middle_pair(self, point):
        """T_A and T_B (e = 0, 1) keep to the recurrence on the step
        m+2 = n/2 that reaches the middle pair; T_C does not, and is T_B."""
        assert_telescopes(point, (0, 1))

    def test_recurrence_leading_coefficient_is_positive_at_every_step(self):
        """T(m) for 3 <= m <= n/2 divides by q2(m-2), which depends on m and
        n only; it is never 0, so no step falls back to ``_pair_sums``.  At
        m = n/2 only T_A and T_B step."""
        for n in range(7, 500):
            for m in range(3, n // 2 + 1):
                for e in _SHIFTS if 2 * m < n else _SHIFTS[:2]:
                    assert _recurrence_coefficients(m - 2, n, 1, 1, e)[2] > 0

    @pytest.mark.parametrize("n", [*range(6, 41, 2), 200, 400])
    def test_recurrence_reaches_the_middle_pair(self, n):
        """At m = n/2 the recurrence gives the T_A and T_B that term ratios
        give, and T_C, whose rows a and b are both m-1, equals T_B: for
        every pair sequence ending there (the whole run, and the even m of
        one process of the split) on X = 0, Y = 0 and X = Y chains too."""
        middle = n // 2
        for params in MIDDLE_PAIR_CHAINS:
            ev = _Evaluator(build_chain(*params), n)
            t_a, t_b, t_c = ev._pair_sums(middle)
            assert t_c == t_b
            for ms in (range(1, middle + 1), range(2, middle + 1, 2)):
                if ms[-1] == middle:
                    assert list(ev._sequence(ev, ms))[-1] == (middle, (t_a, t_b, t_b))

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 9, 40, 41, 199, 200])
    def test_recurrence_equals_pair_sums_on_grid(self, n):
        """The 125 chains of ``visitprob validate --grid fine``: X and Y are
        0, equal or unequal among them."""
        for p01, p10, p1 in product(GRID, repeat=3):
            assert_recurrence_matches_pair_sums(_Evaluator(build_chain(p01, p10, p1), n))

    @settings(max_examples=60, deadline=None)
    @given(edge_chains, st.integers(min_value=1, max_value=200))
    @example(build_chain("1/1000", "999/1000", "1/2"), 200)
    @example(build_chain("1/1000", "999/1000", "1/2"), 201)
    @example(build_chain(*SKEWED), 200)
    def test_recurrence_equals_pair_sums_on_edge_chains(self, chain, n):
        """p01, p10 or p1 of 0 or 1 drawn often, and X = Y = 999 at
        p01 = 1/1000, p10 = 999/1000."""
        assert_recurrence_matches_pair_sums(_Evaluator(chain, n))

    @pytest.mark.parametrize("n", [400, 1000])
    @pytest.mark.parametrize("params", [GENERIC, SKEWED], ids=["generic", "skewed"])
    def test_recurrence_split_masses_equal_serial(self, monkeypatch, params, n):
        """Each process of the split runs the recurrence up to its last pair
        and keeps only its own; together they give the serial masses."""
        chain = build_chain(*params)
        forked = distribution_masses(chain, n, State.S1)
        assert_no_child_left()
        monkeypatch.setattr(split, "_can_split", lambda: False)
        assert distribution_masses(chain, n, State.S1) == forked


def reference_masses(ev, k):
    """P(k | S1), P(k | S0) and P(N1 = k) of interior k by ``ProbValue``
    arithmetic on ``reference_pair``'s four branch values: the branches of
    each start added, then p1 * s1 + p0 * s0."""
    mode, chain = ev.mode, ev.chain
    s1_s0, s1_s1, s0_s1, s0_s0 = (ProbValue(mode, v) for v in reference_pair(ev, k))
    s1, s0 = s1_s0 + s1_s1, s0_s1 + s0_s0
    return s1, s0, chain.p1 * s1 + chain.p0 * s0


def assert_assembly_matches_probvalue_arithmetic(ev):
    """Every interior mass, for both targets, and both start conditionals
    have the bits of ``reference_masses``."""
    n = ev.n
    for k in range(1, n):
        s1, s0, mixed = reference_masses(ev, k)
        got = (
            ev.conditional(State.S1, k),
            ev.conditional(State.S0, k),
            ev.visit_probability(k, State.S1),
            ev.visit_probability(n - k, State.S0),
        )
        assert [repr(v.value) for v in got] == [repr(v.value) for v in (s1, s0, mixed, mixed)]


slice_mode_edge_chains = st.builds(
    build_chain,
    rational_or_edge,
    rational_or_edge,
    rational_or_edge,
    st.sampled_from([NumericMode.FLOAT, NumericMode.LOGSPACE]),
)


def reference_boundary_masses(chain, n, k):
    """P(k | S1), P(k | S0) and P(N1 = k) at k = 0 or n by ``ProbValue``
    arithmetic: p_uu**(n-1) from the start u of the one uniform path, zero
    from the other, then p1 * s1 + p0 * s0."""
    uniform = State.S0 if k == 0 else State.S1

    def cond(start):
        if start is not uniform:
            return ProbValue.zero(chain.mode)
        return pow_prob(chain.transition(uniform, uniform), n - 1)

    s1, s0 = cond(State.S1), cond(State.S0)
    return s1, s0, chain.p1 * s1 + chain.p0 * s0


def assert_boundary_matches_probvalue_arithmetic(ev):
    """k = 0 and k = n: both start conditionals, ``visit_probability`` for
    both targets and both distributions' masses have the bits of
    ``reference_boundary_masses``."""
    n, chain = ev.n, ev.chain
    dists = [visit_distribution(n, target, chain) for target in (State.S1, State.S0)]
    for k in (0, n):
        s1, s0, mixed = reference_boundary_masses(chain, n, k)
        got = (
            ev.conditional(State.S1, k),
            ev.conditional(State.S0, k),
            ev.visit_probability(k, State.S1),
            ev.visit_probability(n - k, State.S0),
            dists[0].mass[k],
            dists[1].mass[n - k],
        )
        assert [repr(v.value) for v in got] == [repr(v.value) for v in (s1, s0) + (mixed,) * 4]


all_mode_edge_chains = st.builds(
    build_chain,
    rational_or_edge,
    rational_or_edge,
    rational_or_edge,
    st.sampled_from(NumericMode),
)

# p00 and p11 each 0, 1 or strictly between.
BOUNDARY_CHAINS = {
    "skewed": SKEWED,
    "p00=0": (1, "2/5", "1/3"),
    "p00=1": (0, "2/5", "1/3"),
    "p11=0": ("3/10", 1, "1/3"),
    "p11=1": ("3/10", 0, "1/3"),
    "p00=p11=0": (1, 1, "2/7"),
    "p00=p11=1": (0, 0, "2/7"),
}


class TestMassAssembly:
    """FLOAT and LOGSPACE masses are assembled from raw doubles with the
    mode's add and operator; the bits are those of ``ProbValue`` arithmetic.
    So are the boundary masses, k = 0 and k = n, in every mode."""

    @pytest.mark.parametrize("mode", [NumericMode.FLOAT, NumericMode.LOGSPACE])
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_raw_assembly_equals_probvalue_arithmetic(self, mode, n):
        assert_assembly_matches_probvalue_arithmetic(_Evaluator(build_chain(*SKEWED, mode), n))

    @settings(max_examples=60, deadline=None)
    @given(slice_mode_edge_chains, st.integers(min_value=2, max_value=30))
    def test_raw_assembly_equals_probvalue_arithmetic_on_edge_chains(self, chain, n):
        """p = 0 or 1 included: logs of -inf and 0.0, doubles of 0.0."""
        assert_assembly_matches_probvalue_arithmetic(_Evaluator(chain, n))

    @pytest.mark.parametrize("mode", list(NumericMode))
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 300])
    @pytest.mark.parametrize("params", list(BOUNDARY_CHAINS.values()), ids=list(BOUNDARY_CHAINS))
    def test_boundary_masses_equal_probvalue_arithmetic(self, params, n, mode):
        """N = 1 raises p00 and p11 to the 0th power, which is one even where
        they are zero.  At N = 9, 40 and 300, a FLOAT running product of p00
        or p11 differs from ** in its last bits on the skewed chain."""
        assert_boundary_matches_probvalue_arithmetic(_Evaluator(build_chain(*params, mode), n))

    @settings(max_examples=60, deadline=None)
    @given(all_mode_edge_chains, st.integers(min_value=1, max_value=30))
    def test_boundary_masses_equal_probvalue_arithmetic_on_edge_chains(self, chain, n):
        assert_boundary_matches_probvalue_arithmetic(_Evaluator(chain, n))


class TestExactReduction:
    @settings(max_examples=150, deadline=None)
    @given(edge_chains, st.integers(min_value=1, max_value=40), st.sampled_from(State))
    def test_one_fraction_per_k_matches_per_branch_reduction(self, chain, n, target):
        """Numerator and denominator equal to the per-branch reduction's, for
        every k, both start states and the initial-state mixture."""
        ev = _Evaluator(chain, n)
        for k in range(n + 1):
            cond1, cond0, mixed = reference_exact_mass(ev, k, target)
            kk = n - k if target is State.S0 else k
            got = (
                ev.conditional(State.S1, kk).value,
                ev.conditional(State.S0, kk).value,
                ev.visit_probability(k, target).value,
            )
            want = (cond1.value, cond0.value, mixed.value)
            assert list(map(fraction_parts, got)) == list(map(fraction_parts, want))


def raw_exact_masses(chain, n):
    """(raw numerator, w * d0**(n-k) * d1**k) of P(N1 = k) for k = 0..n,
    from the serial pair loop and the boundary assembly."""
    ev = _Evaluator(chain, n)
    raw = _pair_masses(ev, range(1, n // 2 + 1))
    raw[0], raw[n] = ev._mass(ev._starts(0)), ev._mass(ev._starts(n))
    w, d0, d1 = (p.value.denominator for p in (chain.p1, chain.p01, chain.p10))
    return [(raw[k], w * d0 ** (n - k) * d1**k) for k in range(n + 1)]


def assert_canonical_masses(chain, n, single_k=True):
    """Every S1 mass of ``visit_distribution`` (and, if ``single_k``, of
    ``visit_probability``) is a ``Fraction`` with the numerator and
    denominator of ``Fraction(raw, D_k)`` formed here."""
    want = [fraction_parts(Fraction(num, den)) for num, den in raw_exact_masses(chain, n)]
    masses = [visit_distribution(n, State.S1, chain).mass]
    if single_k:
        ev = _Evaluator(chain, n)
        masses.append([ev.visit_probability(k, State.S1) for k in range(n + 1)])
    for got in masses:
        assert [type(m.value) for m in got] == [Fraction] * (n + 1)
        assert [fraction_parts(m.value) for m in got] == want


# Chains whose masses reduce far: a zero transition or initial probability,
# and the uniform chain, whose masses are binomial counts over 2**N.
CANONICAL_CHAINS = {
    "p01=0": (0, "2/5", "1/3"),
    "p10=0": ("3/10", 0, "1/3"),
    "p1=0": ("3/10", "2/5", 0),
    "p1=1": ("3/10", "2/5", 1),
    "uniform": ("1/2", "1/2", "1/2"),
    "p00=p11=0": (1, 1, "1/3"),
}

# Factors of w, d0 and d1: 1, prime powers and products of them.
DENOMINATOR_PARTS = [1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 25, 83, 89, 97, 100, 1024]


class TestLowestTerms:
    """``_lowest_terms`` reduces against s = w * d0 * d1 and builds the
    ``Fraction`` from a coprime pair, with no gcd of two full-size integers."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(DENOMINATOR_PARTS),
        st.sampled_from(DENOMINATOR_PARTS),
        st.sampled_from(DENOMINATOR_PARTS),
        st.integers(min_value=0, max_value=80),
        st.one_of(st.sampled_from(["first", "last"]), st.integers(min_value=0, max_value=80)),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=10**40)),
        st.tuples(*[st.integers(min_value=0, max_value=240)] * 3),
    )
    @example(1, 1, 1, 7, 3, 12345, (0, 0, 0))  # w = d0 = d1 = 1: s = 1, no pass
    @example(2, 10, 5, 30, 4, 0, (0, 0, 0))  # num = 0
    @example(16, 1024, 8, 60, "first", 3, (0, 240, 0))  # k = 0: no d1 in D_k
    @example(9, 97, 1024, 60, "last", 7, (5, 0, 240))  # k = N: no d0 in D_k
    @example(12, 100, 6, 80, 40, 10**40, (240, 240, 240))  # every prime many times
    def test_equals_fraction_of_num_over_den(self, w, d0, d1, n, k, base, powers):
        """num = base * w**a * d0**b * d1**c, a multiple of high powers of
        the primes of s, over D_k = w * d0**(n-k) * d1**k; k = 0 and k = n
        drawn often."""
        k = {"first": 0, "last": n}.get(k, k)
        k = min(k, n)
        a, b, c = powers
        num, den = base * w**a * d0**b * d1**c, w * d0 ** (n - k) * d1**k
        got, want = _lowest_terms(num, den, w * d0 * d1), Fraction(num, den)
        assert type(got) is Fraction
        assert fraction_parts(got) == fraction_parts(want)
        assert hash(got) == hash(want) and got + 0 == want

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 200])
    @pytest.mark.parametrize(
        "params", list(CANONICAL_CHAINS.values()), ids=list(CANONICAL_CHAINS)
    )
    def test_degenerate_chains_give_canonical_masses(self, params, n):
        assert_canonical_masses(build_chain(*params), n, single_k=n <= 40)


# One transition probability, or two, is 0: P00*P11 = 0 (the ratio loop's
# divisor) or P01*P10 = 0 (its multiplier).
DEGENERATE_CHAINS = {
    "p00=0": (1, "2/5", "1/3"),
    "p11=0": ("3/10", 1, "1/3"),
    "p00=p11=0": (1, 1, "1/3"),
    "p01=0": (0, "2/5", "1/3"),
    "p10=0": ("3/10", 0, "1/3"),
    "p01=p10=0": (0, 0, "1/3"),
}


@pytest.mark.parametrize("params", list(DEGENERATE_CHAINS.values()), ids=list(DEGENERATE_CHAINS))
class TestDegenerateChains:
    @pytest.mark.parametrize("target", list(State))
    def test_exact_matches_oracle_bit_for_bit(self, params, target):
        chain = build_chain(*params)
        for n in range(2, 13):
            closed = visit_distribution(n, target, chain)
            assert [m.value for m in closed.mass] == [
                m.value for m in oracle_distribution(n, target, chain).mass
            ]

    def test_exact_normalized_at_n200(self, params):
        assert visit_distribution(200, State.S1, build_chain(*params)).total().value == 1


class TestMoments:
    def test_point_mass(self):
        c = build_chain("1/4", 0, 1)
        mean, var = moments(visit_distribution(6, State.S1, c))
        assert mean.value == 6 and var.value == 0

    def test_uniform_chain_binomial_moments(self):
        mean, var = moments(visit_distribution(4, State.S1, build_chain("1/2", "1/2", "1/2")))
        assert mean.value == 2 and var.value == 1

    def test_generic_chain_frozen_moments(self):
        mean, var = moments(visit_distribution(8, State.S1, build_chain(*GENERIC)))
        assert mean.value == GENERIC_N8_MEAN
        assert var.value == GENERIC_N8_VARIANCE

    def test_float_mode_close_to_exact(self):
        mean, var = moments(
            visit_distribution(8, State.S1, build_chain(*GENERIC, NumericMode.FLOAT))
        )
        assert mean.value == pytest.approx(float(GENERIC_N8_MEAN), rel=1e-12)
        assert var.value == pytest.approx(float(GENERIC_N8_VARIANCE), rel=1e-9)

    def test_logspace_mode_close_to_exact(self):
        mean, var = moments(
            visit_distribution(8, State.S1, build_chain(*GENERIC, NumericMode.LOGSPACE))
        )
        assert mean.to_float() == pytest.approx(float(GENERIC_N8_MEAN), rel=1e-10)
        assert var.to_float() == pytest.approx(float(GENERIC_N8_VARIANCE), rel=1e-7)

    def test_logspace_point_mass_has_zero_variance(self):
        c = build_chain("1/4", 0, 1, NumericMode.LOGSPACE)
        mean, var = moments(visit_distribution(6, State.S1, c))
        assert mean.to_float() == pytest.approx(6.0, rel=1e-14)
        assert var.is_zero()


class TestTermCensus:
    def test_boundary_cells(self):
        assert term_census(0, 5, State.S0, State.S0)[0].count == 1
        assert term_census(0, 5, State.S1, State.S0) == {}
        assert term_census(5, 5, State.S1, State.S1)[0].transitions.n11 == 4
        assert term_census(5, 5, State.S0, State.S1) == {}

    def test_interior_counts_are_binomial_products(self):
        cells = term_census(4, 8, State.S1, State.S0)
        assert {j: c.count for j, c in cells.items()} == {1: 1, 2: 9, 3: 9, 4: 1}

    def test_exponents_sum_to_n_minus_one(self):
        for k in range(9):
            for initial in State:
                for final in State:
                    for cell in term_census(k, 8, initial, final).values():
                        assert cell.transitions.total == 7


def lattice_masses(chain, n, target):
    """Exact masses of the visit count of ``target`` by the Markov-binomial
    recursion over (position, state, visits so far) (Gabriel, Biometrika 46,
    1959).  It runs in integers: each step multiplies by a transition
    probability times d0*d1, so mass v is the sum of the two end states'
    integers over w * (d0*d1)**(n-1)."""
    d0, d1 = chain.p01.value.denominator, chain.p10.value.denominator
    step = {(s, t): int(chain.transition(s, t).value * d0 * d1) for s in State for t in State}
    u, w = chain.p1.value.numerator, chain.p1.value.denominator
    at = {}
    for state, weight in ((State.S0, w - u), (State.S1, u)):
        at[state] = [0] * (n + 1)
        at[state][int(state is target)] = weight
    for _ in range(n - 1):
        moved = {
            t: [x * step[State.S0, t] + y * step[State.S1, t] for x, y in zip(*at.values())]
            for t in State
        }
        # Entering the target adds a visit; the last slot is still 0 here.
        at = {t: [0] + row[:-1] if t is target else row for t, row in moved.items()}
    denominator = w * (d0 * d1) ** (n - 1)
    return [Fraction(x + y, denominator) for x, y in zip(*at.values())]


class TestLatticeReferee:
    """The closed form where it is used, far past the enumeration guard."""

    @pytest.mark.parametrize("target", list(State))
    @pytest.mark.parametrize("params", [GENERIC, SKEWED], ids=["generic", "skewed"])
    def test_exact_n400_equals_lattice_recursion(self, params, target):
        # N = 400 is at or past _SPLIT_MIN_HORIZON, so half the masses come
        # from a forked child.
        chain = build_chain(*params)
        closed = visit_distribution(400, target, chain)
        assert [m.value for m in closed.mass] == lattice_masses(chain, 400, target)
        assert_no_child_left()

    @pytest.mark.parametrize("params", [GENERIC, SKEWED], ids=["generic", "skewed"])
    def test_exact_n1000_equals_lattice_recursion(self, params):
        # The pair sums' longest ratio chains: about 500 steps each.
        chain = build_chain(*params)
        closed = visit_distribution(1000, State.S1, chain)
        assert [m.value for m in closed.mass] == lattice_masses(chain, 1000, State.S1)
        assert_no_child_left()


def serial_masses(chain, n, target):
    """Reprs of the per-k loop a split distribution must reproduce."""
    ev = _Evaluator(chain, n)
    return [repr(ev.visit_probability(k, target).value) for k in range(n + 1)]


def distribution_masses(chain, n, target):
    return [repr(m.value) for m in visit_distribution(n, target, chain).mass]


def assert_no_child_left():
    """No child process, running or unreaped, remains."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or usable_cpus() < 2,
    reason="distributions are split only where os.fork exists and 2 CPUs are usable",
)

SPLIT_CASES = [(mode, _SPLIT_MIN_HORIZON) for mode in NumericMode] + [
    (NumericMode.FLOAT, 1000),
    (NumericMode.LOGSPACE, 1000),
]


class TestSplitDistribution:
    """From N = _SPLIT_MIN_HORIZON on, one forked child computes half of the
    (k, N-k) pairs; every mass keeps the bits of the serial loop."""

    @pytest.mark.parametrize("target", list(State))
    @pytest.mark.parametrize("mode, n", SPLIT_CASES)
    def test_split_masses_equal_serial_loop(self, mode, n, target):
        chain = build_chain(*SKEWED, mode)
        assert distribution_masses(chain, n, target) == serial_masses(chain, n, target)
        assert_no_child_left()

    @pytest.mark.parametrize("params", [GENERIC, SKEWED], ids=["generic", "skewed"])
    def test_split_exact_masses_are_fractions_of_raw_numerators(self, params):
        """At N = 1000 the parent puts every raw numerator, the child's
        among them, over w * d0**(N-k) * d1**k in lowest terms."""
        assert_canonical_masses(build_chain(*params), 1000, single_k=False)
        assert_no_child_left()

    @pytest.mark.parametrize("split_on", [True, False], ids=["split", "serial"])
    @pytest.mark.parametrize("chain_name", list(LOGSPACE_N2000_DIGESTS))
    def test_split_logspace_n2000_matches_frozen_digest(self, monkeypatch, chain_name, split_on):
        if not split_on:
            monkeypatch.setattr(split, "_can_split", lambda: False)
        chain = build_chain(*MASS_DIGEST_CHAINS[chain_name], NumericMode.LOGSPACE)
        text = "\n".join(distribution_masses(chain, 2000, State.S1))
        assert hashlib.sha256(text.encode()).hexdigest() == LOGSPACE_N2000_DIGESTS[chain_name]
        assert_no_child_left()

    @needs_fork
    def test_split_forks_one_child(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        chain = build_chain(*GENERIC, NumericMode.LOGSPACE)
        visit_distribution(_SPLIT_MIN_HORIZON, State.S1, chain)
        assert len(forks) == 1
        assert_no_child_left()

    def test_split_not_below_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the threshold"))
        chain = build_chain(*GENERIC, NumericMode.FLOAT)
        visit_distribution(_SPLIT_MIN_HORIZON - 1, State.S1, chain)

    def test_split_skipped_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a live thread"))
        chain = build_chain(*GENERIC, NumericMode.FLOAT)
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(60,))
        worker.start()
        try:
            masses = distribution_masses(chain, _SPLIT_MIN_HORIZON, State.S1)
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert masses == serial_masses(chain, _SPLIT_MIN_HORIZON, State.S1)

    @pytest.mark.parametrize("target", list(State))
    def test_split_skipped_with_one_usable_cpu(self, monkeypatch, target):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        chain = build_chain(*SKEWED, NumericMode.FLOAT)
        masses = distribution_masses(chain, _SPLIT_MIN_HORIZON, target)
        assert masses == serial_masses(chain, _SPLIT_MIN_HORIZON, target)

    def test_split_falls_back_when_fork_fails(self, monkeypatch):
        def failing_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", failing_fork)
        chain = build_chain(*SKEWED, NumericMode.LOGSPACE)
        masses = distribution_masses(chain, _SPLIT_MIN_HORIZON, State.S0)
        assert masses == serial_masses(chain, _SPLIT_MIN_HORIZON, State.S0)

    @needs_fork
    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_split_child_failure_falls_back(self, monkeypatch, how):
        """The child fails before sending its share; this process computes it."""

        def failing_dumps(values):
            if how == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("child failed")

        fake = SimpleNamespace(dumps=failing_dumps, loads=marshal.loads)
        monkeypatch.setattr(split, "marshal", fake)
        chain = build_chain(*GENERIC, NumericMode.FLOAT)
        masses = distribution_masses(chain, _SPLIT_MIN_HORIZON, State.S1)
        assert masses == serial_masses(chain, _SPLIT_MIN_HORIZON, State.S1)
        assert_no_child_left()

    def test_split_float_overflow_raises_serial_error(self):
        chain = build_chain(*GENERIC, NumericMode.FLOAT)
        with pytest.raises(NumericalError) as serial:
            serial_masses(chain, 1100, State.S1)
        with pytest.raises(NumericalError) as forked:
            visit_distribution(1100, State.S1, chain)
        assert str(forked.value) == str(serial.value)
        assert_no_child_left()

    @needs_fork
    def test_split_interrupt_kills_and_reaps_child(self, monkeypatch):
        """The parent is interrupted while its child is still busy."""
        parent = os.getpid()
        real = _Evaluator._pair
        slept = []

        def pair(ev, ks, *sums):
            if os.getpid() != parent and not slept:
                slept.append(None)
                time.sleep(60)
            elif ks[0] == 2:
                raise KeyboardInterrupt
            return real(ev, ks, *sums)

        monkeypatch.setattr(_Evaluator, "_pair", pair)
        chain = build_chain(*GENERIC, NumericMode.FLOAT)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            visit_distribution(_SPLIT_MIN_HORIZON, State.S1, chain)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_split_child_never_flushes_parent_stdout(self, monkeypatch):
        """Text buffered before the fork and an atexit handler print once."""
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        script = (
            "import atexit\n"
            "from visitprob.chain_model import State, build_chain\n"
            "from visitprob.closed_form import visit_distribution\n"
            "from visitprob.numerics import NumericMode\n"
            "atexit.register(print, 'at exit')\n"
            "print('before')\n"
            "chain = build_chain('3/10', '2/5', '1/2', NumericMode.FLOAT)\n"
            f"d = visit_distribution({_SPLIT_MIN_HORIZON}, State.S1, chain)\n"
            "print(len(d.mass))\n"
        )
        src = str(Path(closed_form.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"before\n{_SPLIT_MIN_HORIZON + 1}\nat exit\n"
