import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from visitprob.errors import BackendMismatchError, ParameterError
from visitprob.numerics import (
    ARITHMETIC,
    NumericMode,
    ProbValue,
    _LSE_WINDOW,
    _compensated_sum,
    _log_sum_exp,
    convert,
    parse_probability,
    pow_prob,
    sum_values,
)

EXACT = NumericMode.EXACT
FLOAT = NumericMode.FLOAT
LOG = NumericMode.LOGSPACE
NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Reference reductions: the textbook loop and generator forms.  The library's
# versions must return the same bits.
# ---------------------------------------------------------------------------


def reference_compensated_sum(values):
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def reference_log_sum_exp(values):
    if not values:
        return NEG_INF
    anchor = max(values)
    if anchor == NEG_INF:
        return NEG_INF
    return anchor + math.log(math.fsum(math.exp(x - anchor) for x in values))


def same_bits(a: float, b: float) -> bool:
    """Equal doubles with equal signs (so 0.0 and -0.0 differ), or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Nonnegative doubles: zeros of both signs, subnormals, and inf.
nonnegative_doubles = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072009e-308, math.inf]),
)
# Logs of probabilities: any finite double or -inf (log of zero).
log_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-800.0, max_value=0.0),
    st.just(NEG_INF),
)


@st.composite
def unimodal_logs(draw):
    """Lists of up to 2000 logs that rise to a peak and fall, like one
    closed-form branch's terms: slopes and curvature give spreads from a few
    nats to thousands, with ties at the anchor and ``-inf`` at either end."""
    size = draw(st.integers(min_value=1, max_value=2000))
    peak = draw(st.integers(min_value=0, max_value=size - 1))
    anchor = draw(st.floats(min_value=-800.0, max_value=5.0))
    rise, fall = draw(st.tuples(*[st.floats(min_value=0.0, max_value=4.0)] * 2))
    curvature = draw(st.sampled_from([0.0, 1e-4, 0.01, 0.3]))
    ties = draw(st.integers(min_value=0, max_value=3))
    zeros_left, zeros_right = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * 2))

    def log_term(j):
        d = abs(j - peak)
        return anchor - (rise if j < peak else fall) * d - curvature * d * d

    values = [log_term(j) for j in range(size)]
    values[peak + 1 : peak + 1] = [anchor] * ties
    return [NEG_INF] * zeros_left + values + [NEG_INF] * zeros_right


# Exp of the middle entry is just below 2**-53, so the window [0.0, x] sums to
# 1.0, while the term at -50.0, outside the window, lifts the full sum past the
# tie at 1 + 2**-53: the bound check fails and every exp is summed.
FALLBACK_LOGS = [0.0, -36.73680056967711, -50.0]


# Raw payloads of each mode on which ProbValue arithmetic stays in range:
# ints and Fractions, doubles in [0, 2], logs up to log 2 and -inf.
PAYLOADS = {
    EXACT: st.one_of(
        st.integers(min_value=0, max_value=5),
        st.fractions(min_value=0, max_value=2, max_denominator=50),
    ),
    FLOAT: st.one_of(st.floats(min_value=0.0, max_value=2.0), st.sampled_from([0.0, 5e-324])),
    LOG: st.one_of(st.floats(min_value=-800.0, max_value=math.log(2.0)), st.just(NEG_INF)),
}


def same_payload(a, b) -> bool:
    """Equal payloads, floats bit for bit."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and same_bits(a, b)
    return a == b


@st.composite
def mode_and_payloads(draw, count=2):
    mode = draw(st.sampled_from(NumericMode))
    return mode, [draw(PAYLOADS[mode]) for _ in range(count)]


class TestArithmeticRecord:
    """Each mode's ``ARITHMETIC`` record obeys the laws of its operations,
    and ``ProbValue`` arithmetic, ``pow_prob`` and ``sum_values`` are the
    record's operations on the payloads."""

    @given(mode_and_payloads(count=1))
    def test_identities(self, drawn):
        """Equal as numbers: x + 0.0 turns a payload of -0.0 into 0.0."""
        mode, (x,) = drawn
        ar = ARITHMETIC[mode]
        assert ar.add(x, ar.zero) == x
        assert ar.mul(x, ar.one) == x
        assert ar.power(x, 0) == ar.one
        assert ar.power(ar.zero, 0) == ar.one
        assert ar.total([]) == ar.zero

    @given(mode_and_payloads(count=1), st.integers(min_value=0, max_value=60))
    def test_powers_table(self, drawn, n):
        """Running products in EXACT and FLOAT, e * log b in LOGSPACE (and
        0.0 at e = 0, where -inf * 0 would be NaN)."""
        mode, (base,) = drawn
        ar = ARITHMETIC[mode]
        table = ar.powers(base, n)
        assert len(table) == n + 1
        expected = ar.one
        for e, entry in enumerate(table):
            if mode is LOG:
                expected = 0.0 if e == 0 else e * base
            assert same_payload(entry, expected), e
            expected = expected * base

    @given(mode_and_payloads(count=1), st.integers(min_value=1, max_value=60))
    def test_power_is_double_star_or_scaled_log(self, drawn, e):
        mode, (x,) = drawn
        assert same_payload(ARITHMETIC[mode].power(x, e), e * x if mode is LOG else x**e)

    @given(mode_and_payloads(count=2), st.integers(min_value=0, max_value=40))
    def test_probvalue_arithmetic_reads_the_record(self, drawn, e):
        mode, (x, y) = drawn
        ar = ARITHMETIC[mode]
        a, b = ProbValue(mode, x), ProbValue(mode, y)
        assert same_payload((a + b).value, ar.add(a.value, b.value))
        assert same_payload((a * b).value, ar.mul(a.value, b.value))
        assert same_payload(pow_prob(a, e).value, ar.power(a.value, e))
        assert a.is_zero() == (x == ar.zero)
        assert same_payload(ProbValue.zero(mode).value, ProbValue(mode, ar.zero).value)
        assert same_payload(ProbValue.one(mode).value, ProbValue(mode, ar.one).value)

    @given(mode_and_payloads(count=8), st.integers(min_value=0, max_value=8))
    def test_sum_values_is_the_records_total(self, drawn, length):
        mode, payloads = drawn
        values = [ProbValue(mode, x) for x in payloads[:length]]
        want = ARITHMETIC[mode].total([v.value for v in values])
        assert same_payload(sum_values(values, mode).value, ProbValue(mode, want).value)

    @given(st.sampled_from(NumericMode), st.integers(min_value=0, max_value=10**6))
    def test_from_int_embeds_exactly_or_rounds_once(self, mode, n):
        want = {EXACT: Fraction(n), FLOAT: float(n), LOG: math.log(n) if n else NEG_INF}[mode]
        assert same_payload(ProbValue.from_int(n, mode).value, want)


class TestPowProb:
    @pytest.mark.parametrize("mode", list(NumericMode))
    def test_zero_to_the_zero_is_one(self, mode):
        zero = ProbValue.zero(mode)
        assert pow_prob(zero, 0) == ProbValue.one(mode)

    def test_exact_half_cubed(self):
        v = pow_prob(ProbValue.exact(Fraction(1, 2)), 3)
        assert v.value == Fraction(1, 8)

    def test_float_matches_repeated_multiplication(self):
        expected = 0.3 * 0.3 * 0.3 * 0.3
        got = pow_prob(ProbValue.from_float(0.3), 4).value
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.0081, abs=1e-15)

    def test_logspace_zero_powers(self):
        zero = ProbValue.zero(LOG)
        assert pow_prob(zero, 3).value == float("-inf")
        assert pow_prob(zero, 0).value == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            pow_prob(ProbValue.exact(1), -1)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParameterError):
            pow_prob(ProbValue.exact(1), 0.5)

    @given(
        base=st.fractions(min_value=0, max_value=1, max_denominator=50),
        m=st.integers(min_value=0, max_value=20),
        n=st.integers(min_value=0, max_value=20),
    )
    def test_exact_exponent_additivity(self, base, m, n):
        b = ProbValue.exact(base)
        assert pow_prob(b, m + n) == pow_prob(b, m) * pow_prob(b, n)


class TestSumValues:
    def test_empty_sum_is_zero(self):
        assert sum_values([]).value == 0
        assert sum_values([], FLOAT).value == 0.0
        assert sum_values([], LOG).value == float("-inf")

    def test_exact_sum(self):
        total = sum_values([ProbValue.exact(Fraction(1, 3)), ProbValue.exact(Fraction(1, 6))])
        assert total.value == Fraction(1, 2)

    def test_mixed_backends_rejected(self):
        with pytest.raises(BackendMismatchError):
            sum_values([ProbValue.exact(1), ProbValue.from_float(0.5)])
        with pytest.raises(BackendMismatchError):
            sum_values([ProbValue.from_float(0.5)], EXACT)

    def test_logspace_tiny_terms(self):
        # oracle: the same sum carried out in exact rational arithmetic
        tiny = Fraction(1e-300)
        expected_log = convert(ProbValue.exact(tiny + tiny), LOG).value
        got = sum_values([ProbValue.from_log(math.log(1e-300))] * 2).value
        assert got == pytest.approx(expected_log, abs=1e-12)

    def test_logspace_all_zero(self):
        assert sum_values([ProbValue.zero(LOG)] * 5).value == float("-inf")

    def test_logspace_relative_error_many_terms(self):
        terms = [ProbValue.from_log(math.log(1e-300) - 0.001 * i) for i in range(10_000)]
        exact = math.fsum(math.exp(t.value - math.log(1e-300)) for t in terms)
        got = math.exp(sum_values(terms).value - math.log(1e-300))
        assert abs(got - exact) <= 1e-12 * exact

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=200
        )
    )
    def test_float_sum_error_bound(self, xs):
        exact = sum(Fraction(x) for x in xs)
        got = sum_values([ProbValue.from_float(x) for x in xs], FLOAT).value
        s = float(exact)
        assert abs(Fraction(got) - exact) <= Fraction(4 * math.ulp(s)) * max(len(xs), 1)


class TestReductionsMatchReference:
    @given(st.lists(nonnegative_doubles, max_size=60))
    def test_compensated_sum_bits(self, xs):
        assert same_bits(_compensated_sum(xs), reference_compensated_sum(xs))

    @given(st.lists(log_values, max_size=60))
    def test_log_sum_exp_bits(self, xs):
        assert same_bits(_log_sum_exp(xs), reference_log_sum_exp(xs))

    @pytest.mark.parametrize(
        "xs", [[], [NEG_INF], [NEG_INF] * 4, [-3.5], [0.0], [NEG_INF, -2.0, NEG_INF]]
    )
    def test_log_sum_exp_edge_cases(self, xs):
        assert same_bits(_log_sum_exp(xs), reference_log_sum_exp(xs))

    @given(unimodal_logs())
    def test_windowed_log_sum_exp_bits_on_unimodal_terms(self, xs):
        assert same_bits(_log_sum_exp(xs), reference_log_sum_exp(xs))

    def test_windowed_log_sum_exp_falls_back_when_the_tail_counts(self):
        xs = FALLBACK_LOGS
        window = [math.exp(x) for x in xs if x >= -_LSE_WINDOW]
        assert len(window) == 2
        assert math.fsum(window) == 1.0
        assert math.fsum(window + [math.exp(xs[-1])]) > 1.0
        assert same_bits(_log_sum_exp(xs), reference_log_sum_exp(xs))
        assert _log_sum_exp(xs) > 0.0


class TestConvert:
    def test_dyadic_exact_to_float(self):
        assert convert(ProbValue.exact(Fraction(1, 2)), FLOAT).value == 0.5

    def test_zero_to_logspace(self):
        assert convert(ProbValue.exact(0), LOG).value == float("-inf")

    def test_third_rounds_to_nearest(self):
        assert convert(ProbValue.exact(Fraction(1, 3)), FLOAT).value == 1 / 3

    def test_underflow_range_logspace(self):
        # far below the double underflow threshold, the log stays accurate
        tiny = Fraction(1, 10**400)
        got = convert(ProbValue.exact(tiny), LOG).value
        assert got == pytest.approx(-400 * math.log(10), rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_float_exact_round_trip(self, x):
        pv = ProbValue.from_float(x)
        assert convert(convert(pv, EXACT), FLOAT) == pv

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=40),
    )
    def test_dyadic_round_trip_from_exact(self, numerator, shift):
        frac = Fraction(numerator % (2**shift + 1), 2**shift)  # dyadic in [0, 1]
        pv = ProbValue.exact(frac)
        assert convert(convert(pv, FLOAT), EXACT) == pv

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    def test_exact_to_log_to_float_close(self, frac):
        via_log = convert(convert(ProbValue.exact(frac), LOG), FLOAT).value
        assert via_log == pytest.approx(float(frac), rel=1e-12, abs=1e-300)


class TestProbValue:
    def test_exact_normalizes_to_lowest_terms(self):
        v = ProbValue.exact(Fraction(2, 4))
        assert v.value.numerator == 1 and v.value.denominator == 2

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            ProbValue.from_float(-0.1)
        with pytest.raises(ParameterError):
            ProbValue.exact(Fraction(-1, 2))

    def test_rejects_non_finite_float(self):
        with pytest.raises(ParameterError):
            ProbValue.from_float(float("nan"))
        with pytest.raises(ParameterError):
            ProbValue.from_float(float("inf"))
        with pytest.raises(ParameterError):
            ProbValue.from_log(float("nan"))

    def test_logspace_allows_minus_infinity_only(self):
        assert ProbValue.from_log(float("-inf")).is_zero()
        with pytest.raises(ParameterError):
            ProbValue.from_log(float("inf"))

    def test_add_and_mul_logspace(self):
        a = convert(ProbValue.exact(Fraction(1, 4)), LOG)
        b = convert(ProbValue.exact(Fraction(1, 2)), LOG)
        assert (a + b).to_float() == pytest.approx(0.75, rel=1e-15)
        assert (a * b).to_float() == pytest.approx(0.125, rel=1e-15)
        assert (a + ProbValue.zero(LOG)).value == a.value

    def test_subtraction_clamps_rounding_noise(self):
        a = ProbValue.from_float(1.0)
        b = ProbValue.from_float(1.0 + 1e-16)
        assert (a - b).value == 0.0

    def test_subtraction_rejects_genuine_negative(self):
        with pytest.raises(ParameterError):
            ProbValue.exact(Fraction(1, 4)) - ProbValue.exact(Fraction(1, 2))
        with pytest.raises(ParameterError):
            ProbValue.from_float(0.25) - ProbValue.from_float(0.5)

    def test_mode_mismatch_raises(self):
        with pytest.raises(BackendMismatchError):
            ProbValue.exact(1) + ProbValue.from_float(1.0)


class TestParseProbability:
    def test_fraction_string(self):
        assert parse_probability("3/10").value == Fraction(3, 10)

    def test_decimal_string_is_exact(self):
        assert parse_probability("0.3").value == Fraction(3, 10)

    def test_float_mode_rounds(self):
        assert parse_probability("1/3", FLOAT).value == 1 / 3

    def test_out_of_range_names_field(self):
        with pytest.raises(ParameterError, match="p01"):
            parse_probability("1.2", name="p01")

    @pytest.mark.parametrize(
        "value", ["not-a-number", float("inf"), float("-inf"), float("nan")]
    )
    def test_garbage_rejected(self, value):
        with pytest.raises(ParameterError):
            parse_probability(value)
