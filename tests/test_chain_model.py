from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from visitprob.chain_model import (
    ChainSpec,
    State,
    TransitionCounts,
    VisitQuery,
    build_chain,
    swap_labels,
)
from visitprob.closed_form import prob_given_start_s1, visit_distribution
from visitprob.errors import ParameterError
from visitprob.numerics import NumericMode, ProbValue, convert
from visitprob.oracle import oracle_distribution

NON_STATES = [0, 1, True, "S1", None]

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=30)
edge_probabilities = st.sampled_from([Fraction(0), Fraction(1)]) | probabilities
modes = st.sampled_from(list(NumericMode))

FIELDS = ("p0", "p1", "p00", "p01", "p10", "p11")
# The field each field of a chain becomes when S0 and S1 change places.
SWAPPED = {"p0": "p1", "p1": "p0", "p00": "p11", "p01": "p10", "p10": "p01", "p11": "p00"}


def six_field_chain(p01, p10, p1, mode) -> dict:
    """The six probabilities as a constructor that took all six was given
    them: each complement formed in exact arithmetic, then every value
    converted to ``mode``."""
    exact = {"p0": 1 - p1, "p1": p1, "p00": 1 - p01, "p01": p01, "p10": p10, "p11": 1 - p10}
    return {name: convert(ProbValue(NumericMode.EXACT, v), mode) for name, v in exact.items()}


class TestBuildChain:
    def test_symmetric_chain(self):
        c = build_chain("1/2", "1/2", "1/2")
        assert c.p00.value == c.p11.value == Fraction(1, 2)
        assert c.p0.value == Fraction(1, 2)

    def test_complements_are_derived(self):
        c = build_chain("3/10", "2/5", "1/2")
        assert c.p00.value == Fraction(7, 10)
        assert c.p11.value == Fraction(3, 5)

    def test_out_of_range_names_field(self):
        with pytest.raises(ParameterError, match="p01"):
            build_chain("1.2", "0.5", "0.5")
        with pytest.raises(ParameterError, match="p01"):
            ChainSpec("1.2", "1/2", "1/2")
        with pytest.raises(ParameterError, match="p1 "):
            ChainSpec("1/2", "1/2", "-1", NumericMode.FLOAT)
        with pytest.raises(ParameterError, match="p10"):
            build_chain("0.5", "-1/2", "0.5")

    def test_decimal_strings_parse_exactly(self):
        c = build_chain("0.3", "0.4", "0.5")
        assert c.p01.value == Fraction(3, 10)
        assert c.p10.value == Fraction(2, 5)

    def test_degenerate_chains_accepted(self):
        c = build_chain(0, 1, 1)
        assert c.p00.value == 1 and c.p11.value == 0

    def test_float_mode_row_sums(self):
        c = build_chain("0.3", "0.4", "0.7", NumericMode.FLOAT)
        assert abs(c.p00.value + c.p01.value - 1.0) <= 1e-12
        assert abs(c.p10.value + c.p11.value - 1.0) <= 1e-12
        assert abs(c.p0.value + c.p1.value - 1.0) <= 1e-12

    def test_logspace_mode(self):
        c = build_chain("1/4", "1/2", "1/2", NumericMode.LOGSPACE)
        assert c.p01.to_float() == pytest.approx(0.25, rel=1e-15)
        assert c.p00.to_float() == pytest.approx(0.75, rel=1e-15)

    def test_exact_row_sums_hold_exactly(self):
        c = build_chain("1/3", "1/7", "22/23")
        assert c.p00.value + c.p01.value == 1
        assert c.p10.value + c.p11.value == 1
        assert c.p0.value + c.p1.value == 1

    def test_accessors(self):
        c = build_chain("3/10", "2/5", "1/2")
        assert c.transition(State.S0, State.S1).value == Fraction(3, 10)
        assert c.transition(State.S1, State.S0).value == Fraction(2, 5)
        assert c.initial(State.S1).value == Fraction(1, 2)

    @pytest.mark.parametrize("value", NON_STATES)
    def test_accessors_reject_non_states(self, value):
        """A plain 0 or 1 once read as S0 in ``initial`` (it tests
        ``state is State.S1``) and raised AttributeError in ``transition``."""
        c = build_chain("3/10", "2/5", "1/4")
        with pytest.raises(ParameterError, match="state must be a State"):
            c.initial(value)
        with pytest.raises(ParameterError, match="src must be a State"):
            c.transition(value, State.S1)
        with pytest.raises(ParameterError, match="dst must be a State"):
            c.transition(State.S0, value)

    @given(edge_probabilities, edge_probabilities, edge_probabilities, modes)
    @example(Fraction(0), Fraction(1), Fraction(1), NumericMode.LOGSPACE)
    @example(Fraction(1), Fraction(0), Fraction(0), NumericMode.FLOAT)
    def test_fields_keep_their_bits(self, p01, p10, p1, mode):
        """Built from its three free parameters, every field of a chain and
        of its label swap has the bits of the six-field construction."""
        expected = six_field_chain(p01, p10, p1, mode)
        chain = build_chain(p01, p10, p1, mode)
        swapped = swap_labels(chain)
        assert chain.mode is swapped.mode is mode
        assert chain.exact == (p01, p10, p1)
        for name in FIELDS:
            assert repr(getattr(chain, name)) == repr(expected[name])
            assert repr(getattr(swapped, name)) == repr(expected[SWAPPED[name]])

    @given(edge_probabilities, edge_probabilities, edge_probabilities, modes, modes)
    # From FLOAT, p00 = 7/10 gets log 7 - log 10 (-0.35667494393873267), not
    # the log of the double 0.7 (-0.35667494393873245).
    @example(Fraction(3, 10), Fraction(2, 5), Fraction(1, 2), NumericMode.FLOAT, NumericMode.LOGSPACE)
    def test_as_mode_converts_from_the_exact_parameters(self, p01, p10, p1, source, target):
        chain = build_chain(p01, p10, p1, source)
        converted = chain.as_mode(target)
        expected = build_chain(*chain.exact, target)
        assert converted.exact == chain.exact
        for name in ("mode", *FIELDS):
            assert repr(getattr(converted, name)) == repr(getattr(expected, name))

    def test_as_mode_round_trip_structure(self):
        c = build_chain("3/10", "2/5", "1/2").as_mode(NumericMode.FLOAT)
        assert c.mode is NumericMode.FLOAT
        assert c.p01.value == 0.3


class TestSwapLabels:
    def test_symmetric_chain_is_fixed_point(self):
        c = build_chain("1/2", "1/2", "1/2")
        assert swap_labels(c) == c

    def test_field_mapping(self):
        s = swap_labels(build_chain("3/10", "2/5", "1/2"))
        assert s.p01.value == Fraction(2, 5)
        assert s.p10.value == Fraction(3, 10)
        assert s.p1.value == Fraction(1, 2)
        assert s.p11.value == Fraction(7, 10)

    @given(probabilities, probabilities, probabilities)
    def test_involution(self, p01, p10, p1):
        c = build_chain(p01, p10, p1)
        assert swap_labels(swap_labels(c)) == c


class TestVisitQuery:
    def test_valid_query(self):
        q = VisitQuery(5, 2, State.S1)
        assert q.horizon_n == 5 and q.visits_k == 2

    def test_rejects_bad_horizon(self):
        with pytest.raises(ParameterError):
            VisitQuery(0, 0)

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ParameterError):
            VisitQuery(8, 9)
        with pytest.raises(ParameterError):
            VisitQuery(8, -1)

    def test_rejects_non_state_target(self):
        with pytest.raises(ParameterError):
            VisitQuery(4, 2, target=1)

    @pytest.mark.parametrize("n, k", [(0, 0), (True, 0), (5, 6)], ids=["n=0", "n=True", "k=n+1"])
    def test_messages_match_the_closed_form_and_oracle(self, n, k):
        """A query and the functions that take N and k directly share one
        horizon check and one visit-count check, so one bad argument reads
        the same from every entry point."""
        chain = build_chain("3/10", "2/5", "1/2")
        with pytest.raises(ParameterError) as query:
            VisitQuery(n, k)
        with pytest.raises(ParameterError) as direct:
            prob_given_start_s1(k, n, chain)
        assert str(direct.value) == str(query.value)
        if k <= 1:  # a bad horizon: these take N alone
            for distribution in (visit_distribution, oracle_distribution):
                with pytest.raises(ParameterError) as other:
                    distribution(n, State.S1, chain)
                assert str(other.value) == str(query.value)
        else:
            with pytest.raises(ParameterError) as other:
                visit_distribution(n, State.S1, chain).probability(k)
            assert str(other.value) == str(query.value)


class TestTransitionCounts:
    def test_total_and_lookup(self):
        tc = TransitionCounts(n00=2, n01=1, n10=1, n11=3)
        assert tc.total == 7
        assert tc.of(State.S1, State.S1) == 3
        assert tc.of(State.S0, State.S1) == 1
