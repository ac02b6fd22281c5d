from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visitprob.chain_model import ChainSpec, State, TransitionCounts, VisitQuery, build_chain
from visitprob.cli import run_validation
from visitprob.closed_form import (
    prob_given_start_s0,
    prob_given_start_s1,
    term_census,
    visit_distribution,
)
from visitprob.errors import EnumerationGuardError, ParameterError, VisitProbError
from visitprob.numerics import NumericMode, ProbValue, convert, pow_prob
from visitprob.oracle import (
    CensusCell,
    census_by_j,
    enumeration_guard,
    oracle_distribution,
    simulate,
    total_variation,
)

GENERIC = ("3/10", "2/5", "1/2")
FINE = [Fraction(i, 4) for i in range(5)]  # the fine validation grid

rational_or_edge = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
edge_chains = st.builds(build_chain, rational_or_edge, rational_or_edge, rational_or_edge)

# Frozen during development with the pinned splitmix64 generator; the
# determinism contract makes these stable across runs, backends and
# process restarts.
GOLDEN_HISTOGRAM_N4_SYM_SEED42_1000 = (64, 235, 375, 258, 68)


# ---------------------------------------------------------------------------
# Reference census: every one of the 2**n paths as a record, unpruned.
# census_by_j must return the same cells as this record stream.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One enumerated path with its probability and transition census."""

    states: tuple[State, ...]
    probability: ProbValue
    visits_s1: int
    transitions: TransitionCounts


def reference_trajectories(n: int, chain: ChainSpec) -> Iterator[TrajectoryRecord]:
    """All 2**n trajectories exactly once, lexicographically (S0 < S1),
    with probabilities extended one transition at a time in the chain's
    backend."""
    mul = (lambda a, b: a + b) if chain.mode is NumericMode.LOGSPACE else (lambda a, b: a * b)
    init = (chain.p0.value, chain.p1.value)
    trans = ((chain.p00.value, chain.p01.value), (chain.p10.value, chain.p11.value))
    states: list[int] = []
    counts = [[0, 0], [0, 0]]

    def walk(depth: int, prev: int, acc) -> Iterator[TrajectoryRecord]:
        if depth == n:
            yield TrajectoryRecord(
                states=tuple(State(s) for s in states),
                probability=ProbValue(chain.mode, acc),
                visits_s1=sum(states),
                transitions=TransitionCounts(
                    n00=counts[0][0], n01=counts[0][1],
                    n10=counts[1][0], n11=counts[1][1],
                ),
            )
            return
        for nxt in (0, 1):
            states.append(nxt)
            counts[prev][nxt] += 1
            yield from walk(depth + 1, nxt, mul(acc, trans[prev][nxt]))
            counts[prev][nxt] -= 1
            states.pop()

    for first in (0, 1):
        states.append(first)
        yield from walk(1, first, init[first])
        states.pop()


def reference_census(n: int, chain: ChainSpec) -> dict[tuple, dict[int, CensusCell]]:
    """Census cells of every (k, initial, final) from one pass over all
    paths; groups no path reaches are absent."""
    seen: dict[tuple, dict[int, list]] = {}
    for rec in reference_trajectories(n, chain):
        group = seen.setdefault((rec.visits_s1, rec.states[0], rec.states[-1]), {})
        tc = rec.transitions
        cell = group.setdefault(tc.n10, [0, tc])
        if tc != cell[1]:
            raise VisitProbError(f"monomial homogeneity violated: {tc} vs {cell[1]}")
        cell[0] += 1
    out = {}
    for key, group in seen.items():
        cells = {}
        for j in sorted(group):
            count, tc = group[j]
            term = (
                pow_prob(chain.p11, tc.n11)
                * pow_prob(chain.p10, tc.n10)
                * pow_prob(chain.p01, tc.n01)
                * pow_prob(chain.p00, tc.n00)
            )
            cells[j] = CensusCell(j=j, count=count, transitions=tc, term=term)
        out[key] = cells
    return out


class TestReferenceTrajectories:
    def test_single_position(self):
        c = build_chain(*GENERIC)
        recs = list(reference_trajectories(1, c))
        assert [r.probability.value for r in recs] == [c.p0.value, c.p1.value]
        assert [r.states for r in recs] == [(State.S0,), (State.S1,)]

    def test_two_positions(self):
        c = build_chain(*GENERIC)
        recs = {r.states: r for r in reference_trajectories(2, c)}
        assert len(recs) == 4
        s1s0 = recs[(State.S1, State.S0)]
        assert s1s0.probability.value == c.p1.value * c.p10.value
        assert s1s0.visits_s1 == 1
        assert s1s0.transitions.n10 == 1

    def test_lexicographic_order_and_count(self):
        c = build_chain(*GENERIC)
        seen = [tuple(int(s) for s in r.states) for r in reference_trajectories(5, c)]
        assert len(seen) == 32
        assert seen == sorted(seen)

    def test_record_invariants(self):
        c = build_chain(*GENERIC)
        for r in reference_trajectories(6, c):
            assert r.visits_s1 == sum(int(s) for s in r.states)
            assert r.transitions.total == 5
            monomial = (
                c.p11.value ** r.transitions.n11
                * c.p10.value ** r.transitions.n10
                * c.p01.value ** r.transitions.n01
                * c.p00.value ** r.transitions.n00
            )
            assert r.probability.value == c.initial(r.states[0]).value * monomial

    @pytest.mark.parametrize("p01,p10,p1", [(0, 0, 0), (1, 1, 1), ("1/4", 1, "1/2"), GENERIC])
    def test_probabilities_sum_to_one(self, p01, p10, p1):
        c = build_chain(p01, p10, p1)
        total = sum(r.probability.value for r in reference_trajectories(9, c))
        assert total == 1

    def test_fig_block_count(self):
        c = build_chain(*GENERIC)
        matching = [
            r
            for r in reference_trajectories(8, c)
            if r.states[0] is State.S1 and r.states[-1] is State.S0 and r.visits_s1 == 4
        ]
        assert len(matching) == 20


class TestOracleDistribution:
    def test_single_position(self):
        c = build_chain(*GENERIC)
        d = oracle_distribution(1, State.S1, c)
        assert [m.value for m in d.mass] == [c.p0.value, c.p1.value]

    def test_uniform_chain(self):
        d = oracle_distribution(4, State.S1, build_chain("1/2", "1/2", "1/2"))
        assert [m.value for m in d.mass] == [Fraction(x, 16) for x in (1, 4, 6, 4, 1)]

    def test_s0_target_reverses(self):
        c = build_chain(*GENERIC)
        s1 = oracle_distribution(7, State.S1, c)
        s0 = oracle_distribution(7, State.S0, c)
        assert [m.value for m in s0.mass] == [m.value for m in s1.mass][::-1]

    @settings(max_examples=60, deadline=None)
    @given(edge_chains, st.integers(min_value=1, max_value=10), st.sampled_from(State))
    def test_exact_matches_fraction_walk(self, chain, n, target):
        """The integer-numerator walk gives the masses of the Fraction
        product walk, numerator and denominator alike."""
        sums = [Fraction(0)] * (n + 1)
        for rec in reference_trajectories(n, chain):
            sums[rec.visits_s1] += rec.probability.value
        if target is State.S0:
            sums = sums[::-1]
        got = oracle_distribution(n, target, chain).mass
        assert [(m.value.numerator, m.value.denominator) for m in got] == [
            (f.numerator, f.denominator) for f in sums
        ]

    @pytest.mark.parametrize("spec", [GENERIC, ("13/97", "41/89", "29/83")])
    def test_closed_form_equals_enumeration_at_n20(self, spec):
        """Bit for bit at a horizon past the grid checks (N <= 14)."""
        chain = build_chain(*spec)
        closed = visit_distribution(20, State.S1, chain)
        brute = oracle_distribution(20, State.S1, chain)
        assert [(m.value.numerator, m.value.denominator) for m in brute.mass] == [
            (m.value.numerator, m.value.denominator) for m in closed.mass
        ]

    def test_float_mode_close_to_exact(self):
        exact = oracle_distribution(10, State.S1, build_chain(*GENERIC))
        floats = oracle_distribution(
            10, State.S1, build_chain(*GENERIC, NumericMode.FLOAT)
        )
        for e, f in zip(exact.mass, floats.mass):
            assert f.value == pytest.approx(float(e.value), rel=1e-12)

    def test_logspace_mode_close_to_exact(self):
        exact = oracle_distribution(10, State.S1, build_chain(*GENERIC))
        logs = oracle_distribution(
            10, State.S1, build_chain(*GENERIC, NumericMode.LOGSPACE)
        )
        for e, l in zip(exact.mass, logs.mass):
            assert l.to_float() == pytest.approx(float(e.value), rel=1e-11)


    @pytest.mark.parametrize("mode", [NumericMode.FLOAT, NumericMode.LOGSPACE])
    @pytest.mark.parametrize("p01,p10,p1", list(product(FINE, repeat=3)), ids=str)
    def test_float_and_logspace_are_the_exact_masses_converted(self, p01, p10, p1, mode):
        """Bit for bit: a FLOAT mass is the exact one correctly rounded, a
        LOGSPACE mass the log of the exact one, degenerate chains included."""
        exact, chain = build_chain(p01, p10, p1), build_chain(p01, p10, p1, mode)
        for n in range(1, 9):
            want = [convert(m, mode).value for m in oracle_distribution(n, State.S1, exact).mass]
            assert [m.value for m in oracle_distribution(n, State.S1, chain).mass] == want


class TestCensus:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize(
        "spec", [GENERIC, (0, 1, "1/2"), (1, 0, 0)], ids=["generic", "flip", "absorbing"]
    )
    def test_pruned_walk_matches_reference_census(self, spec, n):
        """Cell for cell, term included, for every (k, initial, final); the
        degenerate chains give most paths probability zero, and those paths
        must still be counted."""
        chain = build_chain(*spec)
        reference = reference_census(n, chain)
        paths = 0
        for k, initial, final in product(range(n + 1), State, State):
            cells = census_by_j(n, k, initial, final, chain)
            assert cells == reference.get((k, initial, final), {}), (k, initial, final)
            paths += sum(c.count for c in cells.values())
        assert paths == 2**n

    def test_guard_refuses_eagerly(self):
        c = build_chain(*GENERIC)
        with pytest.raises(EnumerationGuardError, match=r"2\*\*26 trajectories"):
            census_by_j(26, 1, State.S1, State.S0, c)
        with pytest.raises(EnumerationGuardError, match=r"2\*\*26 trajectories"):
            oracle_distribution(26, State.S1, c)

    def test_guard_override_parameter(self):
        c = build_chain(*GENERIC)
        # The one path S1 S0 ... S0: allowed past the default guard, and cheap
        # because every branch that visits S1 again is pruned at once.
        cells = census_by_j(26, 1, State.S1, State.S0, c, guard=30)
        assert {j: (x.count, x.transitions) for j, x in cells.items()} == {
            1: (1, TransitionCounts(n00=24, n10=1))
        }
        with pytest.raises(EnumerationGuardError):
            census_by_j(5, 2, State.S1, State.S0, c, guard=4)
        with pytest.raises(EnumerationGuardError):
            oracle_distribution(5, State.S1, c, guard=4)

    def test_guard_env_override(self, monkeypatch):
        c = build_chain(*GENERIC)
        monkeypatch.setenv("VISITPROB_ENUM_GUARD", "4")
        assert enumeration_guard() == 4
        with pytest.raises(EnumerationGuardError):
            census_by_j(5, 2, State.S1, State.S0, c)
        with pytest.raises(EnumerationGuardError):
            oracle_distribution(5, State.S1, c)
        monkeypatch.setenv("VISITPROB_ENUM_GUARD", "notanint")
        with pytest.raises(ParameterError):
            enumeration_guard()

    def test_reference_block_structure(self):
        cells = census_by_j(8, 4, State.S1, State.S0, build_chain(*GENERIC))
        assert {j: c.count for j, c in cells.items()} == {1: 1, 2: 9, 3: 9, 4: 1}
        assert sum(c.count for c in cells.values()) == 20

    def test_reference_monomials(self):
        c = build_chain(*GENERIC)
        cells = census_by_j(8, 4, State.S1, State.S0, c)
        tc2 = cells[2].transitions
        assert (tc2.n11, tc2.n10, tc2.n01, tc2.n00) == (2, 2, 1, 2)
        assert cells[2].term.value == (
            c.p11.value**2 * c.p10.value**2 * c.p01.value * c.p00.value**2
        )

    def test_single_path_cell(self):
        cells = census_by_j(2, 1, State.S1, State.S0, build_chain(*GENERIC))
        assert {j: c.count for j, c in cells.items()} == {1: 1}

    @staticmethod
    def _assert_census_matches_formula(chain, n, k):
        for initial, final in product(State, repeat=2):
            enumerated = census_by_j(n, k, initial, final, chain)
            predicted = term_census(k, n, initial, final)
            assert {j: c.count for j, c in enumerated.items()} == {
                j: c.count for j, c in predicted.items()
            }, (n, k, initial, final)
            for j, cell in enumerated.items():
                assert cell.transitions == predicted[j].transitions

    def test_matches_formula_census_everywhere(self):
        """Path census and closed-form term structure must agree cell by cell."""
        chain = build_chain(*GENERIC)
        for n in range(1, 9):
            for k in range(n + 1):
                self._assert_census_matches_formula(chain, n, k)

    @pytest.mark.parametrize("k", [0, 3, 6, 9, 12])
    def test_matches_formula_census_wide_horizon(self, k):
        self._assert_census_matches_formula(build_chain(*GENERIC), 12, k)

    def test_boundary_census(self):
        chain = build_chain(*GENERIC)
        all_s0 = census_by_j(5, 0, State.S0, State.S0, chain)
        assert all_s0[0].count == 1
        assert all_s0[0].transitions.n00 == 4
        assert census_by_j(5, 0, State.S1, State.S0, chain) == {}

    def test_conditional_decomposes_over_census(self):
        """Each start-conditioned probability is exactly the census-weighted
        sum of its monomials, final state by final state."""
        chain = build_chain(*GENERIC)
        conditionals = {State.S1: prob_given_start_s1, State.S0: prob_given_start_s0}
        for n in (2, 5, 8):
            for k in range(n + 1):
                for start, conditional in conditionals.items():
                    total = sum(
                        cell.count * cell.term.value
                        for final in State
                        for cell in census_by_j(n, k, start, final, chain).values()
                    )
                    assert conditional(k, n, chain).value == total, (n, k, start)


class TestSimulate:
    def test_deterministic_chain_concentrates(self):
        c = build_chain("1/4", 0, 1)
        for seed in (0, 9, 12345):
            r = simulate(6, c, 500, seed)
            assert r.counts[-1] == 500 and sum(r.counts) == 500

    def test_golden_histogram(self):
        r = simulate(4, build_chain("1/2", "1/2", "1/2"), 1000, 42)
        assert r.counts == GOLDEN_HISTOGRAM_N4_SYM_SEED42_1000

    def test_repeat_runs_identical(self):
        c = build_chain(*GENERIC)
        a = simulate(8, c, 2000, 77)
        b = simulate(8, c, 2000, 77)
        assert a.counts == b.counts

    def test_equal_arguments_give_equal_results(self):
        chain = build_chain(*GENERIC)
        assert simulate(8, chain, 1000, 5) == simulate(8, chain, 1000, 5)

    def test_uniform_chain_close_to_closed_form(self):
        sym = build_chain("1/2", "1/2", "1/2")
        r = simulate(4, sym, 1_000_000, 7)
        reference = visit_distribution(4, State.S1, sym.as_mode(NumericMode.FLOAT))
        assert total_variation(r.empirical_distribution(), reference) <= 0.005

    def test_counts_sum_to_trials(self):
        r = simulate(5, build_chain(*GENERIC), 999, 3)
        assert sum(r.counts) == 999

    def test_empirical_distribution_s0_target(self):
        r = simulate(3, build_chain(*GENERIC), 100, 5)
        s1 = r.empirical_distribution(State.S1).to_floats()
        s0 = r.empirical_distribution(State.S0).to_floats()
        assert s0 == s1[::-1]

    def test_argument_validation(self):
        c = build_chain(*GENERIC)
        with pytest.raises(ParameterError):
            simulate(0, c, 10, 1)
        with pytest.raises(ParameterError):
            simulate(4, c, 0, 1)
        with pytest.raises(ParameterError):
            simulate(4, c, 10, "seed")
        with pytest.raises(ParameterError):
            simulate(True, c, 5, 0)
        with pytest.raises(ParameterError):
            simulate(4, c, True, 0)
        with pytest.raises(ParameterError):
            simulate(4, c, 10, False)


class TestTotalVariation:
    def test_identical_distributions(self):
        d = visit_distribution(5, State.S1, build_chain(*GENERIC))
        assert total_variation(d, d) == 0.0

    def test_disjoint_point_masses(self):
        at_zero = oracle_distribution(4, State.S1, build_chain(0, 1, 0))
        at_n = oracle_distribution(4, State.S1, build_chain(1, 0, 1))
        assert at_zero.mass[0].value == 1 and at_n.mass[4].value == 1
        assert total_variation(at_zero, at_n) == 1.0

    def test_horizon_mismatch(self):
        c = build_chain(*GENERIC)
        with pytest.raises(ParameterError):
            total_variation(
                visit_distribution(4, State.S1, c), visit_distribution(5, State.S1, c)
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda c: visit_distribution(True, State.S1, c),
        lambda c: prob_given_start_s1(0, True, c),
        lambda c: oracle_distribution(True, State.S1, c),
        lambda c: census_by_j(True, 0, State.S1, State.S1, c),
        lambda c: term_census(0, True, State.S0, State.S0),
        lambda c: VisitQuery(True, 0),
        lambda c: run_validation(True, "coarse"),
    ],
    ids=[
        "visit_distribution", "prob_given_start_s1", "oracle_distribution",
        "census_by_j", "term_census", "VisitQuery", "run_validation",
    ],
)
def test_bool_horizon_rejected(call):
    with pytest.raises(ParameterError, match="horizon|n-max"):
        call(build_chain(*GENERIC))


@pytest.mark.parametrize(
    "call",
    [
        lambda c: prob_given_start_s1(True, 5, c),
        lambda c: prob_given_start_s1(2.0, 5, c),
        lambda c: prob_given_start_s0(2.0, 5, c),
        lambda c: visit_distribution(5, State.S1, c).probability(True),
        lambda c: census_by_j(5, 2.0, State.S1, State.S0, c),
        lambda c: census_by_j(5, True, State.S1, State.S0, c),
        lambda c: census_by_j("5", 2, State.S1, State.S0, c),
        lambda c: term_census(2.0, 5, State.S1, State.S0),
        lambda c: term_census(True, 5, State.S1, State.S0),
    ],
    ids=[
        "prob_given_start_s1-bool", "prob_given_start_s1-float", "prob_given_start_s0-float",
        "probability-bool", "census_by_j-float", "census_by_j-bool", "census_by_j-str-n",
        "term_census-float", "term_census-bool",
    ],
)
def test_non_int_k_rejected(call):
    """A visit count must be an int, not a bool or float; the horizon is
    validated before k."""
    with pytest.raises(ParameterError, match="k must be an integer|horizon"):
        call(build_chain(*GENERIC))


# A plain 0 or 1 is not a State: compared by identity, it would match
# neither state, and the call would answer for the wrong one.
NOT_STATES = [0, 1, True, "S1", None]


@pytest.mark.parametrize("bad", NOT_STATES, ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda c, s: visit_distribution(3, s, c), "target"),
        (lambda c, s: oracle_distribution(3, s, c), "target"),
        (lambda c, s: simulate(3, c, 10, 1).empirical_distribution(s), "target"),
        (lambda c, s: term_census(0, 3, s, State.S0), "initial"),
        (lambda c, s: term_census(0, 3, State.S0, s), "final"),
        (lambda c, s: census_by_j(3, 0, s, State.S0, c), "initial"),
        (lambda c, s: census_by_j(3, 0, State.S0, s, c), "final"),
        (lambda c, s: VisitQuery(3, 0, s), "target"),
    ],
    ids=[
        "visit_distribution", "oracle_distribution", "empirical_distribution",
        "term_census-initial", "term_census-final", "census_by_j-initial",
        "census_by_j-final", "VisitQuery",
    ],
)
def test_non_state_rejected(call, name, bad):
    with pytest.raises(ParameterError, match=f"{name} must be a State"):
        call(build_chain(*GENERIC), bad)
