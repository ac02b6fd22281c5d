"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; the exact-backend checks are
bit-for-bit.
"""

import time
from fractions import Fraction
from itertools import product

from visitprob.chain_model import State, VisitQuery, build_chain, swap_labels
from visitprob.closed_form import _term_shape, visit_distribution, visit_probability
from visitprob.combinatorics import binomial
from visitprob.numerics import NumericMode
from visitprob.oracle import census_by_j, oracle_distribution, simulate, total_variation

FULL_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
COARSE_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
INTERIOR_GRID = (Fraction(1, 100), Fraction(1, 2), Fraction(99, 100))


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_oracle_equivalence():
    """Closed form equals exhaustive enumeration, bit-exact, on the full grid."""
    started = time.perf_counter()
    cases = 0
    failures = []
    for p01, p10, p1 in product(FULL_GRID, repeat=3):
        chain = build_chain(p01, p10, p1)
        for n in range(1, 13):
            closed = visit_distribution(n, State.S1, chain)
            brute = oracle_distribution(n, State.S1, chain)
            for k in range(n + 1):
                cases += 1
                if closed.mass[k].value != brute.mass[k].value:
                    failures.append((p01, p10, p1, n, k))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "closed form == enumeration oracle (exact, N<=12, 125-chain grid)",
        not failures,
        f"{cases} cases in {elapsed:.1f}s" + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert elapsed < 60.0


def test_criterion_2_two_step_anchors():
    """At N=2 the interior probability reduces to p10 / p01 exactly."""
    ok = True
    for p01, p10 in product(FULL_GRID, repeat=2):
        sure_s1 = build_chain(p01, p10, 1)
        if visit_probability(VisitQuery(2, 1), sure_s1).value != p10:
            ok = False
        sure_s0 = build_chain(p01, p10, 0)
        if visit_probability(VisitQuery(2, 1), sure_s0).value != p01:
            ok = False
    _report(2, "N=2 anchors: P(1 visit)=p10 when starting S1, =p01 when starting S0", ok)


def test_criterion_3_path_census():
    """N=8, k=4, S1 -> S0 paths: blocks {1, 9, 9, 1} with the stated monomials."""
    started = time.perf_counter()
    chain = build_chain("3/10", "2/5", "1/2")
    cells = census_by_j(8, 4, State.S1, State.S0, chain)
    counts = {j: c.count for j, c in cells.items()}
    expected_exponents = {
        1: (3, 1, 0, 3),  # p11^3 p10 p00^3
        2: (2, 2, 1, 2),  # p11^2 p10^2 p01 p00^2
        3: (1, 3, 2, 1),  # p11 p10^3 p01^2 p00
        4: (0, 4, 3, 0),  # p10^4 p01^3
    }
    ok = counts == {1: 1, 2: 9, 3: 9, 4: 1}
    ok = ok and sum(counts.values()) == 20
    for j, (e11, e10, e01, e00) in expected_exponents.items():
        tc = cells[j].transitions
        ok = ok and (tc.n11, tc.n10, tc.n01, tc.n00) == (e11, e10, e01, e00)
        monomial = (
            chain.p11.value**e11
            * chain.p10.value**e10
            * chain.p01.value**e01
            * chain.p00.value**e00
        )
        ok = ok and cells[j].term.value == monomial
    elapsed = time.perf_counter() - started
    _report(3, "path census N=8, k=4: counts {1,9,9,1}, homogeneous monomials", ok,
            f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_4_normalization():
    """Masses sum to one: exactly in the exact backend, within 1e-9 in
    float/logspace up to N=1000 on interior parameters."""
    started = time.perf_counter()
    ok = True
    detail = ""

    exact_ladder = list(range(1, 17)) + [32, 64, 128, 200]
    for p01, p10, p1 in product(COARSE_GRID, repeat=3):
        chain = build_chain(p01, p10, p1)
        for n in exact_ladder:
            if visit_distribution(n, State.S1, chain).total().value != 1:
                ok, detail = False, f"exact sum != 1 at {(p01, p10, p1, n)}"
                break

    generic = build_chain("3/10", "2/5", "1/2")
    for n in range(1, 65):
        if visit_distribution(n, State.S1, generic).total().value != 1:
            ok, detail = False, f"exact sum != 1 at generic chain, n={n}"
            break

    float_ladder = list(range(1, 17)) + [64, 250]
    for mode in (NumericMode.FLOAT, NumericMode.LOGSPACE):
        for p01, p10, p1 in product(INTERIOR_GRID, repeat=3):
            chain = build_chain(p01, p10, p1, mode)
            for n in float_ladder:
                dev = abs(visit_distribution(n, State.S1, chain).total().to_float() - 1.0)
                if dev > 1e-9:
                    ok, detail = False, f"{mode.value} dev={dev} at {(p01, p10, p1, n)}"
        for p01, p10, p1 in ((1, 99, 50), (99, 1, 50), (50, 50, 50)):
            chain = build_chain(
                Fraction(p01, 100), Fraction(p10, 100), Fraction(p1, 100), mode
            )
            dev = abs(visit_distribution(1000, State.S1, chain).total().to_float() - 1.0)
            if dev > 1e-9:
                ok, detail = False, f"{mode.value} dev={dev} at N=1000 corner"

    elapsed = time.perf_counter() - started
    _report(4, "normalization: exact sums == 1 (N<=200), float/logspace within 1e-9 (N<=1000)",
            ok, detail or f"{elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_5_symmetries():
    """Complement and label-swap identities, bit-exact on the full grid."""
    ok = True
    detail = ""
    for p01, p10, p1 in product(FULL_GRID, repeat=3):
        chain = build_chain(p01, p10, p1)
        swapped = swap_labels(chain)
        for n in range(1, 13):
            s1 = visit_distribution(n, State.S1, chain)
            s0 = visit_distribution(n, State.S0, chain)
            via_swap = visit_distribution(n, State.S1, swapped)
            for k in range(n + 1):
                if s0.mass[k].value != s1.mass[n - k].value:
                    ok, detail = False, f"complement {(p01, p10, p1, n, k)}"
                if s0.mass[k].value != via_swap.mass[k].value:
                    ok, detail = False, f"label-swap {(p01, p10, p1, n, k)}"
    _report(5, "complement P(N0=k)=P(N1=N-k) and label-swap identities (exact, N<=12)",
            ok, detail)


def _zero_extended_mass(chain, n: int, k: int) -> Fraction:
    """P(N1 = k | N = n) with every interior sum run over j = 0..n: binomials
    outside their range are zero, so the summation limits are never used."""
    p = {name: getattr(chain, name).value for name in ("p00", "p01", "p10", "p11")}
    cond = {}
    for start in State:
        total = Fraction(0)
        if k == 0 or k == n:
            uniform = State.S0 if k == 0 else State.S1
            if start is uniform:
                total = chain.transition(uniform, uniform).value ** (n - 1)
        else:
            for final, j in product(State, range(n + 1)):
                b1n, b1r, b2n, b2r, e00, e01, e10, e11 = _term_shape(start, final, k, n, j)
                count = binomial(b1n, b1r) * binomial(b2n, b2r)
                # Past the limits an exponent can be negative; 0**-1 would raise.
                if count:
                    total += (
                        count * p["p00"] ** e00 * p["p01"] ** e01
                        * p["p10"] ** e10 * p["p11"] ** e11
                    )
        cond[start] = total
    return chain.p1.value * cond[State.S1] + chain.p0.value * cond[State.S0]


def test_criterion_6_limit_redundancy():
    """The closed form, summing to its limits c1, c2, c3, equals the same
    sums run over j = 0..N with zero-extended binomials, bit-exact on the
    full grid."""
    started = time.perf_counter()
    cases = 0
    failures = []
    for p01, p10, p1 in product(FULL_GRID, repeat=3):
        chain = build_chain(p01, p10, p1)
        for n in range(1, 13):
            closed = visit_distribution(n, State.S1, chain)
            for k in range(n + 1):
                cases += 1
                if closed.mass[k].value != _zero_extended_mass(chain, n, k):
                    failures.append((p01, p10, p1, n, k))
    elapsed = time.perf_counter() - started
    _report(
        6,
        "summation limits are redundant: sums over j=0..N agree (exact, N<=12)",
        not failures,
        f"{cases} cases in {elapsed:.1f}s" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_monte_carlo():
    """10^6 seeded trajectories stay within total variation 0.005 of the
    closed form, deterministically."""
    started = time.perf_counter()
    chain = build_chain("3/10", "2/5", "1/2")
    first = simulate(8, chain, 1_000_000, seed=42)
    second = simulate(8, chain, 1_000_000, seed=42)
    reference = visit_distribution(8, State.S1, chain.as_mode(NumericMode.FLOAT))
    tv = total_variation(first.empirical_distribution(), reference)
    elapsed = time.perf_counter() - started
    ok = tv <= 0.005 and first.counts == second.counts
    _report(7, "Monte Carlo: TV(empirical, closed form) <= 0.005, seed-deterministic",
            ok, f"tv={tv:.5f}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_8_degenerate_totality():
    """Every branch stays finite and correct at probabilities exactly 0 and 1."""
    ok = True
    detail = ""
    boundary = (Fraction(0), Fraction(1))
    for p01, p10, p1 in product(boundary, repeat=3):
        for mode in NumericMode:
            chain = build_chain(p01, p10, p1, mode)
            for n in (1, 2, 5):
                dist = visit_distribution(n, State.S1, chain)
                total = dist.total().to_float()
                if abs(total - 1.0) > 1e-12:
                    ok, detail = False, f"({p01},{p10},{p1}) {mode.value} n={n} sum={total}"
                for m in dist.mass:
                    f = m.to_float()
                    if not 0.0 <= f <= 1.0 + 1e-12:
                        ok, detail = False, f"mass out of range at {(p01, p10, p1, mode, n)}"
    # single-position sanity at the boundary: mass splits as (p0, p1)
    for p1 in boundary:
        chain = build_chain(0, 0, p1)
        d = visit_distribution(1, State.S1, chain)
        if (d.mass[0].value, d.mass[1].value) != (1 - p1, p1):
            ok, detail = False, f"N=1 split wrong for p1={p1}"
    _report(8, "degenerate chains (0/1 probabilities) are total in every backend",
            ok, detail)
