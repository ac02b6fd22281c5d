import math
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from visitprob.combinatorics import BinomialTable, binomial, log_binomial
from visitprob.errors import ParameterError


@lru_cache(maxsize=None)
def pascal(n: int, r: int) -> int:
    """Independent oracle: Pascal's recurrence, memoized."""
    if r == 0 or r == n:
        return 1
    if r < 0 or r > n:
        return 0
    return pascal(n - 1, r - 1) + pascal(n - 1, r)


class TestBinomial:
    def test_small_values(self):
        assert binomial(3, 1) == 3
        assert binomial(10, 4) == pascal(10, 4) == 210

    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_choose_zero(self, n):
        assert binomial(n, 0) == 1

    def test_zero_extension(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(-2, 0) == 0

    def test_matches_factorial_ratio_up_to_64(self):
        for n in range(65):
            for r in range(n + 1):
                expected = math.factorial(n) // (math.factorial(r) * math.factorial(n - r))
                assert binomial(n, r) == expected

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=-5, max_value=205))
    def test_symmetry(self, n, r):
        assert binomial(n, r) == binomial(n, n - r)


class TestLogBinomial:
    def test_matches_exact_log(self):
        for n, r in [(5, 2), (40, 17), (900, 123)]:
            assert log_binomial(n, r) == pytest.approx(math.log(binomial(n, r)), rel=1e-12)

    def test_out_of_range_is_log_zero(self):
        assert log_binomial(4, 5) == float("-inf")
        assert log_binomial(-1, 0) == float("-inf")
        assert log_binomial(3, -2) == float("-inf")


class TestBinomialTable:
    def test_agrees_with_binomial(self):
        table = BinomialTable(40)
        for n in range(41):
            for r in range(n + 1):
                assert table.get(n, r) == binomial(n, r)
            assert table.row(n) == [binomial(n, r) for r in range(n + 1)]

    def test_pascal_recurrence_internal(self):
        table = BinomialTable(30)
        for n in range(1, 31):
            for r in range(n + 1):
                assert table.get(n, r) == table.get(n - 1, r - 1) + table.get(n - 1, r)

    def test_row_sums_are_powers_of_two(self):
        table = BinomialTable(25)
        for n in range(26):
            assert sum(table.get(n, r) for r in range(n + 1)) == 2**n

    def test_zero_extension(self):
        table = BinomialTable(5)
        assert table.get(3, 7) == 0
        assert table.get(3, -1) == 0
        assert table.get(-4, 0) == 0
        assert table.row(-1) == []

    def test_row_beyond_table_raises(self):
        with pytest.raises(ParameterError):
            BinomialTable(5).get(6, 2)
        with pytest.raises(ParameterError):
            BinomialTable(5).row(6)

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            BinomialTable(-1)


def brute_force_compositions(m: int, n: int) -> list[tuple[int, ...]]:
    """Independent oracle: filter the full integer grid."""
    return [parts for parts in product(range(m + 1), repeat=n) if sum(parts) == m]


class TestWeakCompositions:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(9) for n in range(1, 6)])
    def test_count_is_stars_and_bars(self, m, n):
        """The closed form counts the ways to spread m self-transitions over
        n runs as C(m + n - 1, n - 1)."""
        assert len(brute_force_compositions(m, n)) == binomial(m + n - 1, n - 1)
