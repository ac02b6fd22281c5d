"""The simulation kernel against frozen golden vectors, the word-parallel
simulator against the one-trajectory-at-a-time loop it replaces, the pinned
generator against its published reference outputs, and the enumeration
kernel's integer sums against a path-by-path enumeration."""

import hashlib
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visitprob import kernels
from visitprob.kernels import _GAMMA, _MASK, _MIX1, _MIX2

_INV53 = 1.0 / 9007199254740992.0  # 2**-53
B = kernels._BLOCK

# sha256 of repr(output), keyed by (chain, seed) for
# simulate_counts(8, *chain, 10_000, seed).  Any change to a draw or a
# comparison shows up here.
SIMULATE_DIGESTS = {
    ((0.3, 0.4, 0.5), 0): "28e7cf197a9f348d6a390648f7ea5fd0b85a3373efa288a796edafdf4cb24edd",
    ((0.3, 0.4, 0.5), 1): "7e277798858713ff4ff20dd4e5338e7fa8b4cf467db85ea1717efb7aaa8b4284",
    ((0.3, 0.4, 0.5), 42): "ef2252aae767cb4a0575f64af3b49a02990a55ef833c57b6aba152fc93021ab5",
    ((0.3, 0.4, 0.5), 2**64 - 1): "bffb85a0fd5a926266e57a1d43b4cacec23da1c8b745d571bc891f1e67f3c32b",
    ((0.3, 0.4, 0.5), 2**63 + 12345): "9a188929c291f0e295efc008da7fa1328632cfe799c393da18f186168a3c5215",
    ((0.5, 0.5, 0.5), 0): "7176e2f3c9c5f0d97aab15d6187f18a1b9a3af541a7fddb6a9bae5daaac3e82f",
    ((0.5, 0.5, 0.5), 1): "3cda0d63a1453afe151de732b3a3330ecb7278416714eee1d24e97a8b622f477",
    ((0.5, 0.5, 0.5), 42): "0601f14627d742813a43a8c8542cf8e51df7003f3db84c098595043498a0094d",
    ((0.5, 0.5, 0.5), 2**64 - 1): "9a6be6bbe0215a6bfb8902491b21ffba38a3a2cb611be85b34c3ff7032b67baa",
    ((0.5, 0.5, 0.5), 2**63 + 12345): "ff23aa569918e42154651613ee9e850be876fbd51bb861c01baa6b4c440ef6f8",
    ((0.0, 1.0, 1.0), 0): "677dafbfd5d1cfeae3931cd34ca25802eca1ac8384de17377acdaee27a52146f",
    ((0.0, 1.0, 1.0), 1): "677dafbfd5d1cfeae3931cd34ca25802eca1ac8384de17377acdaee27a52146f",
    ((0.0, 1.0, 1.0), 42): "677dafbfd5d1cfeae3931cd34ca25802eca1ac8384de17377acdaee27a52146f",
    ((0.0, 1.0, 1.0), 2**64 - 1): "677dafbfd5d1cfeae3931cd34ca25802eca1ac8384de17377acdaee27a52146f",
    ((0.0, 1.0, 1.0), 2**63 + 12345): "677dafbfd5d1cfeae3931cd34ca25802eca1ac8384de17377acdaee27a52146f",
    ((1.0, 0.0, 0.0), 0): "98f45b8dbfafe7da01516de378d296b56cb19feb09a487c5f7e16150aef0dc79",
    ((1.0, 0.0, 0.0), 1): "98f45b8dbfafe7da01516de378d296b56cb19feb09a487c5f7e16150aef0dc79",
    ((1.0, 0.0, 0.0), 42): "98f45b8dbfafe7da01516de378d296b56cb19feb09a487c5f7e16150aef0dc79",
    ((1.0, 0.0, 0.0), 2**64 - 1): "98f45b8dbfafe7da01516de378d296b56cb19feb09a487c5f7e16150aef0dc79",
    ((1.0, 0.0, 0.0), 2**63 + 12345): "98f45b8dbfafe7da01516de378d296b56cb19feb09a487c5f7e16150aef0dc79",
    ((0.01, 0.99, 0.25), 0): "d3c6b30301a947c68ea0858225c320aac24681291cb0adf0194c099f5c341f57",
    ((0.01, 0.99, 0.25), 1): "b22a0eb366b72ee344257e598a325c8a15415ae4c02f8c3cb1c83080b762b2d0",
    ((0.01, 0.99, 0.25), 42): "ff08ab01cfbc83075cd268e90088fe1b5519cd7ac6834d9f0d8ab577c95f5ad8",
    ((0.01, 0.99, 0.25), 2**64 - 1): "138d88f7d9be731d45a7e87da193d4d011734ba87c0d18f24b6ec14cc70f54f9",
    ((0.01, 0.99, 0.25), 2**63 + 12345): "270cce68cb52b9098293b88c951daec765e0de2d058684d05bd3e4bed6590b83",
}

# sha256 of repr(simulate_counts(n, *chain, trials, seed)), keyed by
# (n, trials, chain, seed): a horizon with no transitions, and a long one
# whose trial count is not a multiple of the block size.
SIMULATE_EDGE_DIGESTS = {
    (1, 10_000, (0.3, 0.4, 0.5), 0): "bfd7d9901edb846431c7676f81261f2e464b14aa6a26d07d7637411f7a64f18a",
    (1, 10_000, (0.3, 0.4, 0.5), 2**64 - 1): "a6d32f7b0df58e2006db79d51e0cc03106d4164d23fe44331089bfd62e93cfad",
    (1, 10_000, (0.5, 0.5, 0.5), 0): "bfd7d9901edb846431c7676f81261f2e464b14aa6a26d07d7637411f7a64f18a",
    (1, 10_000, (0.5, 0.5, 0.5), 2**64 - 1): "a6d32f7b0df58e2006db79d51e0cc03106d4164d23fe44331089bfd62e93cfad",
    (1, 10_000, (0.0, 1.0, 1.0), 0): "710874d538084374690fc1b7fbadafdfaa066bb8940aedf157c476e5a5d99a1a",
    (1, 10_000, (0.0, 1.0, 1.0), 2**64 - 1): "710874d538084374690fc1b7fbadafdfaa066bb8940aedf157c476e5a5d99a1a",
    (1, 10_000, (1.0, 0.0, 0.0), 0): "62781b727949b164157525b5010944988c46ecef3423db9af7996c6f38d5fef6",
    (1, 10_000, (1.0, 0.0, 0.0), 2**64 - 1): "62781b727949b164157525b5010944988c46ecef3423db9af7996c6f38d5fef6",
    (1, 10_000, (0.01, 0.99, 0.25), 0): "cd87d6c02b67a9cdc32af72c85720b5037cf8f3a7461a629f4b66dc2de559279",
    (1, 10_000, (0.01, 0.99, 0.25), 2**64 - 1): "cdec74a92a7830ae4c90cbbd9308f13e6497cfa37df1038adbf6cf9f9378970d",
    (40, 10_007, (0.3, 0.4, 0.5), 0): "52ae2e7b3c46b126c2e19a05178be9e98d3befa2928e2228d76dff14b2a65059",
    (40, 10_007, (0.3, 0.4, 0.5), 2**64 - 1): "46354a596fbecb24ab22ae8ea128e6eb7d7569e42d71270172cbce467b437229",
    (40, 10_007, (0.5, 0.5, 0.5), 0): "803dfcc8298d8f8d39a4bc528f53fc9cfa420653db9037fc1f013a6fd6b0de9a",
    (40, 10_007, (0.5, 0.5, 0.5), 2**64 - 1): "9b680fafd53cdd21037e52bb1aaec94076971e9a571f68efaf415015f4fb2532",
    (40, 10_007, (0.0, 1.0, 1.0), 0): "5894129791ee0d87eef5f743b5604a9812ec9f68dc06245e3f99c736990edb80",
    (40, 10_007, (0.0, 1.0, 1.0), 2**64 - 1): "5894129791ee0d87eef5f743b5604a9812ec9f68dc06245e3f99c736990edb80",
    (40, 10_007, (1.0, 0.0, 0.0), 0): "b2516ec21491b031ac585d3185a63146013d7525b3e977e458a42740c5f277c8",
    (40, 10_007, (1.0, 0.0, 0.0), 2**64 - 1): "b2516ec21491b031ac585d3185a63146013d7525b3e977e458a42740c5f277c8",
    (40, 10_007, (0.01, 0.99, 0.25), 0): "51537c36c46a8a7f2bee5be92f8de659b1d824164e6080c63fe6ae308d42c708",
    (40, 10_007, (0.01, 0.99, 0.25), 2**64 - 1): "1af8feddfc9795ec51cf69a01d61571fef1f6241a5acdd44238a00ac55e0fb95",
}

def _digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def reference_simulate_counts(
    n: int, p01: float, p10: float, p1: float, trials: int, seed: int
) -> list[int]:
    """The simulator's specification: one trajectory, one draw at a time."""
    state = seed & _MASK
    counts = [0] * (n + 1)
    steps = n - 1
    for _ in range(trials):
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        u = ((z ^ (z >> 31)) >> 11) * _INV53
        s = 1 if u < p1 else 0
        visits = s
        for _ in range(steps):
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u = ((z ^ (z >> 31)) >> 11) * _INV53
            if s:
                s = 0 if u < p10 else 1
            else:
                s = 1 if u < p01 else 0
            visits += s
        counts[visits] += 1
    return counts


def _splitmix64_stream(seed: int, count: int) -> list[int]:
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + kernels._GAMMA) & mask
        z = ((state ^ (state >> 30)) * kernels._MIX1) & mask
        z = ((z ^ (z >> 27)) * kernels._MIX2) & mask
        out.append(z ^ (z >> 31))
    return out


# The first draw of seed 1234567 as a 53-bit integer, below 2**52, so that
# p = (X + 1/2) * 2**-53 is a double and p * 2**53 is not an integer.
X = 6457827717110365317 >> 11
AT_DRAW = X * _INV53  # u == p: not below
HALF_ABOVE_DRAW = (X + 0.5) * _INV53  # u < p only if the threshold rounds up
SEED_BEFORE = (1234567 - _GAMMA) & _MASK  # the same draw, as trajectory 0's step 1

PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53, 0.5, 0.3, AT_DRAW, HALF_ABOVE_DRAW]),
    st.floats(0.0, 1.0),
)
SEEDS = st.one_of(
    st.sampled_from([0, 2**64 - 1, 1234567, SEED_BEFORE]),
    st.integers(0, 2**64 - 1),
)


class TestPinnedGenerator:
    def test_reference_vector_seed_zero(self):
        assert _splitmix64_stream(0, 3) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_vector_seed_1234567(self):
        assert _splitmix64_stream(1234567, 3) == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_unit_mapping_stays_in_range(self):
        for v in _splitmix64_stream(99, 1000):
            u = (v >> 11) * _INV53
            assert 0.0 <= u < 1.0


class TestPurePython:
    def test_counts_sum_to_trials(self):
        counts = kernels.simulate_counts(6, 0.3, 0.4, 0.5, 5000, 11)
        assert sum(counts) == 5000 and len(counts) == 7

    def test_degenerate_chain_is_deterministic(self):
        counts = kernels.simulate_counts(5, 0.25, 0.0, 1.0, 300, 8)
        assert counts[-1] == 300

    def test_backend_name(self):
        assert kernels.backend_name() == "pure-python"


class TestMatchesReference:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        trials=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]),
        p01=PROBABILITIES,
        p10=PROBABILITIES,
        p1=PROBABILITIES,
        seed=SEEDS,
    )
    @example(n=1, trials=1, p01=0.3, p10=0.3, p1=HALF_ABOVE_DRAW, seed=1234567)
    @example(n=2, trials=1, p01=HALF_ABOVE_DRAW, p10=HALF_ABOVE_DRAW, p1=0.5, seed=SEED_BEFORE)
    @example(n=1, trials=1, p01=0.3, p10=0.3, p1=AT_DRAW, seed=1234567)
    @example(n=3, trials=B + 1, p01=5e-324, p10=1 - 2**-53, p1=1.0, seed=0)
    def test_histogram_equals_scalar_loop(self, n, trials, p01, p10, p1, seed):
        assert kernels.simulate_counts(n, p01, p10, p1, trials, seed) == (
            reference_simulate_counts(n, p01, p10, p1, trials, seed)
        )


class TestGoldenVectors:
    @pytest.mark.parametrize("chain,seed", list(SIMULATE_DIGESTS))
    def test_simulate_counts_match_frozen_digest(self, chain, seed):
        counts = kernels.simulate_counts(8, *chain, 10_000, seed)
        assert _digest(counts) == SIMULATE_DIGESTS[chain, seed]

    @pytest.mark.parametrize("n,trials,chain,seed", list(SIMULATE_EDGE_DIGESTS))
    def test_simulate_edge_cases_match_frozen_digest(self, n, trials, chain, seed):
        counts = kernels.simulate_counts(n, *chain, trials, seed)
        assert _digest(counts) == SIMULATE_EDGE_DIGESTS[n, trials, chain, seed]


FINE = [Fraction(i, 4) for i in range(5)]


def chain_weights(p01: Fraction, p10: Fraction, p1: Fraction) -> tuple[int, ...]:
    """(p0, p1, p00, p01, p10, p11) as integers, scaled as the oracle
    scales them: over w, d0 and d1, the denominators of p1, p01 and p10,
    the initial ones over w and each transition over d0*d1."""
    w, d0, d1 = p1.denominator, p01.denominator, p10.denominator
    return (
        w - p1.numerator, p1.numerator,
        (d0 - p01.numerator) * d1, p01.numerator * d1,
        p10.numerator * d0, (d1 - p10.numerator) * d0,
    )


def reference_visit_sums(n: int, p0, p1, p00, p01, p10, p11) -> list[int]:
    """Every one of the 2**n paths, one at a time, with its integer weight."""
    initial, rows = (p0, p1), ((p00, p01), (p10, p11))
    sums = [0] * (n + 1)
    for path in product((0, 1), repeat=n):
        weight = initial[path[0]]
        for a, b in zip(path, path[1:]):
            weight *= rows[a][b]
        sums[sum(path)] += weight
    return sums


class TestEnumeration:
    @pytest.mark.parametrize("p01,p10,p1", list(product(FINE, repeat=3)), ids=str)
    def test_fine_grid_equals_path_by_path_sums(self, p01, p10, p1):
        weights = chain_weights(p01, p10, p1)
        for n in range(1, 9):
            assert kernels.enumerate_visit_mass(n, *weights) == reference_visit_sums(n, *weights)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        weights=st.lists(
            st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**70)), min_size=6, max_size=6
        ),
    )
    def test_any_integer_weights_equal_path_by_path_sums(self, n, weights):
        """Zero weights (degenerate chains) and weights far past a double's
        53 bits alike."""
        assert kernels.enumerate_visit_mass(n, *weights) == reference_visit_sums(n, *weights)

    @pytest.mark.parametrize(
        "chain",
        [
            ("3/10", "2/5", "1/2"),
            ("13/97", "41/89", "29/83"),
            (0, 1, 1),
            (1, 0, 0),
            ("1/100", "99/100", "1/4"),
        ],
    )
    def test_sums_add_up_to_the_common_denominator(self, chain):
        """All paths together weigh w*(d0*d1)**(n-1): the masses sum to one."""
        p01, p10, p1 = map(Fraction, chain)
        weights = chain_weights(p01, p10, p1)
        for n in (1, 2, 10):
            denominator = p1.denominator * (p01.denominator * p10.denominator) ** (n - 1)
            assert sum(kernels.enumerate_visit_mass(n, *weights)) == denominator
