"""The kernels against frozen golden vectors, and the pinned generator
against its published reference outputs."""

import hashlib
import math

import pytest

from visitprob import kernels

CHAINS = [
    (0.3, 0.4, 0.5),
    (0.5, 0.5, 0.5),
    (0.0, 1.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.01, 0.99, 0.25),
]

# sha256 of repr(output), keyed by (chain, seed) for
# simulate_counts(8, *chain, 10_000, seed) and by (chain, n) for
# enumerate_visit_mass(n, *chain).  Any change to a draw, a comparison or
# the order of a float sum shows up here.
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

ENUMERATE_DIGESTS = {
    ((0.3, 0.4, 0.5), 1): "01a59a9c423ad34fa0803ec1af9a257e8994296ef8be2614855a3f9ad2de8568",
    ((0.3, 0.4, 0.5), 2): "9ec950cd01e810488bc7e5db61e65891a465079541808a1ca395af15c357cee7",
    ((0.3, 0.4, 0.5), 3): "96efa7ae768deebd6937873b5d6561296d39dd43f03934b9d29603e4187f7eba",
    ((0.3, 0.4, 0.5), 7): "eceae32d0b4196f980b7c9c03a709b8ec1e01de763cb49b820b910bb50c1b1dc",
    ((0.3, 0.4, 0.5), 12): "d416924059fb4ee977540000079265510a4fa0a2f3c7d6534fd9b900975e387a",
    ((0.5, 0.5, 0.5), 1): "01a59a9c423ad34fa0803ec1af9a257e8994296ef8be2614855a3f9ad2de8568",
    ((0.5, 0.5, 0.5), 2): "924da9c90692d7bb094c024c4faffb3b832e5944720e2f5b42c5830109862ee8",
    ((0.5, 0.5, 0.5), 3): "7dd2d46694cf4f97c7fe86e9c3c5ddab4b4defbdfcdc7e6f32d9399fca8197c2",
    ((0.5, 0.5, 0.5), 7): "e791de55244702ca82ac6d3ee0dacbb3e798343f692ebc00671c67f304685b40",
    ((0.5, 0.5, 0.5), 12): "78362cfcf89929fbbf706b8829168c120d50caa749ffe4d508138e326cbc921c",
    ((0.0, 1.0, 1.0), 1): "46f9d2fee9cdb34d4930469335847e1e05c2a93f5553f52787681936cf656605",
    ((0.0, 1.0, 1.0), 2): "8966c3d12f344d8024cf0c416ef63685c8463390bbdf3e6dddca4c8358baa752",
    ((0.0, 1.0, 1.0), 3): "613e8dba97eae924b9ee460c8bd1813e3f15b5a4bf9e0f11e81eef4c8f3c3b10",
    ((0.0, 1.0, 1.0), 7): "76c1ace4d4e14a800144dc9ee14dea40092920dfeeb3e5254b02a0b35fdedaab",
    ((0.0, 1.0, 1.0), 12): "fa4d6d23864f34617b6318e708674594e2be6436a922d594f1e1beac9af383b8",
    ((1.0, 0.0, 0.0), 1): "867904147b8f4f22f03863bb9be497a079acc7742292378ca59569c00e745d83",
    ((1.0, 0.0, 0.0), 2): "8966c3d12f344d8024cf0c416ef63685c8463390bbdf3e6dddca4c8358baa752",
    ((1.0, 0.0, 0.0), 3): "4a6a158178fd7308e04b11cf6cddad1345de2719221c1e1fd080851e269eda7c",
    ((1.0, 0.0, 0.0), 7): "7843bd4ceddbec1d615df410e801d785f6773c131bf07bcbc104d74871f0f614",
    ((1.0, 0.0, 0.0), 12): "1878ad80dc4cb89ad2fed7049e73b66e75b4b54b3a5ac7ddae57cabf8678c84e",
    ((0.01, 0.99, 0.25), 1): "97ee261cb4e41c4ecbad5d585fb98a25b2fa9e981c1bdc5c641f98b09a848834",
    ((0.01, 0.99, 0.25), 2): "15cbeeafae2626f10674bcbc0d84019918e38c1c09b198635dbd259a044da7b0",
    ((0.01, 0.99, 0.25), 3): "7bb32f30c38da68f844b97356c4675125480c8c828bad89b4d0eb40e87ced86b",
    ((0.01, 0.99, 0.25), 7): "ad41ba474dffba11c361db042edb782580d5f8bbc9ce8cd67cfb4ed7809ce59c",
    ((0.01, 0.99, 0.25), 12): "e9349bc40ff37045dadb20484ea6e3a363ea3cce330d15e9841a54fa2cc0fe8c",
}


def _digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


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
            u = (v >> 11) * kernels._INV53
            assert 0.0 <= u < 1.0


class TestPurePython:
    def test_counts_sum_to_trials(self):
        counts = kernels.simulate_counts(6, 0.3, 0.4, 0.5, 5000, 11)
        assert sum(counts) == 5000 and len(counts) == 7

    def test_enumeration_mass_sums_to_one(self):
        for p01, p10, p1 in CHAINS:
            mass = kernels.enumerate_visit_mass(10, p01, p10, p1)
            assert math.fsum(mass) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_chain_is_deterministic(self):
        counts = kernels.simulate_counts(5, 0.25, 0.0, 1.0, 300, 8)
        assert counts[-1] == 300

    def test_backend_name(self):
        assert kernels.backend_name() == "pure-python"


class TestGoldenVectors:
    @pytest.mark.parametrize("chain,seed", list(SIMULATE_DIGESTS))
    def test_simulate_counts_match_frozen_digest(self, chain, seed):
        counts = kernels.simulate_counts(8, *chain, 10_000, seed)
        assert _digest(counts) == SIMULATE_DIGESTS[chain, seed]

    @pytest.mark.parametrize("chain,n", list(ENUMERATE_DIGESTS))
    def test_enumerate_visit_mass_matches_frozen_digest(self, chain, n):
        mass = kernels.enumerate_visit_mass(n, *chain)
        assert _digest(mass) == ENUMERATE_DIGESTS[chain, n]
