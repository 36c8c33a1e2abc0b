"""Tests for the sampler building blocks."""

import numpy as np
import pytest

from repro.datasets import parts
from repro.ipv6.eui64 import (
    U_BIT,
    decode_ipv4_decimal_words,
    is_eui64_iid,
)


@pytest.fixture
def gen():
    return np.random.default_rng(7)


def draw(sampler, gen, n=200, context=None):
    return [sampler(gen, {} if context is None else dict(context)) for _ in range(n)]


class TestBasicSamplers:
    def test_constant(self, gen):
        assert set(draw(parts.constant(42), gen)) == {42}

    def test_uniform_bounds(self, gen):
        values = draw(parts.uniform(2), gen, 500)
        assert all(0 <= v < 256 for v in values)
        assert len(set(values)) > 100

    def test_uniform_full_64_bits(self, gen):
        values = draw(parts.uniform(16), gen, 50)
        assert all(0 <= v < (1 << 64) for v in values)
        assert max(values) > 1 << 60  # top bits actually vary

    def test_uniform_range_inclusive(self, gen):
        values = draw(parts.uniform_range(5, 7), gen, 300)
        assert set(values) == {5, 6, 7}

    def test_uniform_range_validation(self):
        with pytest.raises(ValueError):
            parts.uniform_range(7, 5)

    def test_weighted_distribution(self, gen):
        sampler = parts.weighted([1, 2], [0.9, 0.1])
        values = draw(sampler, gen, 2000)
        assert values.count(1) > 1500

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            parts.weighted([1], [0.5, 0.5])

    @pytest.mark.parametrize(
        "weights", [[1.0, -1.0], [0.0, 0.0], [float("nan"), 1.0]]
    )
    def test_bad_weights_rejected_at_construction(self, weights):
        with pytest.raises(ValueError):
            parts.weighted([1, 2], weights)
        with pytest.raises(ValueError):
            parts.mixture([(w, parts.constant(0)) for w in weights])

    def test_pool_is_deterministic(self, gen):
        a = parts.pool(10, 4, seed=3)
        b = parts.pool(10, 4, seed=3)
        assert set(draw(a, np.random.default_rng(0), 500)) == set(
            draw(b, np.random.default_rng(1), 500)
        )

    def test_pool_respects_bounds(self, gen):
        values = draw(parts.pool(50, 4, seed=1, low=0x10, high=0x20), gen)
        assert all(0x10 <= v <= 0x20 for v in values)

    def test_zipf_pool_heavy_hitters(self, gen):
        sampler = parts.zipf_pool(100, 4, seed=2, exponent=2.0)
        values = draw(sampler, gen, 2000)
        top_share = max(values.count(v) for v in set(values)) / len(values)
        assert top_share > 0.3

    def test_sequential_low_mostly_small(self, gen):
        values = draw(parts.sequential_low(1 << 20), gen, 2000)
        assert all(0 <= v < (1 << 20) for v in values)
        small = sum(1 for v in values if v < 256)
        assert small > 1000


class TestVariants:
    def test_select_stores_tag(self, gen):
        sampler = parts.select("k", [(1.0, "only", parts.constant(5))])
        context = {}
        assert sampler(gen, context) == 5
        assert context["k"] == "only"

    def test_switch_dispatches(self, gen):
        sampler = parts.switch("k", {"a": parts.constant(1),
                                     "b": parts.constant(2)})
        assert sampler(gen, {"k": "a"}) == 1
        assert sampler(gen, {"k": "b"}) == 2

    def test_switch_missing_tag(self, gen):
        with pytest.raises(KeyError):
            parts.switch("k", {"a": parts.constant(1)})(gen, {})

    def test_select_switch_correlation(self, gen):
        select = parts.select("k", [
            (0.5, "x", parts.constant(1)),
            (0.5, "y", parts.constant(2)),
        ])
        follow = parts.switch("k", {"x": parts.constant(10),
                                    "y": parts.constant(20)})
        for _ in range(100):
            context = {}
            first = select(gen, context)
            second = follow(gen, context)
            assert (first, second) in {(1, 10), (2, 20)}

    def test_mixture_weights(self, gen):
        sampler = parts.mixture([(0.95, parts.constant(1)),
                                 (0.05, parts.constant(2))])
        values = draw(sampler, gen, 1000)
        assert values.count(1) > 850

    def test_copy_field(self, gen):
        assert parts.copy_field("a")(gen, {"a": 9}) == 9


class TestIidSamplers:
    def test_privacy_iid_u_bit_cleared(self, gen):
        values = draw(parts.privacy_iid(), gen, 300)
        assert all(0 <= v < (1 << 64) for v in values)
        assert all(not (v & U_BIT) for v in values)
        assert len(set(values)) == 300  # effectively unique

    def test_eui64_iid_has_filler(self, gen):
        values = draw(parts.eui64_iid(seed=5), gen, 200)
        assert all(is_eui64_iid(v) for v in values)
        # u-bit set (universal) after the EUI-64 flip of vendor MACs.
        assert all(v & U_BIT for v in values)

    def test_eui64_custom_oui_pool(self, gen):
        values = draw(parts.eui64_iid(oui_pool=[0x001122]), gen, 50)
        assert all((v >> 40) == (0x001122 ^ 0x020000) for v in values)

    def test_point_to_point_iid(self, gen):
        values = draw(parts.point_to_point_iid((1, 2), (0.5, 0.5)), gen, 300)
        assert set(values) == {1, 2}

    def test_ipv4_decimal_words_decodable(self, gen):
        sampler = parts.ipv4_decimal_words_iid((10,), second_max=0,
                                               third_max=31)
        for value in draw(sampler, gen, 200):
            text = decode_ipv4_decimal_words(value)
            assert text is not None
            octets = [int(o) for o in text.split(".")]
            assert octets[0] == 10
            assert octets[1] == 0
            assert octets[2] <= 31

    def test_ipv4_hex_low32_bounds(self, gen):
        values = draw(parts.ipv4_hex_low32(), gen, 100)
        assert all(0 <= v < (1 << 32) for v in values)
