"""Bit-exactness sweep: the production Tender executor vs the oracles.

``TenderExecutor`` runs the Index-Buffer kernels of ``repro.core.kernels``.
It must match the literal-equation oracles of ``repro.core.reference`` —
``ReferenceTenderExecutor`` (per-chunk projection loop, masked stacked-head
attention) and ``loop_attention_matmul`` (one dynamic Tender matmul per
batch and head) — *exactly* (``np.array_equal``, not allclose) across
requantization modes, bias subtraction, ragged decode positions, empty
groups, and degenerate inputs, and must raise the same ``QuantizationError``
on 32-bit accumulator overflow.  These tests pin the guarantee that making
the software mirror the hardware dataflow changes performance only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderExecutor, pack_site_params
from repro.core.calibration import _ChunkedStatistics
from repro.core.reference import ReferenceTenderExecutor, loop_attention_matmul
from repro.errors import QuantizationError

CHANNELS, OUT = 48, 24


def calibrated_site(rng, config, channels=CHANNELS, chunks=5, outliers=True):
    """Site params calibrated from synthetic statistics (several row chunks)."""
    calibration = rng.normal(size=(chunks * config.row_chunk_size, channels))
    if outliers:
        calibration[:, 3] *= 50.0
        calibration[:, 11] *= 9.0
        calibration[:, 29] *= 3.0
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}


def make_pair(rng, implicit=True, **config_kwargs):
    """(production, reference) executors sharing one calibrated site."""
    defaults = dict(bits=8, num_groups=8, row_chunk_size=16, quantize_attention=True)
    defaults.update(config_kwargs)
    config = TenderConfig(**defaults)
    params = calibrated_site(rng, config)
    fast = TenderExecutor(params, config, implicit=implicit)
    reference = ReferenceTenderExecutor(params, config, implicit=implicit)
    return fast, reference, config


class TestProjectionBitExact:
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_full_sequence(self, rng, implicit, subtract_bias, alpha):
        fast, reference, _ = make_pair(rng, implicit, subtract_bias=subtract_bias, alpha=alpha)
        weight = rng.normal(size=(CHANNELS, OUT))
        layer_bias = rng.normal(size=OUT)
        x = rng.normal(size=(40, CHANNELS))
        x[:, 3] *= 40.0
        assert np.array_equal(
            fast.project("site", x, weight, layer_bias),
            reference.project("site", x, weight, layer_bias),
        )

    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_ragged_decode_positions(self, rng, implicit, subtract_bias):
        """Batched decode rows at scattered, duplicated, and out-of-range positions."""
        fast, reference, _ = make_pair(rng, implicit, subtract_bias=subtract_bias)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(9, CHANNELS))
        # Positions span several chunks, repeat, arrive unsorted, and reach
        # beyond the calibrated range (which must reuse the last chunk).
        positions = np.array([90, 0, 17, 31, 33, 5, 64, 200, 17])
        assert np.array_equal(
            fast.project("site", x, weight, None, positions=positions),
            reference.project("site", x, weight, None, positions=positions),
        )

    @pytest.mark.parametrize("implicit", [True, False])
    def test_lowbit_and_few_groups(self, rng, implicit):
        fast, reference, _ = make_pair(rng, implicit, bits=4, num_groups=3)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(20, CHANNELS))
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )

    def test_single_group_degenerates_to_plain_int_matmul(self, rng):
        fast, reference, _ = make_pair(rng, implicit=True, num_groups=1)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(8, CHANNELS))
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )

    @pytest.mark.parametrize("implicit", [True, False])
    def test_empty_groups_from_outlier_gap(self, rng, implicit):
        """A huge outlier pushes all other channels past several empty groups."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16, quantize_attention=True)
        calibration = rng.normal(size=(32, CHANNELS))
        calibration[:, 0] *= 500.0  # groups 1..5 end up empty
        statistics = _ChunkedStatistics(16)
        statistics.update(calibration)
        params = {"site": statistics.finalize("site", config)}
        fast = TenderExecutor(params, config, implicit=implicit)
        reference = ReferenceTenderExecutor(params, config, implicit=implicit)
        decomposition = params["site"].chunks[0].decomposition
        assert (decomposition.group_sizes == 0).any(), "fixture should produce empty groups"
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(12, CHANNELS))
        x[:, 0] *= 400.0
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )


def overflow_site(channels, config):
    """Calibration whose quantized activations can saturate the accumulator."""
    calibration = np.ones((config.row_chunk_size, channels)) * 10.0
    calibration[::2] *= -1.0  # symmetric range: zero bias, absmax 10 everywhere
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}


EXECUTORS = (TenderExecutor, ReferenceTenderExecutor)


class TestOverflowGuard:
    def test_implicit_overflow_raises_on_both_paths(self):
        """Rescaled accumulation past 2^31 must still raise on the fast path."""
        channels = 1100  # qmax^2 * channels * alpha^(G-1) > 2^31
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = overflow_site(channels, config)
        weight = np.ones((channels, 3))
        x = np.ones((2, channels)) * 10.0
        for executor_class in EXECUTORS:
            executor = executor_class(params, config, implicit=True)
            with pytest.raises(QuantizationError, match="implicit requantization overflowed"):
                executor.project("site", x, weight, None)

    def test_explicit_overflow_raises_on_both_paths(self):
        channels = 140_000  # qmax^2 * channels > 2^31 in a single group
        config = TenderConfig(bits=8, num_groups=4, row_chunk_size=16)
        params = overflow_site(channels, config)
        weight = np.ones((channels, 2))
        x = np.ones((1, channels)) * 10.0
        for executor_class in EXECUTORS:
            executor = executor_class(params, config, implicit=False)
            with pytest.raises(QuantizationError, match="integer matmul overflowed"):
                executor.project("site", x, weight, None)

    def test_fallback_path_is_bit_identical_when_bound_exceeds(self, rng):
        """Bound can overflow but the data does not: fast falls back, stays exact."""
        channels = 1100
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = overflow_site(channels, config)
        packed = params["site"].packed()
        assert packed.implicit_bounds.max() > 2**31 - 1, "fixture must trip the bound"
        weight = np.ones((channels, 3))
        x = rng.normal(size=(4, channels)) * 0.01
        outputs = [
            executor_class(params, config, implicit=True).project("site", x, weight, None)
            for executor_class in EXECUTORS
        ]
        assert np.array_equal(outputs[0], outputs[1])

    def test_attention_overflow_parity(self):
        """Stacked implicit attention saturating 2^31 raises on every path."""
        channels = 1100
        config = TenderConfig(
            bits=8, num_groups=8, quantize_attention=True, subtract_bias=False
        )
        a = np.ones((1, 1, 2, channels)) * 10.0
        b = np.ones((1, 1, channels, 3))
        for attention in attention_paths(config):
            with pytest.raises(QuantizationError, match="implicit requantization overflowed"):
                attention(a, b)


def attention_paths(config, implicit=True):
    """Production, masked-oracle and loop-oracle attention as ``f(a, b)``."""
    return (
        lambda a, b: TenderExecutor({}, config, implicit).attention_matmul("qk", a, b),
        lambda a, b: ReferenceTenderExecutor({}, config, implicit).attention_matmul("qk", a, b),
        lambda a, b: loop_attention_matmul(a, b, config, implicit),
    )


def attention_operands(rng, batch=3, heads=4, rows=7, channels=16, out=9, outlier=50.0):
    a = rng.normal(size=(batch, heads, rows, channels))
    a[..., 1] *= outlier
    b = rng.normal(size=(batch, heads, channels, out))
    return a, b


def assert_attention_matches_loop(config, a, b, implicit=True):
    """Production and masked-oracle attention each equal the loop oracle."""
    production, masked, loop = attention_paths(config, implicit)
    expected = loop(a, b)
    assert np.array_equal(production(a, b), expected)
    assert np.array_equal(masked(a, b), expected)


class TestAttentionBitExact:
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_fast_equals_loop_and_vectorized(self, rng, implicit, alpha, bits, subtract_bias):
        config = TenderConfig(
            bits=bits, num_groups=6, alpha=alpha, subtract_bias=subtract_bias,
            quantize_attention=True,
        )
        a, b = attention_operands(rng)
        assert_attention_matches_loop(config, a, b, implicit)

    def test_decode_shape_single_row_queries(self, rng):
        config = TenderConfig(bits=8, num_groups=8, quantize_attention=True)
        a, b = attention_operands(rng, batch=8, heads=4, rows=1, channels=16, out=40)
        assert_attention_matches_loop(config, a, b)

    def test_degenerate_all_zero_head(self, rng):
        config = TenderConfig(bits=8, num_groups=4, quantize_attention=True)
        a, b = attention_operands(rng, batch=2, heads=2, rows=5, channels=8, out=3)
        a[0, 1] = 0.0  # one head is entirely zero -> degenerate decomposition
        assert_attention_matches_loop(config, a, b)

    def test_heads_with_different_group_assignments(self, rng):
        """Each head gets its own channel-to-group map; masking must respect it."""
        config = TenderConfig(bits=8, num_groups=8, quantize_attention=True)
        a, b = attention_operands(rng, batch=2, heads=3, rows=6, channels=12)
        a[0, 0, :, 2] *= 400.0   # head (0,0): extreme outlier -> empty middle groups
        a[1, 2] *= 0.01          # head (1,2): uniformly tiny values
        assert_attention_matches_loop(config, a, b)


class TestPackedTables:
    def test_packed_tables_are_consistent_with_decompositions(self, rng):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = calibrated_site(rng, config)["site"]
        packed = pack_site_params(params.chunks)
        assert packed.num_chunks == len(params.chunks)
        # Scalar metadata comes from the decompositions, not the executor config.
        assert packed.qmax == 127
        assert packed.alpha == config.alpha
        assert packed.num_groups == config.num_groups
        for index, chunk in enumerate(params.chunks):
            decomposition = chunk.decomposition
            assert np.array_equal(packed.channel_order[index], decomposition.channel_order)
            assert np.array_equal(packed.group_sizes[index], decomposition.group_sizes)
            assert np.array_equal(packed.group_scales[index], decomposition.group_scales)
            assert np.array_equal(packed.channel_scales[index], decomposition.channel_scales())
            assert packed.final_scales[index] == decomposition.group_scales[-1]
            # Rescale weights are alpha^(G-1-g) per channel, straight from
            # the chunk's own decomposition metadata.
            expected = np.power(
                float(decomposition.alpha),
                decomposition.num_groups - 1 - decomposition.group_of_channel,
            )
            assert np.array_equal(packed.alpha_weights[index], expected)

    def test_packed_is_cached_on_site_params(self, rng):
        config = TenderConfig(bits=8, num_groups=4, row_chunk_size=16)
        params = calibrated_site(rng, config)["site"]
        assert params.packed() is params.packed()
