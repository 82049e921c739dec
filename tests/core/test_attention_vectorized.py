"""Regression: the batched Tender attention oracle vs the reference loop.

``ReferenceTenderExecutor`` computes attention as one masked full-width
integer matmul per group over all (batch, head) pairs at once;
``loop_attention_matmul`` runs one dynamic Tender matmul per (batch, head)
pair.  The two oracles must agree bit for bit (``np.array_equal``, not
allclose) across requantization modes, alphas, bit widths, and degenerate
inputs, and must raise alike on 32-bit accumulator overflow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TenderConfig
from repro.core.executor import TenderExecutor
from repro.core.reference import ReferenceTenderExecutor, loop_attention_matmul
from repro.errors import QuantizationError


def make_config(**config_kwargs) -> TenderConfig:
    defaults = dict(bits=8, num_groups=6, quantize_attention=True)
    defaults.update(config_kwargs)
    return TenderConfig(**defaults)


def batched(config, a, b, implicit=True):
    return ReferenceTenderExecutor({}, config, implicit=implicit).attention_matmul("qk", a, b)


def attention_operands(rng, batch=3, heads=4, rows=7, channels=16, out=9, outlier=50.0):
    a = rng.normal(size=(batch, heads, rows, channels))
    a[..., 1] *= outlier
    b = rng.normal(size=(batch, heads, channels, out))
    return a, b


class TestBitForBit:
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_vectorized_equals_loop(self, rng, implicit, alpha, bits, subtract_bias):
        config = make_config(alpha=alpha, bits=bits, subtract_bias=subtract_bias)
        a, b = attention_operands(rng)
        assert np.array_equal(
            loop_attention_matmul(a, b, config, implicit), batched(config, a, b, implicit)
        )

    def test_decode_shape_single_row_queries(self, rng):
        config = make_config()
        a, b = attention_operands(rng, batch=8, heads=4, rows=1, channels=16, out=40)
        assert np.array_equal(loop_attention_matmul(a, b, config), batched(config, a, b))

    def test_degenerate_all_zero_head(self, rng):
        config = make_config(num_groups=4)
        a, b = attention_operands(rng, batch=2, heads=2, rows=5, channels=8, out=3)
        a[0, 1] = 0.0  # one head is entirely zero -> degenerate decomposition
        assert np.array_equal(loop_attention_matmul(a, b, config), batched(config, a, b))

    def test_heads_with_different_group_assignments(self, rng):
        """Each head gets its own channel-to-group map; masking must respect it."""
        config = make_config(num_groups=8)
        a, b = attention_operands(rng, batch=2, heads=3, rows=6, channels=12)
        a[0, 0, :, 2] *= 400.0   # head (0,0): extreme outlier -> empty middle groups
        a[1, 2] *= 0.01          # head (1,2): uniformly tiny values
        assert np.array_equal(loop_attention_matmul(a, b, config), batched(config, a, b))


class TestDispatchAndStats:
    def test_attention_matmul_dispatches_to_vectorized(self, rng):
        """Production ``attention_matmul`` equals the batched oracle it replaced."""
        config = make_config()
        a, b = attention_operands(rng)
        assert np.array_equal(
            TenderExecutor({}, config).attention_matmul("qk", a, b), batched(config, a, b)
        )

    def test_unquantized_attention_untouched(self, rng):
        config = make_config(quantize_attention=False)
        a, b = attention_operands(rng)
        for executor_class in (TenderExecutor, ReferenceTenderExecutor):
            np.testing.assert_array_equal(
                executor_class({}, config).attention_matmul("qk", a, b), a @ b
            )


class TestOverflow:
    # Constant rows keep the decomposition deterministic, so bias subtraction
    # must be off (the midpoint shift would otherwise zero the tensor).  The
    # enormous channel-0 outlier leaves ~19 empty groups between the outlier
    # and normal groups; the rescale at each boundary overflows INT32.
    @staticmethod
    def overflow_operands():
        a = np.full((1, 1, 2, 4), 1000.0)
        a[..., 0] = 1e9
        b = np.full((1, 1, 4, 2), 1000.0)
        return a, b

    def test_vectorized_implicit_overflow_raises(self):
        config = make_config(num_groups=40, subtract_bias=False)
        a, b = self.overflow_operands()
        with pytest.raises(QuantizationError):
            batched(config, a, b)

    def test_loop_and_vectorized_raise_alike(self):
        config = make_config(num_groups=40, subtract_bias=False)
        a, b = self.overflow_operands()
        paths = (
            lambda: loop_attention_matmul(a, b, config),
            lambda: batched(config, a, b),
            lambda: TenderExecutor({}, config).attention_matmul("qk", a, b),
        )
        for attention in paths:
            with pytest.raises(QuantizationError):
                attention()
