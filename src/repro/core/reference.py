"""Literal-equation oracles for the Tender executor.

:class:`repro.core.executor.TenderExecutor` runs every matmul through the
Index-Buffer kernels of :mod:`repro.core.kernels`.  The code here follows the
paper's equations literally instead, and the parity tests pin the production
executor bit-identical to it:

* :class:`ReferenceTenderExecutor` — projections loop over row chunks and
  requantize each one with per-group gathered products
  (:func:`repro.core.requantization.requantized_matmul`); attention runs one
  masked full-width integer matmul per group over stacked heads, scanning the
  whole accumulator for 32-bit overflow after every group.
* :func:`loop_attention_matmul` — attention as one dynamic Tender matmul per
  (batch, head) pair, built from the scalar decomposition routines.

Only tests and benchmarks import this module; no module of the ``repro``
package does (a tier-1 test checks that boundary).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.calibration import TenderSiteParams
from repro.core.config import TenderConfig
from repro.core.decomposition import compute_channel_bias, decompose_channels, quantize_decomposed
from repro.core.executor import TenderExecutor
from repro.core.requantization import _ACC_MAX, _ACC_MIN, requantized_matmul
from repro.errors import QuantizationError
from repro.quant.granularity import Granularity, compute_scale
from repro.quant.quantize import quantize_symmetric


class ReferenceTenderExecutor(TenderExecutor):
    """:class:`TenderExecutor` with every matmul computed from the equations.

    Same constructor, calibration lookup and quantization semantics as the
    production executor; only the two matmul kernels differ, and both are
    bit-identical to it.
    """

    def __init__(
        self,
        site_params: Dict[str, TenderSiteParams],
        config: Optional[TenderConfig] = None,
        implicit: bool = True,
    ) -> None:
        super().__init__(site_params, config, implicit)
        self._bias_projection_cache: Dict[str, List[np.ndarray]] = {}

    def _bias_projection(self, name: str, weight: np.ndarray) -> List[np.ndarray]:
        """Pre-computed ``bias @ W`` per chunk (added back after the int matmul)."""
        if name not in self._bias_projection_cache:
            params = self.site_params[name]
            self._bias_projection_cache[name] = [chunk.bias @ weight for chunk in params.chunks]
        return self._bias_projection_cache[name]

    def _project_quantized(self, name, params, x, row_chunk, q_weight, w_scale, weight):
        """Per-chunk loop of gathered-group requantized matmuls."""
        bias_projections = self._bias_projection(name, weight)
        output = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in self._iter_chunk_rows(row_chunk):
            chunk_params = params.chunk(chunk_index)
            chunk_x = x[row_indices]
            if self.config.subtract_bias:
                chunk_x = chunk_x - chunk_params.bias
            quantized, _ = quantize_decomposed(chunk_x, chunk_params.decomposition)
            result = requantized_matmul(
                quantized,
                chunk_params.decomposition,
                q_weight,
                w_scale,
                implicit=self.implicit,
            )
            if self.config.subtract_bias:
                compensation_index = min(chunk_index, len(bias_projections) - 1)
                result = result + bias_projections[compensation_index]
            output[row_indices] = result
        return output

    def _attention_quantized(self, a, b):
        """Batched dynamic Tender matmul over all (batch, head) pairs at once.

        Bit-identical to :func:`loop_attention_matmul`: every floating-point
        operation is elementwise (hence order-independent) and the integer
        group partial sums are exact.  Per-group channel gathers are replaced
        by masked full-width integer matmuls, which keeps a single kernel
        shape across heads even though each head has its own
        channel-to-group assignment.
        """
        quantized, group_index, group_scales, right_q, right_scale, bias = (
            self._quantize_attention_operands(a, b)
        )
        if self.implicit:
            result = self._implicit_grouped_matmul(
                quantized, group_index, group_scales, right_q, right_scale
            )
        else:
            result = self._explicit_grouped_matmul(
                quantized, group_index, group_scales, right_q, right_scale
            )
        if bias is not None:
            result = result + bias[..., None, :] @ b
        return result

    def _explicit_grouped_matmul(self, quantized, group_index, group_scales, right_q, right_scale):
        """Equation 1 over stacked heads: dequantize and accumulate each group."""
        quantized = quantized.astype(np.int64, copy=False)
        right_q = right_q.astype(np.int64, copy=False)
        lead_mn = quantized.shape[:-1] + (right_q.shape[-1],)
        result = np.zeros(lead_mn, dtype=np.float64)
        for group in range(self.config.num_groups):
            mask = group_index == group
            if not mask.any():
                continue
            partial = (quantized * mask[..., None, :]) @ right_q
            if partial.max(initial=0) > _ACC_MAX or partial.min(initial=0) < _ACC_MIN:
                raise QuantizationError(
                    "integer matmul overflowed the 32-bit accumulator; reduce the "
                    "reduction length or the operand bit widths"
                )
            group_scale = group_scales[..., group][..., None, None]
            result = result + partial.astype(np.float64) * group_scale * right_scale
        return result


def dynamic_tender_matmul(
    left: np.ndarray, right: np.ndarray, config: TenderConfig, implicit: bool = True
) -> np.ndarray:
    """Tender quantization of one head's activation-activation product.

    ``left`` plays the role of the decomposed activation (its columns are
    the reduction channels); ``right`` is quantized per output column like
    a weight.  Decomposition is dynamic because both operands only exist
    at runtime; the paper notes the same algorithm applies to
    activation-activation matmuls (Section III-A).
    """
    channel_max = left.max(axis=0)
    channel_min = left.min(axis=0)
    if config.subtract_bias:
        bias = compute_channel_bias(channel_max, channel_min)
        shifted = left - bias
        absmax = (channel_max - channel_min) / 2.0
    else:
        bias = None
        shifted = left
        absmax = np.maximum(np.abs(channel_max), np.abs(channel_min))
    decomposition = decompose_channels(
        absmax, num_groups=config.num_groups, bits=config.bits, alpha=config.alpha
    )
    quantized, _ = quantize_decomposed(shifted, decomposition)
    right_scale = compute_scale(right, config.bits, Granularity.PER_COLUMN)
    right_q = quantize_symmetric(right, right_scale, config.bits)
    result = requantized_matmul(quantized, decomposition, right_q, right_scale, implicit=implicit)
    if bias is not None:
        result = result + bias @ right
    return result


def loop_attention_matmul(
    a: np.ndarray, b: np.ndarray, config: TenderConfig, implicit: bool = True
) -> np.ndarray:
    """Quantized ``a @ b`` as one :func:`dynamic_tender_matmul` per (batch, head)."""
    batch, heads = a.shape[0], a.shape[1]
    output = np.empty(a.shape[:-1] + (b.shape[-1],), dtype=np.float64)
    for batch_index in range(batch):
        for head_index in range(heads):
            output[batch_index, head_index] = dynamic_tender_matmul(
                a[batch_index, head_index], b[batch_index, head_index], config, implicit
            )
    return output
