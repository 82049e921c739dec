"""The Tender matmul executor: decomposed quantization at every matmul site.

This is the software realisation of Figure 4's computation flow:

1. subtract the calibrated per-channel bias,
2. quantize each channel with its group's scale factor (static, calibrated
   decomposition; groups are powers of ``alpha`` apart),
3. multiply with the per-column-quantized weight using either implicit
   (shift-accumulate, Equation 2) or explicit (per-group FP accumulate,
   Equation 1) requantization,
4. add back the bias contribution ``bias @ W`` and the layer bias.

Activation-activation matmuls (``X_Q X_K^T`` and ``X_S X_V``) are quantized
only when the configuration enables them ("Tender (all)" in Tables II/III and
all BERT results in Table IV); they use dynamic per-head decomposition since
their operands are produced at runtime.

Every matmul site has one implementation, built on :mod:`repro.core.kernels`
and mirroring the accelerator's Index-Buffer dataflow: packed per-chunk
calibration tables, group-contiguous or fused integer matmuls, analytic
overflow bounds.  The literal equations (per-chunk Python loop, per-group
gathered or masked products, full-array accumulator overflow scans) live in
:mod:`repro.core.reference`, which only the parity tests and benchmarks
import; this module is pinned bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.calibration import TenderSiteParams, calibrate_tender
from repro.core.config import TenderConfig
from repro.core.decomposition import compute_channel_bias
from repro.core.kernels import (
    fused_implicit_matmul,
    ordered_explicit_matmul,
    ordered_implicit_matmul,
    stacked_explicit_matmul,
    stacked_implicit_bound,
    stacked_implicit_matmul,
)
from repro.core.requantization import _ACC_MAX, _ACC_MIN
from repro.errors import CalibrationError, QuantizationError
from repro.models.inference import TransformerRunner
from repro.models.weights import ModelWeights
from repro.quant.granularity import Granularity, compute_scale, integer_range
from repro.quant.quantize import quantize_symmetric


class TenderExecutor:
    """Matmul executor implementing Tender's decomposed quantization."""

    #: The inference engine passes per-row token positions when this is set,
    #: so the row-chunk lookup stays consistent between full-sequence forwards
    #: and the incremental (KV-cached) decode path.
    uses_positions = True

    def __init__(
        self,
        site_params: Dict[str, TenderSiteParams],
        config: Optional[TenderConfig] = None,
        implicit: bool = True,
    ) -> None:
        self.site_params = site_params
        self.config = config or TenderConfig()
        #: Whether to use implicit (shift-accumulate) or explicit requantization.
        self.implicit = implicit
        self._weight_cache: Dict[str, tuple] = {}
        self._weight64_cache: Dict[str, np.ndarray] = {}
        self._permuted_weight_cache: Dict[tuple, np.ndarray] = {}
        self._bias_projection_stack_cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Weight handling
    # ------------------------------------------------------------------
    def _quantized_weight(self, name: str, weight: np.ndarray):
        """Per-column symmetric weight quantization, cached per site."""
        if name not in self._weight_cache:
            scale = compute_scale(weight, self.config.bits, Granularity.PER_COLUMN)
            values = quantize_symmetric(weight, scale, self.config.bits)
            self._weight_cache[name] = (values, scale)
        return self._weight_cache[name]

    def _bias_projection_stack(self, name: str, weight: np.ndarray) -> np.ndarray:
        """The per-chunk ``bias @ W`` compensations as one (chunks, out) table.

        Each row is its chunk's own 1-D ``bias @ W`` product (the same BLAS
        call the reference makes per chunk, hence bit-identical values), so
        every row's compensation is gathered by chunk index.
        """
        if name not in self._bias_projection_stack_cache:
            chunks = self.site_params[name].chunks
            self._bias_projection_stack_cache[name] = np.stack(
                [chunk.bias @ weight for chunk in chunks]
            )
        return self._bias_projection_stack_cache[name]

    def _weight_f64(self, name: str, quantized_weight: np.ndarray) -> np.ndarray:
        """The quantized weight as integer-valued float64, cached per site.

        The fast kernels carry exact integers in float64 so their matmuls
        dispatch to BLAS (see the dtype note in :mod:`repro.core.kernels`).
        """
        cached = self._weight64_cache.get(name)
        if cached is None:
            cached = self._weight64_cache[name] = quantized_weight.astype(np.float64)
        return cached

    def _permuted_weight(self, name: str, chunk_index: int, quantized_weight, packed) -> np.ndarray:
        """Weight rows in a chunk's Index-Buffer order, cached per (site, chunk).

        The literal equations re-gather ``G`` row subsets of the weight on
        every call; the hardware instead streams the weight through the
        systolic array already sorted by the Index Buffer.  Caching the
        permuted weight makes every group a contiguous row slice.
        """
        key = (name, chunk_index)
        cached = self._permuted_weight_cache.get(key)
        if cached is None:
            order = packed.channel_order[chunk_index]
            cached = self._permuted_weight_cache[key] = self._weight_f64(name, quantized_weight)[order]
        return cached

    # ------------------------------------------------------------------
    # Projection path (activation x weight)
    # ------------------------------------------------------------------
    def project(self, name, x, weight, bias, positions=None):
        """Decomposed-quantized ``x @ weight + bias``.

        ``positions`` (optional) gives the token position of each row of ``x``;
        row-chunk calibration parameters are then looked up by position rather
        than by flat row index.  Full-sequence forwards of a single sequence
        are unaffected (row index == position); the incremental decode path
        relies on this so a token's quantization parameters do not depend on
        how its request was batched.
        """
        if name not in self.site_params:
            raise CalibrationError(f"no Tender calibration for matmul site {name!r}")
        params = self.site_params[name]
        q_weight, w_scale = self._quantized_weight(name, weight)

        rows = x.shape[0]
        chunk_size = self.config.row_chunk_size
        if positions is None:
            row_chunk = np.arange(rows, dtype=np.int64) // chunk_size
        else:
            row_chunk = np.asarray(positions, dtype=np.int64).reshape(-1) // chunk_size
            if row_chunk.shape[0] != rows:
                raise CalibrationError(
                    f"positions has {row_chunk.shape[0]} entries for {rows} activation rows"
                )
        output = self._project_quantized(name, params, x, row_chunk, q_weight, w_scale, weight)
        if bias is not None:
            output = output + bias
        return output

    @staticmethod
    def _iter_chunk_rows(row_chunk: np.ndarray):
        """Yield ``(chunk_index, row_indices)`` from one stable argsort pass.

        Replaces the former O(chunks x rows) pattern of rescanning every row
        with ``np.nonzero(row_chunk == chunk)`` per chunk; the stable sort
        keeps each chunk's row indices ascending, exactly as ``nonzero``
        produced them.
        """
        order = np.argsort(row_chunk, kind="stable")
        unique_chunks, first = np.unique(row_chunk[order], return_index=True)
        boundaries = np.append(first, row_chunk.size)
        for position, chunk_index in enumerate(unique_chunks):
            yield int(chunk_index), order[boundaries[position] : boundaries[position + 1]]

    def _project_quantized(self, name, params, x, row_chunk, q_weight, w_scale, weight):
        """Index-Buffer projection: gather, quantize, fused/grouped matmul.

        Every row's calibration metadata (bias, per-channel scales, rescale
        weights) is gathered from the packed tables by chunk index in one
        shot, and quantization runs over the whole batch at once.  The
        implicit path then needs no Python loop at all: when the analytic
        overflow bound fits the 32-bit accumulator (the common case), the
        alpha-weighted fused matmul produces the final accumulator directly.
        Otherwise — and for the explicit path, whose per-group FP accumulate
        is inherently ordered — rows are grouped by chunk with a single
        argsort pass and each chunk runs the group-contiguous ordered kernel
        against its cached Index-Buffer-permuted weight.
        """
        packed = params.packed()
        chunk_idx = np.minimum(row_chunk, packed.num_chunks - 1)
        if self.config.subtract_bias:
            shifted = x - packed.bias[chunk_idx]
        else:
            shifted = x
        # Integer-valued float64 (exact — see the dtype note in kernels.py),
        # so every downstream multiply runs on BLAS.
        quantized = np.clip(
            np.round(shifted / packed.channel_scales[chunk_idx]), -packed.qmax, packed.qmax
        )
        if self.implicit and packed.implicit_bounds[chunk_idx].max(initial=0.0) <= _ACC_MAX:
            result = fused_implicit_matmul(
                quantized,
                packed.alpha_weights[chunk_idx],
                packed.final_scales[chunk_idx],
                self._weight_f64(name, q_weight),
                w_scale,
            )
        else:
            result = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
            for chunk_index, row_indices in self._iter_chunk_rows(chunk_idx):
                ordered = quantized[np.ix_(row_indices, packed.channel_order[chunk_index])]
                ordered_weight = self._permuted_weight(name, chunk_index, q_weight, packed)
                if self.implicit:
                    result[row_indices] = ordered_implicit_matmul(
                        ordered,
                        ordered_weight,
                        packed.group_sizes[chunk_index],
                        packed.final_scales[chunk_index],
                        w_scale,
                        packed.alpha,
                        scan_overflow=bool(packed.implicit_bounds[chunk_index] > _ACC_MAX),
                    )
                else:
                    result[row_indices] = ordered_explicit_matmul(
                        ordered,
                        ordered_weight,
                        packed.group_sizes[chunk_index],
                        packed.group_scales[chunk_index],
                        w_scale,
                        scan_groups=packed.explicit_bounds[chunk_index] > _ACC_MAX,
                    )
        if self.config.subtract_bias:
            result = result + self._bias_projection_stack(name, weight)[chunk_idx]
        return result

    # ------------------------------------------------------------------
    # Activation-activation path (X_Q X_K^T and X_S X_V)
    # ------------------------------------------------------------------
    @property
    def plain_attention(self):
        """True when ``attention_matmul`` is a plain product (QK^T/SV left in
        floating point), so the runner may use the fused paged kernel; with
        ``quantize_attention`` the dynamic per-head statistics need the dense
        operands, so the gather path is kept."""
        return not self.config.quantize_attention

    def attention_matmul(self, name, a, b):
        """Activation-activation product, dynamically Tender-quantized per head
        when the configuration enables ``quantize_attention``."""
        if not self.config.quantize_attention:
            return a @ b
        return self._attention_quantized(a, b)

    def _quantize_attention_operands(self, a, b):
        """Stacked dynamic Tender quantization of both attention operands.

        The shared preamble of the Index-Buffer kernels and the masked
        kernel in :mod:`repro.core.reference`: per-(batch, head) bias
        subtraction, power-of-alpha channel classification (the same rule as
        ``repro.core.decomposition.decompose_channels``, vectorized over
        heads), activation quantization, and per-column quantization of the
        right operand.  Returns ``(quantized, group_index, group_scales,
        right_q, right_scale, bias)``; every operation is elementwise, so
        the values are bit-identical to the per-head reference loop.

        ``quantized`` and ``right_q`` are integer-valued float64 (exact
        integers — see the dtype note in :mod:`repro.core.kernels`): the
        stacked kernels consume them directly on BLAS, and the scanning
        grouped kernels widen them to int64 at entry.
        """
        config = self.config
        qmax = integer_range(config.bits)
        num_groups, alpha = config.num_groups, config.alpha

        channel_max = a.max(axis=-2)
        channel_min = a.min(axis=-2)
        if config.subtract_bias:
            bias = compute_channel_bias(channel_max, channel_min)
            shifted = a - bias[..., None, :]
            absmax = (channel_max - channel_min) / 2.0
        else:
            bias = None
            shifted = a
            absmax = np.maximum(np.abs(channel_max), np.abs(channel_min))

        tensor_absmax = absmax.max(axis=-1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = np.where(absmax > 0.0, tensor_absmax[..., None] / absmax, np.inf)
            group_index = np.clip(
                np.floor(np.log(ratios) / np.log(alpha)), 0, num_groups - 1
            ).astype(np.int64)
        # alpha^g * qmax stays an exact small integer in float64, so these
        # vectorized scale constructions match the former per-group Python
        # list comprehensions bit for bit.
        alpha_powers = np.power(alpha, np.arange(num_groups), dtype=np.float64)
        group_scales = np.where(
            tensor_absmax[..., None] > 0.0,
            tensor_absmax[..., None] / (alpha_powers * qmax),
            1e-12 / alpha_powers,
        )
        channel_scales = np.take_along_axis(group_scales, group_index, axis=-1)
        quantized = np.clip(np.round(shifted / channel_scales[..., None, :]), -qmax, qmax)

        # Per-column (per output feature) quantization of the right operand.
        right_scale = np.maximum(np.abs(b).max(axis=-2, keepdims=True) / qmax, 1e-12)
        right_q = np.clip(np.round(b / right_scale), -qmax, qmax)
        return quantized, group_index, group_scales, right_q, right_scale, bias

    def _attention_quantized(self, a, b):
        """Index-Buffer-ordered attention over stacked heads.

        Multiplies without masked full-width products: the implicit path
        fuses all groups into one alpha-weighted integer matmul (falling
        back to the scanning kernel only when the analytic bound says the
        32-bit accumulator could overflow), and the explicit path
        multiplies per-head group-contiguous segments.  Bit-identical to
        both oracles in :mod:`repro.core.reference`.
        """
        config = self.config
        num_groups, alpha = config.num_groups, config.alpha
        qmax = integer_range(config.bits)
        quantized, group_index, group_scales, right_q, right_scale, bias = (
            self._quantize_attention_operands(a, b)
        )

        if self.implicit:
            if stacked_implicit_bound(group_index, alpha, num_groups, qmax) <= _ACC_MAX:
                result = stacked_implicit_matmul(
                    quantized, group_index, group_scales, right_q, right_scale, alpha, num_groups
                )
            else:
                # The analytic bound says the accumulator could leave the
                # 32-bit range: run the scanning kernel, which raises
                # exactly when the hardware would saturate.
                result = self._implicit_grouped_matmul(
                    quantized, group_index, group_scales, right_q, right_scale
                )
        else:
            result = stacked_explicit_matmul(
                quantized, group_index, group_scales, right_q, right_scale, num_groups, qmax
            )

        if bias is not None:
            # Stacked ``bias @ right`` products; BLAS evaluates each head's
            # row-times-matrix product with the same reduction order as the
            # per-head oracle's 1-D ``bias @ right``, so results stay
            # bit-identical (the regression suite checks this).
            result = result + bias[..., None, :] @ b
        return result

    def _implicit_grouped_matmul(self, quantized, group_index, group_scales, right_q, right_scale):
        """Equation 2 over stacked heads: integer accumulate, rescale by alpha."""
        quantized = quantized.astype(np.int64, copy=False)
        right_q = right_q.astype(np.int64, copy=False)
        alpha = self.config.alpha
        lead_mn = quantized.shape[:-1] + (right_q.shape[-1],)
        accumulator = np.zeros(lead_mn, dtype=np.int64)
        for group in range(self.config.num_groups):
            if group > 0:
                accumulator = accumulator * alpha
            mask = group_index == group
            if mask.any():
                accumulator = accumulator + (quantized * mask[..., None, :]) @ right_q
            if accumulator.max(initial=0) > _ACC_MAX or accumulator.min(initial=0) < _ACC_MIN:
                raise QuantizationError(
                    "implicit requantization overflowed the 32-bit accumulator; "
                    "reduce the number of groups or the reduction length"
                )
        final_scale = group_scales[..., -1][..., None, None]
        return accumulator.astype(np.float64) * final_scale * right_scale


class TenderQuantizer:
    """High-level API: calibrate a model and return a quantized runner.

    Example
    -------
    >>> quantizer = TenderQuantizer(TenderConfig(bits=8, num_groups=8))
    >>> runner = quantizer.quantize(weights, calibration_samples)
    >>> log_probs = runner.log_probs(tokens)
    """

    def __init__(self, config: Optional[TenderConfig] = None, implicit: bool = True) -> None:
        self.config = config or TenderConfig()
        self.implicit = implicit
        self.site_params: Optional[Dict[str, TenderSiteParams]] = None

    def calibrate(
        self, weights: ModelWeights, samples: List[np.ndarray], classify: bool = False
    ) -> Dict[str, TenderSiteParams]:
        """Compute and store calibration parameters for ``weights``."""
        self.site_params = calibrate_tender(weights, samples, self.config, classify=classify)
        return self.site_params

    def build_executor(self) -> TenderExecutor:
        """Build an executor from previously computed calibration parameters."""
        if self.site_params is None:
            raise CalibrationError("call calibrate() before build_executor()")
        return TenderExecutor(self.site_params, self.config, implicit=self.implicit)

    def quantize(
        self, weights: ModelWeights, samples: List[np.ndarray], classify: bool = False
    ) -> TransformerRunner:
        """Calibrate and return a :class:`TransformerRunner` using Tender."""
        self.calibrate(weights, samples, classify=classify)
        return TransformerRunner(weights, self.build_executor())
