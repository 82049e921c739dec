"""Index-Buffer-ordered fast kernels for the Tender hot path.

The accelerator never multiplies a masked full-width tile: its Index Buffer
streams channels into the systolic array *sorted by scale group* (Section
IV-B), so each group occupies a contiguous slice of the channel stream and
the only per-group work is the one-cycle rescale bubble between groups.
This module is the software mirror of that dataflow:

* :func:`pack_site_params` turns a site's per-chunk calibration data
  (:class:`~repro.core.calibration.ChunkParams`) into dense arrays indexed
  by ``positions // chunk_size`` — the software Index Buffer.  Biases,
  per-channel scales, channel permutations, group boundaries, and analytic
  overflow bounds are all precomputed once.
* :func:`fused_implicit_matmul` collapses implicit (Equation 2)
  requantization into a *single* integer matmul: scaling channel ``c`` by
  ``alpha^(G-1-g_c)`` up front is exactly the accumulator rescaling the
  per-PE shifter performs, so the fused product equals the reference
  accumulator bit for bit — with no Python loop over row chunks *or*
  groups.
* :func:`ordered_implicit_matmul` / :func:`ordered_explicit_matmul` multiply
  contiguous per-group column slices of operands permuted once by
  ``ChannelDecomposition.channel_order`` (no masks, no full-width
  products) — the static projection kernels.
* :func:`stacked_implicit_matmul` / :func:`stacked_explicit_matmul` serve
  the dynamic per-head attention path, where every (batch, head) pair
  carries its own channel-to-group map: the implicit kernel fuses all
  groups into one product (strictly better than contiguity), while the
  explicit kernel keeps the group-masked structure on BLAS because the
  ragged per-head boundaries make gather-based contiguity a measured net
  loss (see its docstring).
* :func:`paged_attention` is the serving-side expression of the same
  principle: instead of fancy-indexing paged KV blocks into a dense copy
  before attention (a materialised operand reorder), it multiplies
  zero-copy strided views of consecutive-block runs straight out of
  :class:`~repro.serve.PagedKVCache` storage and assembles the scores the
  dense path would have produced, bit for bit.

Every kernel is bit-identical to the reference implementations in
:mod:`repro.core.requantization` and :mod:`repro.core.reference`: integer partial
sums are exact regardless of evaluation order, and the floating-point
rescale/accumulate sequence is kept operation-for-operation the same.  The
per-group ``accumulator.max()`` scans of the reference are replaced by
analytic bounds (``qmax^2`` times the alpha-weighted reduction length,
computed at pack time); a scan only runs when the bound shows the 32-bit
accumulator could actually overflow, and callers fall back to the scanning
reference when it can.

A note on dtypes: the kernels here carry integer-valued operands in
*float64* so the multiplies dispatch to BLAS instead of NumPy's slow
generic integer loops.  This is still exact integer arithmetic, not an
approximation: operand magnitudes are at most ``qmax * alpha^(G-1)``
(~2^14 for INT8/G=8), every accumulator state is bounded by the analytic
overflow bound (checked against 2^31) or scanned group by group, and IEEE
float64 represents every integer up to 2^53 exactly — so no product or
partial sum can ever round, regardless of BLAS's reduction order, and the
results match the reference int64 pipeline bit for bit (pinned by
``tests/core/test_fast_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.requantization import (
    _ACC_MAX,
    _ACC_MIN,
    EXPLICIT_OVERFLOW_MESSAGE,
    IMPLICIT_OVERFLOW_MESSAGE,
)
from repro.errors import QuantizationError
from repro.quant.granularity import integer_range
from repro.tensor.ops import softmax


@dataclass(frozen=True)
class PackedSiteParams:
    """A matmul site's calibration tables as dense, chunk-indexed arrays.

    This is the software analogue of the hardware Index Buffer contents:
    everything the runtime needs to quantize and multiply a row is looked up
    by ``chunk = position // row_chunk_size`` with one gather — no Python
    loop over chunks.  All arrays share the leading ``num_chunks`` axis.

    Attributes
    ----------
    bias:
        ``(num_chunks, channels)`` per-channel midpoints to subtract.
    channel_scales:
        ``(num_chunks, channels)`` per-channel quantization scales (each
        channel's group scale, in original channel order).
    alpha_weights:
        ``(num_chunks, channels)`` integer weights ``alpha^(G-1-g_c)``: the
        total rescale each channel's contribution receives by the end of
        implicit requantization.  Multiplying quantized channels by these
        fuses Equation 2 into one integer matmul.
    channel_order:
        ``(num_chunks, channels)`` the Index Buffer order (channels sorted
        by group, stable).
    group_sizes:
        ``(num_chunks, num_groups)`` contiguous slice widths of each group
        in the ordered channel stream.
    group_scales:
        ``(num_chunks, num_groups)`` per-group scale factors.
    final_scales:
        ``(num_chunks,)`` the last (finest) group's scale — the single
        dequantization factor of the implicit path.
    implicit_bounds:
        ``(num_chunks,)`` analytic worst-case accumulator magnitude of the
        implicit path: ``qmax^2 * sum_c alpha^(G-1-g_c)``.  Bounds every
        intermediate accumulator state, so when it fits in 32 bits no
        overflow scan is needed at all.
    explicit_bounds:
        ``(num_chunks, num_groups)`` analytic worst-case per-group partial
        product magnitude ``qmax^2 * group_size`` — the explicit kernel
        scans a group only when its bound can actually overflow.
    qmax / alpha / num_groups / num_chunks:
        Scalar metadata shared by every chunk.
    """

    bias: np.ndarray
    channel_scales: np.ndarray
    alpha_weights: np.ndarray
    channel_order: np.ndarray
    group_sizes: np.ndarray
    group_scales: np.ndarray
    final_scales: np.ndarray
    implicit_bounds: np.ndarray
    explicit_bounds: np.ndarray
    qmax: int
    alpha: int
    num_groups: int
    num_chunks: int


def pack_site_params(chunks: Sequence) -> PackedSiteParams:
    """Pack a site's list of :class:`ChunkParams` into dense arrays.

    ``chunks`` must be non-empty and agree on channel count, group count,
    bit width, and alpha (guaranteed by calibration, which derives every
    chunk from one config).  All metadata is taken from the chunks' own
    decompositions — exactly the values the reference per-chunk loop uses —
    so the packed tables stay bit-faithful even if an executor is built
    with a config that disagrees with the calibration.  Called once per
    site; the executor caches the result.
    """
    if not chunks:
        raise QuantizationError("cannot pack a site with no calibrated chunks")
    reference = chunks[0].decomposition
    qmax = integer_range(reference.bits)
    alpha = reference.alpha
    num_groups = reference.num_groups
    bias = np.stack([np.asarray(chunk.bias, dtype=np.float64) for chunk in chunks])
    channel_scales = np.stack([chunk.decomposition.channel_scales() for chunk in chunks])
    group_of_channel = np.stack([chunk.decomposition.group_of_channel for chunk in chunks])
    channel_order = np.stack([chunk.decomposition.channel_order for chunk in chunks])
    group_sizes = np.stack([chunk.decomposition.group_sizes for chunk in chunks]).astype(np.int64)
    group_scales = np.stack([chunk.decomposition.group_scales for chunk in chunks])
    # Float64 so the fused matmul runs on BLAS; the powers are exact integers.
    alpha_weights = np.power(alpha, num_groups - 1 - group_of_channel).astype(np.float64)
    implicit_bounds = float(qmax) ** 2 * alpha_weights.sum(axis=1)
    explicit_bounds = float(qmax) ** 2 * group_sizes.astype(np.float64)
    return PackedSiteParams(
        bias=bias,
        channel_scales=channel_scales,
        alpha_weights=alpha_weights,
        channel_order=channel_order,
        group_sizes=group_sizes,
        group_scales=group_scales,
        final_scales=group_scales[:, -1].copy(),
        implicit_bounds=implicit_bounds,
        explicit_bounds=explicit_bounds,
        qmax=qmax,
        alpha=alpha,
        num_groups=num_groups,
        num_chunks=len(chunks),
    )


# ----------------------------------------------------------------------
# Static projection kernels (activation x weight)
# ----------------------------------------------------------------------
def fused_implicit_matmul(
    quantized: np.ndarray,
    alpha_weights: np.ndarray,
    final_scales: np.ndarray,
    quantized_weight: np.ndarray,
    weight_scale: np.ndarray,
) -> np.ndarray:
    """Implicit requantization (Equation 2) as one fused integer matmul.

    ``quantized`` is ``(rows, channels)`` integer-valued float64,
    ``alpha_weights`` the per-row gathered ``alpha^(G-1-g_c)`` table,
    ``final_scales`` the per-row final group scale, ``quantized_weight`` the
    per-column-quantized weight (also integer-valued float64).  The
    alpha-weighted product equals the reference implicit accumulator exactly
    (integer arithmetic is exact, and each channel's contribution is
    rescaled ``G-1-g_c`` times in both formulations), so the result is
    bit-identical with zero Python loops.  Callers must have verified the
    analytic overflow bound first — it also guarantees every BLAS partial
    sum stays far below 2^53, where float64 integer arithmetic is exact.
    """
    accumulator = (quantized * alpha_weights) @ quantized_weight
    return accumulator * final_scales[:, None] * weight_scale


def ordered_implicit_matmul(
    ordered_activation: np.ndarray,
    ordered_weight: np.ndarray,
    group_sizes: np.ndarray,
    final_scale: float,
    weight_scale: np.ndarray,
    alpha: int,
    scan_overflow: bool,
) -> np.ndarray:
    """Implicit requantization over group-contiguous column slices.

    Operands are already permuted into Index-Buffer order, so each group is
    the contiguous slice ``[start, start+size)`` — no masks, no gathers, no
    full-width products.  With ``scan_overflow`` the accumulator is checked
    after every group exactly like the reference (its states are identical
    integers), so overflow raises in precisely the same cases.
    """
    rows = ordered_activation.shape[0]
    out_features = ordered_weight.shape[1]
    accumulator = np.zeros((rows, out_features), dtype=np.float64)
    start = 0
    for group, size in enumerate(group_sizes):
        if group > 0:
            accumulator = accumulator * alpha
        if size:
            stop = start + size
            accumulator = accumulator + ordered_activation[:, start:stop] @ ordered_weight[start:stop, :]
            start = stop
        if scan_overflow and (
            accumulator.max(initial=0.0) > _ACC_MAX or accumulator.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(IMPLICIT_OVERFLOW_MESSAGE)
    return accumulator * final_scale * weight_scale


def ordered_explicit_matmul(
    ordered_activation: np.ndarray,
    ordered_weight: np.ndarray,
    group_sizes: np.ndarray,
    group_scales: np.ndarray,
    weight_scale: np.ndarray,
    scan_groups: np.ndarray,
) -> np.ndarray:
    """Explicit requantization (Equation 1) over group-contiguous slices.

    Floating-point accumulation runs group by group in the reference order
    (empty groups skipped), so results match
    :func:`repro.core.requantization.explicit_requantized_matmul` bit for
    bit; ``scan_groups`` marks the groups whose pack-time analytic bound
    (``PackedSiteParams.explicit_bounds``) shows the 32-bit accumulator is
    actually reachable — only those partial products are scanned.
    """
    rows = ordered_activation.shape[0]
    out_features = ordered_weight.shape[1]
    result = np.zeros((rows, out_features), dtype=np.float64)
    start = 0
    for group, size in enumerate(group_sizes):
        if not size:
            continue
        stop = start + size
        partial = ordered_activation[:, start:stop] @ ordered_weight[start:stop, :]
        start = stop
        if scan_groups[group] and (
            partial.max(initial=0.0) > _ACC_MAX or partial.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(EXPLICIT_OVERFLOW_MESSAGE)
        result += partial * group_scales[group] * weight_scale
    return result


# ----------------------------------------------------------------------
# Stacked per-head attention kernels (activation x activation)
# ----------------------------------------------------------------------
def stacked_implicit_bound(group_index: np.ndarray, alpha: int, num_groups: int, qmax: int) -> float:
    """Worst-case implicit accumulator magnitude across all stacked heads.

    ``qmax^2 * sum_c alpha^(G-1-g_c)`` bounds every intermediate accumulator
    state of the reference group loop as well as the fused product, because
    a channel's rescale weight only grows as later groups are processed.
    """
    weights = np.power(float(alpha), (num_groups - 1 - group_index).astype(np.float64))
    return float(qmax) ** 2 * float(weights.sum(axis=-1).max(initial=0.0))


def stacked_implicit_matmul(
    quantized: np.ndarray,
    group_index: np.ndarray,
    group_scales: np.ndarray,
    right_q: np.ndarray,
    right_scale: np.ndarray,
    alpha: int,
    num_groups: int,
) -> np.ndarray:
    """Fused implicit requantization over stacked (batch, head) pairs.

    One alpha-weighted integer matmul per call replaces ``G`` masked
    full-width products and ``G`` accumulator scans; the caller must have
    checked :func:`stacked_implicit_bound` (falling back to the scanning
    reference otherwise), which also guarantees the fused product cannot
    overflow — and keeps every float64 partial sum exact (below 2^53).
    ``quantized`` and ``right_q`` are integer-valued float64.
    """
    weights = np.power(alpha, num_groups - 1 - group_index).astype(np.float64)
    accumulator = (quantized * weights[..., None, :]) @ right_q
    final_scale = group_scales[..., -1][..., None, None]
    return accumulator * final_scale * right_scale


def stacked_explicit_matmul(
    quantized: np.ndarray,
    group_index: np.ndarray,
    group_scales: np.ndarray,
    right_q: np.ndarray,
    right_scale: np.ndarray,
    num_groups: int,
    qmax: int,
) -> np.ndarray:
    """Explicit requantization (Equation 1) over stacked heads on BLAS.

    Every (batch, head) pair has its own channel-to-group map with ragged
    per-head group boundaries, so — unlike the static projection path, whose
    permutations are precomputed per chunk — gathering each head into
    Index-Buffer order costs more than it saves here: fancy-indexing both
    operands per call is strictly slower than BLAS-dispatched zero-masked
    products at every decode and prefill shape we measured.  This kernel
    therefore keeps the reference's group-masked structure but carries the
    integer operands in float64 (exact: partial sums are bounded by
    ``qmax^2 * channels``, far below 2^53) so every product runs on dgemm,
    and replaces the reference's unconditional per-group overflow scans
    with one analytic gate.  FP accumulation order matches the reference
    exactly; ``quantized`` and ``right_q`` are integer-valued float64.
    """
    channels = quantized.shape[-1]
    scan_overflow = float(qmax) ** 2 * channels > _ACC_MAX
    lead_mn = quantized.shape[:-1] + (right_q.shape[-1],)
    result = np.zeros(lead_mn, dtype=np.float64)
    for group in range(num_groups):
        mask = group_index == group
        if not mask.any():
            continue
        partial = (quantized * mask[..., None, :]) @ right_q
        if scan_overflow and (
            partial.max(initial=0.0) > _ACC_MAX or partial.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(EXPLICIT_OVERFLOW_MESSAGE)
        group_scale = group_scales[..., group][..., None, None]
        result = result + partial * group_scale * right_scale
    return result


def paged_attention(
    queries: np.ndarray,
    key_pool: np.ndarray,
    value_pool: np.ndarray,
    runs: Sequence[Sequence[Tuple[int, int, int]]],
    block_size: int,
    positions: np.ndarray,
    valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Blocked attention reading K/V straight from paged-pool storage.

    The serving reference path fancy-indexes every slot's blocks into a
    dense per-view K/V copy (``PagedKVCache.gather``) before two dense
    matmuls — the software equivalent of materialising a reordered operand
    the Index Buffer exists to avoid.  This kernel consumes the pool arrays
    directly: with the pool laid out heads-outermost as
    ``(num_heads, num_blocks, block_size, d_head)``, a run of ``k``
    *consecutive* physical blocks reshapes into a zero-copy
    ``(num_heads, k * block_size, d_head)`` strided view, so each run costs
    one QK^T slice and one SV accumulation with no KV bytes moved.

    Bit-exactness contract (pinned by ``tests/core/test_paged_attention.py``
    and the serving parity sweeps): scores are assembled into the same
    ``(batch, heads, q_len, attended)`` array the dense path produces —
    each column is the same length-``d_head`` dot product, untouched
    columns hold the same zeros the gather's zero-fill would — then the
    scale, the ``-1e9`` causal/padding mask, and the shared
    :func:`repro.tensor.ops.softmax` are applied in the identical
    expressions, so the attention probabilities match the reference bit
    for bit.  The SV product accumulates per run; masked columns carry
    exactly-zero probabilities (their scores underflow ``exp``), so
    skipping them is an exact no-op and single-run rows — every fresh
    reservation, since the free list hands out consecutive blocks — are
    bitwise identical to the dense product.  Multi-run rows can differ
    from the dense product only in the final-sum rounding of the context
    vector (~1e-15 relative); under Tender both operands of every
    *subsequent* matmul are statically requantized, which rounds that
    residue away, so Tender logits and tokens stay bit-identical (the FP
    executor's documented parity bar is tokens-identical,
    logits-to-1e-15, same as its other fast paths).

    Parameters
    ----------
    queries : ndarray
        ``(batch, num_heads, q_len, d_head)`` query heads.
    key_pool, value_pool : ndarray
        One layer's pool storage, ``(num_heads, num_blocks, block_size,
        d_head)``.
    runs : sequence of sequence of (int, int, int)
        Per batch row, maximal consecutive physical-block runs as
        ``(first_block_index, first_physical_block, count)`` — the
        ``_BlockIndex.runs`` table.
    block_size : int
        Positions per block.
    positions : ndarray
        ``(batch, q_len)`` absolute position of each query token.
    valid : ndarray, optional
        ``(batch, q_len)`` mask of real (non-padding) rows; padded
        probability rows are replaced by the first row's, exactly as in
        the dense path.

    Returns
    -------
    ndarray
        ``(batch, num_heads, q_len, d_head)`` attention context.
    """
    batch, num_heads, q_len, d_head = queries.shape
    attended = int(positions.max()) + 1
    scores = np.zeros((batch, num_heads, q_len, attended), dtype=np.float64)
    for row in range(batch):
        for first_index, first_physical, count in runs[row]:
            start = first_index * block_size
            if start >= attended:
                break
            stop = min(start + count * block_size, attended)
            key_run = key_pool[:, first_physical : first_physical + count]
            key_run = key_run.reshape(num_heads, count * block_size, d_head)
            scores[row, :, :, start:stop] = queries[row] @ np.swapaxes(
                key_run[:, : stop - start], -1, -2
            )
    scores = scores / np.sqrt(d_head)
    hidden_slots = np.arange(attended)[None, None, None, :] > positions[:, None, :, None]
    scores = np.where(hidden_slots, -1e9, scores)
    attention = softmax(scores, axis=-1)
    if valid is not None and not valid.all():
        attention = np.where(valid[:, None, :, None], attention, attention[:, :, :1, :])
    context = np.zeros((batch, num_heads, q_len, d_head), dtype=np.float64)
    for row in range(batch):
        for first_index, first_physical, count in runs[row]:
            start = first_index * block_size
            if start >= attended:
                break
            stop = min(start + count * block_size, attended)
            value_run = value_pool[:, first_physical : first_physical + count]
            value_run = value_run.reshape(num_heads, count * block_size, d_head)
            context[row] += attention[row, :, :, start:stop] @ value_run[:, : stop - start]
    return context
