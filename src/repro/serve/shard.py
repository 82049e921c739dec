"""Tensor-parallel sharding: a runner-shaped façade over N model shards.

:class:`ShardedRunner` partitions one Transformer across ``num_shards``
simulated workers the way Megatron-style serving stacks do — **column
parallel**: every projection's *output* features are split into contiguous
per-shard column ranges (Q/K/V by attention-head blocks, FC1 by ``d_ff``
columns, output/FC2/LM-head by balanced column ranges), each shard computes
its slice against the full-width activation, and the slices meet at explicit
``all_gather`` collectives on a :class:`~repro.serve.collective.CollectiveGroup`.
Attention itself runs head-parallel: each shard attends only over its own
contiguous head range (``repro.core.kernels.paged_attention`` is independent
per head), and the per-shard contexts gather back to full width before the
output projection.

**Where Tender's calibration lives** (the decomposition decision, also in
architecture.md): every shard holds a *full replica* of the per-chunk
calibration tables and Index-Buffer channel orders, because column-parallel
sharding never splits the **channel (reduction) axis** those tables index —
a shard sees all ``d_model`` (or ``d_ff``) input channels and only slices
output columns.  Per-column weight scales, permuted-row weight caches, and
``bias @ W`` compensations are re-derived per shard from the shared tables
and the shard's own column slice, which equals slicing the full-width result
column-for-column.  The alternative — row-parallel splits meeting at
``all_reduce`` — would partition the channel axis, split Tender's per-chunk
scale groups across shards, and break bit-exactness at the floating-point
partial-sum reduction; that is why the runner meets at gathers and
``all_reduce`` stays a transport-level primitive (priced by the analytic
model, exercised by the transport tests).

The façade is a drop-in for :class:`~repro.models.inference.TransformerRunner`
(it *is* one, by subclass): ``prefill`` / ``verify`` / ``decode_step`` /
``logits`` keep their exact contracts and — the house gate — produce
bit-identical tokens and logits to the solo runner for Tender implicit and
explicit requantization, including under injected collective faults, because
every surviving collective delivers pristine payloads (see
``repro.serve.collective``).  A shard death or exhausted retry budget raises
a ``ReplicaFailureError`` subclass mid-step, which the replica pool treats
as a whole-replica crash: in-flight requests are checkpointed and replayed
onto a rebuilt group.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import paged_attention
from repro.errors import ConfigurationError
from repro.models.inference import (
    KVCacheLike,
    MatmulExecutor,
    TransformerRunner,
    dense_cached_attention,
    fused_attention_ready,
    neutralize_padding,
)
from repro.serve.collective import CollectiveGroup
from repro.tensor.ops import softmax

__all__ = ["ShardedRunner", "partition_bounds"]


def partition_bounds(total: int, num_parts: int) -> List[Tuple[int, int]]:
    """Contiguous balanced ``[start, stop)`` ranges splitting ``total`` columns.

    The first ``total % num_parts`` parts take one extra column, so any width
    splits without padding; concatenating the slices in part order always
    reassembles the original tensor exactly.
    """
    if num_parts < 1:
        raise ConfigurationError("cannot partition into fewer than one part")
    base, remainder = divmod(total, num_parts)
    bounds = []
    start = 0
    for part in range(num_parts):
        stop = start + base + (1 if part < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _clone_executor(executor: MatmulExecutor) -> MatmulExecutor:
    """A fresh executor of the same scheme for one shard.

    Tender-style executors (anything carrying ``site_params``) are rebuilt
    around the *shared* calibration tables with private weight/bias caches —
    sharing one executor across shards would collide its per-site caches,
    which are keyed by matmul name while each shard passes a different
    column slice.  Stateless executors are rebuilt via their no-argument
    constructor.
    """
    if hasattr(executor, "site_params"):
        return type(executor)(executor.site_params, executor.config, implicit=executor.implicit)
    try:
        return type(executor)()
    except TypeError as error:  # pragma: no cover - defensive
        raise ConfigurationError(
            f"cannot clone executor {type(executor).__name__} per shard; "
            "pass executor_factory explicitly"
        ) from error


class ShardedRunner(TransformerRunner):
    """Column-parallel tensor sharding behind the ``TransformerRunner`` surface.

    Parameters
    ----------
    runner:
        The solo runner to shard.  Its weights stay shared (read-only); its
        executor is cloned per shard (see ``executor_factory``).
    num_shards:
        Number of shards; must satisfy ``1 <= num_shards <= num_heads`` so
        every shard owns at least one attention head.
    group:
        The :class:`~repro.serve.collective.CollectiveGroup` the shards meet
        on; a fresh fault-free group of matching size by default.
    executor_factory:
        Optional ``shard_id -> executor`` override; the default clones the
        solo runner's executor (Tender executors share ``site_params`` —
        the replicated calibration tables — with private caches).
    """

    def __init__(
        self,
        runner: TransformerRunner,
        num_shards: int,
        *,
        group: Optional[CollectiveGroup] = None,
        executor_factory: Optional[Callable[[int], MatmulExecutor]] = None,
    ) -> None:
        config = runner.config
        if not 1 <= num_shards <= config.num_heads:
            raise ConfigurationError(
                f"num_shards must be in [1, num_heads={config.num_heads}], "
                f"got {num_shards}"
            )
        if group is not None and group.num_shards != num_shards:
            raise ConfigurationError(
                f"collective group spans {group.num_shards} shards, "
                f"runner wants {num_shards}"
            )
        super().__init__(runner.weights, runner.executor)
        self.num_shards = num_shards
        self.group = group if group is not None else CollectiveGroup(num_shards)
        if executor_factory is None:
            executor_factory = lambda shard_id: _clone_executor(runner.executor)  # noqa: E731
        #: One executor per shard: same scheme and calibration, private caches.
        self.executors: List[MatmulExecutor] = [
            executor_factory(shard_id) for shard_id in range(num_shards)
        ]
        #: Contiguous head ranges per shard (attention head parallelism).
        self.head_bounds = partition_bounds(config.num_heads, num_shards)
        self._column_bounds: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def healthy(self) -> bool:
        """Whether every shard (and the transport) is still serviceable."""
        return self.group.healthy

    # ------------------------------------------------------------------
    # Column-parallel projection
    # ------------------------------------------------------------------
    def _bounds_for(self, width: int) -> List[Tuple[int, int]]:
        """Balanced per-shard column ranges for an output ``width``, cached."""
        bounds = self._column_bounds.get(width)
        if bounds is None:
            bounds = partition_bounds(width, self.num_shards)
            self._column_bounds[width] = bounds
        return bounds

    def _shard_project(
        self,
        shard_id: int,
        name: str,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One shard's slice of a projection: full-width input, sliced columns."""
        executor = self.executors[shard_id]
        leading = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        if positions is not None and getattr(executor, "uses_positions", False):
            out = executor.project(name, flat, weight, bias, positions=positions.reshape(-1))
        else:
            out = executor.project(name, flat, weight, bias)
        return out.reshape(*leading, weight.shape[-1])

    def _project(
        self,
        name: str,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Column-parallel projection meeting at an ``all_gather``.

        Every shard computes ``x @ W[:, a_s:b_s] (+ bias[a_s:b_s])`` over the
        full-width activation; the group gathers the column slices back in
        shard order.  Because the reduction (channel) axis is never split,
        each output column is computed by exactly one shard with exactly the
        solo runner's operands — the concatenation is bit-identical to the
        unsharded projection.
        """
        parts = [
            self._shard_project(
                shard_id,
                name,
                x,
                weight[:, start:stop],
                None if bias is None else bias[start:stop],
                positions,
            )
            for shard_id, (start, stop) in enumerate(self._bounds_for(weight.shape[-1]))
        ]
        return self.group.all_gather(parts, axis=-1)

    # ------------------------------------------------------------------
    # Head-parallel attention
    # ------------------------------------------------------------------
    def _qkv_shards(
        self,
        prefix: str,
        x: np.ndarray,
        block_attn,
        positions: Optional[np.ndarray],
        valid: Optional[np.ndarray],
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Per-shard Q/K/V column slices aligned to each shard's head range."""
        d_head = self.config.d_head
        q_parts: List[np.ndarray] = []
        k_parts: List[np.ndarray] = []
        v_parts: List[np.ndarray] = []
        for shard_id, (h0, h1) in enumerate(self.head_bounds):
            c0, c1 = h0 * d_head, h1 * d_head
            queries = self._shard_project(
                shard_id, f"{prefix}.q_proj", x, block_attn.wq[:, c0:c1], block_attn.bq[c0:c1], positions
            )
            keys = self._shard_project(
                shard_id, f"{prefix}.k_proj", x, block_attn.wk[:, c0:c1], block_attn.bk[c0:c1], positions
            )
            values = self._shard_project(
                shard_id, f"{prefix}.v_proj", x, block_attn.wv[:, c0:c1], block_attn.bv[c0:c1], positions
            )
            queries, keys, values = neutralize_padding(queries, keys, values, valid)
            q_parts.append(queries)
            k_parts.append(keys)
            v_parts.append(values)
        return q_parts, k_parts, v_parts

    @staticmethod
    def _split_heads(t: np.ndarray, num_heads: int, d_head: int) -> np.ndarray:
        batch, new_len = t.shape[0], t.shape[1]
        return t.reshape(batch, new_len, num_heads, d_head).transpose(0, 2, 1, 3)

    def _attention_cached(
        self,
        index: int,
        x: np.ndarray,
        cache: KVCacheLike,
        positions: np.ndarray,
        valid: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Head-parallel cached attention meeting at K/V and context gathers.

        Each shard projects and attends over its own contiguous head range;
        the full-width K/V gather feeds the *single* scheduler-owned cache
        (one write, exactly like the solo runner), and the per-shard
        contexts gather back to full width before the column-parallel output
        projection.  Every per-head step — fused paged attention or the
        dense gather path — is independent per head, so the gathered result is
        bit-identical to the solo runner's.
        """
        block = self.weights.blocks[index]
        config = self.config
        batch, new_len, _ = x.shape
        prefix = f"block{index}.attn"
        d_head = config.d_head

        q_parts, k_parts, v_parts = self._qkv_shards(prefix, x, block.attn, positions, valid)
        keys = self.group.all_gather(k_parts, axis=-1)
        values = self.group.all_gather(v_parts, axis=-1)
        cache.write(
            index,
            self._split_heads(keys, config.num_heads, d_head),
            self._split_heads(values, config.num_heads, d_head),
            positions,
        )

        fused = all(fused_attention_ready(executor, cache) for executor in self.executors)
        if fused:
            # Operands fetched after the write, same as the solo runner: any
            # copy-on-write fork is already reflected in the run table.
            key_pool, value_pool, runs, block_size = cache.attention_operands(index)
        else:
            attended = int(positions.max()) + 1
            cached_keys, cached_values = cache.view(index, attended)

        context_parts: List[np.ndarray] = []
        for shard_id, (h0, h1) in enumerate(self.head_bounds):
            queries = self._split_heads(q_parts[shard_id], h1 - h0, d_head)
            if fused:
                context = paged_attention(
                    queries,
                    key_pool[h0:h1],
                    value_pool[h0:h1],
                    runs,
                    block_size,
                    positions,
                    valid,
                )
            else:
                context = dense_cached_attention(
                    self.executors[shard_id],
                    prefix,
                    queries,
                    cached_keys[:, h0:h1],
                    cached_values[:, h0:h1],
                    positions,
                    valid,
                    d_head,
                )
            context_parts.append(
                context.transpose(0, 2, 1, 3).reshape(batch, new_len, (h1 - h0) * d_head)
            )
        context = self.group.all_gather(context_parts, axis=-1)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)

    def _attention(
        self,
        index: int,
        x: np.ndarray,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Head-parallel full-sequence attention (the ``logits()`` path)."""
        block = self.weights.blocks[index]
        config = self.config
        batch, seq, _ = x.shape
        prefix = f"block{index}.attn"
        d_head = config.d_head

        q_parts, k_parts, v_parts = self._qkv_shards(prefix, x, block.attn, positions, None)
        mask = (
            np.triu(np.ones((seq, seq), dtype=bool), k=1) if config.causal else None
        )
        context_parts: List[np.ndarray] = []
        for shard_id, (h0, h1) in enumerate(self.head_bounds):
            executor = self.executors[shard_id]
            queries = self._split_heads(q_parts[shard_id], h1 - h0, d_head)
            keys = self._split_heads(k_parts[shard_id], h1 - h0, d_head)
            values = self._split_heads(v_parts[shard_id], h1 - h0, d_head)
            scores = executor.attention_matmul(
                f"{prefix}.qk", queries, np.swapaxes(keys, -1, -2)
            ) / np.sqrt(d_head)
            if mask is not None:
                scores = np.where(mask[None, None], -1e9, scores)
            attention = softmax(scores, axis=-1)
            context = executor.attention_matmul(f"{prefix}.sv", attention, values)
            context_parts.append(
                context.transpose(0, 2, 1, 3).reshape(batch, seq, (h1 - h0) * d_head)
            )
        context = self.group.all_gather(context_parts, axis=-1)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)
