"""Executor-based Transformer inference.

All quantization schemes in this reproduction (FP baseline, per-tensor/row/
column PTQ, SmoothQuant, LLM.int8(), ANT, OliVe, MSFP, SMX/MX, and Tender)
plug into the same inference engine through the :class:`MatmulExecutor`
interface.  The engine performs every surrounding operation (embeddings,
LayerNorm, softmax, residual adds) in floating point — exactly as the paper's
accelerator does in its Vector Processing Unit — and delegates every matrix
multiplication to the executor:

* ``project(name, x, weight, bias)`` — activation x weight products
  (Q/K/V/output projections, FC1/FC2, LM head);
* ``attention_matmul(name, a, b)`` — activation x activation products
  (``X_Q @ X_K^T`` and ``X_S @ X_V``).

Executors receive a stable hierarchical ``name`` (e.g. ``block3.attn.q_proj``)
so static calibration data can be looked up per matmul site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.kernels import paged_attention
from repro.errors import ConfigurationError
from repro.models.weights import ModelWeights
from repro.quant.observers import ActivationObserver
from repro.tensor.ops import gelu, log_softmax, relu, softmax


class KVCacheLike(Protocol):
    """What the incremental decode path needs from a key/value cache.

    Both the dense :class:`repro.serve.kv_cache.KVCache` (one fixed batch
    lane per sequence) and the continuous-batching scheduler's
    :class:`repro.serve.paged_kv_cache.SlotBatchView` (a dense facade over
    whichever paged slots are active this iteration) satisfy this.  Row ``b``
    of every ``write``/``view`` call refers to the same sequence that
    ``lengths[b]`` describes; the rows of consecutive calls may map to
    *different* requests as the scheduler evicts and backfills slots.
    """

    #: Committed tokens per batch row; ``decode_step`` advances it in place.
    lengths: np.ndarray

    def ensure_capacity(self, needed: int) -> None:
        """Make ``needed`` token slots addressable (grow or validate)."""
        ...

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, slots: np.ndarray) -> None:
        """Store ``(batch, heads, new_len, d_head)`` payloads at per-row slots."""
        ...

    def view(self, layer: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(keys, values)`` over the first ``length`` slots of each row."""
        ...


def neutralize_padding(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    valid: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep ragged-prefill padding rows out of dynamic quantization statistics.

    Masking already keeps padding out of every attention *output*; this also
    keeps it out of executors that quantize attention operands dynamically
    (Tender "all"), whose per-head statistics would otherwise see the garbage
    rows: padded queries are replaced by a duplicate of the sequence's first
    row (duplicates never widen a max/min range) and padded keys/values are
    zeroed (zeros never widen an absmax).  Purely elementwise, so applying it
    to a column slice of the projections equals slicing its full-width result
    — the property the tensor-parallel runner relies on.
    """
    if valid is None or valid.all():
        return queries, keys, values
    row_valid = valid[..., None]
    queries = np.where(row_valid, queries, queries[:, :1])
    keys = keys * row_valid
    values = values * row_valid
    return queries, keys, values


def fused_attention_ready(executor, cache) -> bool:
    """Whether cached attention may read K/V straight from paged block storage.

    True when both attention products are plain matmuls (the executor's
    ``plain_attention``) and the cache exposes block-table operands
    (``supports_paged_attention``) — the gate shared by the solo runner and
    the tensor-parallel façade.
    """
    return bool(
        getattr(executor, "plain_attention", False)
        and getattr(cache, "supports_paged_attention", False)
    )


def dense_cached_attention(
    executor: "MatmulExecutor",
    prefix: str,
    queries: np.ndarray,
    cached_keys: np.ndarray,
    cached_values: np.ndarray,
    positions: np.ndarray,
    valid: Optional[np.ndarray],
    d_head: int,
) -> np.ndarray:
    """Masked-softmax attention over densely gathered cache views.

    The gather-then-dense cached-attention core, used whenever
    :func:`fused_attention_ready` is False (Tender "all", whose dynamic
    per-head statistics need dense operands; the dense ``KVCache``; and
    executors without ``plain_attention``): scores through
    the executor's ``attention_matmul``, slot-visibility masking (a slot
    ``s`` is visible to a query at position ``p`` iff ``s <= p``), softmax,
    padded-probability-row replacement, and the ``X_S @ X_V`` product.
    Every step is independent per attention head, so calling it on a
    contiguous head slice of the operands returns exactly that slice of the
    full result — the solo runner passes all heads, the tensor-parallel
    runner each shard's own.  Returns ``(batch, heads, new_len, d_head)``.
    """
    attended = cached_keys.shape[-2]
    scores = executor.attention_matmul(
        f"{prefix}.qk", queries, np.swapaxes(cached_keys, -1, -2)
    ) / np.sqrt(d_head)
    hidden_slots = np.arange(attended)[None, None, None, :] > positions[:, None, :, None]
    scores = np.where(hidden_slots, -1e9, scores)
    attention = softmax(scores, axis=-1)
    if valid is not None and not valid.all():
        # Padded probability rows see a wider causal window than the row
        # they were duplicated from; replace them with the first (valid)
        # row's probabilities so dynamically-quantized X_S X_V statistics
        # stay independent of batching.
        attention = np.where(valid[:, None, :, None], attention, attention[:, :, :1, :])
    return executor.attention_matmul(f"{prefix}.sv", attention, cached_values)


class MatmulExecutor(Protocol):
    """Interface every quantization scheme implements."""

    def project(
        self, name: str, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        """Compute ``x @ weight + bias`` for a 2-D activation ``x``."""
        ...

    def attention_matmul(self, name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute the batched product ``a @ b`` between two activations."""
        ...


class FloatExecutor:
    """The FP16/FP32 baseline: plain floating-point matrix multiplication."""

    #: ``attention_matmul`` is a plain product, so the runner may replace the
    #: gather-then-dense attention with the fused paged kernel.
    plain_attention = True

    def project(self, name, x, weight, bias):
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out

    def attention_matmul(self, name, a, b):
        return a @ b


class ObservingExecutor:
    """Wraps another executor and records activation statistics per site.

    Used during calibration: the paper computes scale factors, channel biases,
    and channel-group assignments offline from calibration samples
    (Section III-B, "Optimization").  Activation inputs of projections are
    recorded under the projection name; operands of activation-activation
    matmuls are recorded under ``<name>.a`` / ``<name>.b``.
    """

    def __init__(self, base: Optional[MatmulExecutor] = None) -> None:
        self.base = base if base is not None else FloatExecutor()
        self.observer = ActivationObserver()

    def project(self, name, x, weight, bias):
        self.observer.observe(name, x)
        return self.base.project(name, x, weight, bias)

    def attention_matmul(self, name, a, b):
        self.observer.observe(f"{name}.a", a.reshape(-1, a.shape[-1]))
        # The second operand's reduction axis is its second-to-last dimension;
        # record it transposed so the channel axis is always last.
        self.observer.observe(f"{name}.b", np.swapaxes(b, -1, -2).reshape(-1, b.shape[-2]))
        return self.base.attention_matmul(name, a, b)


class CapturingExecutor:
    """Stores the raw input of each site the first time it is seen.

    Used by the Figure 2 / Figure 3 reproductions, which visualise the actual
    activation values (channel-wise outliers) rather than summary statistics.
    """

    def __init__(self, base: Optional[MatmulExecutor] = None) -> None:
        self.base = base if base is not None else FloatExecutor()
        self.captured: Dict[str, np.ndarray] = {}

    def project(self, name, x, weight, bias):
        if name not in self.captured:
            self.captured[name] = x.copy()
        return self.base.project(name, x, weight, bias)

    def attention_matmul(self, name, a, b):
        return self.base.attention_matmul(name, a, b)


class TransformerRunner:
    """Runs a Transformer forward pass from :class:`ModelWeights` + executor."""

    def __init__(self, weights: ModelWeights, executor: Optional[MatmulExecutor] = None) -> None:
        self.weights = weights
        self.config = weights.config
        self.executor = executor if executor is not None else FloatExecutor()

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    @staticmethod
    def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + eps) * gain + bias

    def _project(
        self,
        name: str,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Flatten leading dims, delegate to the executor, restore the shape.

        ``positions`` carries the token position of every row for executors
        that calibrate per row chunk (``uses_positions``); the incremental
        decode path needs it because a decoded token's flat row index no
        longer equals its position in the sequence.
        """
        leading = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        if positions is not None and getattr(self.executor, "uses_positions", False):
            out = self.executor.project(name, flat, weight, bias, positions=positions.reshape(-1))
        else:
            out = self.executor.project(name, flat, weight, bias)
        return out.reshape(*leading, weight.shape[-1])

    def _attention(self, index: int, x: np.ndarray, positions: Optional[np.ndarray] = None) -> np.ndarray:
        block = self.weights.blocks[index]
        config = self.config
        batch, seq, _ = x.shape
        prefix = f"block{index}.attn"

        queries = self._project(f"{prefix}.q_proj", x, block.attn.wq, block.attn.bq, positions)
        keys = self._project(f"{prefix}.k_proj", x, block.attn.wk, block.attn.bk, positions)
        values = self._project(f"{prefix}.v_proj", x, block.attn.wv, block.attn.bv, positions)

        def split(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, seq, config.num_heads, config.d_head).transpose(0, 2, 1, 3)

        queries, keys, values = split(queries), split(keys), split(values)
        scores = self.executor.attention_matmul(
            f"{prefix}.qk", queries, np.swapaxes(keys, -1, -2)
        ) / np.sqrt(config.d_head)
        if config.causal:
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = np.where(mask[None, None], -1e9, scores)
        attention = softmax(scores, axis=-1)
        context = self.executor.attention_matmul(f"{prefix}.sv", attention, values)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, config.d_model)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)

    def _feed_forward(self, index: int, x: np.ndarray, positions: Optional[np.ndarray] = None) -> np.ndarray:
        block = self.weights.blocks[index]
        prefix = f"block{index}.ffn"
        hidden = self._project(f"{prefix}.fc1", x, block.ffn.w1, block.ffn.b1, positions)
        hidden = relu(hidden) if self.config.activation == "relu" else gelu(hidden)
        return self._project(f"{prefix}.fc2", hidden, block.ffn.w2, block.ffn.b2, positions)

    def _backbone(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        if seq > self.config.max_seq_len:
            raise ConfigurationError(
                f"sequence length {seq} exceeds max_seq_len {self.config.max_seq_len}"
            )
        # Token positions of every row, so position-calibrated executors
        # (Tender row chunks) see the same parameters for a token regardless
        # of its batch index — batched forwards, classification batches, and
        # the KV-cached decode path all agree per position.
        positions = np.broadcast_to(np.arange(seq, dtype=np.int64), (batch, seq))
        x = self.weights.token_embedding[tokens] + self.weights.position_embedding[np.arange(seq)]
        for index, block in enumerate(self.weights.blocks):
            attn_input = self._layer_norm(x, block.ln_attn.gain, block.ln_attn.bias)
            x = x + self._attention(index, attn_input, positions)
            ffn_input = self._layer_norm(x, block.ln_ffn.gain, block.ln_ffn.bias)
            x = x + self._feed_forward(index, ffn_input, positions)
        return self._layer_norm(x, self.weights.ln_final.gain, self.weights.ln_final.bias)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Language-model logits of shape (batch, seq, vocab)."""
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; use classify() instead")
        hidden = self._backbone(tokens)
        batch, seq = hidden.shape[0], hidden.shape[1]
        positions = np.broadcast_to(np.arange(seq, dtype=np.int64), (batch, seq))
        return self._project("lm_head", hidden, self.weights.lm_head, None, positions)

    def log_probs(self, tokens: np.ndarray) -> np.ndarray:
        """Log-probabilities over the vocabulary for each position."""
        return log_softmax(self.logits(tokens), axis=-1)

    def classify(self, tokens: np.ndarray) -> np.ndarray:
        """Classification logits of shape (batch, num_classes)."""
        if self.weights.classifier_weight is None:
            raise ConfigurationError("model has no classifier head; use logits() instead")
        hidden = self._backbone(tokens)
        pooled = hidden.mean(axis=1)
        return self.executor.project(
            "classifier", pooled, self.weights.classifier_weight, self.weights.classifier_bias
        )

    # ------------------------------------------------------------------
    # Incremental decoding over a KV-cache
    # ------------------------------------------------------------------
    def _attention_cached(
        self,
        index: int,
        x: np.ndarray,
        cache: KVCacheLike,
        positions: np.ndarray,
        valid: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Attention where keys/values come from (and are written to) ``cache``.

        ``x`` is (batch, new_len, d_model) and ``positions`` gives each new
        token's absolute position, which is also its cache slot.  A slot ``s``
        is visible to a query at position ``p`` iff ``s <= p`` — this covers
        both causality and padding, because padded/unwritten slots always sit
        strictly after the querying token's own position.

        ``valid`` marks the rows that belong to real tokens (padding rows of a
        ragged prefill are False).  Masking alone already keeps padding out of
        every *output*; the extra neutralisation below also keeps it out of
        executors that quantize attention operands *dynamically* (Tender
        "all"), whose per-head statistics would otherwise see the garbage
        rows: padded queries are replaced by a duplicate of the sequence's
        first row (duplicates never widen a max/min range) and padded
        keys/values are zeroed (zeros never widen an absmax).
        """
        block = self.weights.blocks[index]
        config = self.config
        batch, new_len, _ = x.shape
        prefix = f"block{index}.attn"

        queries = self._project(f"{prefix}.q_proj", x, block.attn.wq, block.attn.bq, positions)
        keys = self._project(f"{prefix}.k_proj", x, block.attn.wk, block.attn.bk, positions)
        values = self._project(f"{prefix}.v_proj", x, block.attn.wv, block.attn.bv, positions)
        queries, keys, values = neutralize_padding(queries, keys, values, valid)

        def split(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, new_len, config.num_heads, config.d_head).transpose(0, 2, 1, 3)

        queries, keys, values = split(queries), split(keys), split(values)
        cache.write(index, keys, values, positions)
        if fused_attention_ready(self.executor, cache):
            # Both attention products are plain matmuls, so read K/V straight
            # from block storage — no dense gather.  Operands are fetched
            # *after* the write: any copy-on-write fork the write triggered is
            # already reflected in the run table.
            key_pool, value_pool, runs, block_size = cache.attention_operands(index)
            context = paged_attention(
                queries, key_pool, value_pool, runs, block_size, positions, valid
            )
        else:
            attended = int(positions.max()) + 1
            cached_keys, cached_values = cache.view(index, attended)
            context = dense_cached_attention(
                self.executor,
                prefix,
                queries,
                cached_keys,
                cached_values,
                positions,
                valid,
                config.d_head,
            )
        context = context.transpose(0, 2, 1, 3).reshape(batch, new_len, config.d_model)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)

    def _incremental_backbone(
        self,
        tokens: np.ndarray,
        cache: KVCacheLike,
        positions: np.ndarray,
        valid: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run the backbone over new tokens only, attending through the cache."""
        if positions.max() >= self.config.max_seq_len:
            raise ConfigurationError(
                f"position {int(positions.max())} exceeds max_seq_len {self.config.max_seq_len}"
            )
        cache.ensure_capacity(int(positions.max()) + 1)
        x = self.weights.token_embedding[tokens] + self.weights.position_embedding[positions]
        for index, block in enumerate(self.weights.blocks):
            attn_input = self._layer_norm(x, block.ln_attn.gain, block.ln_attn.bias)
            x = x + self._attention_cached(index, attn_input, cache, positions, valid)
            ffn_input = self._layer_norm(x, block.ln_ffn.gain, block.ln_ffn.bias)
            x = x + self._feed_forward(index, ffn_input, positions)
        return self._layer_norm(x, self.weights.ln_final.gain, self.weights.ln_final.bias)

    def prefill(
        self,
        tokens: np.ndarray,
        lengths: np.ndarray,
        cache: KVCacheLike,
        start_positions: Optional[np.ndarray] = None,
        return_logits: bool = True,
    ) -> Optional[np.ndarray]:
        """Populate ``cache`` from right-padded prompts; return next-token logits.

        ``tokens`` is (batch, max_prompt_len) with each row holding a prompt of
        ``lengths[i]`` tokens followed by padding.  Padded rows do write
        (garbage) cache slots, but those slots are never visible to a valid
        query and are overwritten as soon as decoding reaches them.  Returns
        the LM logits at each row's final provided position, shape
        (batch, vocab).

        ``start_positions`` makes this a *partial-prompt* prefill: row ``b``'s
        tokens are a chunk starting at absolute position ``start_positions[b]``
        and the cache is expected to already hold that row's earlier KV (the
        prefix-caching scheduler's prefix hits and chunked prefill both rely
        on this).  Each chunk row attends over the full cached history plus
        the chunk's own causal window, exactly as a whole-prompt prefill
        would, and ``cache.lengths`` advances to ``start + lengths`` per row.
        ``return_logits=False`` skips the LM-head projection and returns
        ``None`` — only a prompt's final chunk needs logits, so intermediate
        chunks of a chunked prefill save that per-chunk matmul.
        """
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; generation requires one")
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        batch, max_len = tokens.shape
        if np.any(lengths < 1) or np.any(lengths > max_len):
            raise ConfigurationError("prompt lengths must be in [1, max_prompt_len]")
        if start_positions is None:
            start = np.zeros(batch, dtype=np.int64)
        else:
            start = np.asarray(start_positions, dtype=np.int64).reshape(-1)
            if start.shape[0] != batch:
                raise ConfigurationError("start_positions must provide one position per row")
            if np.any(start < 0):
                raise ConfigurationError("start_positions must be >= 0")
        positions = start[:, None] + np.arange(max_len, dtype=np.int64)[None, :]
        valid = np.arange(max_len, dtype=np.int64)[None, :] < lengths[:, None]
        hidden = self._incremental_backbone(tokens, cache, positions, valid)
        cache.lengths[:] = start + lengths
        if not return_logits:
            return None
        last = hidden[np.arange(batch), lengths - 1]
        return self._project("lm_head", last, self.weights.lm_head, None, start + lengths - 1)

    def verify(
        self,
        tokens: np.ndarray,
        cache: KVCacheLike,
        start_positions: np.ndarray,
    ) -> np.ndarray:
        """Score a run of draft tokens per sequence in one forward pass.

        The multi-token half of speculative decoding (``repro.serve.spec``):
        row ``b`` of ``tokens`` is ``[pending, draft_1, ..., draft_k]`` — the
        sequence's already-sampled next token followed by ``k`` speculated
        continuations — and ``start_positions[b]`` is the row's committed
        cache length (the position the pending token will occupy).  One
        incremental forward, the same partial-prompt machinery chunked
        prefill uses, scores every position: the returned logits have shape
        ``(batch, new_len, vocab)`` and ``logits[b, j]`` predicts the token
        at absolute position ``start_positions[b] + j + 1`` — rows ``0..k-1``
        verify the drafts and row ``k`` is the *bonus* distribution after a
        fully accepted run.  With ``new_len == 1`` this degenerates exactly
        to :meth:`decode_step`.

        Every provided token's KV is written to the cache (positions
        ``start .. start + new_len - 1``) and ``cache.lengths`` advances to
        ``start + new_len``; the caller rolls rejected positions back (e.g.
        :meth:`repro.serve.paged_kv_cache.PagedKVCache.truncate`) after
        deciding how many drafts survived.  Because quantization parameters
        are looked up by *position* (see :meth:`decode_step`), the logits at
        every position are bit-identical to the sequential decode steps they
        replace for executors with statically-determined parameters —
        greedy speculative decoding is therefore token-exact.

        The batch must be rectangular: all rows carry ``new_len`` real
        tokens.  Rows with fewer drafts belong in a separate (shorter) call
        — padding a ragged verify would write garbage KV beyond a short
        row's reservation.
        """
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; generation requires one")
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ConfigurationError("verify() expects (batch, new_len) token rows")
        batch, new_len = tokens.shape
        if new_len < 1:
            raise ConfigurationError("verify() needs at least the pending token per row")
        start = np.asarray(start_positions, dtype=np.int64).reshape(-1)
        if start.shape[0] != batch:
            raise ConfigurationError("start_positions must provide one position per row")
        if np.any(start < 0):
            raise ConfigurationError("start_positions must be >= 0")
        positions = start[:, None] + np.arange(new_len, dtype=np.int64)[None, :]
        hidden = self._incremental_backbone(tokens, cache, positions)
        cache.lengths[:] = start + new_len
        return self._project("lm_head", hidden, self.weights.lm_head, None, positions)

    def decode_step(self, tokens: np.ndarray, cache: KVCacheLike) -> np.ndarray:
        """Append one token per sequence and return next-token logits.

        ``tokens`` is (batch,) — the token each sequence just produced (or the
        last prompt token when priming without :meth:`prefill`).  Rows are
        fully independent slots: each may sit at its own position (ragged
        prompts, mid-flight admission) and each writes its own next cache
        slot at ``cache.lengths[b]``.  Because quantization parameters are
        looked up by *position* (Tender's row chunks, see ``_project``), a
        row's logits do not depend on which physical slot or batch row it
        currently occupies — the property that makes the continuous
        scheduler's slot reuse safe.  This scattered-position batch is the
        hot path of Tender's Index-Buffer kernels: ``TenderExecutor`` serves
        every projection here from packed calibration tables indexed by
        ``positions // chunk_size`` (one gather, no per-chunk Python loop —
        see :mod:`repro.core.kernels`).  Returns logits of shape
        (batch, vocab).
        """
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; generation requires one")
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        positions = cache.lengths[:, None].copy()
        hidden = self._incremental_backbone(tokens, cache, positions)
        cache.lengths += 1
        return self._project("lm_head", hidden[:, 0], self.weights.lm_head, None, positions[:, 0])


def run_calibration(
    weights: ModelWeights,
    samples: List[np.ndarray],
    classify: bool = False,
) -> ActivationObserver:
    """Run calibration samples through the FP model and collect statistics."""
    executor = ObservingExecutor()
    runner = TransformerRunner(weights, executor)
    for sample in samples:
        if classify:
            runner.classify(np.asarray(sample)[None, :])
        else:
            runner.logits(np.asarray(sample)[None, :])
    return executor.observer


def capture_activations(weights: ModelWeights, sample: np.ndarray) -> Dict[str, np.ndarray]:
    """Capture raw per-site input activations for one sample (Figures 2-3)."""
    executor = CapturingExecutor()
    runner = TransformerRunner(weights, executor)
    if weights.lm_head is not None:
        runner.logits(np.asarray(sample)[None, :])
    else:
        runner.classify(np.asarray(sample)[None, :])
    return executor.captured
