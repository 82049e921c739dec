#!/usr/bin/env python
"""Perf smoke gate: the serving hot paths must not regress below reference.

Run from the repository root (tier-1 runs it via ``tests/tools``):

    PYTHONPATH=src python tools/check_perf_smoke.py

Nine checks run back to back:

1. **Fast kernels** — builds the shared synthetic decode workload from
   ``repro.core.perf`` (no model training, no checkpoint cache — the same
   fixture ``benchmarks/bench_executor_kernels.py`` measures), verifies
   that ``TenderExecutor``'s Index-Buffer projection path is bit-identical
   to the per-chunk loop of ``repro.core.reference.ReferenceTenderExecutor``,
   then times both.  The fast path has to beat
   the reference by ``REQUIRED_SPEEDUP`` — a deliberately loose fraction of
   the ~10-20x the kernels deliver on this workload (see
   ``BENCH_kernels.json``), so a future PR that accidentally routes the hot
   path back through per-group gathers or full-array overflow scans fails
   tier-1 instead of silently shipping the regression, while machine noise
   alone cannot flake the gate.
2. **Prefix-cached scheduler** — serves a shared-template trace through
   ``repro.serve.Scheduler`` (random-weight model, no training) with the
   prefix cache on and off, and gates on the *deterministic* accounting:
   generated tokens must be identical, the cache must serve well over half
   of the prompt tokens (a broken radix match silently degrades to zero
   hits — exactly the regression this catches), and chunked prefill must
   keep active decodes advancing every iteration.

3. **Speculative decoding** — serves a repetition-heavy trace (random
   weights again, but with *periodic position embeddings* so greedy
   generation provably enters a short cycle — no training needed) with
   ``speculation=SpecConfig(PromptLookupDraft())`` and gates on the
   deterministic accounting: generated tokens must be bit-identical to the
   non-speculative run (with and without the prefix cache), the drafter's
   accept rate must clear a floor, and the decode forward count must
   actually drop — a broken verify/rollback path fails parity, a broken
   drafter silently degrades to zero accepts, and both fail here instead
   of shipping.

4. **Fused paged attention** — serves the same random-weight model with
   the fused block-table attention on and off (``SlotBatchView``'s
   ``supports_paged_attention`` patched to False) and gates on the
   deterministic accounting: generated tokens must be identical, the
   fused run must move **zero** dense KV bytes
   (``PagedKVCache.gather_bytes``), and the reference run must tally at
   least the analytic floor — a fused path that silently falls back to
   gathering fails the zero check, and a broken counter fails the floor.

5. **Priority preemption** — serves a tiny two-class trace (background
   stream plus an urgent burst) with FIFO and with preemptive scheduling
   and gates on the deterministic accounting: every request's tokens must
   be bit-identical across the two policies (the free-then-replay resume
   path must not perturb a single logit), at least one preemption must
   actually fire, the urgent class's tick-based p99 TTFT must improve by
   ``REQUIRED_TTFT_SPEEDUP``, and aggregate generated tokens per forwarded
   row must stay within ``REQUIRED_WORK_RATIO`` of FIFO — a resume path
   that stops publishing victims' blocks fails the work gate, and a
   replay that re-samples fails parity.

6. **Observability** — serves the preemption gate's two-class trace with
   tracing disabled (``tracer=None``) and enabled (``repro.obs.Tracer``)
   and gates on three claims: generated tokens must be bit-identical
   (instrumentation is observation-only), the disabled path's measured
   residue — one ``is not None`` branch per emit site the enabled run
   proves hot — must stay under ``MAX_DISABLED_TRACE_OVERHEAD`` of the
   serve, and the exported Chrome trace JSON must load back with every
   required lifecycle event type, balanced spans, and named tracks — an
   emit site doing work outside its guard fails the overhead gate, and
   one that went dark fails the taxonomy check.

7. **Serving stress** — replays short ``ServingStressHarness`` schedules
   (mixed admit/fork/decode/truncate/preempt/evict/replica_kill/
   replica_stall against a tiny paged pool) and fails on any
   ``InvariantViolation`` — the same invariant web tier-1 exercises, kept
   in the standalone gate so external CI without pytest still audits the
   pool.

8. **Fault tolerance** — serves the same trace through a 3-replica
   ``repro.serve.cluster.ReplicaPool`` fault-free and under scripted
   mid-trace replica kills, and gates on the deterministic accounting:
   every surviving request's tokens must be bit-identical to the
   fault-free pool (checkpoint/replay recovery must not perturb a token),
   at least one recovery must actually fire, and chaos goodput (generated
   tokens per forwarded row) must stay within ``REQUIRED_FT_GOODPUT`` of
   fault-free — a recovery path that recomputes whole contexts instead of
   riding prefix hits fails the goodput floor, and one that re-samples
   fails parity.

9. **Tensor parallel** — serves a Tender-quantized random-weight model
   solo and as a 2-shard ``repro.serve.ShardedRunner`` whose collective
   transport runs under scripted corruption/delay/duplication, then under
   a scripted shard kill through a ``ReplicaPool`` of shard groups, and
   gates on the deterministic accounting: sharded tokens must be
   bit-identical to solo (column-parallel sharding never splits the
   channel axis Tender's calibration tables index), at least one
   corrupted collective must be *caught by its checksum and retried*, at
   least one shard-kill recovery must fire through the checkpoint/replay
   path, and chaos goodput must stay within ``REQUIRED_FT_GOODPUT`` of
   fault-free — a transport that silently reduces a corrupted payload
   fails parity, and a recovery that recomputes whole contexts fails the
   goodput floor.

Exit status 0 when clean; 1 with a one-line diagnosis otherwise.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np

from repro.core import TenderConfig, TenderExecutor
from repro.core.reference import ReferenceTenderExecutor
from repro.core.perf import best_of, decode_projection_operands, synthetic_projection_site

#: The fast path must be at least this many times faster than the reference.
REQUIRED_SPEEDUP = 2.0
REPEATS = 25
ATTEMPTS = 4
#: The prefix cache must serve at least this fraction of the shared trace's
#: prompt tokens (the trace is built with ~78% overlap).
REQUIRED_HIT_RATE = 0.5
#: The prompt-lookup drafter must land at least this fraction of its draft
#: tokens on the periodic trace (measured ~0.9; the generation is a strict
#: cycle, so a healthy drafter cannot miss).
REQUIRED_ACCEPT_RATE = 0.5
#: Preemption must improve the urgent class's deterministic (tick-based)
#: p99 TTFT by at least this factor on the two-class trace (measured ~8.7x;
#: the floor matches the headline gate in ``bench_generate_decode.py``).
REQUIRED_TTFT_SPEEDUP = 1.5
#: Preemptive scheduling must keep aggregate generated tokens per forwarded
#: row within 5% of FIFO (measured ~0.99 — prefix-published victim blocks
#: make replay nearly free; a resume path that recomputes from scratch
#: lands well below this).
REQUIRED_WORK_RATIO = 0.95
#: Stress seeds and ops per seed for the standalone invariant sweep (tier-1
#: runs the deeper parametrized suite in ``tests/serve``).
STRESS_SEEDS = 2
STRESS_OPS = 120
#: A chaos run with scripted replica kills must keep at least this fraction
#: of the fault-free pool's goodput (generated tokens per forwarded row) —
#: measured well above 0.9 because recovery replays ride prefix-cache hits;
#: a recovery path that recomputes whole contexts from scratch lands below.
REQUIRED_FT_GOODPUT = 0.8
#: The disabled tracing path (``tracer=None``) may cost at most this
#: fraction of the serve: the measured per-``is not None`` guard cost times
#: the emit sites an enabled run proves are on the hot path (measured
#: ~0.01% — a future emit site that builds attribute dicts outside its
#: guard blows well past this).
MAX_DISABLED_TRACE_OVERHEAD = 0.01


def _tiny_serving_runner():
    """A random-weight TransformerRunner (no training, no checkpoint cache)."""
    from repro.models.inference import TransformerRunner
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=2, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape):
        return rng.normal(scale=0.25, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=dense((config.max_seq_len, config.d_model)),
        blocks=blocks,
        ln_final=norm(),
        lm_head=dense((config.d_model, config.vocab_size)),
    )
    return TransformerRunner(weights)


def _serve(runner, prompts, prefix_cache, prefill_chunk=None, speculation=None, max_new_tokens=3):
    """One scheduler run over ``prompts``; returns (outputs by id, stats)."""
    from repro.serve import GenerationConfig, Scheduler

    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=max_new_tokens),
        max_batch_size=3,
        block_size=8,
        prefix_cache=prefix_cache,
        prefill_chunk=prefill_chunk,
        speculation=speculation,
        record_logits=False,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler.stats


def _periodic_spec_runner(period: int = 7):
    """A random-weight runner whose greedy generation provably cycles.

    The position embedding repeats every ``period`` positions and dominates
    the (deliberately small) token embeddings and attention weights, so the
    residual stream — and therefore the greedy next token — is essentially
    a function of ``position mod period``: generation enters a strict
    ``period``-cycle immediately.  That gives the speculative gate a
    repetition-heavy workload that needs no training and cannot drift.
    """
    from repro.models.inference import TransformerRunner
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=2, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape, scale=0.05):
        return rng.normal(scale=scale, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    pattern = rng.normal(scale=1.0, size=(period, config.d_model))
    position = np.tile(pattern, (config.max_seq_len // period + 1, 1))[: config.max_seq_len]
    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=position,
        blocks=blocks,
        ln_final=norm(),
        lm_head=rng.normal(scale=0.5, size=(config.d_model, config.vocab_size)),
    )
    return TransformerRunner(weights)


def check_speculative_smoke() -> int:
    """Deterministic speculative-decoding parity and accept-rate gate."""
    from repro.serve import GenerationConfig, GenerationEngine, PromptLookupDraft, SpecConfig

    runner = _periodic_spec_runner()
    rng = np.random.default_rng(11)
    seeds = [rng.integers(0, 64, size=8) for _ in range(6)]
    # Two-pass extractive trace: embed each request's own continuation in
    # its prompt so the drafter can read the cycle from the first step.
    warm = GenerationEngine(runner).generate(seeds, GenerationConfig(max_new_tokens=16))
    prompts = [np.concatenate([seed, body]) for seed, body in zip(seeds, warm.generated)]

    def speculation():
        return SpecConfig(drafter=PromptLookupDraft(), draft_tokens=4, max_draft=8)

    outputs_off, stats_off = _serve(runner, prompts, prefix_cache=False, max_new_tokens=16)
    outputs_on, stats_on = _serve(
        runner, prompts, prefix_cache=False, speculation=speculation(), max_new_tokens=16
    )
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_on[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under speculative decoding"
            )
            return 1
    accept_rate = stats_on.spec_accept_rate()
    if accept_rate < REQUIRED_ACCEPT_RATE:
        print(
            f"perf smoke FAILED: drafter accept rate {accept_rate:.0%} on the periodic "
            f"trace (required >= {REQUIRED_ACCEPT_RATE:.0%}) — drafting or verification regressed"
        )
        return 1
    if stats_on.decode_iterations >= stats_off.decode_iterations:
        print(
            "perf smoke FAILED: speculation did not reduce decode forwards "
            f"({stats_on.decode_iterations} vs {stats_off.decode_iterations})"
        )
        return 1
    outputs_combo, _ = _serve(
        runner,
        prompts,
        prefix_cache=True,
        prefill_chunk=8,
        speculation=speculation(),
        max_new_tokens=16,
    )
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_combo[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"with speculation + prefix cache + chunked prefill combined"
            )
            return 1
    print(
        f"perf smoke ok (speculation accepted {accept_rate:.0%} of drafts, "
        f"{stats_off.decode_iterations} -> {stats_on.decode_iterations} decode forwards)"
    )
    return 0


def check_serving_smoke() -> int:
    """Deterministic prefix-cache and chunked-prefill regression gate."""
    runner = _tiny_serving_runner()
    rng = np.random.default_rng(3)
    template = rng.integers(0, 64, size=36)
    prompts = [
        np.concatenate([template, rng.integers(0, 64, size=10)]) for _ in range(8)
    ]
    outputs_off, stats_off = _serve(runner, prompts, prefix_cache=False)
    outputs_on, stats_on = _serve(runner, prompts, prefix_cache=True)
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_on[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"with the prefix cache enabled"
            )
            return 1
    hit_rate = stats_on.prefix_hit_rate()
    if hit_rate < REQUIRED_HIT_RATE:
        print(
            f"perf smoke FAILED: prefix cache served only {hit_rate:.0%} of prompt "
            f"tokens (required >= {REQUIRED_HIT_RATE:.0%}) — prefix matching regressed"
        )
        return 1
    if stats_on.prefill_tokens >= stats_off.prefill_tokens:
        print(
            "perf smoke FAILED: the prefix cache did not reduce prefilled prompt "
            f"tokens ({stats_on.prefill_tokens} vs {stats_off.prefill_tokens})"
        )
        return 1
    outputs_chunked, _ = _serve(runner, prompts, prefix_cache=True, prefill_chunk=8)
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_chunked[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under chunked prefill"
            )
            return 1
    print(
        f"perf smoke ok (prefix cache served {hit_rate:.0%} of prompt tokens, "
        f"{stats_off.prefill_tokens} -> {stats_on.prefill_tokens} prefilled)"
    )
    return 0


def check_projection_kernels() -> int:
    """Fast Index-Buffer projection vs the reference per-chunk loop."""
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=32)
    params = synthetic_projection_site(config)
    fast = TenderExecutor(params, config, implicit=True)
    reference = ReferenceTenderExecutor(params, config, implicit=True)
    x, positions, weight = decode_projection_operands()

    fast_out = fast.project("site", x, weight, None, positions=positions)
    reference_out = reference.project("site", x, weight, None, positions=positions)
    if not np.array_equal(fast_out, reference_out):
        print("perf smoke FAILED: fast projection is not bit-identical to the reference")
        return 1

    speedup = 0.0
    for _ in range(ATTEMPTS):
        reference_s = best_of(
            lambda: reference.project("site", x, weight, None, positions=positions), REPEATS
        )
        fast_s = best_of(
            lambda: fast.project("site", x, weight, None, positions=positions), REPEATS
        )
        speedup = max(speedup, reference_s / fast_s)
        if speedup >= 2 * REQUIRED_SPEEDUP:
            break
    if speedup < REQUIRED_SPEEDUP:
        print(
            f"perf smoke FAILED: fast decode path only {speedup:.2f}x the reference "
            f"(required >= {REQUIRED_SPEEDUP:.1f}x) — the fast kernels regressed"
        )
        return 1
    print(f"perf smoke ok (fast decode path {speedup:.1f}x over reference)")
    return 0


def check_fused_attention() -> int:
    """Deterministic fused paged-attention parity and KV-traffic gate."""
    from repro.serve import GenerationConfig, Scheduler
    from repro.serve.paged_kv_cache import SlotBatchView

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(5)
    # Lengths straddle the block size (8): exactly at, one past, and mid-block.
    prompts = [rng.integers(0, 64, size=size) for size in (16, 17, 24, 9)]

    def serve(fused):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=4),
            max_batch_size=3,
            block_size=8,
            record_logits=False,
        )
        # Hiding the block-table operands forces the gather path.
        with mock.patch.object(SlotBatchView, "supports_paged_attention", fused):
            for prompt in prompts:
                scheduler.submit(prompt)
            outputs = {output.request_id: output for output in scheduler.run()}
        return outputs, scheduler.cache.gather_bytes

    outputs_fused, fused_bytes = serve(True)
    outputs_reference, reference_bytes = serve(False)
    for request_id, output in outputs_reference.items():
        if not np.array_equal(output.generated, outputs_fused[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under fused paged attention"
            )
            return 1
    if fused_bytes != 0:
        print(
            f"perf smoke FAILED: fused paged attention gathered {fused_bytes} dense "
            f"KV bytes (required exactly 0) — the fused path fell back to gathering"
        )
        return 1
    # The reference path re-gathers every request's whole K/V history on every
    # decode step.  A loose analytic floor — one decode step's dense K+V for
    # the shortest prompt alone, per layer — catches a broken counter without
    # depending on scheduler batching details.
    config = runner.weights.config
    d_head = config.d_model // config.num_heads
    floor = (
        config.num_layers * 2 * min(len(p) for p in prompts) * config.num_heads * d_head * 8
    )
    if reference_bytes < floor:
        print(
            f"perf smoke FAILED: reference path gathered only {reference_bytes} dense "
            f"KV bytes (floor {floor}) — the gather-bytes counter regressed"
        )
        return 1
    print(
        f"perf smoke ok (fused paged attention token-identical, 0 vs "
        f"{reference_bytes} gathered KV bytes)"
    )
    return 0


def check_preemption_smoke() -> int:
    """Deterministic preemption-parity, TTFT, and recompute-cost gate."""
    from repro.serve import GenerationConfig, Scheduler

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(13)
    # Background stream from t=0 saturates the batch-2 scheduler with long
    # generations; the urgent burst lands at t=8 with short prompts and
    # 3-token budgets — the traffic whose TTFT preemption protects.
    low = [(rng.integers(0, 64, size=6 + i % 3), 5, 24, 0.8 * i) for i in range(4)]
    high = [(rng.integers(0, 64, size=4 + i % 2), 0, 3, 8.0 + 0.5 * i) for i in range(4)]

    def serve(preemption):
        # Block size 4 keeps the unpublished tail a resumed victim must
        # re-prefill short, so replay rides the prefix cache.
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=24),
            max_batch_size=2,
            block_size=4,
            prefix_cache=True,
            preemption=preemption,
            record_logits=False,
        )
        urgent_ids = []
        for group in (low, high):
            for prompt, priority, budget, arrival in group:
                request_id = scheduler.submit(
                    prompt,
                    max_new_tokens=budget,
                    arrival_time=arrival,
                    priority=priority if preemption else 0,
                )
                if group is high:
                    urgent_ids.append(request_id)
        outputs = {output.request_id: output for output in scheduler.run()}
        return outputs, scheduler.stats, urgent_ids

    outputs_fifo, stats_fifo, urgent_fifo = serve(False)
    outputs_preempt, stats_preempt, urgent_preempt = serve(True)
    for request_id, output in outputs_fifo.items():
        if not np.array_equal(output.generated, outputs_preempt[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under preemptive scheduling — the free-then-replay resume is not "
                f"bit-exact"
            )
            return 1
    if stats_preempt.preemptions < 1:
        print(
            "perf smoke FAILED: the two-class trace triggered no preemption — "
            "the priority policy never fired, so the gate proves nothing"
        )
        return 1

    def p99_ttft(outputs, request_ids):
        waits = [
            outputs[rid].first_token_at - outputs[rid].arrival_time for rid in request_ids
        ]
        return float(np.percentile(waits, 99))

    ttft_fifo = p99_ttft(outputs_fifo, urgent_fifo)
    ttft_preempt = p99_ttft(outputs_preempt, urgent_preempt)
    speedup = ttft_fifo / ttft_preempt
    if speedup < REQUIRED_TTFT_SPEEDUP:
        print(
            f"perf smoke FAILED: preemption improved urgent p99 TTFT only "
            f"{speedup:.2f}x ({ttft_fifo:.1f} -> {ttft_preempt:.1f} ticks, required "
            f">= {REQUIRED_TTFT_SPEEDUP:.1f}x) — the priority policy regressed"
        )
        return 1
    tokens = sum(len(output.generated) for output in outputs_fifo.values())
    work_fifo = tokens / (stats_fifo.prefill_tokens + tokens)
    work_preempt = tokens / (stats_preempt.prefill_tokens + tokens)
    work_ratio = work_preempt / work_fifo
    if work_ratio < REQUIRED_WORK_RATIO:
        print(
            f"perf smoke FAILED: preemption cut tokens-per-forwarded-row to "
            f"{work_ratio:.0%} of FIFO (required >= {REQUIRED_WORK_RATIO:.0%}) — "
            f"victim replay is recomputing instead of riding the prefix cache"
        )
        return 1
    print(
        f"perf smoke ok (preemption token-identical, urgent p99 TTFT "
        f"{speedup:.1f}x, work ratio {work_ratio:.0%})"
    )
    return 0


def check_observability() -> int:
    """Zero-cost-disabled tracing gate, span-taxonomy check, export validation."""
    import json
    import os
    import tempfile
    import time

    from repro.obs import CountingClock, Tracer
    from repro.serve import GenerationConfig, Scheduler

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(13)
    # The same two-class preemption trace check_preemption_smoke gates on —
    # it exercises the whole span taxonomy (queue/admit/prefill/decode/
    # preempt/finish plus cache events) in a fraction of a second.
    low = [(rng.integers(0, 64, size=6 + i % 3), 5, 24, 0.8 * i) for i in range(4)]
    high = [(rng.integers(0, 64, size=4 + i % 2), 0, 3, 8.0 + 0.5 * i) for i in range(4)]

    def serve(tracer):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=24),
            max_batch_size=2,
            block_size=4,
            prefix_cache=True,
            preemption=True,
            record_logits=False,
            tracer=tracer,
        )
        for group in (low, high):
            for prompt, priority, budget, arrival in group:
                scheduler.submit(
                    prompt, max_new_tokens=budget, arrival_time=arrival, priority=priority
                )
        start = time.perf_counter()
        outputs = {output.request_id: output for output in scheduler.run()}
        elapsed = time.perf_counter() - start
        return outputs, elapsed

    disabled_times = []
    enabled_times = []
    tracer = None
    for _ in range(ATTEMPTS):
        outputs_off, elapsed_off = serve(None)
        tracer = Tracer(clock=CountingClock())
        outputs_on, elapsed_on = serve(tracer)
        disabled_times.append(elapsed_off)
        enabled_times.append(elapsed_on)
        for request_id, output in outputs_off.items():
            if not np.array_equal(output.generated, outputs_on[request_id].generated):
                print(
                    f"perf smoke FAILED: request {request_id} generated different "
                    f"tokens with tracing enabled — instrumentation must be "
                    f"observation-only"
                )
                return 1

    # Span taxonomy: the trace must carry every lifecycle stage the
    # two-class run provably hits.
    required = (
        "request.queued",
        "request.admitted",
        "request.first_token",
        "request.preempted",
        "request.finished",
        "prefill_chunk",
        "decode_step",
        "cache.block_alloc",
    )
    for name in required:
        if not tracer.events_named(name):
            print(
                f"perf smoke FAILED: enabled tracing produced no {name!r} events "
                f"on the two-class preemption trace — an emit site went dark"
            )
            return 1

    # Disabled-path cost: the only residue of `tracer=None` is one
    # `is not None` branch per emit site.  Measure that branch, multiply by
    # the sites the enabled run proves are on the hot path, and compare to
    # the measured serve time.
    sink = None
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        if sink is not None:  # pragma: no cover - never taken
            raise AssertionError
    guard_seconds = (time.perf_counter() - start) / reps
    guard_total = len(tracer.events) * guard_seconds
    disabled_overhead = guard_total / min(disabled_times)
    if disabled_overhead > MAX_DISABLED_TRACE_OVERHEAD:
        print(
            f"perf smoke FAILED: disabled tracing costs "
            f"{disabled_overhead:.2%} of the serve "
            f"({len(tracer.events)} guards x {guard_seconds * 1e9:.0f} ns, "
            f"required <= {MAX_DISABLED_TRACE_OVERHEAD:.0%}) — an emit site is "
            f"doing work outside its `tracer is not None` guard"
        )
        return 1

    # Export validation: the Chrome trace JSON must load back with balanced
    # spans and one process_name row per track.
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    try:
        tracer.export_chrome_trace(path)
        with open(path) as trace_file:
            payload = json.load(trace_file)
    finally:
        os.unlink(path)
    rows = payload.get("traceEvents")
    if payload.get("displayTimeUnit") != "ms" or not isinstance(rows, list):
        print("perf smoke FAILED: exported trace is not Chrome trace-event JSON")
        return 1
    open_spans = {}
    metadata_pids = set()
    for row in rows:
        if not all(key in row for key in ("name", "ph", "pid", "tid")):
            print(f"perf smoke FAILED: exported trace row missing keys: {row}")
            return 1
        if row["ph"] == "M":
            metadata_pids.add(row["pid"])
        elif row["ph"] == "B":
            open_spans[row["pid"]] = open_spans.get(row["pid"], 0) + 1
        elif row["ph"] == "E":
            open_spans[row["pid"]] = open_spans.get(row["pid"], 0) - 1
            if open_spans[row["pid"]] < 0:
                print("perf smoke FAILED: exported trace closes a span it never opened")
                return 1
    if any(count != 0 for count in open_spans.values()):
        print("perf smoke FAILED: exported trace leaves spans open")
        return 1
    if {row["pid"] for row in rows} - metadata_pids:
        print("perf smoke FAILED: exported trace has events on unnamed tracks")
        return 1

    enabled_overhead = min(enabled_times) / min(disabled_times) - 1.0
    print(
        f"perf smoke ok (observability disabled-path {disabled_overhead:.3%}, "
        f"enabled {max(0.0, enabled_overhead):.1%} on {len(tracer.events)} events, "
        f"export valid)"
    )
    return 0


def check_serving_stress() -> int:
    """Randomized invariant sweep over the paged pool's op vocabulary."""
    from repro.serve import InvariantViolation, ServingStressHarness

    for seed in range(STRESS_SEEDS):
        try:
            ServingStressHarness(seed=seed).run(STRESS_OPS)
        except InvariantViolation as error:
            print(
                f"perf smoke FAILED: serving stress violated a pool invariant "
                f"(seed {seed}): {error}"
            )
            return 1
    print(
        f"perf smoke ok (serving stress clean over {STRESS_SEEDS} seeds x "
        f"{STRESS_OPS} ops)"
    )
    return 0


def check_fault_tolerance() -> int:
    """Deterministic chaos gate: kill replicas mid-trace, require parity."""
    from repro.serve import FaultInjector, GenerationConfig, ReplicaPool

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(17)
    # Template-heavy prompts so recovered requests replay over prefix hits
    # on their failover replica (sticky routing keeps templates together).
    templates = [rng.integers(0, 64, size=10) for _ in range(2)]
    prompts = [
        np.concatenate([templates[i % 2], rng.integers(0, 64, size=2 + i % 3)])
        for i in range(8)
    ]

    def serve(injector):
        pool = ReplicaPool(
            runner,
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=16),
            fault_injector=injector,
            max_batch_size=2,
            block_size=4,
            record_logits=False,
        )
        for prompt in prompts:
            pool.submit(prompt)
        outputs = {output.request_id: output for output in pool.run()}
        stats = pool.stats
        goodput = stats["generated_tokens"] / (
            stats["prefill_tokens"] + stats["generated_tokens"]
        )
        return outputs, pool, goodput

    outputs_clean, _, goodput_clean = serve(None)
    injector = FaultInjector(seed=0, kill_at={2: 0, 4: 1})
    outputs_chaos, chaos_pool, goodput_chaos = serve(injector)
    for request_id, output in outputs_clean.items():
        if not np.array_equal(output.generated, outputs_chaos[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"after replica-kill recovery — checkpoint/replay is not bit-exact"
            )
            return 1
    recoveries = chaos_pool.cluster_stats.recoveries
    if recoveries < 1:
        print(
            "perf smoke FAILED: the scripted kills triggered no recovery — "
            "the chaos schedule never exercised the replay path"
        )
        return 1
    ratio = goodput_chaos / goodput_clean
    if ratio < REQUIRED_FT_GOODPUT:
        print(
            f"perf smoke FAILED: chaos goodput fell to {ratio:.0%} of fault-free "
            f"(required >= {REQUIRED_FT_GOODPUT:.0%}) — recovery is recomputing "
            f"whole contexts instead of riding prefix hits"
        )
        return 1
    print(
        f"perf smoke ok (fault tolerance token-identical across {recoveries} "
        f"recoveries, goodput {ratio:.0%} of fault-free)"
    )
    return 0


def _tiny_tender_shard_runner():
    """A Tender-quantized 4-head random-weight runner (shardable at N=2/4)."""
    from repro.core import TenderConfig, TenderQuantizer
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=4, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape):
        return rng.normal(scale=0.25, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=dense((config.max_seq_len, config.d_model)),
        blocks=blocks,
        ln_final=norm(),
        lm_head=dense((config.d_model, config.vocab_size)),
    )
    calibration = [rng.integers(0, 64, size=40) for _ in range(6)]
    return TenderQuantizer(
        TenderConfig(bits=8, num_groups=8, row_chunk_size=8), implicit=True
    ).quantize(weights, calibration)


def check_tensor_parallel() -> int:
    """Deterministic sharded-parity and collective-chaos gate."""
    from repro.serve import (
        CollectiveFaultInjector,
        CollectiveGroup,
        GenerationConfig,
        ReplicaPool,
        ShardedRunner,
    )

    solo = _tiny_tender_shard_runner()
    rng = np.random.default_rng(23)
    templates = [rng.integers(0, 64, size=10) for _ in range(2)]
    prompts = [
        np.concatenate([templates[i % 2], rng.integers(0, 64, size=2 + i % 3)])
        for i in range(8)
    ]

    # --- Parity under scripted transport faults (solo scheduler path) ---
    expected, _ = _serve(solo, prompts, prefix_cache=True, max_new_tokens=8)
    injector = CollectiveFaultInjector(
        corrupt_at={3: 1, 11: 0}, drop_at={5: 0}, delay_at={7: 1}, duplicate_at={9: 0}
    )
    group = CollectiveGroup(2, fault_injector=injector)
    sharded = ShardedRunner(solo, 2, group=group)
    actual, _ = _serve(sharded, prompts, prefix_cache=True, max_new_tokens=8)
    for request_id, output in expected.items():
        if not np.array_equal(output.generated, actual[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"on the 2-shard runner — column-parallel sharding is not bit-exact"
            )
            return 1
    if group.stats.corruption_caught < 1 or group.stats.retries < 1:
        print(
            "perf smoke FAILED: the scripted corrupted collective was never "
            "caught-and-retried — the checksum path is not being exercised"
        )
        return 1

    # --- Shard-kill recovery and goodput through a pool of shard groups ---
    def serve_pool(kill_injector):
        def factory(replica_id):
            group = CollectiveGroup(2, fault_injector=kill_injector)
            return ShardedRunner(solo, 2, group=group)

        pool = ReplicaPool(
            solo,
            num_replicas=2,
            runner_factory=factory,
            config=GenerationConfig(max_new_tokens=8),
            max_batch_size=2,
            block_size=4,
            record_logits=False,
        )
        for prompt in prompts:
            pool.submit(prompt)
        outputs = {output.request_id: output for output in pool.run()}
        stats = pool.stats
        goodput = stats["generated_tokens"] / (
            stats["prefill_tokens"] + stats["generated_tokens"]
        )
        return outputs, pool, goodput

    outputs_clean, _, goodput_clean = serve_pool(None)
    kill_injector = CollectiveFaultInjector(seed=0, kill_at={40: 1}, max_kills=1)
    outputs_chaos, chaos_pool, goodput_chaos = serve_pool(kill_injector)
    for request_id, output in outputs_clean.items():
        if not np.array_equal(output.generated, outputs_chaos[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"after shard-kill recovery — group replay is not bit-exact"
            )
            return 1
    recoveries = chaos_pool.cluster_stats.recoveries
    if recoveries < 1 or chaos_pool.cluster_stats.failures < 1:
        print(
            "perf smoke FAILED: the scripted shard kill triggered no group "
            "recovery — the shard-group fault unit never tripped"
        )
        return 1
    ratio = goodput_chaos / goodput_clean
    if ratio < REQUIRED_FT_GOODPUT:
        print(
            f"perf smoke FAILED: shard-kill goodput fell to {ratio:.0%} of "
            f"fault-free (required >= {REQUIRED_FT_GOODPUT:.0%})"
        )
        return 1
    print(
        f"perf smoke ok (tensor parallel bit-identical at 2 shards, "
        f"{group.stats.corruption_caught} corruptions caught, {recoveries} "
        f"shard-kill recoveries, goodput {ratio:.0%} of fault-free)"
    )
    return 0


def main() -> int:
    """Run every smoke gate; first failure wins."""
    return (
        check_projection_kernels()
        or check_serving_smoke()
        or check_speculative_smoke()
        or check_fused_attention()
        or check_preemption_smoke()
        or check_observability()
        or check_serving_stress()
        or check_fault_tolerance()
        or check_tensor_parallel()
    )


if __name__ == "__main__":
    sys.exit(main())
