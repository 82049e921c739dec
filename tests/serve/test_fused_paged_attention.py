"""Serving parity sweep: fused paged attention vs the gather reference path.

The fused path (``repro.core.kernels.paged_attention``) reads K/V straight
from ``PagedKVCache`` block storage; the gather path fancy-indexes the same
blocks into dense per-view copies first, and patching
``SlotBatchView.supports_paged_attention`` to False forces it.  The
correctness bar, matching the house style: Tender implicit/explicit tokens **and** step
logits must be bit-identical between the two paths across prefix cache
on/off, copy-on-write forks, chunked prefill, speculative verify, and
contexts exactly at / one past a block multiple.  The FP baseline's tokens
must match, its logits to BLAS summation-order noise (~1e-15) on
fragmented block tables only.  Tender ``quantize_attention=True`` keeps
the gather path (dynamic per-head statistics need the dense operands), as
documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.models import TransformerRunner
from repro.serve import GenerationConfig, ModelDraft, Scheduler, SpecConfig
from repro.serve.paged_kv_cache import SlotBatchView


def tender_runner(weights, calibration, implicit: bool, **config_kwargs) -> TransformerRunner:
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, **config_kwargs)
    return TenderQuantizer(config, implicit=implicit).quantize(weights, calibration)


@pytest.fixture(scope="module")
def runners(outlier_weights, calibration):
    return {
        "float": TransformerRunner(outlier_weights),
        "tender-implicit": tender_runner(outlier_weights, calibration, implicit=True),
        "tender-explicit": tender_runner(outlier_weights, calibration, implicit=False),
    }


@pytest.fixture(scope="module")
def prompts(corpus_splits):
    """Block-boundary-straddling prompts (block size 8 in these tests).

    Final contexts land exactly at and one past block multiples once the
    5 decode steps run; the second prompt shares the first's two-block
    prefix, so prefix-cached runs exercise copy-on-write forks too.
    """
    train_tokens, _ = corpus_splits
    template = train_tokens[:16]  # exactly two blocks
    return [
        template,
        np.concatenate([template, train_tokens[50:55]]),
        train_tokens[20:37],  # 17 tokens: one past a block multiple
        np.concatenate([train_tokens[100:108], train_tokens[100:108]]),  # drafts well
    ]


def serve_all(
    runner,
    prompts,
    config,
    *,
    fused,
    prefix_cache=False,
    prefill_chunk=None,
    speculation=None,
):
    scheduler = Scheduler(
        runner,
        config,
        max_batch_size=3,
        block_size=8,
        prefix_cache=prefix_cache,
        prefill_chunk=prefill_chunk,
        speculation=speculation,
    )
    # Hiding the block-table operands forces the gather path.
    with mock.patch.object(SlotBatchView, "supports_paged_attention", fused):
        for prompt in prompts:
            scheduler.submit(prompt)
        outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler


def assert_outputs_match(name, fused, reference):
    assert fused.keys() == reference.keys()
    for request_id in reference:
        np.testing.assert_array_equal(
            fused[request_id].generated, reference[request_id].generated
        )
        if name.startswith("tender"):
            np.testing.assert_array_equal(
                fused[request_id].step_logits, reference[request_id].step_logits
            )
        else:
            np.testing.assert_allclose(
                fused[request_id].step_logits,
                reference[request_id].step_logits,
                rtol=0.0,
                atol=1e-12,
            )


@pytest.mark.parametrize("name", ["float", "tender-implicit", "tender-explicit"])
class TestFusedMatchesGather:
    @pytest.mark.parametrize("prefill_chunk", [None, 5])
    @pytest.mark.parametrize("prefix_cache", [False, True])
    def test_greedy_sweep(self, name, prefill_chunk, prefix_cache, runners, prompts):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=5)
        fused, _ = serve_all(
            runner, prompts, config, fused=True,
            prefix_cache=prefix_cache, prefill_chunk=prefill_chunk,
        )
        reference, _ = serve_all(
            runner, prompts, config, fused=False,
            prefix_cache=prefix_cache, prefill_chunk=prefill_chunk,
        )
        assert_outputs_match(name, fused, reference)

    def test_speculative_verify(self, name, runners, prompts):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=8)
        # Self-drafting: greedy drafts always match the target's greedy
        # samples, so multi-token verify forwards run for every runner.
        speculation = SpecConfig(drafter=ModelDraft(runner), draft_tokens=3, max_draft=6)
        fused, scheduler = serve_all(
            runner, prompts, config, fused=True, speculation=speculation
        )
        reference, _ = serve_all(
            runner, prompts, config, fused=False, speculation=speculation
        )
        assert scheduler.stats.spec_accepted_tokens > 0  # verify path exercised
        assert_outputs_match(name, fused, reference)

    def test_seeded_top_k(self, name, runners, prompts):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=5, top_k=8, temperature=1.2, seed=17)
        fused, _ = serve_all(runner, prompts, config, fused=True)
        reference, _ = serve_all(runner, prompts, config, fused=False)
        for request_id in reference:
            np.testing.assert_array_equal(
                fused[request_id].generated, reference[request_id].generated
            )


class TestGatherBytes:
    def test_fused_serving_moves_no_dense_kv(self, runners, prompts):
        """End to end — prefill, decode, COW — without one gathered byte."""
        _, scheduler = serve_all(
            runners["tender-implicit"],
            prompts,
            GenerationConfig(max_new_tokens=5),
            fused=True,
            prefix_cache=True,
        )
        assert scheduler.cache.gather_bytes == 0

    def test_reference_path_still_gathers(self, runners, prompts):
        _, scheduler = serve_all(
            runners["tender-implicit"],
            prompts,
            GenerationConfig(max_new_tokens=5),
            fused=False,
        )
        assert scheduler.cache.gather_bytes > 0

    def test_quantized_attention_keeps_the_gather_path(self, outlier_weights, calibration, prompts):
        """Tender "all" needs dense operands for its dynamic statistics; the
        fused path must not take it over."""
        runner = tender_runner(
            outlier_weights, calibration, implicit=True, quantize_attention=True
        )
        assert not runner.executor.plain_attention
        _, scheduler = serve_all(
            runner, prompts[:2], GenerationConfig(max_new_tokens=3), fused=True
        )
        assert scheduler.cache.gather_bytes > 0
