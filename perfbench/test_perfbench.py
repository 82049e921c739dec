"""Tests of the benchmark itself: inputs, percentile rule, SLO, span accounting."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import inputs
from perfbench.probes import attended_columns, check_accounting, span_table
from perfbench.serving import Served
from perfbench.stats import goodput, meets_slo, relative_spread, tail_percentile
from repro.obs import TraceEvent

TOKENS = np.random.default_rng(0).integers(0, 512, size=5000)


def _serialized(workload: inputs.WorkloadInputs) -> bytes:
    return b"".join(
        job.prompt.tobytes()
        + np.int64(job.max_new_tokens).tobytes()
        + np.float64(job.arrival_s).tobytes()
        for job in workload.jobs
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda seed: inputs.chat_shared(TOKENS, seed, duration_s=2.0),
        lambda seed: inputs.decode_long(TOKENS, seed),
        lambda seed: inputs.spec_seeds(TOKENS, seed),
    ],
    ids=["chat_shared", "decode_long", "spec_seeds"],
)
def test_same_seed_same_bytes_other_seed_other_inputs(build):
    first, again, other = build(3), build(3), build(4)
    assert _serialized(first) == _serialized(again)
    assert first.digest() == again.digest()
    assert _serialized(first) != _serialized(other)
    assert first.digest() != other.digest()


def test_chat_shared_shape():
    workload = inputs.chat_shared(TOKENS, 5, duration_s=3.0)
    assert len(workload.jobs) == round(inputs.CHAT_RATE_RPS * 3.0)
    arrivals = [job.arrival_s for job in workload.jobs]
    assert arrivals == sorted(arrivals) and 0.0 <= arrivals[0] and arrivals[-1] < 3.0
    prefixes = {job.prompt[: inputs.CHAT_PREFIX_LEN].tobytes() for job in workload.jobs}
    assert len(prefixes) <= inputs.CHAT_TEMPLATES
    suffixes = [job.prompt[inputs.CHAT_PREFIX_LEN :] for job in workload.jobs]
    assert all(16 <= len(suffix) <= 63 for suffix in suffixes)
    assert all(2 <= job.max_new_tokens <= 15 for job in workload.jobs)


def test_decode_long_shape():
    workload = inputs.decode_long(TOKENS, 5)
    assert len(workload.jobs) == inputs.OFFLINE_REQUESTS
    assert all(8 <= len(job.prompt) <= 23 for job in workload.jobs)
    assert all(150 <= job.max_new_tokens <= 219 for job in workload.jobs)
    assert len({job.prompt.tobytes() for job in workload.jobs}) == len(workload.jobs)


def test_percentile_rule_falls_back_to_p90_below_a_thousand_samples():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0  # p99 would have 9.99 samples beyond it
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_refused_request_misses_the_slo():
    refused = Served(due=0.0, refused=True)
    fast = Served(due=0.0, token_times=[0.010, 0.012, 0.014])
    assert refused.ttft is None and refused.tpot is None
    assert not meets_slo(refused.ttft, refused.tpot)
    assert meets_slo(fast.ttft, fast.tpot)
    latencies = [(fast.ttft, fast.tpot)]
    assert goodput(latencies, sent=2) == 0.5


def test_slo_limits_are_inclusive_and_both_required():
    assert meets_slo(0.050, 0.010)
    assert not meets_slo(0.051, 0.001)
    assert not meets_slo(0.001, 0.011)


def _events(spans):
    """Chronological B/E events from ``(name, track, begin, end)`` tuples."""
    edges = []
    for order, (name, track, begin, end) in enumerate(spans):
        edges.append((begin, 1, -order, TraceEvent(name, "B", begin, track, None, None)))
        edges.append((end, 0, -order, TraceEvent(name, "E", end, track, None, None)))
    return [event for *_, event in sorted(edges, key=lambda edge: edge[:3])]


def test_self_time_of_nested_spans_across_tracks():
    spans = [
        ("runner.decode_step", "runner", 0.0, 10.0),
        ("executor.project.q_proj", "executor", 2.0, 5.0),
        ("kernels.paged_attention", "kernels", 3.0, 4.0),
        ("paged_kv_cache.write", "paged_kv_cache", 6.0, 8.0),
        ("scheduler.step", "scheduler", 12.0, 15.0),
    ]
    table, outside = span_table(_events(spans), 0.0, 20.0)
    assert table["runner.decode_step"] == [1, 10.0, 5.0]
    assert table["executor.project.q_proj"] == [1, 3.0, 2.0]
    assert table["kernels.paged_attention"] == [1, 1.0, 1.0]
    assert table["paged_kv_cache.write"] == [1, 2.0, 2.0]
    assert table["scheduler.step"] == [1, 3.0, 3.0]
    assert outside == 7.0
    check_accounting(table, outside, 20.0)
    with pytest.raises(AssertionError):
        check_accounting(table, outside, 21.0)


def test_self_time_sums_repeated_calls():
    spans = [("scheduler.step", "scheduler", 0.0, 4.0), ("scheduler.step", "scheduler", 5.0, 6.0)]
    table, outside = span_table(_events(spans), 0.0, 6.0)
    assert table["scheduler.step"] == [2, 5.0, 5.0]
    assert outside == 1.0


def test_unbalanced_spans_are_rejected():
    events = [
        TraceEvent("a", "B", 0.0, "x", None, None),
        TraceEvent("b", "B", 1.0, "y", None, None),
        TraceEvent("a", "E", 2.0, "x", None, None),
    ]
    with pytest.raises(ValueError):
        span_table(events, 0.0, 3.0)
    with pytest.raises(ValueError):
        span_table(events[:2], 0.0, 3.0)


def test_attended_columns_clip_runs_at_the_attended_length():
    runs = [[(0, 5, 2), (2, 9, 1)], [(0, 0, 1)]]
    # Row 0 reads blocks 0-1 (32 columns) then 16 of block 2; row 1 reads 16.
    assert attended_columns(runs, block_size=16, attended=40) == 40 + 16
    assert attended_columns(runs, block_size=16, attended=10) == 10 + 10


def test_relative_spread():
    assert relative_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert relative_spread([90.0, 100.0, 100.0, 110.0]) > 0.0


@pytest.fixture(scope="module")
def served_model():
    """A set-up Tender runner and its token stream (loads the zoo checkpoint)."""
    from perfbench.serving import set_up

    return set_up("decode_long")


def _small(name: str, tokens: np.ndarray, budget: int, spacing_s: float = 0.0):
    jobs = tuple(
        inputs.Job(tokens[40 * i : 40 * i + 12 + i].copy(), budget, spacing_s * i)
        for i in range(5)
    )
    return inputs.WorkloadInputs(name, jobs)


@pytest.mark.parametrize("workload", ["decode_long", "spec_draft", "chat_shared"])
def test_traced_passes_match_reference_repeat_counts_and_restore(served_model, workload):
    from perfbench.bench import layer_counters, traced_pass, verdicts
    from perfbench.serving import reference_tokens
    from repro.models import TransformerRunner
    from repro.serve import PagedKVCache, Scheduler

    runner, tokens = served_model
    small = _small(workload, tokens, budget=12, spacing_s=0.01 if workload == "chat_shared" else 0.0)
    reference = reference_tokens(runner, small)
    originals = (
        TransformerRunner.__dict__["decode_step"],
        PagedKVCache.__dict__["reserve"],
        Scheduler.__dict__["step"],
    )
    first, layers = traced_pass(workload, runner, small, None)
    assert all(verdicts(first, reference))
    assert layers["runner.prefill.calls"] > 0
    assert layers["executor.project.q_proj.rows"] > 0
    assert layers["paged_kv_cache.reserve.calls"] == len(small.jobs)
    assert 0.0 < layers["paged_kv_cache.blocks_in_use_peak_frac"] <= 1.0
    assert (
        TransformerRunner.__dict__["decode_step"],
        PagedKVCache.__dict__["reserve"],
        Scheduler.__dict__["step"],
    ) == originals
    if workload == "spec_draft":
        assert layers["spec.propose.calls"] > 0
        assert layers["draft.runner.decode_step.calls"] > 0
        assert layers["runner.verify.calls"] > 0
    if workload != "decode_long":
        assert layers["async_engine.submit_nowait.calls"] == len(small.jobs)
    if workload != "chat_shared":
        _, again = traced_pass(workload, runner, small, None)
        assert layer_counters(again) == layer_counters(layers)


def test_latency_windows_hold_enough_samples_for_a_p90():
    from perfbench.bench import MIN_LATENCY_SAMPLES, Pass, latency_percentile, windows
    from perfbench.serving import PassResult

    def fake(count: int, gap: float) -> Pass:
        served = [Served(due=0.0, token_times=[gap, 2 * gap]) for _ in range(count)]
        return Pass(False, PassResult(served, 1.0, None, []), [True] * count, {})

    passes = [fake(48, 0.001) for _ in range(7)] + [fake(48, 0.005)]
    groups = windows(passes)
    assert [len(group) for group in groups] == [3, 5]
    assert all(sum(len(p.result.served) for p in g) >= MIN_LATENCY_SAMPLES for g in groups)
    # One slow window of two does not set the median alone: the median of
    # the two window values sits between them.
    assert 1.0 < latency_percentile(passes, "ttft", 90) < 5.0
    assert windows(passes[:1]) == [passes[:1]]


def test_serving_times_are_multiplied_by_the_run_scale():
    from perfbench.bench import Pass, latency_percentile, tokens_per_second
    from perfbench.serving import PassResult

    served = [Served(due=0.0, token_times=[0.010, 0.020]) for _ in range(100)]
    passes = [Pass(False, PassResult(served, 1.0, None, []), [True] * 100, {})]
    assert latency_percentile(passes, "ttft", 50) == pytest.approx(10.0)
    assert latency_percentile(passes, "ttft", 50, scale=0.5) == pytest.approx(5.0)
    assert tokens_per_second(passes) == pytest.approx(200.0)
    assert tokens_per_second(passes, scale=0.5) == pytest.approx(400.0)


def test_host_scale_follows_the_geometric_mean_of_measurements():
    from perfbench import hostspeed

    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale([nominal, nominal]) == pytest.approx(1.0)
    # A host measured twice as slow as nominal shrinks times, by less than
    # half because serving feels the host's speed less than the reference.
    slow = hostspeed.scale([2 * nominal] * 3)
    assert slow == pytest.approx(0.5**hostspeed.SENSITIVITY)
    assert hostspeed.scale([nominal, 4 * nominal]) == pytest.approx(slow)
    assert hostspeed.reference_seconds() > 0.0
