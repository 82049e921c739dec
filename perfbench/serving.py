"""Set-up, serving passes and the plain reference serve.

One *pass* serves every request of a workload's inputs on a freshly built
engine and records, per request, when it was due, when each token reached
the caller and what it generated.  ``decode_long`` submits everything to a
:class:`~repro.serve.Scheduler` at once and reads tokens from its
``on_token`` hook.  ``chat_shared`` and ``spec_draft`` send each request
through :meth:`~repro.serve.AsyncEngine.submit_nowait` when it is due (all
at once for ``spec_draft``) and read tokens from its streams.  Serving uses
the canonical configuration: prefix cache on, ``prefill_chunk=64``, fused
paged attention, batches of 8.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core import TenderConfig, TenderQuantizer
from repro.data import calibration_samples, load_corpus
from repro.errors import ResourceExhaustedError
from repro.models import TransformerRunner, clear_memory_cache, get_language_model
from repro.serve import AsyncEngine, GenerationConfig, ModelDraft, Scheduler, SpecConfig

from perfbench.inputs import SPEC_NEW_TOKENS, Job, WorkloadInputs

MODEL_NAME = "opt-6.7b-sim"
TENDER = TenderConfig(bits=8, num_groups=8, row_chunk_size=32)
MAX_BATCH = 8
PREFILL_CHUNK = 64
#: Waiting-queue bound of the open-loop engine; a full queue refuses.
MAX_WAITING = 64
#: Draft depth bound of the speculative workload.
MAX_DRAFT = 4
#: The fixed warm-up request: a prompt spanning nearly the whole context
#: window, so every row chunk's lazily built tables fill before timing.
WARMUP_PROMPT_LEN = 240
WARMUP_NEW_TOKENS = 8


@dataclass
class Served:
    """What one request of a pass produced, and when."""

    #: ``time.perf_counter()`` at which the request was due.
    due: float
    #: Seconds between due and hand-over to the engine (open loop only).
    late: float = 0.0
    refused: bool = False
    error: Optional[str] = None
    token_times: List[float] = field(default_factory=list)
    generated: Optional[np.ndarray] = None
    finish_reason: Optional[str] = None

    @property
    def ttft(self) -> Optional[float]:
        """Seconds from due to the first token (``None`` without output)."""
        return self.token_times[0] - self.due if self.token_times else None

    @property
    def tpot(self) -> Optional[float]:
        """Mean seconds per output token after the first (0 for one token)."""
        if not self.token_times:
            return None
        if len(self.token_times) == 1:
            return 0.0
        return (self.token_times[-1] - self.token_times[0]) / (len(self.token_times) - 1)


@dataclass
class PassResult:
    """One serving pass: per-request records, wall time and scheduler stats."""

    served: List[Served]
    wall_s: float
    stats: object
    #: Scheduler-tick queue wait (admission minus arrival) per finished request.
    queue_wait_ticks: List[float]

    @property
    def output_tokens(self) -> int:
        """Tokens streamed to callers during the pass."""
        return sum(len(record.token_times) for record in self.served)


def build_runner(weights, tokens: np.ndarray) -> TransformerRunner:
    """Calibrate and quantize ``weights`` with Tender implicit."""
    calibration = calibration_samples(tokens, seq_len=48, num_samples=4, seed=7)
    return TenderQuantizer(TENDER, implicit=True).quantize(weights, calibration)


def load_tokens(vocab_size: int) -> np.ndarray:
    """The wiki corpus' training split: calibration data and prompt source."""
    train, _ = load_corpus("wiki", vocab_size=vocab_size).split()
    return train


def speculation(runner: TransformerRunner) -> SpecConfig:
    """A fresh one-layer drafter over ``runner``."""
    return SpecConfig(drafter=ModelDraft.truncated(runner, 1), max_draft=MAX_DRAFT)


def set_up(workload: str):
    """Load, calibrate, quantize, build an engine and serve the warm-up request.

    Returns ``(runner, tokens)``.  The in-process checkpoint cache is
    cleared first, so every call reads the checkpoint from disk.
    """
    clear_memory_cache()
    weights = get_language_model(MODEL_NAME)
    tokens = load_tokens(weights.config.vocab_size)
    runner = build_runner(weights, tokens)
    warmup = WorkloadInputs(
        "warmup", (Job(tokens[:WARMUP_PROMPT_LEN].copy(), WARMUP_NEW_TOKENS),)
    )
    serve_once(workload, runner, warmup)
    return runner, tokens


def serve_once(workload: str, runner, inputs: WorkloadInputs) -> PassResult:
    """One pass of ``workload`` over ``inputs`` on a fresh engine."""
    if workload == "decode_long":
        return offline_pass(runner, inputs)
    return asyncio.run(open_loop_pass(runner, inputs, speculate=workload == "spec_draft"))


def offline_pass(runner, inputs: WorkloadInputs) -> PassResult:
    """Submit every request at once and serve until all finish."""
    records: List[Served] = []

    def on_token(request_id: int, token: int) -> None:
        records[request_id].token_times.append(time.perf_counter())

    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=1),
        max_batch_size=MAX_BATCH,
        record_logits=False,
        prefix_cache=True,
        prefill_chunk=PREFILL_CHUNK,
        on_token=on_token,
    )
    due = time.perf_counter()
    for job in inputs.jobs:
        records.append(Served(due=due))
        scheduler.submit(job.prompt, max_new_tokens=job.max_new_tokens)
    outputs = scheduler.run()
    wall = time.perf_counter() - due
    for output in outputs:
        record = records[output.request_id]
        record.generated = output.generated
        record.finish_reason = output.finish_reason
    waits = [output.admitted_at - output.arrival_time for output in outputs]
    return PassResult(records, wall, scheduler.stats, waits)


async def open_loop_pass(runner, inputs: WorkloadInputs, speculate: bool) -> PassResult:
    """Send each request when due through ``submit_nowait``; await all.

    The generator never waits for replies, so a stalled engine delays the
    requests due behind the stall; each request is timed from its due time.
    """
    engine = AsyncEngine(
        runner,
        GenerationConfig(max_new_tokens=1),
        max_waiting=MAX_WAITING,
        max_batch_size=MAX_BATCH,
        record_logits=False,
        prefix_cache=True,
        prefill_chunk=PREFILL_CHUNK,
        speculation=speculation(runner) if speculate else None,
    )
    records: List[Served] = []
    outputs = []

    async def consume(record: Served, stream) -> None:
        try:
            async for _ in stream:
                record.token_times.append(time.perf_counter())
            output = await stream.result()
        except Exception as error:  # the engine failed: record, keep serving
            record.error = repr(error)
            return
        record.generated = output.generated
        record.finish_reason = output.finish_reason
        outputs.append(output)

    consumers = []
    start = time.perf_counter()
    try:
        for job in inputs.jobs:
            record = Served(due=start + job.arrival_s)
            records.append(record)
            delay = record.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record.late = time.perf_counter() - record.due
            try:
                stream = engine.submit_nowait(job.prompt, max_new_tokens=job.max_new_tokens)
            except ResourceExhaustedError:
                record.refused = True
                continue
            consumers.append(asyncio.create_task(consume(record, stream)))
        await asyncio.gather(*consumers)
        wall = time.perf_counter() - start
    finally:
        await engine.close()
    waits = [output.admitted_at - output.arrival_time for output in outputs]
    return PassResult(records, wall, engine.stats, waits)


def reference_tokens(runner, inputs: WorkloadInputs) -> List[np.ndarray]:
    """Tokens of a plain serve: no prefix cache, chunking or speculation."""
    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=1),
        max_batch_size=MAX_BATCH,
        record_logits=False,
    )
    ids = [scheduler.submit(job.prompt, max_new_tokens=job.max_new_tokens) for job in inputs.jobs]
    generated = {output.request_id: output.generated for output in scheduler.run()}
    return [generated[request_id] for request_id in ids]


def extractive_prompts(runner, seeds: WorkloadInputs) -> WorkloadInputs:
    """``spec_draft`` prompts: each seed followed by the model's greedy continuation."""
    continuations = reference_tokens(runner, seeds)
    jobs = tuple(
        Job(np.concatenate([job.prompt, continuation]), SPEC_NEW_TOKENS)
        for job, continuation in zip(seeds.jobs, continuations)
    )
    return WorkloadInputs("spec_draft", jobs)
