"""Layer spans from outside: wrap public entry points, then account self time.

:class:`LayerProbe` replaces the serving stack's entry points -- class
attributes, and the ``paged_attention`` name the runner module calls -- with
wrappers that open a span on a :class:`repro.obs.Tracer` (one track per
layer) and tally deterministic work counts.  Nothing inside the program
changes, and the wrappers are removed when the probe exits.

:func:`span_table` turns the tracer's events into per-entry call counts,
busy time and self time.  An entry's self time is its busy time minus the
busy time of the spans opened while it was the innermost open span (its
timed callees), so the self times of all spans plus the time outside every
span add up to the traced wall time; :func:`check_accounting` asserts that.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

import repro.models.inference as inference
from repro.core import TenderExecutor
from repro.models import TransformerRunner
from repro.serve import AsyncEngine, KVCache, ModelDraft, PagedKVCache, Scheduler

#: Matmul sites of one transformer iteration (the site name's last part).
PROJECTION_SITES = ("q_proj", "k_proj", "v_proj", "out_proj", "fc1", "fc2", "lm_head")
RUNNER_ENTRIES = ("prefill", "decode_step", "verify")
PAGED_CACHE_ENTRIES = ("write", "reserve", "match_prefix", "publish_prefix", "free", "truncate")
DENSE_CACHE_ENTRIES = ("write", "view")

#: Every timed entry, in report order.
TIMED_ENTRIES = (
    ("kernels.paged_attention",)
    + tuple(f"executor.project.{site}" for site in PROJECTION_SITES)
    + ("executor.attention_matmul",)
    + tuple(f"runner.{entry}" for entry in RUNNER_ENTRIES)
    + tuple(f"draft.runner.{entry}" for entry in RUNNER_ENTRIES)
    + tuple(f"paged_kv_cache.{entry}" for entry in PAGED_CACHE_ENTRIES)
    + ("scheduler.step", "spec.propose")
    + tuple(f"kv_cache.{entry}" for entry in DENSE_CACHE_ENTRIES)
    + ("async_engine.submit_nowait",)
)
#: Timed entries that also count rows, floating-point operations and bytes.
WORK_ENTRIES = tuple(f"executor.project.{site}" for site in PROJECTION_SITES) + (
    "executor.attention_matmul",
)


def _layer(entry: str) -> str:
    """The trace track of an entry: its name without the last component.

    Every executor entry shares the ``executor`` track.
    """
    return entry.rsplit(".", 1)[0] if not entry.startswith("executor.") else "executor"


class LayerProbe:
    """Spans and work counters around the serving stack's public entry points.

    Parameters
    ----------
    tracer : repro.obs.Tracer
        Receives one span per call, on one track per layer.
    target : TransformerRunner
        The served model; any other runner (the drafter's) is reported
        under ``draft.runner``.
    """

    def __init__(self, tracer, target: TransformerRunner) -> None:
        self.tracer = tracer
        self.target = target
        #: ``<entry>.<count>`` -> total, for rows, flops and bytes.
        self.counts: Counter = Counter()
        #: Largest share of KV blocks referenced by live slots.
        self.blocks_in_use_peak_frac = 0.0
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerProbe":
        """Install every wrapper."""
        for entry in RUNNER_ENTRIES:
            self._wrap(TransformerRunner, entry, self._runner_span(entry))
        self._wrap(TenderExecutor, "project", self._project)
        self._wrap(TenderExecutor, "attention_matmul", self._attention_matmul)
        self._wrap(inference, "paged_attention", self._paged_attention)
        for entry in PAGED_CACHE_ENTRIES:
            self._wrap(PagedKVCache, entry, self._span(f"paged_kv_cache.{entry}"))
        self._wrap(PagedKVCache, "reserve", self._reserve)
        self._wrap(Scheduler, "step", self._span("scheduler.step"))
        self._wrap(ModelDraft, "propose", self._span("spec.propose"))
        for entry in DENSE_CACHE_ENTRIES:
            self._wrap(KVCache, entry, self._span(f"kv_cache.{entry}"))
        self._wrap(AsyncEngine, "submit_nowait", self._span("async_engine.submit_nowait"))
        return self

    def __exit__(self, *exc) -> None:
        """Restore every original, the most recently installed first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _span(self, entry: str):
        """Wrapper factory: one span named ``entry`` on the entry's layer track."""
        tracer, track = self.tracer, _layer(entry)

        def make(original):
            def timed(*args, **kwargs):
                tracer.begin(entry, track)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(track)

            return timed

        return make

    def _runner_span(self, method: str):
        tracer, target = self.tracer, self.target

        def make(original):
            def timed(runner, *args, **kwargs):
                track = "runner" if runner is target else "draft.runner"
                tracer.begin(f"{track}.{method}", track)
                try:
                    return original(runner, *args, **kwargs)
                finally:
                    tracer.end(track)

            return timed

        return make

    def _project(self, original):
        tracer, counts = self.tracer, self.counts
        entries: Dict[str, str] = {}

        def project(executor, name, x, weight, bias, positions=None):
            entry = entries.get(name)
            if entry is None:
                entry = entries[name] = f"executor.project.{name.rsplit('.', 1)[-1]}"
            tracer.begin(entry, "executor")
            try:
                out = original(executor, name, x, weight, bias, positions)
            finally:
                tracer.end("executor")
            rows, inner = x.shape
            counts[entry + ".rows"] += rows
            counts[entry + ".flops"] += 2 * rows * inner * weight.shape[-1]
            counts[entry + ".bytes"] += x.nbytes + weight.nbytes + out.nbytes
            return out

        return project

    def _attention_matmul(self, original):
        tracer, counts, entry = self.tracer, self.counts, "executor.attention_matmul"

        def attention_matmul(executor, name, a, b):
            tracer.begin(entry, "executor")
            try:
                out = original(executor, name, a, b)
            finally:
                tracer.end("executor")
            rows = int(np.prod(a.shape[:-1]))
            counts[entry + ".rows"] += rows
            counts[entry + ".flops"] += 2 * rows * a.shape[-1] * b.shape[-1]
            counts[entry + ".bytes"] += a.nbytes + b.nbytes + out.nbytes
            return out

        return attention_matmul

    def _paged_attention(self, original):
        tracer, counts, entry = self.tracer, self.counts, "kernels.paged_attention"

        def paged_attention(queries, key_pool, value_pool, runs, block_size, positions, valid=None):
            tracer.begin(entry, "kernels")
            try:
                out = original(queries, key_pool, value_pool, runs, block_size, positions, valid)
            finally:
                tracer.end("kernels")
            _, heads, q_len, d_head = queries.shape
            columns = attended_columns(runs, block_size, int(positions.max()) + 1)
            # QK^T and SV each multiply-add d_head values per score column.
            counts[entry + ".flops"] += 4 * heads * q_len * d_head * columns
            counts[entry + ".bytes"] += (
                queries.nbytes + out.nbytes + 2 * heads * d_head * columns * key_pool.itemsize
            )
            return out

        return paged_attention

    def _reserve(self, original):
        # ``original`` is already the span wrapper installed just before.
        def reserve(cache, *args, **kwargs):
            slot = original(cache, *args, **kwargs)
            in_use = 1.0 - cache.free_block_count / cache.num_blocks
            self.blocks_in_use_peak_frac = max(self.blocks_in_use_peak_frac, in_use)
            return slot

        return reserve


def attended_columns(runs, block_size: int, attended: int) -> int:
    """Key columns ``paged_attention`` reads, summed over batch rows.

    Mirrors the kernel's loop: each row reads its consecutive-block runs in
    order, clipped at the batch-wide attended length.
    """
    total = 0
    for row_runs in runs:
        for first_index, _, count in row_runs:
            start = first_index * block_size
            if start >= attended:
                break
            total += min(start + count * block_size, attended) - start
    return total


def span_table(events, start: float, end: float):
    """Per-entry ``[calls, busy, self]`` and the time outside every span.

    ``events`` are a tracer's events in emission order, from one thread, so
    spans nest across tracks; ``start``/``end`` bound the traced window in
    the tracer's clock units.  The outside time is summed from the gaps
    between top-level spans, independently of the self times.
    """
    table: Dict[str, List[float]] = {}
    stack: List[list] = []
    outside = 0.0
    last_end = start
    for event in events:
        if event.phase == "B":
            if not stack:
                outside += event.ts - last_end
            stack.append([event.name, event.ts, 0.0])
        elif event.phase == "E":
            name, begin, children = stack.pop()
            if name != event.name:
                raise ValueError(f"span {event.name!r} closed while {name!r} was open")
            duration = event.ts - begin
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - children
            if stack:
                stack[-1][2] += duration
            else:
                last_end = event.ts
    if stack:
        raise ValueError(f"{len(stack)} spans still open at the end of the window")
    outside += end - last_end
    return table, outside


def check_accounting(table, outside: float, wall: float) -> float:
    """Assert self times plus outside time equal the wall time; return the gap."""
    accounted = sum(row[2] for row in table.values()) + outside
    gap = abs(accounted - wall)
    if gap > 1e-6 * max(wall, 1.0):
        raise AssertionError(
            f"self times + outside = {accounted:.3f} but the traced wall is {wall:.3f}"
        )
    return gap
