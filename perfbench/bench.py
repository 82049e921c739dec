"""Run one workload: set up, serve passes for the run length, check, report.

A run sets up :data:`SETUP_REPEATS` times before measuring and as many
times after, and reports the median as ``setup_s`` (the host's speed drifts
over tens of seconds, so both ends of the run are sampled).  Every set-up
and every pass is bracketed by a measurement of the host's speed
(:mod:`perfbench.hostspeed`), and every end-to-end time the run reports is
normalised by it: each set-up by the two measurements around it, the
serving times by all the measurements between passes.  The raw wall-clock
values are recorded beside them in the ``meta`` line.  The
per-layer times of ``--trace 1`` are wall clock.  A run builds the
workload's inputs from ``--seed``, serves them once on a plain reference
scheduler (untimed), then serves measured passes on fresh engines until
``--seconds`` have passed (the batch workloads also until
:data:`MIN_LATENCY_SAMPLES` requests support a p90; ``chat_shared`` always
serves :data:`CHAT_PASSES` open-loop passes of ``seconds / CHAT_PASSES``).
Every pass's tokens are compared with the reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes and reports per-layer metrics: medians over the
traced passes, plus ``trace_overhead_frac``, the share of output tokens per
second lost to tracing.  The batch workloads (``decode_long``,
``spec_draft``) hand every request over before the first step, so their
work counters must repeat exactly in every pass; ``chat_shared`` batches by
wall-clock arrival, so its schedule, and every count that follows from it,
varies from run to run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench import hostspeed
from perfbench import inputs as workload_inputs
from perfbench.probes import (
    TIMED_ENTRIES,
    WORK_ENTRIES,
    LayerProbe,
    check_accounting,
    span_table,
)
from perfbench.serving import (
    PassResult,
    extractive_prompts,
    reference_tokens,
    serve_once,
    set_up,
)
from perfbench.stats import goodput, percentile, tail_percentile
from repro.obs import Tracer, WallClock

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("chat_shared", "decode_long", "spec_draft")
SETUP_REPEATS = 2
CHAT_PASSES = 3
MIN_LATENCY_SAMPLES = 100

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "tpot_p50_ms": "ms",
    "tpot_p90_ms": "ms",
    "output_tok_s": "tok/s",
    "slo_goodput_frac": "frac",
    "token_match_frac": "frac",
    "peak_rss_mb": "MB",
}
#: Scheduler counters that are identical in every pass of an offline workload.
SCHEDULER_COUNTERS = (
    "prefill_iterations",
    "decode_iterations",
    "prefill_tokens",
    "prefix_hit_tokens",
    "decode_slot_steps",
    "generated_tokens",
    "spec_proposed_tokens",
    "spec_accepted_tokens",
)


#: Per-layer scheduler metrics derived from its work counts.
SCHEDULER_LAYER_COUNTERS = (
    "scheduler.forwards",
    "scheduler.prefill_tokens",
    "scheduler.prefix_hit_frac",
    "scheduler.batch_rows_mean",
    "scheduler.queue_wait_ticks_p50",
    "scheduler.spec_accept_frac",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units: Dict[str, str] = {}
    for entry in TIMED_ENTRIES:
        units[f"{entry}.calls"] = "count"
        units[f"{entry}.busy_ms"] = "ms"
        units[f"{entry}.self_ms"] = "ms"
        if entry in WORK_ENTRIES:
            units[f"{entry}.rows"] = "count"
        if entry in WORK_ENTRIES or entry == "kernels.paged_attention":
            units[f"{entry}.flops"] = "flop"
            units[f"{entry}.bytes"] = "B"
    units.update(
        {
            "paged_kv_cache.blocks_in_use_peak_frac": "frac",
            "scheduler.forwards": "count",
            "scheduler.prefill_tokens": "count",
            "scheduler.prefix_hit_frac": "frac",
            "scheduler.batch_rows_mean": "rows",
            "scheduler.queue_wait_ticks_p50": "ticks",
            "scheduler.spec_accept_frac": "frac",
            "async_engine.refused": "count",
            "loadgen.late_p90_ms": "ms",
            "trace.outside_frac": "frac",
            "trace_overhead_frac": "frac",
        }
    )
    return units


@dataclass
class Pass:
    """One measured pass and what the run derived from it."""

    traced: bool
    result: PassResult
    #: Per-request verdict against the reference.
    ok: List[bool]
    #: Counts that must repeat exactly across passes of an offline workload.
    counters: Dict[str, float]
    #: Per-layer metrics (traced passes only).
    layers: Optional[Dict[str, float]] = None


def parse_args(argv: List[str]) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the program's Python sources, so results name their code."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def metadata(args: argparse.Namespace) -> dict:
    """Code, toolchain and machine facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def verdicts(result: PassResult, reference: List[np.ndarray]) -> List[bool]:
    """Per request: finished normally, streamed every token, matched the reference."""
    return [
        not record.refused
        and record.error is None
        and record.finish_reason in ("length", "eos")
        and len(record.token_times) == len(record.generated)
        and np.array_equal(record.generated, expected)
        for record, expected in zip(result.served, reference)
    ]


def scheduler_counters(result: PassResult) -> Dict[str, float]:
    """The pass's scheduler work counts."""
    return {name: getattr(result.stats, name) for name in SCHEDULER_COUNTERS}


def traced_pass(workload: str, runner, inputs, trace_path: Optional[Path]):
    """Serve one pass under a :class:`LayerProbe`; return result and layer metrics."""
    tracer = Tracer(clock=WallClock())
    with LayerProbe(tracer, runner) as probe:
        tracer.instant("pass.begin", "bench")
        start = tracer.events[-1].ts
        result = serve_once(workload, runner, inputs)
        tracer.instant("pass.end", "bench")
        end = tracer.events[-1].ts
    table, outside = span_table(tracer.events, start, end)
    check_accounting(table, outside, end - start)
    if trace_path is not None:
        tracer.export_chrome_trace(trace_path)
    layers: Dict[str, float] = {}
    for entry in TIMED_ENTRIES:
        calls, busy, own = table.get(entry, (0, 0.0, 0.0))
        layers[f"{entry}.calls"] = calls
        layers[f"{entry}.busy_ms"] = busy / 1000.0
        layers[f"{entry}.self_ms"] = own / 1000.0
    for entry in WORK_ENTRIES:
        for count in ("rows", "flops", "bytes"):
            layers[f"{entry}.{count}"] = probe.counts[f"{entry}.{count}"]
    for count in ("flops", "bytes"):
        layers[f"kernels.paged_attention.{count}"] = probe.counts[f"kernels.paged_attention.{count}"]
    stats = result.stats
    layers.update(
        {
            "paged_kv_cache.blocks_in_use_peak_frac": probe.blocks_in_use_peak_frac,
            "scheduler.forwards": stats.total_iterations,
            "scheduler.prefill_tokens": stats.prefill_tokens,
            "scheduler.prefix_hit_frac": stats.prefix_hit_rate(),
            "scheduler.batch_rows_mean": stats.decode_slot_steps / max(stats.decode_iterations, 1),
            "scheduler.queue_wait_ticks_p50": percentile(result.queue_wait_ticks, 50),
            "scheduler.spec_accept_frac": stats.spec_accept_rate(),
            "async_engine.refused": sum(record.refused for record in result.served),
            "loadgen.late_p90_ms": percentile([r.late for r in result.served], 90) * 1000.0,
            "trace.outside_frac": outside / (end - start),
        }
    )
    return result, layers


def layer_counters(layers: Dict[str, float]) -> Dict[str, float]:
    """The deterministic subset of a traced pass's layer metrics."""
    return {
        name: value
        for name, value in layers.items()
        if name.rsplit(".", 1)[-1] in ("calls", "rows", "flops", "bytes")
        or name in SCHEDULER_LAYER_COUNTERS
        or name == "paged_kv_cache.blocks_in_use_peak_frac"
    }


def measure(args, runner, inputs, reference):
    """Serve passes until the run length (and the sample floor) is reached.

    Returns the passes and the host-speed measurements taken before the
    first pass and after each one.
    """
    passes: List[Pass] = []
    began = time.perf_counter()
    speeds = [hostspeed.reference_seconds()]
    trace_path = RESULTS / f"{args.workload}-seed{args.seed}.trace.json" if args.trace else None
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            first = not any(p.traced for p in passes)
            result, layers = traced_pass(
                args.workload, runner, inputs, trace_path if first else None
            )
            counters = {**scheduler_counters(result), **layer_counters(layers)}
        else:
            result, layers = serve_once(args.workload, runner, inputs), None
            counters = scheduler_counters(result)
        passes.append(Pass(traced, result, verdicts(result, reference), counters, layers))
        speeds.append(hostspeed.reference_seconds())
        # Each pass builds a fresh engine; an AsyncEngine and its Scheduler
        # reference each other, so without a collection here their KV pools
        # pile up until the interpreter's own cycle collector runs, and
        # peak_rss_mb would follow its timing.
        gc.collect()
        if args.workload == "chat_shared":
            if len(passes) == CHAT_PASSES:
                return passes, speeds
            continue
        plain = sum(len(p.result.served) for p in passes if not p.traced)
        enough = any(p.traced for p in passes) if args.trace else plain >= MIN_LATENCY_SAMPLES
        if enough and time.perf_counter() - began >= args.seconds:
            return passes, speeds


def nondeterministic_counters(passes: List[Pass]) -> List[str]:
    """Counters that differ between passes of the same kind."""
    problems = []
    for traced in (False, True):
        same_kind = [p.counters for p in passes if p.traced == traced]
        for counters in same_kind[1:]:
            for name, value in counters.items():
                if value != same_kind[0].get(name):
                    problems.append(f"{name}: {same_kind[0].get(name)} vs {value}")
    plain = [p.counters for p in passes if not p.traced]
    for p in passes:
        if p.traced and plain:
            for name in SCHEDULER_COUNTERS:
                if p.counters[name] != plain[0][name]:
                    problems.append(f"{name} (traced): {plain[0][name]} vs {p.counters[name]}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tokens_per_second(passes: List[Pass], scale: float = 1.0) -> float:
    """Output tokens per second of serving time times ``scale``, over all ``passes``."""
    return sum(p.result.output_tokens for p in passes) / (
        scale * sum(p.result.wall_s for p in passes)
    )


def windows(passes: List[Pass]) -> List[List[Pass]]:
    """Consecutive passes grouped until each group holds enough requests for a p90.

    A short remainder joins the last group.
    """
    groups: List[List[Pass]] = [[]]
    for p in passes:
        if sum(len(q.result.served) for q in groups[-1]) >= MIN_LATENCY_SAMPLES:
            groups.append([])
        groups[-1].append(p)
    if len(groups) > 1 and sum(len(q.result.served) for q in groups[-1]) < MIN_LATENCY_SAMPLES:
        groups[-2].extend(groups.pop())
    return groups


def latency_percentile(passes: List[Pass], latency: str, q: float, scale: float = 1.0) -> float:
    """Median over :func:`windows` of each window's ``q``-th latency percentile, in ms.

    Latencies are multiplied by ``scale``.

    The host's speed drifts over tens of seconds; a window median keeps a
    slow stretch of the run from setting the tail of the whole run.
    """
    values = []
    for group in windows(passes):
        samples = [
            getattr(record, latency) * scale
            for p in group
            for record in p.result.served
            if getattr(record, latency) is not None
        ]
        if tail_percentile(len(samples)) is None:
            raise RuntimeError(f"{len(samples)} latency samples cannot support a p90")
        values.append(percentile(samples, q))
    return statistics.median(values) * 1000.0


def end_to_end_metrics(setup_s: float, passes: List[Pass], scale: float) -> Dict[str, float]:
    """The end-to-end metrics over the run's untraced passes, serving times times ``scale``."""
    records = [(record, ok) for p in passes for record, ok in zip(p.result.served, p.ok)]
    return {
        "setup_s": setup_s,
        "ttft_p50_ms": latency_percentile(passes, "ttft", 50, scale),
        "ttft_p90_ms": latency_percentile(passes, "ttft", 90, scale),
        "tpot_p50_ms": latency_percentile(passes, "tpot", 50, scale),
        "tpot_p90_ms": latency_percentile(passes, "tpot", 90, scale),
        "output_tok_s": tokens_per_second(passes, scale),
        "slo_goodput_frac": goodput(
            [(record.ttft * scale, record.tpot * scale) for record, ok in records if ok],
            len(records),
        ),
        "token_match_frac": sum(ok for _, ok in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(passes: List[Pass]) -> Dict[str, float]:
    """Medians of the traced passes' layer metrics, plus tracing overhead."""
    traced = [p for p in passes if p.traced]
    metrics = {
        name: float(statistics.median(p.layers[name] for p in traced))
        for name in traced[0].layers
    }
    plain = [p for p in passes if not p.traced]
    metrics["trace_overhead_frac"] = 1.0 - tokens_per_second(traced) / tokens_per_second(plain)
    return metrics


def timed_set_ups(workload: str, times: List[float], scales: List[float]):
    """Set up :data:`SETUP_REPEATS` times.

    Appends each duration to ``times`` and its normalisation factor to ``scales``.
    """
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = hostspeed.reference_seconds()
        begin = time.perf_counter()
        served = set_up(workload)
        times.append(time.perf_counter() - begin)
        scales.append(hostspeed.scale([before, hostspeed.reference_seconds()]))
    return served


def main(argv: List[str]) -> int:
    """Run one workload and print its result; 0 when every check passed."""
    args = parse_args(argv)
    meta = metadata(args)
    started = time.perf_counter()
    # An untimed first set-up trains the checkpoint if it is missing and
    # warms the interpreter; the timed repeats then each start cold.
    set_up(args.workload)
    setup_times: List[float] = []
    setup_scales: List[float] = []
    runner, tokens = timed_set_ups(args.workload, setup_times, setup_scales)

    if args.workload == "chat_shared":
        inputs = workload_inputs.chat_shared(tokens, args.seed, args.seconds / CHAT_PASSES)
    elif args.workload == "decode_long":
        inputs = workload_inputs.decode_long(tokens, args.seed)
    else:
        inputs = extractive_prompts(runner, workload_inputs.spec_seeds(tokens, args.seed))
    begin = time.perf_counter()
    reference = reference_tokens(runner, inputs)
    reference_tok_s = sum(map(len, reference)) / (time.perf_counter() - begin)

    RESULTS.mkdir(parents=True, exist_ok=True)
    passes, speeds = measure(args, runner, inputs, reference)
    scale = hostspeed.scale(speeds)
    timed_set_ups(args.workload, setup_times, setup_scales)

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    # A refused request is a failure of admission, not of output; anything
    # else that failed (error, odd finish, wrong tokens) makes the run incorrect.
    broken = sum(
        not ok and not record.refused
        for p in passes
        for record, ok in zip(p.result.served, p.ok)
    )
    problems = [] if args.workload == "chat_shared" else nondeterministic_counters(passes)
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = per_layer_units()
    else:
        plain = [p for p in passes if not p.traced]
        metrics = end_to_end_metrics(
            statistics.median(t * f for t, f in zip(setup_times, setup_scales)), plain, scale
        )
        meta["wall_clock_metrics"] = end_to_end_metrics(statistics.median(setup_times), plain, 1.0)
        units = END_TO_END
    correct = broken == 0 and not problems
    reported = next((p for p in passes if p.traced), passes[0])

    meta.update(
        {
            "inputs_sha256": inputs.digest(),
            "requests_per_pass": len(inputs.jobs),
            "passes": [("traced" if p.traced else "plain") for p in passes],
            "pass_tok_s": [p.result.output_tokens / p.result.wall_s for p in passes],
            "pass_ttft_p90_ms": [
                percentile([r.ttft for r in p.result.served if r.ttft is not None], 90) * 1000.0
                for p in passes
            ],
            "setup_s_repeats": setup_times,
            "setup_scales": setup_scales,
            "reference_s": speeds,
            "scale": scale,
            "reference_tok_s": reference_tok_s,
            "failed_frac": failed / attempted,
            "refused": sum(r.refused for p in passes for r in p.result.served),
            "broken": broken,
            "nondeterministic_counters": problems,
            "counters_sha256": hashlib.sha256(
                json.dumps(reported.counters, sort_keys=True).encode()
            ).hexdigest(),
            "run_s": time.perf_counter() - started,
            "loadavg_after": list(os.getloadavg()),
        }
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    print("counters " + json.dumps(reported.counters, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<48s} {metrics[name]:>18.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(RESULTS / "runs.jsonl", "a") as record:
        record.write(json.dumps({"meta": meta, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1
