"""How fast the host runs right now, measured on a fixed reference workload.

The benchmark shares its machine: the same code serves at very different
speeds from one minute to the next (2x swings on a 2-vCPU VM, with CPU time
equal to wall time, so not descheduling).  Wall-clock results of runs made
minutes apart are then not comparable.  This module times a fixed decode
loop that does not use the program's code, with the program's mix of work:
a tiny two-layer Transformer over a batch of 8 rows, per-row quantization
into 8 channel groups, cached attention row by row and Python-level
bookkeeping per token.  The benchmark runs it around set-ups and between
serving passes, and multiplies wall-clock times by :func:`scale`, so that
it reports, roughly, the times of a host that runs the reference workload
in :data:`NOMINAL_S` seconds.  A change to the program moves them; a
change of the host's speed moves them much less.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

D_MODEL, HEADS, LAYERS, D_FF, VOCAB = 64, 4, 2, 192, 512
BATCH, CONTEXT, GROUPS = 8, 96, 8
#: Decode steps of one measurement.
STEPS = 96
#: Seconds one measurement takes on the reference host (a 2-vCPU Intel
#: Xeon VM at its usual speed): the scale of the normalised times.
NOMINAL_S = 0.3
#: How closely serving follows the reference workload's speed.  Over 25
#: runs of both offline workloads on that VM, the log of wall-clock
#: throughput moved 0.78-0.82 times as far as the log of the reference
#: speed averaged over the run (correlation 0.84-0.98): the reference
#: workload feels the host's slow spells more than serving does.
SENSITIVITY = 0.85


class ReferenceDecoder:
    """A seeded toy decoder whose work never changes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        scale = D_MODEL ** -0.5
        self.embedding = rng.standard_normal((VOCAB, D_MODEL))
        self.layers = [
            {
                name: rng.standard_normal(shape) * scale
                for name, shape in (
                    ("q", (D_MODEL, D_MODEL)),
                    ("k", (D_MODEL, D_MODEL)),
                    ("v", (D_MODEL, D_MODEL)),
                    ("out", (D_MODEL, D_MODEL)),
                    ("fc1", (D_MODEL, D_FF)),
                    ("fc2", (D_FF, D_MODEL)),
                )
            }
            for _ in range(LAYERS)
        ]
        self.head = rng.standard_normal((D_MODEL, VOCAB)) * scale

    @staticmethod
    def _project(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Quantize ``x`` per row in channel groups, then multiply."""
        out = np.zeros((x.shape[0], weight.shape[1]))
        width = x.shape[1] // GROUPS
        for group in range(GROUPS):
            part = x[:, group * width : (group + 1) * width]
            step = np.abs(part).max(axis=1, keepdims=True) / 127.0 + 1e-12
            codes = np.clip(np.rint(part / step), -127, 127)
            out += (codes * step) @ weight[group * width : (group + 1) * width]
        return out

    @staticmethod
    def _norm(x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)

    def decode(self, steps: int) -> None:
        """Greedy-decode ``steps`` tokens for every row."""
        d_head = D_MODEL // HEADS
        keys = np.zeros((LAYERS, BATCH, HEADS, CONTEXT + steps, d_head))
        values = np.zeros_like(keys)
        tokens = np.arange(BATCH) * 7 % VOCAB
        history: Dict[int, List[int]] = {row: [] for row in range(BATCH)}
        length = CONTEXT
        for _ in range(steps):
            x = self.embedding[tokens]
            for layer, weights in enumerate(self.layers):
                h = self._norm(x)
                q = self._project(h, weights["q"]).reshape(BATCH, HEADS, d_head)
                keys[layer, :, :, length] = self._project(h, weights["k"]).reshape(
                    BATCH, HEADS, d_head
                )
                values[layer, :, :, length] = self._project(h, weights["v"]).reshape(
                    BATCH, HEADS, d_head
                )
                attended = np.empty_like(q)
                for row in range(BATCH):
                    k = keys[layer, row, :, : length + 1]
                    scores = np.einsum("hd,htd->ht", q[row], k) / np.sqrt(d_head)
                    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
                    scores /= scores.sum(axis=-1, keepdims=True)
                    v = values[layer, row, :, : length + 1]
                    attended[row] = np.einsum("ht,htd->hd", scores, v)
                x = x + self._project(attended.reshape(BATCH, D_MODEL), weights["out"])
                hidden = np.maximum(self._project(self._norm(x), weights["fc1"]), 0.0)
                x = x + self._project(hidden, weights["fc2"])
            tokens = np.argmax(self._project(self._norm(x), self.head), axis=-1)
            for row, token in enumerate(tokens.tolist()):
                history[row].append(token)
            length += 1


_DECODER = ReferenceDecoder()
_DECODER.decode(2)  # warm-up


def reference_seconds() -> float:
    """Seconds the host takes, right now, for the fixed reference decode."""
    begin = time.perf_counter()
    _DECODER.decode(STEPS)
    return time.perf_counter() - begin


def scale(measurements: Sequence[float]) -> float:
    """Factor that turns wall time spent among ``measurements`` into normalised time.

    ``measurements`` are :func:`reference_seconds` results taken before,
    between and after the timed work; their geometric mean stands for the
    host's speed over it.
    """
    mean = math.exp(statistics.fmean(math.log(seconds) for seconds in measurements))
    return (NOMINAL_S / mean) ** SENSITIVITY
