"""Seeded workload inputs: prompts, output budgets and arrival times.

Every workload draws its inputs from a seed and a token stream (the wiki
corpus the model was calibrated on), so the same seed always yields
byte-identical inputs and the served program only ever sees the generated
requests.

* ``chat_shared`` -- open loop at :data:`CHAT_RATE_RPS`.  Each prompt is one
  of :data:`CHAT_TEMPLATES` shared 128-token prefixes, picked with Zipf
  weights, plus a unique 16-63 token suffix; outputs are 2-15 tokens.
  Arrivals are a Poisson process conditioned on its count: the arrival
  times of ``rate * duration`` requests are sorted uniform draws over the
  window, so every run offers the same load over the same span.
* ``decode_long`` -- offline batch of 48 unique 8-23 token prompts with
  150-219 output tokens each, all due at once.
* ``spec_draft`` -- offline batch of 48 unique 16-token seed windows, each
  later extended by the model's own greedy continuation (see
  :func:`perfbench.serving.extractive_prompts`), 64 output tokens each.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Offered load of ``chat_shared``, in requests per second.
CHAT_RATE_RPS = 40.0
#: Shared prompt prefixes of ``chat_shared`` and their length in tokens.
CHAT_TEMPLATES = 4
CHAT_PREFIX_LEN = 128
#: Zipf exponent of the template popularity.
CHAT_ZIPF_EXPONENT = 1.0

OFFLINE_REQUESTS = 48
#: Tokens of the corpus seed and of the model's continuation that together
#: form a ``spec_draft`` prompt.
SPEC_SEED_LEN = 16
SPEC_CONTINUATION_LEN = 56
SPEC_NEW_TOKENS = 64


@dataclass(frozen=True)
class Job:
    """One request of a workload: prompt, output budget, due time."""

    prompt: np.ndarray
    max_new_tokens: int
    #: Seconds after the start of a pass at which the request is due.
    arrival_s: float = 0.0


@dataclass(frozen=True)
class WorkloadInputs:
    """The requests one pass of a workload serves, in submission order."""

    name: str
    jobs: Tuple[Job, ...]

    def digest(self) -> str:
        """SHA-256 over every prompt, budget and arrival time."""
        hasher = hashlib.sha256(self.name.encode())
        for job in self.jobs:
            hasher.update(np.asarray(job.prompt, dtype=np.int64).tobytes())
            hasher.update(np.array([job.max_new_tokens], dtype=np.int64).tobytes())
            hasher.update(np.array([job.arrival_s], dtype=np.float64).tobytes())
        return hasher.hexdigest()


def _windows(rng: np.random.Generator, tokens: np.ndarray, lengths: np.ndarray) -> list:
    """Corpus windows of the given lengths at distinct random offsets."""
    starts = rng.choice(len(tokens) - int(lengths.max()), size=len(lengths), replace=False)
    return [tokens[start : start + length].copy() for start, length in zip(starts, lengths)]


def zipf_weights(count: int) -> np.ndarray:
    """Popularity of ``count`` ranked items, proportional to ``rank ** -CHAT_ZIPF_EXPONENT``."""
    weights = np.arange(1, count + 1, dtype=np.float64) ** -CHAT_ZIPF_EXPONENT
    return weights / weights.sum()


def chat_shared(tokens: np.ndarray, seed: int, duration_s: float) -> WorkloadInputs:
    """Template-skewed chat requests arriving over ``duration_s`` seconds."""
    rng = np.random.default_rng(seed)
    count = int(round(CHAT_RATE_RPS * duration_s))
    templates = _windows(rng, tokens, np.full(CHAT_TEMPLATES, CHAT_PREFIX_LEN))
    arrivals = np.sort(rng.uniform(0.0, duration_s, size=count))
    choices = rng.choice(CHAT_TEMPLATES, size=count, p=zipf_weights(CHAT_TEMPLATES))
    suffixes = _windows(rng, tokens, rng.integers(16, 64, size=count))
    budgets = rng.integers(2, 16, size=count)
    jobs = tuple(
        Job(np.concatenate([templates[choice], suffix]), int(budget), float(arrival))
        for choice, suffix, budget, arrival in zip(choices, suffixes, budgets, arrivals)
    )
    return WorkloadInputs("chat_shared", jobs)


def decode_long(tokens: np.ndarray, seed: int) -> WorkloadInputs:
    """Short unique prompts with long outputs, all due at once."""
    rng = np.random.default_rng(seed)
    prompts = _windows(rng, tokens, rng.integers(8, 24, size=OFFLINE_REQUESTS))
    budgets = rng.integers(150, 220, size=OFFLINE_REQUESTS)
    jobs = tuple(Job(prompt, int(budget)) for prompt, budget in zip(prompts, budgets))
    return WorkloadInputs("decode_long", jobs)


def spec_seeds(tokens: np.ndarray, seed: int) -> WorkloadInputs:
    """The corpus seeds of ``spec_draft``; budgets are the continuation length."""
    rng = np.random.default_rng(seed)
    prompts = _windows(rng, tokens, np.full(OFFLINE_REQUESTS, SPEC_SEED_LEN))
    jobs = tuple(Job(prompt, SPEC_CONTINUATION_LEN) for prompt in prompts)
    return WorkloadInputs("spec_seeds", jobs)
