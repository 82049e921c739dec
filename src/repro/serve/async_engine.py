"""Asyncio streaming frontend over the continuous-batching scheduler.

The :class:`~repro.serve.scheduler.Scheduler` is a synchronous step loop:
callers submit, then block in :meth:`~repro.serve.scheduler.Scheduler.run`
until everything finishes.  :class:`AsyncEngine` turns it into a serving
frontend:

* **Streaming** — :meth:`AsyncEngine.submit` returns a
  :class:`RequestStream`, an async iterator that yields tokens the moment
  the scheduler commits them (via the scheduler's ``on_token`` hook) and
  resolves to the full :class:`~repro.serve.scheduler.RequestOutput` once
  the request finishes.
* **Admission control** — the waiting queue is bounded
  (``max_waiting``): :meth:`submit` suspends the caller until a seat frees
  (backpressure), while :meth:`submit_nowait` raises
  :class:`~repro.errors.ResourceExhaustedError` immediately so callers can
  shed load instead of queueing.
* **Priorities, deadlines, preemption** — submissions carry a priority
  class (lower = more urgent) and an optional admission deadline in
  scheduler ticks; with ``preemption=True`` (the default here, unlike the
  bare scheduler) an urgent request evicts the worst lower-priority victim,
  whose blocks return to the LRU free-list and whose prompt+tokens replay
  on re-admission — bit-identical to an unpreempted run, because resume
  never re-samples.
* **Failure containment** — an exception escaping the background step
  loop resolves *every* pending :class:`RequestStream` with the error
  (``result()`` re-raises it, iterators raise it after draining buffered
  tokens) instead of leaving awaiters suspended; per-call ``timeout=`` on
  :meth:`RequestStream.result` and :meth:`RequestStream.next` bounds any
  single wait, so a stalled engine can never hang a caller.
* **Pool-backed serving** — pass ``pool=`` (a
  :class:`~repro.serve.cluster.ReplicaPool`, or anything scheduler-shaped)
  instead of a runner to stream from a fault-tolerant replica fleet; the
  engine only uses the duck-typed driving surface (``submit`` / ``step`` /
  ``cancel`` / ``expire`` / ``has_pending`` / ``num_waiting`` / ``now``),
  so recovery, chaos injection, and degradation stay the pool's business.

The engine never runs the model concurrently with itself: one background
asyncio task calls ``scheduler.step()`` whenever work is pending and yields
to the event loop between steps, so token consumers, new submissions, and
cancellations interleave at step granularity.  All determinism guarantees
of the scheduler (per-request RNG, tick-based clock) are untouched — the
event loop only changes *when* callers observe tokens, never which tokens
are produced.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.models.inference import TransformerRunner
from repro.serve.scheduler import GenerationConfig, Request, RequestOutput, Scheduler
from repro.serve.spec import SpecConfig

#: Sentinel pushed onto a stream's token queue when its request terminates.
_DONE = object()


class RequestStream:
    """Async handle for one in-flight request: token stream plus final result.

    Iterate to receive tokens as the scheduler commits them::

        stream = await engine.submit(prompt)
        async for token in stream:
            ...
        output = await stream.result()

    Tokens are buffered, so a slow consumer never stalls the engine, and
    iterating after completion simply drains the remaining buffer.  The
    handle is created by :meth:`AsyncEngine.submit` /
    :meth:`AsyncEngine.submit_nowait`; it is not constructed directly.
    """

    def __init__(self, engine: "AsyncEngine", request_id: int, priority: int) -> None:
        self._engine = engine
        self._request_id = request_id
        self._priority = priority
        self._tokens: asyncio.Queue = asyncio.Queue()
        self._result: "asyncio.Future[RequestOutput]" = (
            asyncio.get_running_loop().create_future()
        )

    @property
    def request_id(self) -> int:
        """The scheduler-assigned request id."""
        return self._request_id

    @property
    def priority(self) -> int:
        """Priority class the request was submitted with (lower = urgent)."""
        return self._priority

    @property
    def finished(self) -> bool:
        """True once the request has a terminal output."""
        return self._result.done()

    def __aiter__(self) -> AsyncIterator[int]:
        """Return the per-token async iterator (the stream itself)."""
        return self

    async def __anext__(self) -> int:
        """Yield the next committed token, or stop at end of stream."""
        return await self.next()

    async def next(self, timeout: Optional[float] = None) -> int:
        """Yield the next committed token (``__anext__`` with a ``timeout=``).

        Parameters
        ----------
        timeout : float, optional
            Seconds to wait for the next token (``asyncio.wait_for``
            semantics).  On expiry the request is finished ``"expired"``
            through the scheduler's deadline path — partial tokens are kept
            in the terminal output — and :class:`asyncio.TimeoutError` is
            raised, so a stalled replica can never hang a consumer.

        Raises
        ------
        StopAsyncIteration
            At end of stream (buffered tokens drain first).
        asyncio.TimeoutError
            If ``timeout`` elapses before a token (or end of stream).
        Exception
            The serve loop's error, when the engine failed mid-request.
        """
        try:
            if timeout is None:
                item = await self._tokens.get()
            else:
                item = await asyncio.wait_for(self._tokens.get(), timeout)
        except asyncio.TimeoutError:
            self._engine._expire_stream(self)
            raise
        if item is _DONE:
            # Keep the queue terminated for any concurrent/late iterator.
            self._tokens.put_nowait(_DONE)
            if self._result.done() and self._result.exception() is not None:
                raise self._result.exception()
            raise StopAsyncIteration
        return item

    async def result(self, timeout: Optional[float] = None) -> RequestOutput:
        """Wait for (and return) the request's terminal output.

        Parameters
        ----------
        timeout : float, optional
            Seconds to wait (``asyncio.wait_for`` semantics).  On expiry
            :class:`asyncio.TimeoutError` is raised and the request itself
            is left untouched (shielded) — unlike a per-token
            :meth:`next` timeout, a result timeout is only the caller
            giving up on *waiting*, not on the request.

        Raises
        ------
        asyncio.TimeoutError
            If ``timeout`` elapses first.
        Exception
            The serve loop's error, when the engine failed mid-request.
        """
        if timeout is None:
            return await self._result
        return await asyncio.wait_for(asyncio.shield(self._result), timeout)

    async def cancel(self) -> RequestOutput:
        """Withdraw this request (see :meth:`AsyncEngine.cancel`)."""
        return await self._engine.cancel(self)

    def _push_token(self, token: int) -> None:
        """Feed one committed token into the stream buffer."""
        self._tokens.put_nowait(token)

    def _resolve(self, output: RequestOutput) -> None:
        """Terminate the stream with the request's final output."""
        if not self._result.done():
            self._result.set_result(output)
        self._tokens.put_nowait(_DONE)

    def _reject(self, error: BaseException) -> None:
        """Terminate the stream with the serve loop's error.

        ``result()`` re-raises ``error``; iterators drain any buffered
        tokens first, then raise it in place of ``StopAsyncIteration``.
        """
        if not self._result.done():
            self._result.set_exception(error)
        self._tokens.put_nowait(_DONE)


class AsyncEngine:
    """Bounded-queue asyncio frontend over a :class:`Scheduler`.

    Parameters
    ----------
    runner : TransformerRunner, optional
        The executor-backed model (any quantization scheme).  Omit it (pass
        ``None``) when serving from a ``pool``.
    config : GenerationConfig, optional
        Decoding parameters shared by all requests.
    pool : optional
        A scheduler-shaped engine core — typically a
        :class:`~repro.serve.cluster.ReplicaPool` — to serve from instead
        of constructing a private :class:`Scheduler`.  Mutually exclusive
        with ``runner`` and the scheduler keywords; the pool keeps whatever
        fault-tolerance policy it was built with, and the engine installs
        itself as its ``on_token`` hook.
    max_waiting : int
        Bound on the scheduler's waiting queue.  :meth:`submit` applies
        backpressure (awaits) at the bound; :meth:`submit_nowait` raises.
    preemption : bool
        Allow urgent submissions to evict lower-priority victims (see
        :class:`Scheduler`).  Default True — the point of an async
        frontend is latency under load.
    max_batch_size, block_size, num_blocks, policy, record_logits, \
prefix_cache, prefill_chunk, speculation
        Forwarded to :class:`Scheduler` unchanged.
    tracer : repro.obs.Tracer, optional
        Opt-in request-lifecycle tracing, forwarded to the private
        :class:`Scheduler` (see :mod:`repro.obs`).  Rejected alongside
        ``pool`` — a pool carries its own tracer wiring.

    Raises
    ------
    ConfigurationError
        For invalid parameters (``max_waiting < 1``, both ``runner`` and
        ``pool``, neither, or anything the scheduler rejects).

    Examples
    --------
    >>> async with AsyncEngine(runner, max_waiting=8) as engine:
    ...     stream = await engine.submit(prompt, priority=0, deadline=16.0)
    ...     async for token in stream:
    ...         print(token)
    ...     output = await stream.result()
    """

    def __init__(
        self,
        runner: Optional[TransformerRunner] = None,
        config: Optional[GenerationConfig] = None,
        *,
        pool=None,
        max_waiting: int = 32,
        preemption: bool = True,
        max_batch_size: int = 8,
        block_size: int = 16,
        num_blocks: Optional[int] = None,
        policy: str = "continuous",
        record_logits: bool = False,
        prefix_cache: bool = True,
        prefill_chunk: Optional[int] = None,
        speculation: Optional[SpecConfig] = None,
        tracer=None,
    ) -> None:
        if max_waiting < 1:
            raise ConfigurationError("max_waiting must be >= 1")
        if (runner is None) == (pool is None):
            raise ConfigurationError(
                "pass exactly one of runner (private scheduler) or pool "
                "(replica-pool engine core)"
            )
        self.max_waiting = int(max_waiting)
        if pool is not None:
            if config is not None:
                raise ConfigurationError(
                    "a pool carries its own GenerationConfig; do not pass "
                    "config alongside pool"
                )
            if tracer is not None:
                raise ConfigurationError(
                    "a pool carries its own tracer; pass tracer= to the "
                    "ReplicaPool constructor instead"
                )
            self.scheduler = pool
            pool.on_token = self._on_token
        else:
            self.scheduler = Scheduler(
                runner,
                config,
                max_batch_size=max_batch_size,
                block_size=block_size,
                num_blocks=num_blocks,
                policy=policy,
                record_logits=record_logits,
                prefix_cache=prefix_cache,
                prefill_chunk=prefill_chunk,
                speculation=speculation,
                preemption=preemption,
                on_token=self._on_token,
                tracer=tracer,
            )
        self._streams: dict = {}
        self._task: Optional["asyncio.Task"] = None
        self._closed = False
        #: The exception that killed the serve loop, if one did; re-raised
        #: by every pending stream and every later submission attempt.
        self._error: Optional[BaseException] = None
        #: Set whenever new work arrives (wakes an idle serve loop).
        self._work_event: Optional[asyncio.Event] = None
        #: Set after every step (wakes submitters waiting on backpressure).
        self._seat_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        prompt: Union[Request, np.ndarray],
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        max_new_tokens: Optional[int] = None,
    ) -> RequestStream:
        """Enqueue a prompt, awaiting while the waiting queue is full.

        Parameters
        ----------
        prompt : ndarray
            Prompt token ids (a full :class:`Request` is rejected — arrival
            times are assigned by the engine clock).
        priority : int
            Priority class, lower = more urgent.
        deadline : float, optional
            Admission deadline in scheduler ticks *relative to now*; the
            request expires (``finish_reason="expired"``) if still waiting
            when the scheduler clock passes it.
        max_new_tokens : int, optional
            Per-request budget override.

        Returns
        -------
        RequestStream
        """
        self._ensure_running()
        seat = self._seat_event
        while self.scheduler.num_waiting >= self.max_waiting:
            seat.clear()
            await seat.wait()
            if self._error is not None:
                raise self._error
            if self._closed:
                raise ConfigurationError("engine is closed")
        return self._submit(prompt, priority, deadline, max_new_tokens)

    def submit_nowait(
        self,
        prompt: Union[Request, np.ndarray],
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        max_new_tokens: Optional[int] = None,
    ) -> RequestStream:
        """Enqueue a prompt or raise immediately if the queue is full.

        Raises
        ------
        ResourceExhaustedError
            When ``max_waiting`` requests are already queued — the
            load-shedding twin of :meth:`submit`'s backpressure.
        """
        self._ensure_running()
        if self.scheduler.num_waiting >= self.max_waiting:
            raise ResourceExhaustedError(
                f"waiting queue is full ({self.max_waiting} requests); "
                "use submit() to wait for a seat"
            )
        return self._submit(prompt, priority, deadline, max_new_tokens)

    def _submit(
        self,
        prompt: Union[Request, np.ndarray],
        priority: int,
        deadline: Optional[float],
        max_new_tokens: Optional[int],
    ) -> RequestStream:
        """Hand one validated submission to the scheduler (shared tail)."""
        if isinstance(prompt, Request):
            raise ConfigurationError(
                "AsyncEngine assigns arrival times from its own clock; "
                "submit a prompt array with keyword options instead of a Request"
            )
        now = self.scheduler.now
        request_id = self.scheduler.submit(
            prompt,
            max_new_tokens=max_new_tokens,
            arrival_time=now,
            priority=priority,
            deadline=None if deadline is None else now + float(deadline),
        )
        stream = RequestStream(self, request_id, int(priority))
        self._streams[request_id] = stream
        self._work_event.set()
        return stream

    async def cancel(self, stream: RequestStream) -> RequestOutput:
        """Withdraw a request mid-stream, releasing every block it holds.

        The returned output (also delivered via :meth:`RequestStream.result`)
        carries ``finish_reason="cancelled"`` and the tokens committed
        before cancellation.  Cancelling an already-finished stream simply
        returns its output.
        """
        if stream.finished:
            return await stream.result()
        output = self.scheduler.cancel(stream.request_id)
        self._finish(output)
        self._seat_event.set()
        return output

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        """Start (or restart) the background step-loop task."""
        if self._error is not None:
            raise self._error
        if self._closed:
            raise ConfigurationError("engine is closed")
        if self._work_event is None:
            self._work_event = asyncio.Event()
            self._seat_event = asyncio.Event()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._serve_loop())

    async def _serve_loop(self) -> None:
        """Drive ``scheduler.step()`` while work is pending, else sleep.

        An exception escaping a step is terminal for the engine: it is
        stored, every pending stream is rejected with it (``result()``
        re-raises, iterators raise after draining their buffers), and
        suspended submitters are woken — nothing is ever left awaiting a
        result that can no longer arrive.
        """
        try:
            while not self._closed:
                if self.scheduler.has_pending:
                    for output in self.scheduler.step():
                        self._finish(output)
                    self._seat_event.set()
                    # Yield between steps so submitters/consumers interleave.
                    await asyncio.sleep(0)
                else:
                    self._work_event.clear()
                    await self._work_event.wait()
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            self._fail(error)

    def _fail(self, error: BaseException) -> None:
        """Poison the engine: reject every pending stream, wake everyone."""
        self._error = error
        self._closed = True
        for request_id in sorted(self._streams):
            self._streams[request_id]._reject(error)
        self._streams.clear()
        if self._seat_event is not None:
            self._seat_event.set()
            self._work_event.set()

    def _on_token(self, request_id: int, token: int) -> None:
        """Scheduler ``on_token`` hook: route a committed token to its stream."""
        stream = self._streams.get(request_id)
        if stream is not None:
            stream._push_token(token)

    def _finish(self, output: RequestOutput) -> None:
        """Resolve and detach the stream of a finished request."""
        stream = self._streams.pop(output.request_id, None)
        if stream is not None:
            stream._resolve(output)

    def _expire_stream(self, stream: RequestStream) -> None:
        """Finish a stream ``"expired"`` after a per-token timeout.

        Rides the scheduler's deadline path (:meth:`Scheduler.expire`), so
        committed tokens are kept in the terminal output and every block is
        freed.  A request that finished in the timeout race window is left
        as-is.
        """
        if stream.finished or self._closed:
            return
        try:
            output = self.scheduler.expire(stream.request_id)
        except ConfigurationError:
            return  # finished (or was withdrawn) while the timeout fired
        self._finish(output)
        if self._seat_event is not None:
            self._seat_event.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every submitted request has finished."""
        while self.scheduler.has_pending:
            self._ensure_running()
            await asyncio.sleep(0)

    async def close(self) -> None:
        """Stop the serve loop; outstanding streams resolve as cancelled.

        Also clears the scheduler's (or pool's) ``on_token`` hook, which
        points back at this engine: without that cycle a dropped engine's
        KV pool is freed by refcounting, not by the cycle collector.
        """
        if self._closed:
            return
        self._closed = True
        for request_id in sorted(self._streams):
            stream = self._streams[request_id]
            if not stream.finished:
                output = self.scheduler.cancel(request_id)
                stream._resolve(output)
        self._streams.clear()
        if self._work_event is not None:
            self._work_event.set()
            self._seat_event.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self.scheduler.on_token = None

    async def __aenter__(self) -> "AsyncEngine":
        """Enter the async context (the loop starts on first submit)."""
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Close the engine on context exit."""
        await self.close()

    @property
    def stats(self):
        """The engine core's stats.

        A :class:`SchedulerStats` when the engine owns a private scheduler;
        the pool's aggregate counters when serving from a replica pool.
        """
        return self.scheduler.stats


async def serve_all(
    engine: AsyncEngine,
    prompts: List[np.ndarray],
    *,
    priorities: Optional[List[int]] = None,
) -> List[RequestOutput]:
    """Submit ``prompts`` concurrently and gather their outputs in order.

    A convenience for tests and benchmarks: every prompt is submitted
    through the bounded queue (so backpressure applies), then all results
    are awaited and returned in submission order.
    """
    if priorities is None:
        priorities = [0] * len(prompts)
    streams = []
    for prompt, priority in zip(prompts, priorities):
        streams.append(await engine.submit(prompt, priority=priority))
    return [await stream.result() for stream in streams]
