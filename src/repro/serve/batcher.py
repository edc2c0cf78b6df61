"""Request coalescing: micro-batching for the serving hot paths.

The serving kernels (`predict_items`, `difficulty_array`, and the
recommender's `recommend_batch`) are vectorized — their cost is dominated
by per-call work that is shared across requests (one sort of the level's
probability vector ranks *every* item in the batch; one score evaluation
per distinct level answers every /recommend query at it).  A server
answering each request with its own kernel call throws that sharing
away.  :class:`MicroBatcher` buys it back: requests queue on
an asyncio future, and a flusher drains the queue into one batched call
as soon as the event loop goes idle — group commit, not a timer.  After
the first queued request the flusher yields to the loop
(``asyncio.sleep(0)``) and flushes once any of these holds:

- a yield added no new request (everything parsed in the same tick has
  been queued, so the batch is as large as waiting for free can make it);
- ``max_batch`` requests have accumulated;
- ``max_wait_ms`` has elapsed since the first queued request — an upper
  bound on the coalescing delay under a steady trickle, never a linger.

A lone request therefore pays one or two loop ticks, not a window.
Requests that arrive while a flush runs queue for the next one, so under
load batches still form behind every flush.

Batching is a pure throughput/latency concern, never a semantic one: the
batch function receives the payloads in arrival order and must return one
result per payload computed exactly as a singleton call would (the serve
endpoints guarantee this — `tools/bench_serve.py` asserts byte-identical
responses between coalesced and sequential dispatch).

``max_batch=1`` degenerates to sequential per-request dispatch through
the identical code path, which is what the benchmark's baseline mode and
the ``--max-batch 1`` CLI knob use.

Observability: every flush observes its size into the ``serve.batch_size``
histogram and its duration into ``serve.batch_flush_seconds``.  With
tracing enabled, each request's span context is captured at ``submit``
time (contextvars do not follow work to the flusher task), and the flush
emits one ``serve.batch.queue`` span per request — how long it sat
coalescing — plus a ``serve.batch.flush`` span for the batched call
itself, parented into the first queued request's trace and annotated
with every coalesced trace id.
"""

from __future__ import annotations

import asyncio
import inspect
from collections.abc import Callable, Sequence
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = ["MicroBatcher", "TenantBatchers"]

_log = get_logger("serve.batcher")


class MicroBatcher:
    """Coalesce awaited ``submit`` calls into batched function calls.

    ``batch_fn(payloads)`` runs on the event-loop thread and must return a
    sequence with one result per payload, in order.  A raising ``batch_fn``
    fails every request of that flush with the same exception.

    ``batch_fn`` may also be a coroutine function: its flush is awaited,
    which lets a batch that does blocking I/O (the ingest WAL's
    append+fsync) offload it with ``asyncio.to_thread`` instead of
    stalling every other endpoint on the loop.  Flushes are serialized
    either way — the flusher task awaits one flush before draining the
    next batch — so an async ``batch_fn`` keeps strict batch ordering,
    which the WAL's sequence numbering relies on.

    The batcher must be started (``await start()``) on the loop that will
    submit to it; ``stop()`` flushes whatever is still queued.
    """

    def __init__(
        self,
        batch_fn: Callable[[list[Any]], Sequence[Any]],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        name: str = "batch",
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be >= 0")
        self._batch_fn = batch_fn
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_ms) / 1000.0
        self.name = name
        self.flushes = 0
        # The third slot is Tracer.snapshot()'s (trace, span, wall, mono)
        # tuple (or None when tracing is off).
        self._pending: list[tuple[Any, asyncio.Future, tuple | None]] = []
        # Loop time the oldest queued request started waiting.
        self._head_since = 0.0
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    async def start(self) -> None:
        """Create the flusher task on the running loop."""
        if self._task is not None:
            raise ConfigurationError(f"batcher {self.name!r} already started")
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._run(), name=f"batcher-{self.name}")

    async def stop(self) -> None:
        """Flush the remaining queue and retire the flusher task."""
        if self._task is None:
            return
        self._closed = True
        assert self._wake is not None
        self._wake.set()
        await self._task
        self._task = None

    async def submit(self, payload: Any) -> Any:
        """Queue ``payload`` and await its result from the next flush."""
        if self._closed or self._task is None:
            raise ConfigurationError(f"batcher {self.name!r} is not running")
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            self._head_since = loop.time()
        self._pending.append((payload, future, get_tracer().snapshot()))
        self._wake.set()
        return await future

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    async def _run(self) -> None:
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                continue
            # Group commit: keep yielding while each tick queues more
            # requests; flush once a tick adds none, the batch fills, or
            # the oldest request has waited max_wait_ms.
            deadline = self._head_since + self.max_wait_seconds
            while (
                len(self._pending) < self.max_batch
                and not self._closed
                and loop.time() < deadline
            ):
                queued = len(self._pending)
                await asyncio.sleep(0)
                if len(self._pending) == queued:
                    break
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            if self._pending:
                self._head_since = loop.time()
            elif not self._closed:
                self._wake.clear()
            await self._flush(batch)

    async def _flush(self, batch: list[tuple[Any, asyncio.Future, Any]]) -> None:
        registry = get_registry()
        tracer = get_tracer()
        registry.histogram("serve.batch_size").observe(len(batch))
        self.flushes += 1
        payloads = [payload for payload, _future, _ctx in batch]
        contexts = [ctx for _payload, _future, ctx in batch if ctx is not None]
        if contexts:
            # Per-request coalescing delay, reconstructed from the context
            # captured at submit time and parented into each request's own
            # trace.  Attr-free on purpose: the flush span names the
            # batcher, and one attrs dict per queued request is measurable
            # against the serve tracing budget.
            now = tracer.clock()
            for ctx in contexts:
                tracer.record(
                    "serve.batch.queue",
                    trace=ctx[0],
                    parent=ctx[1],
                    ts=ctx[2],
                    duration=max(0.0, now - ctx[3]),
                )
        first_ctx = contexts[0] if contexts else None
        start = registry.clock()
        flush_ts = tracer.wall() if first_ctx is not None else 0.0
        try:
            results = self._batch_fn(payloads)
            if inspect.isawaitable(results):
                results = await results
        except Exception as exc:  # fail the whole flush, not the server
            elapsed = registry.clock() - start
            registry.histogram("serve.batch_flush_seconds").observe(
                elapsed, trace=first_ctx[0] if first_ctx else None
            )
            registry.counter("serve.batch_errors").inc()
            self._record_flush(
                tracer,
                first_ctx,
                contexts,
                flush_ts,
                elapsed,
                len(batch),
                error=type(exc).__name__,
            )
            _log.warning(
                "batch flush failed",
                extra={"obs": {"batcher": self.name, "size": len(batch), "error": str(exc)}},
            )
            for _payload, future, _ctx in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        elapsed = registry.clock() - start
        registry.histogram("serve.batch_flush_seconds").observe(
            elapsed, trace=first_ctx[0] if first_ctx else None
        )
        self._record_flush(tracer, first_ctx, contexts, flush_ts, elapsed, len(batch))
        if len(results) != len(batch):
            mismatch = ConfigurationError(
                f"batch function for {self.name!r} returned {len(results)} "
                f"results for {len(batch)} payloads"
            )
            for _payload, future, _ctx in batch:
                if not future.done():
                    future.set_exception(mismatch)
            return
        for (_payload, future, _ctx), result in zip(batch, results):
            # A future may already be cancelled by a deadline timeout;
            # its requester has been answered with 503 and moved on.
            if not future.done():
                future.set_result(result)

    def _record_flush(
        self,
        tracer,
        first_ctx,
        contexts,
        ts: float,
        elapsed: float,
        size: int,
        *,
        error: str | None = None,
    ) -> None:
        """One flush span, parented into the first queued request's trace.

        The batched call serves many traces at once; the span lives in the
        first requester's trace (so at least one trace shows the full
        critical path) and names every coalesced trace id in its attrs.
        """
        if first_ctx is None:
            return
        attrs: dict[str, Any] = {
            "batcher": self.name,
            "size": size,
            "traces": sorted({ctx[0] for ctx in contexts}),
        }
        if error is not None:
            attrs["error"] = error
        tracer.record(
            "serve.batch.flush",
            trace=first_ctx[0],
            parent=first_ctx[1],
            ts=ts,
            duration=elapsed,
            **attrs,
        )


class TenantBatchers:
    """One :class:`MicroBatcher` per (tenant, endpoint), created lazily.

    Multi-tenant serving must never coalesce requests *across* tenants —
    a batch gathers from exactly one model bundle — so each tenant gets
    its own queue per endpoint.  Batchers spin up on a tenant's first
    request (an idle tenant costs nothing, which matters once the
    registry holds many models) and are all drained by ``stop()``.

    ``factory(tenant, endpoint)`` returns the batch function for that
    pair; batch sizing is shared across tenants.
    """

    def __init__(
        self,
        factory: Callable[[str, str], Callable[[list[Any]], Sequence[Any]]],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
    ) -> None:
        self._factory = factory
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        self._closed = False

    async def get(self, tenant: str, endpoint: str) -> MicroBatcher:
        """The (started) batcher for this tenant/endpoint pair."""
        if self._closed:
            raise ConfigurationError("tenant batchers are stopped")
        key = (tenant, endpoint)
        batcher = self._batchers.get(key)
        if batcher is None:
            batcher = MicroBatcher(
                self._factory(tenant, endpoint),
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                name=f"{endpoint}:{tenant}",
            )
            await batcher.start()
            self._batchers[key] = batcher
        return batcher

    async def stop(self) -> None:
        """Drain and retire every tenant batcher."""
        self._closed = True
        batchers, self._batchers = list(self._batchers.values()), {}
        for batcher in batchers:
            await batcher.stop()
