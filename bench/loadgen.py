"""Open-loop HTTP load generator: one asyncio thread, a few keep-alive connections.

Every request has a *due* time fixed before the run starts.  A scheduler
coroutine hands each request to a shared queue when it falls due; one
worker per connection takes requests off that queue, sends them and waits
for the reply.  A request is timed from when it was due, not from when it
was sent, so a server stall also counts against every request that fell
due while the stall held all connections busy.  That is the open-loop
accounting: a slow server receives the same schedule as a fast one.

Lateness is the generator's own delay: the time from a request's due time
to its send, counted only for requests that found a connection free when
they fell due.  A run whose lateness tail exceeds a few milliseconds
measured the generator, not the server.

The HTTP client is the subset the ``repro serve`` server speaks: HTTP/1.1
keep-alive with ``Content-Length`` bodies.
"""

from __future__ import annotations

import asyncio
import selectors
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Request", "Outcome", "drive", "run", "median", "tail"]

#: Seconds a request may take before it counts as failed (status 0).
TIMEOUT_SECONDS = 10.0
#: Seconds between opening the connections and the first due time.
LEAD_SECONDS = 0.05


def median(values) -> float:
    """The median, or 0.0 for no values."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples the value is the
    ``n - 10``-th smallest, which leaves exactly ten samples above it; its
    percentile is ``100 * (n - 10) / n``.  With ten samples or fewer no
    percentile qualifies, and the slowest sample is returned as the
    100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


@dataclass
class Request:
    """One scheduled request; ``due`` is seconds after the run starts."""

    due: float
    method: str
    path: str
    body: bytes = b""
    kind: str = "read"
    headers: dict[str, str] = field(default_factory=dict)
    tag: Any = None


@dataclass
class Outcome:
    """What happened to one request (monotonic-clock seconds).

    ``status`` is 0 when the request got no HTTP answer (refused,
    disconnected, or timed out).  ``queued`` is true when every
    connection was busy at the request's due time.
    """

    request: Request
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    queued: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: Request
) -> tuple[int, bytes]:
    extra = "".join(f"{name}: {value}\r\n" for name, value in request.headers.items())
    head = (
        f"{request.method} {request.path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(request.body)}\r\n"
        f"{extra}\r\n"
    ).encode("latin-1")
    writer.write(head + request.body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def drive(
    host: str, port: int, schedule: list[Request], *, connections: int
) -> list[Outcome]:
    """Run ``schedule`` open loop and return one outcome per request.

    ``schedule`` must be sorted by ``due``.  Connections are opened before
    the clock starts; ``LEAD_SECONDS`` later the first request falls due.
    A connection that fails is reopened for the next request.
    """
    clock = time.monotonic
    streams = [await asyncio.open_connection(host, port) for _ in range(connections)]
    pending: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    idle = connections
    start = clock() + LEAD_SECONDS

    async def worker(slot: int) -> None:
        nonlocal idle
        reader, writer = streams[slot]
        while True:
            item = await pending.get()
            if item is None:
                return
            request, due, queued = item
            idle -= 1
            sent = clock()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                status, body = await asyncio.wait_for(
                    _exchange(reader, writer, request), TIMEOUT_SECONDS
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                status, body = 0, b""
                if writer is not None:
                    writer.close()
                reader, writer = None, None
            outcomes.append(
                Outcome(request, due, sent, clock(), status, body, queued)
            )
            idle += 1
            streams[slot] = (reader, writer)

    async def scheduler() -> None:
        for request in schedule:
            due = start + request.due
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            # Busy connections at due time mean the wait that follows is
            # queueing behind the server, not generator lateness.
            pending.put_nowait((request, due, idle == 0 or not pending.empty()))
        for _ in range(connections):
            pending.put_nowait(None)

    workers = [asyncio.ensure_future(worker(slot)) for slot in range(connections)]
    try:
        await scheduler()
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        for _reader, writer in streams:
            if writer is not None:
                writer.close()
    return outcomes


def run(
    host: str, port: int, schedule: list[Request], *, connections: int
) -> list[Outcome]:
    """Synchronous wrapper around :func:`drive` on a fresh event loop.

    The loop waits in ``select()``, whose timeout has microsecond
    resolution; the default epoll loop rounds every timer wait up to a
    whole millisecond, which alone made the generator ~0.7 ms late at
    the median.  A handful of sockets is well within ``select()``'s
    range.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(
            drive(host, port, schedule, connections=connections)
        )
    finally:
        loop.close()
