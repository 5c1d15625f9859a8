"""Seeded load generation over keep-alive HTTP/1.1 connections.

* :func:`open_loop` sends a fixed arrival schedule regardless of how
  fast answers come back.  A dispatcher task on the event loop releases
  each request at its due time and hands it to the first free
  connection.  Run it on :func:`new_loop`, whose ``select`` timeout is
  precise to microseconds (the default ``epoll`` loop rounds a timeout
  up to a millisecond); a single thread means no cross-thread wake-up
  sits between a due time and its send.  Latency is measured from the
  *due* time, so a stall anywhere -- in the server, on a busy
  connection, or in the generator itself -- is charged to every
  request it delays.  Lateness (send minus due) and the backlog
  (requests due but not yet answered, sampled once per second) report
  how honest the generator was.
* :func:`closed_loop` keeps every connection busy back to back and
  reports completions per second.
"""

from __future__ import annotations

import asyncio
import bisect
import selectors
import time
from dataclasses import dataclass, field
from typing import (
    Any, Awaitable, Callable, Iterator, List, Optional, Sequence,
    Tuple,
)

from . import stats

Clock = Callable[[], float]


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(self, method: str, path: str, body: bytes = b""
                      ) -> Tuple[int, bytes]:
        """``(status, body)`` of one request on this connection."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status = int(raw[9:12])
        length = 0
        for line in raw.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
                break
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Result:
    """One request's outcome; times are seconds on the run clock."""

    item: Any
    status: int
    body: bytes
    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    results: List[Result] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: ``(seconds since start, requests due but unanswered)``.
    backlog: List[Tuple[float, int]] = field(default_factory=list)

    def backlog_growth(self) -> float:
        """Least-squares growth of the backlog, requests per second."""
        return stats.slope(
            [t for t, _ in self.backlog], [float(b) for _, b in self.backlog]
        )


Send = Callable[[int, Any], Awaitable[Tuple[int, bytes]]]


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers fire to the microsecond."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


async def open_loop(
    schedule: Sequence[Tuple[float, Any]],
    send: Send,
    connections: int,
    clock: Clock = time.perf_counter,
    before_send: Optional[Callable[[Any], None]] = None,
) -> PhaseResult:
    """Send ``(offset_s, item)`` arrivals at their due times.

    ``send(conn_index, item)`` performs one request.  ``before_send``
    runs on the event loop just before each send (tests inject a
    generator stall through it).
    """
    queue: asyncio.Queue = asyncio.Queue()
    phase = PhaseResult()
    offsets = [t for t, _ in schedule]
    start = clock() + 0.02

    async def release() -> None:
        for offset, item in schedule:
            delay = start + offset - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((start + offset, item))
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker(index: int) -> None:
        while True:
            entry = await queue.get()
            if entry is None:
                return
            due, item = entry
            if before_send is not None:
                before_send(item)
            sent = clock()
            try:
                status, body = await send(index, item)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                status, body = 0, b""  # counted as failed by the checks
            phase.results.append(
                Result(item, status, body, due, sent, clock())
            )

    async def sample_backlog() -> None:
        while True:
            await asyncio.sleep(1.0)
            now = clock()
            due = bisect.bisect_right(offsets, now - start)
            phase.backlog.append(
                (now - start, due - len(phase.results))
            )

    sampler = asyncio.create_task(sample_backlog())
    try:
        await asyncio.gather(
            release(), *(worker(i) for i in range(connections))
        )
    finally:
        sampler.cancel()
        try:
            await sampler
        except asyncio.CancelledError:
            pass
    phase.elapsed_s = clock() - start
    return phase


async def closed_loop(
    items: Iterator[Any],
    send: Send,
    connections: int,
    seconds: float,
    clock: Clock = time.perf_counter,
) -> PhaseResult:
    """Every connection sends its next item as soon as one completes."""
    phase = PhaseResult()
    start = clock()
    deadline = start + seconds

    async def worker(index: int) -> None:
        while clock() < deadline:
            try:
                item = next(items)
            except StopIteration:
                return
            sent = clock()
            try:
                status, body = await send(index, item)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                status, body = 0, b""  # counted as failed by the checks
            phase.results.append(
                Result(item, status, body, sent, sent, clock())
            )

    await asyncio.gather(*(worker(i) for i in range(connections)))
    phase.elapsed_s = clock() - start
    return phase
