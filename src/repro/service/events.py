"""``GET /v1/events`` -- batch reads and SSE tails of the event bus.

Two delivery modes over one cursor model:

* **Batch** (default): one JSON document with the events at
  ``seq >= cursor``, the ``next_cursor`` to poll from, and the
  canonical ``lines`` (exact published bytes) so a client can verify
  byte-identical replay without re-serialising anything.
* **Tail** (``follow=1``): a ``text/event-stream`` response over
  chunked transfer encoding.  Each event ships as one SSE frame::

      id: <seq>
      event: <kind>
      data: <canonical JSON line>

  A consumer whose cursor fell behind the bounded retention window
  (and past what the durable log can replay) first receives a
  synthetic ``stream.lagged`` frame stating how many events it
  missed; a closed, fully drained stream ends with a data-free
  ``stream.end`` frame.  Because the ``data:`` payload is always the
  canonical published line, the frame sequence for any cursor is a
  byte-identical suffix of the frame sequence from cursor 0.

The transport half (chunked encoding itself) lives in
:mod:`repro.service.http`; this module shapes frames and owns the
query contract (:func:`events_response`) that a worker and the
cluster router both answer with.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Mapping, Optional, Tuple

from ..errors import BadRequestError, NotFoundError
from ..obs.stream import Event, EventBus
from .schemas import parse_limit

__all__ = [
    "SSE_CONTENT_TYPE",
    "EventStreamResponse",
    "events_payload",
    "events_response",
    "parse_events_query",
    "sse_frame",
    "sse_lagged_frame",
    "sse_end_frame",
    "telemetry_loss",
]

SSE_CONTENT_TYPE = "text/event-stream"

#: How often a tailing stream re-polls the bus for new events.  Short
#: enough that a watch feels live; long enough to stay invisible next
#: to task execution times.
DEFAULT_POLL_INTERVAL_S = 0.025


def sse_frame(event: Event) -> bytes:
    """One event as an SSE frame (id + kind + canonical line)."""
    return (
        f"id: {event.seq}\nevent: {event.kind}\ndata: {event.line}\n\n"
    ).encode("utf-8")


def sse_lagged_frame(stream: str, dropped: int, resume_cursor: int) -> bytes:
    """The synthetic frame a lagging consumer sees before the tail.

    Carries no ``id:`` -- it is not part of the stream's sequence --
    and states exactly how many events fell out of retention.
    """
    data = json.dumps(
        {
            "stream": stream,
            "kind": "stream.lagged",
            "dropped": dropped,
            "resume_cursor": resume_cursor,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"event: stream.lagged\ndata: {data}\n\n".encode("utf-8")


def sse_end_frame(
    stream: str, loss: Optional[Dict[str, int]] = None
) -> bytes:
    """The terminal frame of a closed, fully drained stream.

    ``loss`` (events trimmed from bus retention, spans evicted from
    the trace ring -- process totals) rides along so a watch client
    can report telemetry loss without scraping ``/metrics``.  Like the
    lagged frame, this one carries no ``id:``: it is synthetic, not
    part of the stream's canonical byte sequence.
    """
    doc: Dict[str, Any] = {"stream": stream, "kind": "stream.end"}
    if loss:
        doc["loss"] = {key: int(value) for key, value in loss.items()}
    data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f"event: stream.end\ndata: {data}\n\n".encode("utf-8")


def telemetry_loss(
    bus: EventBus, since: Optional[Dict[str, int]] = None
) -> Dict[str, int]:
    """Telemetry loss counters for the end frame.

    Absolute process totals by default; pass a ``since`` marker (an
    earlier return value) for the loss accrued across an interval --
    a tailing response reports the loss of *its own* lifetime, not
    everything the process ever trimmed.
    """
    from ..obs.trace import get_tracer

    loss = {"events_trimmed": int(bus.stats().get("trimmed", 0))}
    try:
        loss["trace_spans_dropped"] = int(get_tracer().stats()["dropped"])
    except Exception:  # tracer not configured in this process
        loss["trace_spans_dropped"] = 0
    if since:
        loss = {
            key: max(0, value - int(since.get(key, 0)))
            for key, value in loss.items()
        }
    return loss


def events_payload(
    bus: EventBus,
    stream: str,
    cursor: int = 0,
    limit: Optional[int] = None,
) -> Dict[str, Any]:
    """The batch-mode JSON document for one ``GET /v1/events`` read."""
    slice_ = bus.read(stream, cursor, limit)
    return {
        "stream": stream,
        "cursor": cursor,
        "next_cursor": slice_.next_cursor,
        "closed": slice_.closed,
        "dropped": slice_.dropped,
        "count": len(slice_.events),
        "events": [event.payload for event in slice_.events],
        "lines": [event.line for event in slice_.events],
    }


def parse_events_query(query: Mapping[str, Any]) -> Tuple[str, int]:
    """``(stream, cursor)`` of a ``GET /v1/events`` query.

    ``job_id`` (or the generic ``stream``) names the stream; ``cursor``
    is the first sequence number wanted.
    """
    stream = query.get("job_id", [None])[0]
    if stream is None:
        stream = query.get("stream", [None])[0]
    if not stream:
        raise BadRequestError(
            "pass job_id=<job> (or stream=<name>) to select an "
            "event stream"
        )
    cursor_text = query.get("cursor", ["0"])[0]
    try:
        cursor = int(cursor_text)
    except ValueError:
        raise BadRequestError(
            f"cursor must be an integer, got {cursor_text!r}"
        ) from None
    if cursor < 0:
        raise BadRequestError(f"cursor must be >= 0, got {cursor}")
    return stream, cursor


def events_response(bus: EventBus, query: Mapping[str, Any]) -> Any:
    """The ``GET /v1/events`` payload for one stream on ``bus``.

    ``follow=1`` switches from a JSON batch (capped by ``limit``) to
    an :class:`EventStreamResponse` tail.  Bad arguments raise
    :class:`~repro.errors.BadRequestError`; a stream ``bus`` does not
    know raises :class:`~repro.errors.NotFoundError`.
    """
    stream, cursor = parse_events_query(query)
    if not bus.known(stream):
        raise NotFoundError(f"no event stream {stream!r}")
    follow = query.get("follow", ["0"])[0].lower() in (
        "1", "true", "yes", "sse",
    )
    if follow:
        return EventStreamResponse(bus, stream, cursor=cursor)
    return events_payload(
        bus, stream, cursor=cursor, limit=parse_limit(query)
    )


class EventStreamResponse:
    """A follow-mode ``/v1/events`` response: an async frame source.

    Returned as the *payload* of a handled request; the HTTP transport
    recognises it and switches to chunked transfer encoding, pulling
    frames from :meth:`frames` until the stream ends or the client
    disconnects.  In-process tests iterate :meth:`frames` directly.
    """

    content_type = SSE_CONTENT_TYPE

    def __init__(
        self,
        bus: EventBus,
        stream: str,
        cursor: int = 0,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        max_events: Optional[int] = None,
    ) -> None:
        self.bus = bus
        self.stream = stream
        self.cursor = cursor
        self.poll_interval_s = poll_interval_s
        #: Optional hard cap on delivered events (tests; bounded tails).
        self.max_events = max_events
        #: Loss baseline at open: the end frame reports only the loss
        #: accrued while this response was streaming.
        self._loss_at_open = telemetry_loss(bus)

    async def frames(self) -> AsyncIterator[bytes]:
        """Yield SSE frames from ``cursor`` until the stream ends."""
        cursor = self.cursor
        delivered = 0
        while True:
            slice_ = self.bus.read(self.stream, cursor)
            if slice_.dropped:
                yield sse_lagged_frame(
                    self.stream,
                    slice_.dropped,
                    slice_.events[0].seq
                    if slice_.events
                    else slice_.next_cursor,
                )
            for event in slice_.events:
                yield sse_frame(event)
                delivered += 1
                cursor = event.seq + 1
                if (
                    self.max_events is not None
                    and delivered >= self.max_events
                ):
                    return
            cursor = max(cursor, slice_.next_cursor)
            if slice_.closed and cursor >= self.bus.cursor(self.stream):
                yield sse_end_frame(
                    self.stream,
                    loss=telemetry_loss(
                        self.bus, since=self._loss_at_open
                    ),
                )
                return
            await asyncio.sleep(self.poll_interval_s)
