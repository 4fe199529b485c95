"""Length-prefixed JSON wire format for the live cluster backend.

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON — one JSON object per frame.  Requests, responses,
and control messages share one connection and are distinguished by the
``"t"`` key:

``{"t": "req", "id": <int>, "kind": "read"|"write"}``
    A client request.  The server services it through its bounded queue
    and replies with a ``res`` frame carrying the same ``id``.

``{"t": "res", "id": <int>, "server_id": <int>, "queue_size": <int>,
"service_time_ms": <float>, "rejected": <bool>}``
    The response, with :class:`~repro.core.feedback.ServerFeedback`
    piggybacked exactly as the simulator's servers report it:
    ``queue_size`` is the pending count (queued + in service) at response
    time and ``service_time_ms`` the EWMA-smoothed service time.
    ``rejected`` is true when the bounded queue was full and the request
    was never serviced (the feedback fields still describe the server).

``{"t": "ctl", "op": <str>, ...}`` / ``{"t": "ack", "op": <str>, ...}``
    Scenario injection and lifecycle: ``slow`` (``factor``), ``pause``
    (``duration_ms``), ``crash``, ``restore``, ``stats``, ``shutdown``.
    The server acknowledges every control frame; ``stats`` acks carry the
    server's counters and per-bucket load series.

The frame length is capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
hostile length prefix fails fast instead of buffering unbounded data.

One reader serves every connection: :class:`FrameProtocol`, an
``asyncio.Protocol`` that feeds a sans-I/O :class:`FrameDecoder` (bytes in,
complete frame bodies out) and hands each body :func:`decode_body` can read
to a callback.  A *framing* error (a length over the cap) leaves the
connection unreadable, so it is closed; an unreadable body (not UTF-8 JSON,
not an object) is dropped, since the next frame's boundary is known, and so
is a frame the stream ends inside.  :func:`encode_request` writes the one
frame the load generator sends per copy, byte for byte what
:func:`encode_message` writes, without ``json.dumps``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameProtocol",
    "ProtocolError",
    "decode_body",
    "encode_message",
    "encode_request",
]

#: Upper bound on a single frame body.  Stats acks carry load series for
#: one server, which stays far below this even for very long trials.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")
_HEADER = _LENGTH.size


class ProtocolError(RuntimeError):
    """A malformed frame: oversized, or not a JSON object."""


def encode_message(message: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """One frame body as its message: a UTF-8 JSON object, or :class:`ProtocolError`."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


class FrameDecoder:
    """Sans-I/O framing: :meth:`feed` takes bytes as they arrive and returns
    the bodies of the frames they complete, in order.

    A partial frame is held until the rest arrives.  A length over the cap
    raises :class:`ProtocolError` as soon as its 4-byte prefix is in, before
    any of the body is held, and takes the frames completed by the same call
    with it: the stream cannot be resynchronised after that.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list[bytes]:
        buffer = self._buffer + data if self._buffer else data
        end = len(buffer)
        bodies: list[bytes] = []
        start = 0
        while end - start >= _HEADER:
            (length,) = _LENGTH.unpack_from(buffer, start)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
            stop = start + _HEADER + length
            if stop > end:
                break
            bodies.append(buffer[start + _HEADER : stop])
            start = stop
        self._buffer = buffer[start:]
        return bodies


class FrameProtocol(asyncio.Protocol):
    """One connection's frames: each readable message goes to ``on_message``,
    and ``on_lost`` is called once the connection is gone.  ``transport``,
    for replies, is set once the connection is made."""

    def __init__(
        self, on_message: Callable[[dict], object], on_lost: Callable[[], object] | None = None
    ) -> None:
        self._on_message = on_message
        self._on_lost = on_lost
        self._decoder = FrameDecoder()
        self.transport: Any = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            bodies = self._decoder.feed(data)
        except ProtocolError:
            # A length over the cap: no later frame boundary can be trusted.
            self.transport.close()
            return
        for body in bodies:
            try:
                message = decode_body(body)
            except ProtocolError:
                continue  # well framed but unreadable: dropped
            self._on_message(message)

    def connection_lost(self, exc: Exception | None) -> None:
        if self._on_lost is not None:
            self._on_lost()


#: The JSON of each request kind, as ``json.dumps`` writes it.
_KINDS = {kind: json.dumps(kind).encode("utf-8") for kind in ("read", "write")}


def encode_request(request_id: int, kind: str) -> bytes:
    """``encode_message({"t": "req", "id": request_id, "kind": kind})``, byte for byte."""
    body = b'{"t":"req","id":%d,"kind":%s}' % (request_id, _KINDS[kind])
    return _LENGTH.pack(len(body)) + body
