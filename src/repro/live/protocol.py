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

Two readers share one set of checks: :func:`read_message` pulls one frame
off an ``asyncio.StreamReader`` (the server, the harness's control channel),
and :class:`FrameDecoder` is the same framing without I/O — bytes in,
complete frame bodies out — for the load generator's data connections,
which are ``asyncio.Protocol`` callbacks.  Both apply the length cap
(:func:`_body_length`) and turn a body into a message with
:func:`decode_body`.  A *framing* error (a length over the cap, a stream
that ends mid-frame) leaves the connection unreadable; an unreadable body
(not UTF-8 JSON, not an object) does not, since the next frame's boundary
is known, so a reader may drop it and go on.  :func:`encode_request` writes
the one frame the load generator sends per copy, byte for byte what
:func:`encode_message` writes, without ``json.dumps``.
"""

from __future__ import annotations

import asyncio
import json
import struct

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "ProtocolError",
    "decode_body",
    "encode_message",
    "encode_request",
    "read_message",
    "write_message",
]

#: Upper bound on a single frame body.  Stats acks carry load series for
#: one server, which stays far below this even for very long trials.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")
_HEADER = _LENGTH.size


class ProtocolError(RuntimeError):
    """A malformed frame: oversized, truncated, or not a JSON object."""


def encode_message(message: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one frame on ``writer`` (no flush — callers drain in bulk).

    StreamWriter.write is not a coroutine, so frames from concurrent
    tasks never interleave mid-frame as long as each frame is a single
    ``write`` call — which :func:`encode_message` guarantees.
    """
    writer.write(encode_message(message))


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame (truncated length prefix)") from error
    length = _body_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame (truncated body)") from error
    return decode_body(body)


def _body_length(header: bytes, offset: int = 0) -> int:
    """The body length in the prefix at ``offset``, checked against the cap."""
    (length,) = _LENGTH.unpack_from(header, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


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
            stop = start + _HEADER + _body_length(buffer, start)
            if stop > end:
                break
            bodies.append(buffer[start + _HEADER : stop])
            start = stop
        self._buffer = buffer[start:]
        return bodies


#: The JSON of each request kind, as ``json.dumps`` writes it.
_KINDS = {kind: json.dumps(kind).encode("utf-8") for kind in ("read", "write")}


def encode_request(request_id: int, kind: str) -> bytes:
    """``encode_message({"t": "req", "id": request_id, "kind": kind})``, byte for byte."""
    body = b'{"t":"req","id":%d,"kind":%s}' % (request_id, _KINDS[kind])
    return _LENGTH.pack(len(body)) + body
