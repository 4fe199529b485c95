"""A raw peer for the live tests: write one frame, read one frame, over asyncio streams.

The live backend reads frames only through
:class:`repro.live.protocol.FrameProtocol`.  Tests that play a client or a
stub server by hand want the opposite shape, one awaited frame at a time,
and strict about a stream that ends mid-frame, so they use these.
"""

from __future__ import annotations

import asyncio
import struct

from repro.live.protocol import MAX_FRAME_BYTES, ProtocolError, decode_body, encode_message


def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one frame on ``writer``: one ``write`` call, so frames never interleave."""
    writer.write(encode_message(message))


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame (truncated length prefix)") from error
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame (truncated body)") from error
    return decode_body(body)
