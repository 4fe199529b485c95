"""Unit tests for the length-prefixed JSON wire format."""

import asyncio
import random
import struct

import pytest

from repro.live.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_body,
    encode_message,
    encode_request,
    read_message,
    write_message,
)


def _read_from(data: bytes, *, frames: int = 1):
    """Feed raw bytes to a StreamReader and read ``frames`` messages."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await read_message(reader) for _ in range(frames)]

    return asyncio.run(scenario())


class TestEncode:
    def test_frame_is_length_prefixed_json(self):
        frame = encode_message({"t": "req", "id": 3, "kind": "read"})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert b'"t":"req"' in frame

    def test_oversize_body_is_rejected_at_encode_time(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_message({"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestReadMessage:
    def test_round_trip(self):
        message = {
            "t": "res",
            "id": 9,
            "server_id": 1,
            "queue_size": 4,
            "service_time_ms": 2.5,
            "rejected": False,
        }
        (decoded,) = _read_from(encode_message(message))
        assert decoded == message

    def test_multiple_frames_read_in_order(self):
        frames = [{"t": "req", "id": i, "kind": "read"} for i in range(3)]
        data = b"".join(encode_message(frame) for frame in frames)
        assert _read_from(data, frames=3) == frames

    def test_clean_eof_returns_none(self):
        assert _read_from(b"") == [None]

    def test_eof_after_full_frame_returns_none(self):
        decoded = _read_from(encode_message({"t": "ack", "op": "stats"}), frames=2)
        assert decoded[0] == {"t": "ack", "op": "stats"}
        assert decoded[1] is None

    def test_truncated_length_prefix(self):
        with pytest.raises(ProtocolError, match="truncated length prefix"):
            _read_from(b"\x00\x00")

    def test_truncated_body(self):
        frame = encode_message({"t": "req", "id": 1, "kind": "read"})
        with pytest.raises(ProtocolError, match="truncated body"):
            _read_from(frame[:-3])

    def test_oversize_length_prefix_fails_before_buffering(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_from(header)

    def test_non_object_body(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="JSON object"):
            _read_from(struct.pack(">I", len(body)) + body)

    def test_invalid_json_body(self):
        body = b"{nope"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            _read_from(struct.pack(">I", len(body)) + body)


class TestWriteMessage:
    def test_writes_one_decodable_frame(self):
        class FakeWriter:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

        writer = FakeWriter()
        write_message(writer, {"t": "ctl", "op": "slow", "factor": 4.0})
        # One frame per write call — concurrent writers can't interleave.
        assert len(writer.chunks) == 1
        (decoded,) = _read_from(writer.chunks[0])
        assert decoded == {"t": "ctl", "op": "slow", "factor": 4.0}


#: Three frames of the shapes the wire carries, one of them multi-byte UTF-8.
_FRAMES = [
    {"t": "req", "id": 7, "kind": "read"},
    {"t": "res", "id": 7, "server_id": 2, "queue_size": 3, "service_time_ms": 4.25, "rejected": False},
    {"t": "ack", "op": "stats", "note": "µs ✓"},
]
_STREAM = b"".join(encode_message(frame) for frame in _FRAMES)


def _decode_in(chunks):
    decoder = FrameDecoder()
    return [decode_body(body) for chunk in chunks for body in decoder.feed(chunk)]


class TestFrameDecoder:
    def test_one_byte_chunks_yield_what_read_message_returns(self):
        expected = _read_from(_STREAM, frames=3)
        assert _decode_in(_STREAM[i : i + 1] for i in range(len(_STREAM))) == expected == _FRAMES

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chunks_yield_what_read_message_returns(self, seed):
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, len(_STREAM)), 6))
        chunks = [_STREAM[a:b] for a, b in zip([0, *cuts], [*cuts, len(_STREAM)])]
        assert _decode_in(chunks) == _read_from(_STREAM, frames=3)

    def test_a_partial_frame_is_held_until_it_completes(self):
        decoder = FrameDecoder()
        frame = encode_message(_FRAMES[0])
        assert decoder.feed(frame[:-1]) == []
        assert decoder.feed(frame[-1:] + frame[:2]) == [frame[4:]]
        assert decoder.feed(frame[2:]) == [frame[4:]]

    def test_oversize_prefix_raises_before_any_body_is_buffered(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        decoder = FrameDecoder()
        assert decoder.feed(header[:3]) == []
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header[3:])
        with pytest.raises(ProtocolError, match="exceeds"):
            FrameDecoder().feed(encode_message(_FRAMES[0]) + header)

    def test_body_checks_are_read_messages(self):
        unreadable = [(b"[1,2,3]", "JSON object"), (b"{nope", "not valid JSON"), (b"\xff", "not valid JSON")]
        for body, match in unreadable:
            with pytest.raises(ProtocolError, match=match):
                decode_body(body)
            with pytest.raises(ProtocolError, match=match):
                _read_from(struct.pack(">I", len(body)) + body)


class TestEncodeRequest:
    @pytest.mark.parametrize("kind", ["read", "write"])
    @pytest.mark.parametrize("request_id", [0, 1, 2**31])
    def test_bytes_are_encode_messages(self, request_id, kind):
        expected = encode_message({"t": "req", "id": request_id, "kind": kind})
        assert encode_request(request_id, kind) == expected
