"""A replica server survives the frames a broken peer sends.

A frame it cannot use is dropped, and a control frame without its argument
is answered with an ``error`` ack; either way the connection keeps serving.
A length prefix over the cap ends that connection and no other; a frame cut
short by the end of the stream goes with its connection, without a traceback.
"""

import asyncio
import math
import struct

from repro.live.protocol import MAX_FRAME_BYTES
from repro.live.server import ReplicaServer

from live_wire import read_message, write_message


async def _open(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def _request(reader, writer, op_id):
    write_message(writer, {"t": "req", "id": op_id, "kind": "read"})
    await writer.drain()
    return await asyncio.wait_for(read_message(reader), 5.0)


def _serve(scenario):
    """Run ``scenario(server, port)`` beside a server; return what the loop reported."""
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(lambda loop, context: errors.append(context))
        server = ReplicaServer(0, base_service_ms=0.5, deterministic=True)
        port = await server.start()
        try:
            await scenario(server, port)
        finally:
            server._shutdown.set()
            await server.serve_until_shutdown()

    asyncio.run(main())
    return errors


def test_a_malformed_frame_is_dropped_and_the_connection_keeps_serving():
    async def scenario(server, port):
        reader, writer = await _open(port)
        writer.write(struct.pack(">I", 5) + b"{nope")  # well framed, not JSON
        write_message(writer, {"t": "req", "kind": "read"})  # a request without an id
        response = await _request(reader, writer, 7)
        assert (response["t"], response["id"], response["rejected"]) == ("res", 7, False)
        assert server.requests_received == 1
        writer.close()

    assert _serve(scenario) == []


def test_a_control_frame_without_its_argument_is_refused_and_the_connection_keeps_serving():
    async def scenario(server, port):
        reader, writer = await _open(port)
        refused = (
            {"op": "slow"},
            {"op": "slow", "factor": math.nan},
            {"op": "slow", "factor": math.inf},
            {"op": "pause", "duration_ms": "soon"},
            {"op": "pause", "duration_ms": math.nan},
            {"op": "pause", "duration_ms": math.inf},
            {"op": "pause", "duration_ms": -1.0},
        )
        for bad in refused:
            write_message(writer, {"t": "ctl", **bad})
            await writer.drain()
            ack = await asyncio.wait_for(read_message(reader), 5.0)
            assert (ack["t"], ack["op"]) == ("ack", bad["op"]) and "error" in ack
        assert server._pauses == 0  # the refused pauses stalled nothing
        assert server.current_service_time_ms == 0.5  # nor did the refused slows
        assert (await _request(reader, writer, 3))["id"] == 3
        writer.close()

    assert _serve(scenario) == []


def test_an_oversized_length_prefix_closes_that_connection_alone():
    async def scenario(server, port):
        bad_reader, bad_writer = await _open(port)
        reader, writer = await _open(port)
        bad_writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
        await bad_writer.drain()
        assert await asyncio.wait_for(read_message(bad_reader), 5.0) is None  # closed by the server
        assert (await _request(reader, writer, 1))["id"] == 1
        bad_writer.close()
        writer.close()

    assert _serve(scenario) == []


def test_a_frame_cut_short_by_eof_is_dropped_without_a_traceback():
    async def scenario(server, port):
        _, cut_writer = await _open(port)
        frame = struct.pack(">I", 40) + b'{"t":"req","id":1'
        cut_writer.write(frame)
        cut_writer.write_eof()
        await cut_writer.drain()
        reader, writer = await _open(port)
        assert (await _request(reader, writer, 2))["id"] == 2
        assert server.requests_received == 1  # the cut request never arrived
        cut_writer.close()
        writer.close()

    assert _serve(scenario) == []
