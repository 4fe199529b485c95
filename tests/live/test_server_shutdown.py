"""A replica server shuts down quietly, whatever connections are still open.

A connection handler left to ``asyncio.run``'s teardown is cancelled there,
and the stream machinery reports each such cancellation to the loop's
exception handler: a ``CancelledError`` traceback per open connection on
the server's stderr.
"""

import asyncio

from repro.live.protocol import read_message, write_message
from repro.live.server import ReplicaServer


def test_shutdown_closes_open_connections_without_reporting_an_error():
    errors = []
    ends = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(lambda loop, context: errors.append(context))
        server = ReplicaServer(0, deterministic=True)
        port = await server.start()
        connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
        reader, writer = connections[0]
        write_message(writer, {"t": "ctl", "op": "shutdown"})
        await writer.drain()
        assert (await read_message(reader))["op"] == "shutdown"
        await server.serve_until_shutdown()
        for reader, writer in connections:
            try:
                ends.append(await asyncio.wait_for(read_message(reader), timeout=2.0))
            except asyncio.TimeoutError:
                ends.append("still open")
            writer.close()

    asyncio.run(scenario())
    assert errors == []
    assert ends == [None, None]  # the server closed both connections: each read a clean EOF
