"""A replica server shuts down quietly, whatever connections are still open.

Shutdown closes each open connection itself, so its peer reads a clean EOF
and nothing is left for ``asyncio.run``'s teardown to report to the loop's
exception handler (a traceback per connection on the server's stderr).
"""

import asyncio

from repro.live.server import ReplicaServer

from live_wire import read_message, write_message


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
