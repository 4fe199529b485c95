"""Asyncio TCP replica server process for the live backend.

One :class:`ReplicaServer` is the simulator's server model,
:class:`repro.replica.ReplicaCore`, behind a TCP listener, posting on
asyncio's clock (``call_later``) with stdlib ``random`` draws.  The shell
keeps only what makes a live server differ from ``SimServer``, each named
where it happens: a bounded queue that rejects, and a crash that drops the
queued work, answers no request that was in service (whose slots come back
free with the restarted process), and drops arrivals while the server is
down.

Every connection is a :class:`~repro.live.protocol.FrameProtocol`, served
in its callbacks; an answer is one ``write`` on its transport.  A frame it
cannot use (unreadable, or a request without an ``id``) is dropped.

Scenario injection arrives over the same TCP listener as load, as ``ctl``
frames (see :mod:`repro.live.protocol`): ``slow`` inflates service times
(slow-node), ``pause`` is the core's crash/restore stall for a duration,
as a cluster GC pause is (gc-storm),
``crash``/``restore`` drop and revive the server (crash-recovery), and
``stats`` reads back counters plus a bucketed served-load series.

:func:`serve` runs one server in the calling process until a ``shutdown``
frame and hands the bound port to a callback: the harness forks each
server and reports that port over a pipe.  Run by hand as a process::

    python -m repro.live.server --server-id 0 --port 0 --seed 42

it binds 127.0.0.1 (port 0 = OS-assigned) and prints ``PORT <n>`` on
stdout once listening.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import math
import random
import sys
from typing import Any, Callable

from ..replica import ReplicaCore
from .protocol import FrameProtocol, encode_message

__all__ = ["ReplicaServer", "main", "serve"]

#: Width of one served-load accounting bucket, in milliseconds.
_LOAD_BUCKET_MS = 100.0


def _finite(value: Any) -> float:
    """A control op's numeric argument; ``NaN`` and infinities (JSON accepts both) are refused."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {number!r}")
    return number


class _AsyncioClock:
    """The core's loop on asyncio's clock: ``now`` and ``post`` in ms."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    now = property(lambda self: self._loop.time() * 1000.0)

    def post(self, delay: float, callback: Callable[..., object], *args: Any) -> None:
        self._loop.call_later(delay / 1000.0, callback, *args)


class ReplicaServer(ReplicaCore):
    """One live replica: the core server model, a listener, a control channel.

    ``loop`` is a seam for tests: any loop with ``now`` and ``post`` in ms
    (the simulator's ``EventLoop``, say).  By default the server posts on the
    running asyncio loop's clock, so it must be built inside that loop.
    """

    def __init__(
        self,
        server_id: int,
        *,
        base_service_ms: float = 4.0,
        concurrency: int = 4,
        queue_capacity: int = 10_000,
        seed: int = 0,
        deterministic: bool = False,
        loop: Any = None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        # The stdlib generator, not numpy's: one draw per request needs no
        # vector RNG, and a server process then starts without importing numpy.
        exp = functools.partial(random.Random(seed).expovariate, 1.0)
        clock = loop if loop is not None else _AsyncioClock(asyncio.get_running_loop())
        super().__init__(
            clock, int(server_id), base_service_ms, concurrency, bool(deterministic), exp, self._respond
        )
        self.queue_capacity = int(queue_capacity)
        # The process's current life, which tags each request it takes in;
        # None while crashed (a crash, not a pause: the process is down).
        self._life: object | None = object()
        self._pauses = 0  # pauses not yet over
        self._start_ms = self.loop.now
        self._load_buckets: dict[int, int] = {}
        # Each request is counted once on arrival: accepted
        # (``requests_received``), rejected, or dropped while down.  An
        # accepted one is then served, or dropped by a crash.
        self.rejected = self.dropped_while_down = self.served = self.dropped = 0
        self._shutdown = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        # Open connections, so shutdown can close them itself.
        self._connections: set[FrameProtocol] = set()

    # ----------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and return the listening port."""
        self._server = await asyncio.get_running_loop().create_server(self._accept, host, port)
        sockets = self._server.sockets or ()
        return int(sockets[0].getsockname()[1])

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` control frame arrives, then stop
        listening and close every open connection (its queued replies are
        flushed first)."""
        await self._shutdown.wait()
        if self._server is not None:
            self._server.close()
        for connection in self._connections:
            if connection.transport is not None:  # None until the loop has made it
                connection.transport.close()
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------- service
    def _arrive(self, message: dict, transport: Any) -> None:
        """Take one request frame into the core, or turn it away."""
        if self._life is None:
            # Live: a crashed process drops arrivals unanswered; the
            # client's timeout and failure detector cover them.
            self.dropped_while_down += 1
        elif len(self._queue) >= self.queue_capacity:
            # Live: the queue is bounded; a full one rejects at once.
            self.rejected += 1
            self._answer(transport, message["id"], True, self.feedback_snapshot())
        else:
            self.enqueue((message["id"], transport, self._life))

    def _finish_service(self, request: tuple, service_time: float) -> None:
        if request[2] is not self._life:
            # Live: the request was in service when the server crashed.  Its
            # slot went with the process and its answer died with it, so
            # nothing of it reaches the core's accounting or the feedback.
            self.dropped += 1
            return
        super()._finish_service(request, service_time)

    def _respond(self, request: tuple, feedback: tuple, service_time: float) -> None:
        op_id, transport, _ = request
        self.served += 1
        bucket = int((self.loop.now - self._start_ms) / _LOAD_BUCKET_MS)
        self._load_buckets[bucket] = self._load_buckets.get(bucket, 0) + 1
        self._answer(transport, op_id, False, feedback)

    def _answer(self, transport: Any, op_id: Any, rejected: bool, feedback: tuple) -> None:
        if transport.is_closing():
            return  # client went away; nothing to report to
        message = {"t": "res", "id": op_id, "rejected": rejected, "server_id": self.server_id}
        message["queue_size"], message["service_time_ms"] = feedback
        transport.write(encode_message(message))

    def _end_pause(self) -> None:
        self._pauses -= 1
        if not self._pauses:
            self.restore()

    # ------------------------------------------------------------- control
    def _handle_control(self, message: dict) -> dict:
        op = message.get("op")
        ack: dict[str, Any] = {"t": "ack", "op": op, "server_id": self.server_id}
        try:
            if op == "slow":
                self.set_service_time_multiplier(_finite(message["factor"]))
            elif op == "pause":
                duration_ms = _finite(message["duration_ms"])
                if duration_ms < 0:
                    raise ValueError(f"negative duration_ms {duration_ms!r}")
                # The core's stall: in-service requests finish and answer, and
                # arrivals queue until the last overlapping pause ends.
                self.loop.post(duration_ms, self._end_pause)
                self._pauses += 1
                self.crash()
            elif op == "crash":
                # Live: a crashed process holds no state; its queue is lost, and
                # the slots of the requests in service are free when it comes
                # back.  The core needs no stall: nothing reaches it while the
                # process is down.
                self._life = None
                self.dropped += len(self._queue)
                self._queue.clear()
                self._in_service = 0
            elif op == "restore":
                self._life = self._life or object()  # a new life after a crash
            elif op == "stats":
                ack["stats"] = {
                    "server_id": self.server_id,
                    "accepted": self.requests_received,
                    "rejected": self.rejected,
                    "served": self.served,
                    "dropped": self.dropped,
                    "enqueued_while_down": self.dropped_while_down,
                    "load_bucket_ms": _LOAD_BUCKET_MS,
                    "load_series": [list(item) for item in sorted(self._load_buckets.items())],
                }
            elif op == "shutdown":
                self._shutdown.set()
            else:
                ack["error"] = f"unknown control op {op!r}"
        except (KeyError, TypeError, ValueError) as error:
            # A slow or pause without a usable numeric argument: refused, and the connection keeps serving.
            ack["error"] = f"bad control op {op!r}: {error!r}"
        return ack

    # ---------------------------------------------------------- connection
    def _accept(self) -> FrameProtocol:
        """A new connection, whose frames :meth:`_on_frame` serves."""
        connection = FrameProtocol(
            lambda message: self._on_frame(message, connection.transport),
            lambda: self._connections.discard(connection),
        )
        self._connections.add(connection)
        return connection

    def _on_frame(self, message: dict, transport: Any) -> None:
        kind = message.get("t")
        if kind == "req" and "id" in message:  # one without an id has no answer: dropped
            self._arrive(message, transport)
        elif kind == "ctl":
            transport.write(encode_message(self._handle_control(message)))
        # Unknown frame types are ignored: forward compatibility.


def serve(
    report_port: Callable[[int], object],
    server_id: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **settings: Any,
) -> None:
    """Run one :class:`ReplicaServer` on a new event loop until ``shutdown``.

    ``report_port`` is called with the bound port once the server listens;
    ``settings`` are the server's keyword arguments.
    """

    async def run() -> None:
        server = ReplicaServer(server_id, **settings)
        report_port(await server.start(host, port))
        await server.serve_until_shutdown()

    asyncio.run(run())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.live.server", description="One live replica server process."
    )
    parser.add_argument("--server-id", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = OS-assigned (printed on stdout)")
    parser.add_argument("--base-service-ms", type=float, default=4.0)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--queue-capacity", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deterministic", action="store_true")
    settings = vars(parser.parse_args(argv))  # serve's and the server's keywords, by name
    try:
        serve(lambda port: print(f"PORT {port}", flush=True), settings.pop("server_id"), **settings)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
