"""Asyncio TCP replica server process for the live backend.

One :class:`ReplicaServer` is the live analogue of the simulator's
``SimServer``: a bounded service queue drained by ``concurrency`` worker
slots, exponential service times (mean = ``base_service_ms`` x the current
slow-down multiplier), and per-response feedback mirroring
``SimServer.feedback_snapshot()`` — pending count at slot-release time plus
the EWMA-smoothed observed service time (alpha 0.9, floored at 1e-3 ms).

Scenario injection arrives over the same TCP listener as load, as ``ctl``
frames (see :mod:`repro.live.protocol`): ``slow`` inflates service times
(slow-node), ``pause`` stalls the worker slots for a duration (gc-storm),
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
import random
import sys
import time
from typing import Any, Callable

from .protocol import ProtocolError, read_message, write_message

__all__ = ["ReplicaServer", "main", "serve"]

#: EWMA weight on the newest observed service time (matches SimServer).
_EWMA_ALPHA = 0.9
#: Width of one served-load accounting bucket, in milliseconds.
_LOAD_BUCKET_MS = 100.0


class ReplicaServer:
    """One live replica: bounded queue, worker slots, control channel."""

    def __init__(
        self,
        server_id: int,
        *,
        base_service_ms: float = 4.0,
        concurrency: int = 4,
        queue_capacity: int = 10_000,
        seed: int = 0,
        deterministic: bool = False,
    ) -> None:
        if base_service_ms <= 0:
            raise ValueError(f"base_service_ms must be positive, got {base_service_ms}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.server_id = int(server_id)
        self.base_service_ms = float(base_service_ms)
        self.concurrency = int(concurrency)
        self.queue_capacity = int(queue_capacity)
        self.deterministic = bool(deterministic)
        # The stdlib generator, not numpy's: one draw per request needs no
        # vector RNG, and a server process then starts without importing numpy.
        self._rng = random.Random(seed)
        self._queue: asyncio.Queue[tuple[dict, asyncio.StreamWriter]] = asyncio.Queue(
            maxsize=queue_capacity
        )
        self._in_service = 0
        self._up = True
        self._multiplier = 1.0
        self._resume_at = 0.0  # monotonic ms; workers stall until this
        # Seeded with the nominal service time, as SimServer seeds its EWMA:
        # feedback before (or folded with) the first service reports it.
        self._smoothed_service_ms = self.base_service_ms
        self._start_ms = time.monotonic() * 1000.0
        self._load_buckets: dict[int, int] = {}
        self.accepted = 0
        self.rejected = 0
        self.served = 0
        self.dropped = 0
        self.enqueued_while_down = 0
        self._shutdown = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._workers: list[asyncio.Task] = []
        # Open connections, each with the task serving it, so shutdown can
        # end them itself instead of leaving them to the loop's teardown.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ----------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, start the worker slots, and return the listening port."""
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"worker-{self.server_id}-{slot}")
            for slot in range(self.concurrency)
        ]
        sockets = self._server.sockets or ()
        return int(sockets[0].getsockname()[1])

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` control frame arrives, then clean up.

        Open connections are closed and their handlers awaited here: a
        handler left to ``asyncio.run`` would be cancelled, and the stream
        machinery logs a ``CancelledError`` traceback for each one.
        """
        await self._shutdown.wait()
        if self._server is not None:
            self._server.close()
        for worker in self._workers:
            worker.cancel()
        for writer in self._connections.values():
            writer.close()  # its handler reads EOF and returns
        await asyncio.gather(*self._workers, *self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------- service
    def _now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def _feedback(self) -> dict[str, Any]:
        stime = self._smoothed_service_ms
        return {
            "server_id": self.server_id,
            "queue_size": self._queue.qsize() + self._in_service,
            "service_time_ms": stime if stime > 1e-3 else 1e-3,
        }

    def _service_ms(self) -> float:
        """One service time: exponential, mean ``base_service_ms`` x the slow-down multiplier."""
        mean = self.base_service_ms * self._multiplier
        return mean if self.deterministic else mean * self._rng.expovariate(1.0)

    async def _worker(self) -> None:
        queue = self._queue
        while True:
            request, writer = await queue.get()
            if not self._up:
                # Crashed between enqueue and service: the request is lost;
                # the client's timeout / failure detector covers it.
                self.dropped += 1
                continue
            resume_at = self._resume_at
            now = self._now_ms()
            if now < resume_at:
                # A gc-storm pause: the slot stalls, queueing depth builds
                # behind it exactly as a stopped-world server would.
                await asyncio.sleep((resume_at - now) / 1000.0)
                if not self._up:
                    self.dropped += 1
                    continue
            self._in_service += 1
            service_ms = self._service_ms()
            await asyncio.sleep(service_ms / 1000.0)
            self._in_service -= 1
            self._smoothed_service_ms = (
                _EWMA_ALPHA * service_ms + (1.0 - _EWMA_ALPHA) * self._smoothed_service_ms
            )
            self.served += 1
            bucket = int((self._now_ms() - self._start_ms) / _LOAD_BUCKET_MS)
            self._load_buckets[bucket] = self._load_buckets.get(bucket, 0) + 1
            if self._up and not writer.is_closing():
                response = {"t": "res", "id": request["id"], "rejected": False}
                response.update(self._feedback())
                try:
                    write_message(writer, response)
                    await writer.drain()
                except (ConnectionError, ProtocolError):
                    pass  # client went away; nothing to report to

    # ------------------------------------------------------------- control
    def _handle_control(self, message: dict) -> dict:
        op = message.get("op")
        ack: dict[str, Any] = {"t": "ack", "op": op, "server_id": self.server_id}
        if op == "slow":
            self._multiplier = float(message["factor"])
        elif op == "pause":
            until = self._now_ms() + float(message["duration_ms"])
            if until > self._resume_at:
                self._resume_at = until
        elif op == "crash":
            self._up = False
            # Drop everything queued: a crashed process holds no state.
            while not self._queue.empty():
                self._queue.get_nowait()
                self.dropped += 1
        elif op == "restore":
            self._up = True
        elif op == "stats":
            ack["stats"] = {
                "server_id": self.server_id,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "served": self.served,
                "dropped": self.dropped,
                "enqueued_while_down": self.enqueued_while_down,
                "load_bucket_ms": _LOAD_BUCKET_MS,
                "load_series": [
                    [bucket, count] for bucket, count in sorted(self._load_buckets.items())
                ],
            }
        elif op == "shutdown":
            self._shutdown.set()
        else:
            ack["error"] = f"unknown control op {op!r}"
        return ack

    # ---------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError:
                    break
                if message is None:
                    break
                kind = message.get("t")
                if kind == "req":
                    if not self._up:
                        self.enqueued_while_down += 1
                        continue
                    self.accepted += 1
                    try:
                        self._queue.put_nowait((message, writer))
                    except asyncio.QueueFull:
                        self.rejected += 1
                        response = {"t": "res", "id": message["id"], "rejected": True}
                        response.update(self._feedback())
                        write_message(writer, response)
                        await writer.drain()
                elif kind == "ctl":
                    write_message(writer, self._handle_control(message))
                    await writer.drain()
                # Unknown frame types are ignored: forward compatibility.
        except ConnectionError:
            pass  # the peer, or shutdown, closed the connection mid-reply
        finally:
            del self._connections[task]
            if not writer.is_closing():
                writer.close()


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
    args = parser.parse_args(argv)
    try:
        serve(
            lambda port: print(f"PORT {port}", flush=True),
            args.server_id,
            host=args.host,
            port=args.port,
            base_service_ms=args.base_service_ms,
            concurrency=args.concurrency,
            queue_capacity=args.queue_capacity,
            seed=args.seed,
            deterministic=args.deterministic,
        )
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
