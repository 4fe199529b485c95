"""The live load generator keeps its schedule and accounts for every operation.

Seven properties, each a second or two: the arrival schedule is a pure
function of ``(seed, rate, duration)``, drawn bit for bit as the
``Generator`` methods draw it; a client whose arrival timers all run late
still offers exactly that schedule and measures latency from the time each
operation was due; an operation that never reaches a server (backlogged,
parked) ends as a timeout instead of vanishing; an unreadable response
ends its own request and no other; a trial whose servers fail to start, or
that fails under load, leaves no process behind; and a server that writes
more to its stderr than a pipe holds neither stalls nor hangs its trial.
"""

import asyncio
import contextlib
import json
import os
import signal
import struct
import time

import numpy as np
import pytest

from repro.live import client as client_module
from repro.live import harness
from repro.live.client import LiveLoadClient, arrival_schedule
from repro.live.harness import LiveTrialConfig, run_trial
from repro.live.protocol import MAX_FRAME_BYTES, encode_message, read_message, write_message
from repro.live.server import ReplicaServer
from repro.simulator.workload import replica_groups

_NOWHERE = [("127.0.0.1", 1), ("127.0.0.1", 2)]  # never connected to


@contextlib.asynccontextmanager
async def _servers(count, **kwargs):
    """``count`` in-process replica servers; yields their addresses."""
    servers = [ReplicaServer(sid, deterministic=True, seed=sid, **kwargs) for sid in range(count)]
    ports = [await server.start() for server in servers]
    try:
        yield [("127.0.0.1", port) for port in ports]
    finally:
        for server in servers:
            server._shutdown.set()
            await server.serve_until_shutdown()


async def _run(addresses, duration_s, *, prepare=None, during=None, **kwargs):
    """One client run against ``addresses``; returns (client, result, completions).

    ``prepare(client)`` is called before the run, ``during(client)`` runs beside it.
    """
    completions = []
    client = LiveLoadClient(
        addresses, on_complete=lambda at_ms, latency_ms: completions.append((at_ms, latency_ms)), **kwargs
    )
    if prepare is not None:
        prepare(client)
    await client.connect()
    side = asyncio.ensure_future(during(client)) if during is not None else None
    try:
        result = await client.run(duration_s)
        if side is not None:
            await side
    finally:
        if side is not None:
            side.cancel()
            await asyncio.gather(side, return_exceptions=True)
        await client.close()
    return client, result, completions


class TestArrivalSchedule:
    GROUPS = replica_groups(3, 2)

    def _schedule(self, seed, rate_per_ms=0.4, duration_ms=500.0, read_fraction=0.5):
        rng = np.random.default_rng(seed)
        return list(arrival_schedule(rng, rate_per_ms, duration_ms, self.GROUPS, read_fraction))

    def test_same_seed_same_schedule(self):
        assert self._schedule(5) == self._schedule(5)
        assert self._schedule(5) != self._schedule(6)

    def test_dues_increase_and_end_before_the_deadline(self):
        dues = [due for due, _, _ in self._schedule(1)]
        assert len(dues) > 100  # ~200 expected at 0.4/ms over 500 ms
        assert all(a < b for a, b in zip(dues, dues[1:]))
        assert 0.0 < dues[0] and dues[-1] < 500.0

    def test_draws_are_gap_then_group_then_kind(self):
        schedule = self._schedule(2)
        rng = np.random.default_rng(2)
        due = 0.0
        for got_due, got_group, got_kind in schedule:
            due += float(rng.exponential(1.0 / 0.4))
            group = self.GROUPS[int(rng.integers(len(self.GROUPS)))]
            kind = "read" if rng.random() < 0.5 else "write"
            assert (got_due, got_group, got_kind) == (due, group, kind)
        # The schedule stopped at the first arrival due at or past the deadline.
        assert due + float(rng.exponential(1.0 / 0.4)) >= 500.0
        assert {kind for _, _, kind in schedule} == {"read", "write"}

    @pytest.mark.parametrize("rate_per_ms", [0.05, 0.4, 3.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_is_the_generator_methods_schedule_bit_for_bit(self, seed, rate_per_ms):
        """Same values, and the generator left in the same state, as the
        ``exponential`` / ``integers`` / ``random`` calls the samplers replace:
        a numpy release that changes either fails here."""
        rng = np.random.default_rng(seed)
        schedule = list(arrival_schedule(rng, rate_per_ms, 500.0, self.GROUPS, 0.5))
        reference = np.random.default_rng(seed)
        expected = []
        due = float(reference.exponential(1.0 / rate_per_ms))
        while due < 500.0:
            group = self.GROUPS[int(reference.integers(len(self.GROUPS)))]
            kind = "read" if reference.random() < 0.5 else "write"
            expected.append((due, group, kind))
            due += float(reference.exponential(1.0 / rate_per_ms))
        assert len(expected) > 10
        assert schedule == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_client_schedule_is_its_seeds_first_child_stream(self):
        client = LiveLoadClient(_NOWHERE, replication_factor=2, arrival_rate_per_s=300.0, seed=9)
        workload_rng = np.random.default_rng(9).spawn(3)[0]
        expected = list(arrival_schedule(workload_rng, 0.3, 400.0, replica_groups(2, 2), 1.0))
        assert list(client.schedule(0.4)) == expected
        assert all(kind == "read" for _, _, kind in expected)


class _LateLoop:
    """The running loop as the client sees it, every ``call_at`` timer 1 ms late.

    The client arms its arrivals with ``call_at`` and nothing else: the
    lifecycle's timers go through ``call_later`` and the reaper sleeps.
    """

    def __init__(self, loop):
        self._loop = loop

    def __getattr__(self, name):
        return getattr(self._loop, name)

    def call_at(self, when, callback, *args):
        return self._loop.call_at(when + 0.001, callback, *args)


class _LateAsyncio:
    """``asyncio`` as the client module sees it, every arrival timer 1 ms late."""

    def __getattr__(self, name):
        return getattr(asyncio, name)

    @staticmethod
    def get_running_loop():
        return _LateLoop(asyncio.get_running_loop())


class TestLateClient:
    @pytest.mark.parametrize("strategy", ["c3", "lor"])
    def test_offers_the_whole_schedule_and_times_from_the_due_time(self, strategy, monkeypatch):
        monkeypatch.setattr(client_module, "asyncio", _LateAsyncio())
        settings = dict(strategy=strategy, replication_factor=2, arrival_rate_per_s=300.0, seed=4)
        dues = [due for due, _, _ in LiveLoadClient(_NOWHERE, **settings).schedule(0.4)]

        async def scenario():
            async with _servers(2, base_service_ms=1.0) as addresses:
                return await _run(addresses, 0.4, **settings)

        client, result, completions = asyncio.run(scenario())
        # Same seed, same offered load, whichever strategy and however late.
        assert result.issued == len(dues) > 100
        assert result.completed == result.issued and result.timeouts == 0
        slips = client.slips_ms
        assert len(slips) == len(dues) and min(slips) >= 1.0
        assert result.slip_ms["max"] == max(slips) >= result.slip_ms["p99"] >= result.slip_ms["mean"] >= 1.0
        # Each latency starts at the operation's due time: the origins are the
        # schedule shifted by the run's start, and so include that op's slip.
        completions.sort(key=lambda item: item[0] - item[1])
        origins = [at_ms - latency_ms for at_ms, latency_ms in completions]
        assert [origin - origins[0] for origin in origins] == pytest.approx(
            [due - dues[0] for due in dues], abs=1e-6
        )
        assert all(latency_ms >= slip for (_, latency_ms), slip in zip(completions, slips))


class TestNoOperationIsLost:
    PHI = dict(strategy="lor", failure_detector="phi", replication_factor=2, arrival_rate_per_s=200.0, seed=1)

    @staticmethod
    def _overloaded(strategy):
        """Offer 400/s to ``strategy``; returns (client, result, dead releases).

        A dead release is a request the selector's backlog let go after its
        operation had already closed.
        """
        released_dead = []

        def watch_releases(client):
            release = client._release

            def checked(op, server_id, now):
                # Each released request must still be open: one that timed
                # out in the backlog was cancelled there, so the limiter
                # spends no permit on it.
                if op.op_id not in client._ops:
                    released_dead.append(op)
                release(op, server_id, now)

            client._release = checked

        async def scenario():
            async with _servers(2, base_service_ms=1.0) as addresses:
                return await _run(
                    addresses,
                    0.3,
                    prepare=watch_releases,
                    strategy=strategy,
                    replication_factor=2,
                    arrival_rate_per_s=400.0,
                    request_timeout_ms=150.0,
                    seed=0,
                )

        client, result, _ = asyncio.run(scenario())
        return client, result, released_dead

    def test_backlogged_operations_time_out_instead_of_vanishing(self):
        """A rate limiter pinned at 1 per window admits ~100/s of the 400/s offered."""
        client, result, released_dead = self._overloaded("c3:initial_rate=1,max_rate=1")
        assert result.backpressure > 0
        assert result.completed > 0 and result.timeouts > 0
        assert result.issued == result.completed + result.timeouts
        assert not client._ops
        assert released_dead == []
        assert client.selector.pending_backlog() == 0

    def test_round_robin_backlog_cancels_timed_out_operations(self):
        """RR's backlog is C3's: an operation that timed out in it is withdrawn."""
        client, result, released_dead = self._overloaded("rr:initial_rate=1")
        assert result.backpressure > 0 and result.timeouts > 0
        assert result.issued == result.completed + result.timeouts
        assert released_dead == []
        assert client.selector.pending_backlog() == 0

    @staticmethod
    def _all_suspect(client):
        # Four heartbeats 1 ms apart, then ~100 ms of silence: phi ≈ 40.
        for sid in range(len(client.addresses)):
            for at_ms in (-103.0, -102.0, -101.0, -100.0):
                client.detector.heartbeat(sid, at_ms)

    def test_operations_parked_at_their_deadline_time_out(self):
        async def scenario():
            async with _servers(2, base_service_ms=1.0) as addresses:
                return await _run(
                    addresses, 0.15, prepare=self._all_suspect, request_timeout_ms=100.0, **self.PHI
                )

        _, result, _ = asyncio.run(scenario())
        assert result.issued > 10 and result.parked >= result.issued
        assert sum(result.sent_per_server.values()) == 0  # nothing ever left the client
        assert (result.completed, result.timeouts) == (0, result.issued)

    def test_parked_operations_are_retried_during_the_drain(self):
        """The detector clears only after the last arrival; the drain must still resubmit."""

        async def recover(client):
            await asyncio.sleep(0.15)
            for sid in range(len(client.addresses)):
                client.detector.heartbeat(sid, client.now_ms())

        async def scenario():
            async with _servers(2, base_service_ms=1.0) as addresses:
                return await _run(
                    addresses,
                    0.1,
                    prepare=self._all_suspect,
                    during=recover,
                    request_timeout_ms=1_000.0,
                    **self.PHI,
                )

        _, result, _ = asyncio.run(scenario())
        assert result.issued > 5 and result.parked >= result.issued
        assert (result.completed, result.timeouts) == (result.issued, 0)


class TestMalformedResponse:
    def test_an_unreadable_response_ends_its_request_not_the_connection(self):
        """A stub server answers the third request without an ``id``: that
        operation times out, and every later one on the connection completes."""
        answered = []

        async def answer(reader, writer):
            try:
                while (message := await read_message(reader)) is not None:
                    answered.append(message["id"])
                    reply = {"t": "res", "id": message["id"], "queue_size": 0, "service_time_ms": 1.0}
                    write_message(writer, {"t": "res", "queue_size": 1} if len(answered) == 3 else reply)
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            address = server.sockets[0].getsockname()[:2]
            try:
                return await _run(
                    [address],
                    0.3,
                    strategy="lor",
                    replication_factor=1,
                    arrival_rate_per_s=200.0,
                    request_timeout_ms=100.0,
                    seed=0,
                )
            finally:
                server.close()
                await server.wait_closed()

        _, result, _ = asyncio.run(scenario())
        assert len(answered) == result.issued == 55
        assert (result.completed, result.timeouts) == (54, 1)
        assert result.issued == result.completed + result.timeouts

    def test_only_a_framing_error_closes_the_connection(self):
        class Transport:
            closed = False

            def close(self):
                self.closed = True

        responses = []
        connection = client_module._Connection(responses.append)
        transport = Transport()
        connection.connection_made(transport)
        response = {"t": "res", "id": 1, "queue_size": 0, "service_time_ms": 1.0}
        unreadable = [struct.pack(">I", len(body)) + body for body in (b"{nope", b"[1]", b"\xff")]
        stream = encode_message(response) + b"".join(unreadable) + encode_message({"t": "ack"})
        connection.data_received(stream + encode_message(response))
        assert responses == [response, response] and not transport.closed
        connection.data_received(struct.pack(">I", MAX_FRAME_BYTES + 1))
        assert transport.closed


class TestTrialAccounting:
    def test_issued_is_the_schedule_length_and_every_operation_ends(self, tmp_path):
        """Through the harness; the C3 twin is the end-to-end trial in test_live_smoke."""
        config = LiveTrialConfig(
            strategy="lor",
            num_servers=2,
            replication_factor=2,
            duration_s=0.3,
            warmup_s=0.05,
            cooldown_s=0.05,
            arrival_rate_per_s=250.0,
            base_service_ms=1.0,
            seed=11,
        )
        expected = LiveLoadClient(_NOWHERE, replication_factor=2, arrival_rate_per_s=250.0, seed=11)
        results = run_trial(config, tmp_path / "trial").results
        assert results["issued"] == len(list(expected.schedule(0.3)))
        assert results["issued"] == results["completed"] + results["timeouts"]
        assert set(results["slip_ms"]) == {"mean", "p99", "max"}
        assert 0.0 <= results["slip_ms"]["mean"] <= results["slip_ms"]["p99"] <= results["slip_ms"]["max"]


def _recording_reaps(monkeypatch):
    """Patch the harness's reaper to record every server process it is handed."""
    reap = harness._reap
    reaped = []

    def recorded(processes, asked_to_exit):
        reaped.extend(processes)
        reap(processes, asked_to_exit)

    monkeypatch.setattr(harness, "_reap", recorded)
    return reaped


class TestFailedSpawn:
    def test_no_server_process_survives_a_sibling_that_fails_to_start(self, monkeypatch, tmp_path):
        serve = harness._server_process

        def broken_server_1(config, sid, port_out, stderr_fd):
            if sid != 1:
                return serve(config, sid, port_out, stderr_fd)
            # Alive, but gives up its port pipe without a port: it has to be
            # terminated, not waited for.
            os.write(stderr_fd, b"boom")
            port_out.close()
            time.sleep(60)

        # Patched in the parent, inherited by every forked child.
        monkeypatch.setattr(harness, "_server_process", broken_server_1)
        reaped = _recording_reaps(monkeypatch)
        config = LiveTrialConfig(strategy="lor", num_servers=3, duration_s=1.0, warmup_s=0.1, cooldown_s=0.1)
        with pytest.raises(RuntimeError, match="server 1 failed to start: stderr='boom'"):
            run_trial(config, tmp_path / "trial")
        assert len(reaped) == 3  # the siblings did start
        assert all(process.exitcode is not None for process in reaped)  # ...and every one was reaped
        assert reaped[1].exitcode == -signal.SIGTERM
        assert not (tmp_path / "trial").exists()


class TestFailedTrial:
    def test_a_trial_that_raises_mid_load_leaves_every_server_reaped(self, monkeypatch, tmp_path):
        run = LiveLoadClient.run

        async def run_then_fail(client, duration_s):
            load = asyncio.ensure_future(run(client, duration_s))
            await asyncio.sleep(0.2)
            load.cancel()
            await asyncio.gather(load, return_exceptions=True)
            assert sum(client.result.sent_per_server.values()) > 0  # the servers were under load
            raise RuntimeError("the load generator failed")

        monkeypatch.setattr(LiveLoadClient, "run", run_then_fail)
        reaped = _recording_reaps(monkeypatch)
        config = LiveTrialConfig(strategy="lor", num_servers=3, duration_s=1.0, warmup_s=0.1, cooldown_s=0.1)
        with pytest.raises(RuntimeError, match="the load generator failed"):
            run_trial(config, tmp_path / "trial")
        assert len(reaped) == 3
        # Never asked to shut down, so each was terminated, and waited for.
        assert [process.exitcode for process in reaped] == [-signal.SIGTERM] * 3
        assert not (tmp_path / "trial").exists()


# Server 0 is a real server that writes 1 MiB to its stderr 0.3 s after it
# starts: more than a pipe holds.  The patches are made in the trial's
# process and inherited by the servers it forks.
_CHATTY_TRIAL = """
import json, sys, threading, time
from repro.live import harness

serve, reap = harness._server_process, harness._reap
reaped = []

def chatty_server_0(config, sid, port_out, stderr_fd):
    if sid == 0:
        def chatter():
            time.sleep(0.3)
            for _ in range(64):
                sys.stderr.write("x" * 16384)
            sys.stderr.flush()

        threading.Thread(target=chatter, daemon=True).start()
    serve(config, sid, port_out, stderr_fd)

def recorded_reap(processes, asked_to_exit):
    reaped.extend(processes)
    reap(processes, asked_to_exit)

harness._server_process = chatty_server_0
harness._reap = recorded_reap
config = harness.LiveTrialConfig(strategy="lor", num_servers=3, duration_s=1.0, warmup_s=0.1, cooldown_s=0.1)
results = harness.run_trial(config, sys.argv[1]).results
print(json.dumps({"results": results, "exitcodes": [process.exitcode for process in reaped]}))
"""


class TestChattyServer:
    def test_a_server_filling_its_stderr_neither_stalls_nor_hangs_the_trial(self, fresh_python, tmp_path):
        # In a child with a timeout: a server blocked on its stderr would hang the trial's reaping.
        done = fresh_python("-c", _CHATTY_TRIAL, str(tmp_path / "trial"))
        assert done.returncode == 0, done.stderr
        assert "x" * 16384 not in done.stderr  # a server's stderr is its own file
        outcome = json.loads(done.stdout.splitlines()[-1])
        results = outcome["results"]
        assert results["issued"] > 100
        assert results["issued"] == results["completed"] + results["timeouts"]
        # Every server, the chatty one included, exited on its own after the
        # shutdown frame: none had to be terminated or killed by the reaper.
        assert outcome["exitcodes"] == [0, 0, 0]
