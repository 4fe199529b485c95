"""End-to-end smoke tests for the live backend.

Kept short (sub-second client runs, one ~1.5 s subprocess trial) so they
ride in tier-1; the latency numbers themselves are never asserted — only
structural properties that localhost scheduling noise can't flip.
"""

import asyncio

import pytest

from repro.live.client import LiveLoadClient
from repro.live.compare import load_trial
from repro.live.harness import LiveTrialConfig, payload_digest, run_trial
from repro.live.server import ReplicaServer
from repro.simulator.engine import EventLoop

from live_wire import read_message, write_message


async def _request(reader, writer, op_id, timeout=5.0):
    write_message(writer, {"t": "req", "id": op_id, "kind": "read"})
    await writer.drain()
    return await asyncio.wait_for(read_message(reader), timeout)


async def _control(reader, writer, op, timeout=5.0, **kwargs):
    write_message(writer, {"t": "ctl", "op": op, **kwargs})
    await writer.drain()
    return await asyncio.wait_for(read_message(reader), timeout)


class TestReplicaServer:
    def test_serves_request_with_feedback(self):
        async def scenario():
            server = ReplicaServer(3, base_service_ms=0.5, deterministic=True, seed=1)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            response = await _request(reader, writer, 7)
            assert response["t"] == "res"
            assert response["id"] == 7
            assert response["server_id"] == 3
            assert response["rejected"] is False
            # The EWMA is seeded with the base service time (as SimServer's
            # is), so the first fold of a deterministic 0.5 ms service is 0.5.
            assert response["service_time_ms"] == 0.5
            assert response["queue_size"] >= 0
            ack = await _control(reader, writer, "stats")
            assert ack["stats"]["served"] == 1
            assert ack["stats"]["accepted"] == 1
            await _control(reader, writer, "shutdown")
            writer.close()
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_full_queue_rejects_with_feedback(self):
        async def scenario():
            server = ReplicaServer(
                0,
                base_service_ms=200.0,
                concurrency=1,
                queue_capacity=1,
                deterministic=True,
            )
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for op_id in range(3):
                write_message(writer, {"t": "req", "id": op_id, "kind": "read"})
            await writer.drain()
            # 200 ms deterministic service, one slot, one queue place: at
            # least one (possibly two) of the three is turned away
            # immediately.  Read frames until the stats ack arrives.
            write_message(writer, {"t": "ctl", "op": "stats"})
            await writer.drain()
            rejections = []
            while True:
                frame = await asyncio.wait_for(read_message(reader), 5.0)
                if frame["t"] == "ack":
                    break
                rejections.append(frame)
            assert rejections and all(r["rejected"] for r in rejections)
            assert all(r["queue_size"] >= 1 for r in rejections)
            # Nothing has been served yet: the seed, not the 1e-3 floor.
            assert all(r["service_time_ms"] == 200.0 for r in rejections)
            assert frame["stats"]["rejected"] == len(rejections)
            # Each request is counted once: a rejected one is not also accepted.
            assert frame["stats"]["accepted"] + frame["stats"]["rejected"] == 3
            await _control(reader, writer, "shutdown")
            writer.close()
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_crash_drops_requests_until_restore(self):
        async def scenario():
            server = ReplicaServer(0, base_service_ms=0.5, deterministic=True)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            assert (await _control(reader, writer, "crash"))["op"] == "crash"
            # Sent while down: silently dropped, no response frame.
            write_message(writer, {"t": "req", "id": 1, "kind": "read"})
            await writer.drain()
            assert (await _control(reader, writer, "restore"))["op"] == "restore"
            response = await _request(reader, writer, 2)
            assert response["id"] == 2 and response["rejected"] is False
            ack = await _control(reader, writer, "stats")
            assert ack["stats"]["enqueued_while_down"] == 1
            assert ack["stats"]["served"] == 1
            await _control(reader, writer, "shutdown")
            writer.close()
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_pause_feedback_counts_the_requests_stalled_behind_it(self):
        async def scenario():
            server = ReplicaServer(0, base_service_ms=100.0, concurrency=4, deterministic=True)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for op_id in range(2):
                write_message(writer, {"t": "req", "id": op_id, "kind": "read"})
            await writer.drain()
            await asyncio.sleep(0.02)  # both in service, two slots idle
            write_message(writer, {"t": "ctl", "op": "pause", "duration_ms": 500.0})
            for op_id in range(2, 5):
                write_message(writer, {"t": "req", "id": op_id, "kind": "read"})
            await writer.drain()
            frames = [await asyncio.wait_for(read_message(reader), 5.0) for _ in range(6)]
            assert frames[0]["t"] == "ack"
            responses = frames[1:]
            # The two in service answer during the pause, with the three
            # stalled arrivals still pending behind them; the three follow.
            assert [r["id"] for r in responses[:2]] == [0, 1]
            assert [r["queue_size"] for r in responses] == [4, 3, 2, 1, 0]
            ack = await _control(reader, writer, "stats")
            assert ack["stats"]["accepted"] == ack["stats"]["served"] == 5
            await _control(reader, writer, "shutdown")
            writer.close()
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_slow_factor_inflates_service_times(self):
        async def scenario():
            server = ReplicaServer(0, base_service_ms=1.0, deterministic=True)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await _control(reader, writer, "slow", factor=50.0)
            before = asyncio.get_running_loop().time()
            await _request(reader, writer, 1)
            elapsed_ms = (asyncio.get_running_loop().time() - before) * 1000.0
            assert elapsed_ms >= 50.0  # 1 ms base x 50, deterministic
            await _control(reader, writer, "shutdown")
            writer.close()
            await server.serve_until_shutdown()

        asyncio.run(scenario())


class TestServiceTimes:
    @staticmethod
    def _draws(count, *, factor=1.0, **kwargs):
        server = ReplicaServer(0, base_service_ms=2.0, loop=EventLoop(), **kwargs)
        server._handle_control({"op": "slow", "factor": factor})
        return [server._draw_service_time(None) for _ in range(count)]

    def test_a_seed_fixes_the_sequence(self):
        assert self._draws(100, seed=5) == self._draws(100, seed=5)
        assert self._draws(100, seed=5) != self._draws(100, seed=6)

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_draws_are_exponential_around_the_slowed_mean(self, factor):
        draws = self._draws(20_000, factor=factor, seed=11)
        mean = 2.0 * factor
        assert sum(draws) / len(draws) == pytest.approx(mean, rel=0.03)
        # Exponential, not merely centred: about 1 - 1/e of the draws fall below the mean.
        assert sum(d < mean for d in draws) / len(draws) == pytest.approx(0.632, abs=0.02)

    def test_deterministic_returns_exactly_the_mean(self):
        assert self._draws(5, factor=3.0, deterministic=True, seed=5) == [6.0] * 5


class TestLiveLoadClient:
    @pytest.mark.parametrize("strategy", ["c3", "lor"])
    def test_short_run_completes_requests(self, strategy):
        async def scenario():
            servers, ports = [], []
            for sid in range(2):
                server = ReplicaServer(
                    sid, base_service_ms=1.0, deterministic=True, seed=sid
                )
                ports.append(await server.start())
                servers.append(server)
            client = LiveLoadClient(
                [("127.0.0.1", port) for port in ports],
                strategy=strategy,
                replication_factor=2,
                arrival_rate_per_s=150.0,
                seed=3,
            )
            await client.connect()
            try:
                result = await client.run(0.6)
            finally:
                await client.close()
                for server in servers:
                    server._shutdown.set()
                    await server.serve_until_shutdown()
            return result

        result = asyncio.run(scenario())
        assert result.completed > 0
        assert result.issued >= result.completed
        assert result.timeouts == 0
        assert sum(result.sent_per_server.values()) >= result.completed


class TestRunTrialEndToEnd:
    def test_slow_node_trial_writes_valid_artifacts(self, tmp_path):
        config = LiveTrialConfig(
            strategy="c3",
            scenario="slow_node",
            scenario_params={"factor": 3.0},
            num_servers=2,
            replication_factor=2,
            duration_s=1.5,
            warmup_s=0.25,
            cooldown_s=0.25,
            arrival_rate_per_s=120.0,
            base_service_ms=2.0,
            seed=7,
        )
        out_dir = tmp_path / "trial"
        result = run_trial(config, out_dir)

        for name in ("payload.json", "histogram.json", "server_load.json"):
            assert (out_dir / name).is_file()
        assert result.results["completed"] > 0
        assert result.results["trimmed_count"] > 0
        # The offered load is the seed's schedule, and none of it goes missing.
        twin = LiveLoadClient([("127.0.0.1", 1)] * 2, replication_factor=2, arrival_rate_per_s=120.0, seed=7)
        assert result.results["issued"] == len(list(twin.schedule(1.5)))
        assert result.results["issued"] == result.results["completed"] + result.results["timeouts"]
        assert result.histogram.count == result.results["trimmed_count"]
        assert result.payload["digest"] == payload_digest(result.payload)
        assert "recorded_at_unix" in result.payload["provenance"]
        assert len(result.server_stats) == 2

        # The written directory loads back through the comparison gate.
        trial = load_trial(out_dir)
        assert trial.strategy == "C3"
        assert trial.payload["config"]["scenario"] == "slow-node"
        assert trial.histogram.count == result.histogram.count
