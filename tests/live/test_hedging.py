"""Hedged reads on the live client: who won, and when the timer gives up.

The tests drive ``LiveLoadClient`` directly — stub transports instead of
sockets, responses handed to ``_on_response`` — so which replica holds the
primary, which the hedge, and who answers first are chosen, not raced.
"""

import asyncio

from repro.live.client import LiveLoadClient, _Operation

_NOWHERE = [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)]  # never connected to
#: Replica 2 takes the primary, replica 0 is the only hedge target.  ``{2, 0}``
#: iterates 0 first, which is what judging the winner from the used replicas got wrong.
_GROUP = (2, 0)


class _StubTransport:
    """The two transport methods the client's send path calls."""

    def __init__(self):
        self.frames = []

    def is_closing(self):
        return False

    def write(self, frame):
        self.frames.append(frame)


class _SuspectDetector:
    """Holds the replicas in ``down`` suspect until they are taken out."""

    def __init__(self, down):
        self.down = set(down)

    def suspicious(self):
        return bool(self.down)

    def is_alive(self, server_id, now):
        return server_id not in self.down

    def heartbeat(self, server_id, now):
        pass


def _armed_client():
    """A client on stub transports whose hedge timer is armed at 1 ms."""
    client = LiveLoadClient(_NOWHERE, strategy="lor", hedging="hedge:quantile=0.5,min_samples=1", seed=0)
    client._transports = {sid: _StubTransport() for sid in range(len(_NOWHERE))}
    client.hedging.record(1.0)
    return client


def _send_primary(client, group=_GROUP):
    """Open a read over ``group`` with its primary copy on replica 2."""
    now = client.now_ms()
    op = _Operation(op_id=0, replica_group=group, kind="read", created_ms=now, deadline_ms=now + 1e6)
    client._ops[op.op_id] = op
    client._next_id = 1
    assert client.selector.submit(op, (2,), now).server_id == 2
    client._release(op, 2, now)
    return op


async def _until(condition, timeout_s=2.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition() and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.002)
    assert condition()


def _respond(client, server_id):
    (wire_id,) = (wid for wid, pending in client._pending.items() if pending.server_id == server_id)
    client._on_response({"t": "res", "id": wire_id, "queue_size": 0, "service_time_ms": 1.0})


class TestHedgeAccounting:
    def _result_when_first_answer_is_from(self, winner):
        async def scenario():
            client = _armed_client()
            op = _send_primary(client)
            await _until(lambda: op.hedge.fired == 1)
            assert op.hedge.used == {2, 0}
            _respond(client, winner)
            assert op.done and client.result.completed == 1
            _respond(client, 2 if winner == 0 else 0)  # the loser: feedback only
            assert client.result.completed == 1 and not client._pending
            return client.result

        return asyncio.run(scenario())

    def test_primary_answering_first_is_not_a_hedge_win(self):
        result = self._result_when_first_answer_is_from(2)
        assert (result.hedges_fired, result.hedges_won) == (1, 0)

    def test_hedge_answering_first_is_a_hedge_win(self):
        result = self._result_when_first_answer_is_from(0)
        assert (result.hedges_fired, result.hedges_won) == (1, 1)


class TestHedgeRearm:
    def test_timer_stays_armed_while_every_unused_replica_is_suspect(self):
        async def scenario():
            client = _armed_client()
            client.detector = _SuspectDetector(down={0})
            op = _send_primary(client)
            await asyncio.sleep(0.02)  # the 1 ms timer has fired, several times over
            assert op.hedge.fired == 0 and not client._transports[0].frames
            client.detector.down.clear()
            await _until(lambda: op.hedge.fired == 1)
            assert op.hedge.used == {2, 0} and len(client._transports[0].frames) == 1
            # Budget spent (max_extra=1): answering ends it, nothing is left armed.
            _respond(client, 0)
            await asyncio.sleep(0.01)
            return client.result

        result = asyncio.run(scenario())
        assert (result.hedges_fired, result.hedges_won, result.completed) == (1, 1, 1)

    def test_timer_is_dropped_when_no_replica_is_left_to_hedge_to(self):
        async def scenario():
            client = _armed_client()
            client.hedging.max_extra = 2  # budget for a second hedge, but no third replica
            op = _send_primary(client)
            await _until(lambda: op.hedge.fired == 1)
            await asyncio.sleep(0.01)
            assert op.hedge.fired == 1 and op.hedge.timer is None

        asyncio.run(scenario())

    def test_budget_beyond_the_group_arms_the_timer_at_most_twice(self):
        """``max_extra=3`` on a 3-replica group: two hedges use every replica,
        so the timer is armed for them and never a third time (the invariant
        ``tests/controls/test_hedging_metrics.py`` holds on the simulators)."""

        async def scenario():
            client = _armed_client()
            client.hedging.max_extra = 3
            arms = []
            schedule = client._schedule

            def counting(delay_ms, fn, *args):
                if fn == client._fire_hedge:
                    arms.append(delay_ms)
                return schedule(delay_ms, fn, *args)

            client._schedule = counting
            op = _send_primary(client, group=(0, 1, 2))
            await _until(lambda: op.hedge.fired == 2)
            await asyncio.sleep(0.01)
            return op, arms

        op, arms = asyncio.run(scenario())
        assert op.hedge.used == {0, 1, 2}
        assert len(arms) == 2 and op.hedge.timer is None
