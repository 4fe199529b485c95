"""The flat C3 hot path against a layered reference of Algorithms 1 and 2.

``core/{scoring,rate_control,scheduler,backpressure}.py`` run one submit and
one response as a single pass over dense slots.  The reference below is the
layered formulation they replaced, kept here as the oracle: one
:class:`~repro.core.ewma.EWMA` object per signal, :func:`cubic_score` per
replica, ``sorted`` for the ranking, one EWMA fold per closed 20 ms window,
a queue walk for the pending count.  Both are driven by the same generated
operation sequences and must agree *exactly* — floats are compared with
``==``, because golden digests ride on every one of these expressions.

Time steps and window lengths are dyadic, so window starts are exact in both
formulations even where the flat tracker skips a long silent gap with one
advance (see ``ReceiveRateTracker._roll``).
"""

from __future__ import annotations

import math
from collections import deque

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.backpressure import BackpressureQueues
from repro.core.config import C3Config
from repro.core.cubic import cubic_rate
from repro.core.ewma import EWMA
from repro.core.feedback import ServerFeedback
from repro.core.rate_control import ReceiveRateTracker
from repro.core.scheduler import C3Scheduler
from repro.core.scoring import cubic_score


# ------------------------------------------------------------------ reference
class RefLimiter:
    def __init__(self, rate, delta):
        self.rate, self.delta = float(rate), float(delta)
        self.start = self.used = self.carry = 0.0

    def roll(self, now):
        if now < self.start:
            self.start, self.used, self.carry = now, 0.0, 0.0
            return
        elapsed = now - self.start
        if elapsed >= self.delta:
            windows = int(elapsed // self.delta)
            cap = max(self.rate, 1.0)
            leftover = max(0.0, self.carry + self.rate - self.used)
            self.carry = min(cap, leftover + self.rate * (windows - 1))
            self.start += windows * self.delta
            self.used = 0.0

    def try_acquire(self, now):
        self.roll(now)
        if self.rate + self.carry - self.used >= 1.0:
            self.used += 1.0
            return True
        return False

    def time_until_available(self, now):
        self.roll(now)
        if max(0.0, self.rate + self.carry - self.used) >= 1.0:
            return 0.0
        deficit = 1.0 - (self.rate + self.carry - self.used)
        windows_needed = max(1, int(math.ceil(deficit / self.rate)))
        return max(0.0, self.start + windows_needed * self.delta - now)


class RefTracker:
    """One ``EWMA.update`` per closed window — the loop the flat roll replaced."""

    def __init__(self, delta, alpha):
        self.delta, self.start, self.count, self.ewma = float(delta), 0.0, 0.0, EWMA(alpha)

    def roll(self, now):
        if now < self.start:
            self.start, self.count = now, 0.0
            return
        while now - self.start >= self.delta:
            self.ewma.update(self.count)
            self.count = 0.0
            self.start += self.delta

    def record(self, now):
        self.roll(now)
        self.count += 1.0

    def rate(self, now):
        self.roll(now)
        if not self.ewma.initialized:
            elapsed = max(now - self.start, 1e-9)
            return self.count * (self.delta / elapsed) if self.count else 0.0
        return self.ewma.value


class RefController:
    def __init__(self, config):
        self.config = config
        self.limiter = RefLimiter(config.initial_rate, config.rate_delta_ms)
        self.receive = RefTracker(config.rate_delta_ms, config.ewma_alpha)
        self.sent = RefTracker(config.rate_delta_ms, config.ewma_alpha)
        self.saturation = config.initial_rate
        self.last_decrease = self.last_increase = 0.0

    def try_acquire(self, now):
        granted = self.limiter.try_acquire(now)
        if granted:
            self.sent.record(now)
        return granted

    def on_response(self, now):
        config = self.config
        self.receive.record(now)
        srate = self.limiter.rate
        rrate = self.receive.rate(now)
        send_rate = self.sent.rate(now)
        if (
            srate > rrate
            and send_rate > rrate * config.rate_excess_tolerance
            and send_rate >= config.rate_min_utilisation * srate
            and (now - self.last_increase) > config.effective_hysteresis_ms
        ):
            self.saturation = srate
            self.limiter.rate = float(max(config.min_rate, srate * config.beta))
            self.last_decrease = now
        elif srate < rrate:
            gamma = config.effective_gamma(self.saturation)
            target = cubic_rate(now - self.last_decrease, self.saturation, config.beta, gamma)
            new_rate = min(srate + config.smax, target)
            if config.max_rate is not None:
                new_rate = min(new_rate, config.max_rate)
            new_rate = max(new_rate, config.min_rate)
            if new_rate > srate:
                self.limiter.rate = float(new_rate)
                self.last_increase = now


class RefServer:
    def __init__(self, alpha):
        self.response_time, self.queue_size, self.service_time = EWMA(alpha), EWMA(alpha), EWMA(alpha)
        self.outstanding = 0


class RefScheduler:
    """Algorithm 1 (rank, rate-limit, backpressure) and Algorithm 2 (feedback, CUBIC)."""

    def __init__(self, config):
        self.config = config
        self.servers: dict = {}
        self.controllers: dict = {}
        self.queues: dict = {}  # frozenset(group) -> deque of (request, group, enqueued_at)
        self.counts = dict.fromkeys(
            ("submitted", "sent", "backpressured", "responses", "sends", "timeouts", "resets", "evals"), 0
        )
        self.enqueued = self.dequeued = self.max_depth = 0
        self.wait_ms = 0.0

    def _server(self, sid):
        if sid not in self.servers:
            self.servers[sid] = RefServer(self.config.ewma_alpha)
        return self.servers[sid]

    def _controller(self, sid):
        if sid not in self.controllers:
            self.controllers[sid] = RefController(self.config)
        return self.controllers[sid]

    def _score(self, sid):
        config, server = self.config, self._server(sid)
        self.counts["evals"] += 1
        floor = config.service_time_floor_ms
        service = max(server.service_time.value, floor) if server.service_time.initialized else floor
        return cubic_score(
            response_time=server.response_time.value,
            queue_estimate=1.0 + server.outstanding * config.concurrency_weight + server.queue_size.value,
            service_time=service,
            exponent=config.score_exponent,
        )

    def rank(self, group):
        scored = [
            (self._score(sid), self._server(sid).outstanding, f"{type(sid).__name__}:{sid!r}", k)
            for k, sid in enumerate(group)
        ]
        return tuple(group[k] for _, _, _, k in sorted(scored))

    def _place(self, ranking, now):
        if self.config.rate_control_enabled:
            sid = next((s for s in ranking if self._controller(s).try_acquire(now)), None)
        else:
            sid = ranking[0]
        if sid is not None:
            self._server(sid).outstanding += 1
            self.counts["sends"] += 1
            self.counts["sent"] += 1
        return sid

    def earliest(self, group, now):
        return min(self._controller(sid).limiter.time_until_available(now) for sid in group)

    def submit(self, request, group, now):
        self.counts["submitted"] += 1
        ranking = self.rank(group)
        sid = self._place(ranking, now)
        if sid is not None:
            return sid, False, 0.0, ranking
        queue = self.queues.setdefault(frozenset(group), deque())
        queue.append((request, group, now))
        self.enqueued += 1
        self.max_depth = max(self.max_depth, len(queue))
        self.counts["backpressured"] += 1
        return None, True, self.earliest(group, now), ranking

    def drain(self, now):
        released = []
        if not self.config.rate_control_enabled:
            return released
        for queue in self.queues.values():
            while queue:
                request, group, enqueued_at = queue[0]
                sid = self._place(self.rank(group), now)
                if sid is None:
                    break
                queue.popleft()
                self.dequeued += 1
                self.wait_ms += max(0.0, now - enqueued_at)
                released.append((request, sid))
        return released

    def on_response(self, sid, feedback, response_time, now):
        self.counts["responses"] += 1
        server = self._server(sid)
        if server.outstanding > 0:
            server.outstanding -= 1
        server.response_time.update(response_time)
        if feedback is not None:
            server.queue_size.update(feedback.queue_size)
            server.service_time.update(max(feedback.service_time, self.config.service_time_floor_ms))
        if not self.config.rate_control_enabled:
            return []
        self._controller(sid).on_response(now)
        return self.drain(now)

    def on_timeout(self, sid):
        server = self._server(sid)
        if server.outstanding > 0:
            server.outstanding -= 1
        self.counts["timeouts"] += 1

    def reset_server(self, sid):
        if self.servers.pop(sid, None) is not None:
            self.counts["resets"] += 1

    def next_retry(self, now):
        waits = [self.earliest(tuple(key), now) for key, queue in self.queues.items() if queue]
        return min(waits) if waits else None

    def pending(self):
        return sum(len(queue) for queue in self.queues.values())

    def stats(self):
        counts = self.counts
        return {
            "submitted": counts["submitted"],
            "sent": counts["sent"],
            "backpressured": counts["backpressured"],
            "responses": counts["responses"],
            "pending_backlog": self.pending(),
            "backlog": {
                "groups": len(self.queues),
                "pending": self.pending(),
                "backpressure_events": self.enqueued,
                "total_enqueued": self.enqueued,
                "total_dequeued": self.dequeued,
                "max_depth": self.max_depth,
                "mean_wait_ms": self.wait_ms / self.dequeued if self.dequeued else 0.0,
            },
            "scorer": {
                "sends": counts["sends"],
                "responses": counts["responses"],
                "timeouts": counts["timeouts"],
                "resets": counts["resets"],
                "score_evaluations": counts["evals"],
            },
        }


# ----------------------------------------------------------------- generators
SERVERS = 5
GROUPS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (4, 0), (3,)]

configs = st.builds(
    C3Config,
    ewma_alpha=st.sampled_from([0.9, 0.5, 1.0]),
    # Fractional and sub-1 rates exercise the carry-over and backpressure paths.
    initial_rate=st.sampled_from([0.5, 1.0, 2.5, 10.0]),
    rate_delta_ms=st.sampled_from([20.0, 5.0]),
    concurrency_weight=st.sampled_from([0.0, 1.0, 8.0]),
    hysteresis_ms=st.sampled_from([None, 0.0]),
    min_rate=st.sampled_from([0.1, 0.75]),
    max_rate=st.sampled_from([None, 12.0]),
    rate_control_enabled=st.sampled_from([True, True, False]),
)

# Service times below the 1e-3 floor, and a small pool of repeated values so
# that servers reach exactly equal scores.
feedbacks = st.one_of(
    st.none(),
    st.builds(
        ServerFeedback,
        queue_size=st.sampled_from([0.0, 1.0, 4.0]),
        service_time=st.sampled_from([1e-4, 0.5, 2.0]),
    ),
)
# 7000 ms is more than 324 silent 20 ms windows: the decay reaches 0.0.
steps = st.sampled_from([0.0, 0.25, 3.0, 19.75, 20.0, 130.0, 7000.0])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, len(GROUPS) - 1)),
        st.tuples(st.just("submit"), st.integers(0, len(GROUPS) - 1)),
        st.tuples(st.just("respond"), st.integers(0, 50), feedbacks, st.sampled_from([0.0, 1.5, 40.0])),
        st.tuples(st.just("timeout"), st.integers(0, 50)),
        st.tuples(st.just("reset"), st.integers(0, SERVERS - 1)),
        st.tuples(st.just("advance"), steps),
        st.tuples(st.just("drain")),
    ),
    max_size=80,
)


class TestHotPathEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(configs, operations)
    def test_flat_core_equals_layered_reference(self, config, ops):
        flat, ref = C3Scheduler(config), RefScheduler(config)
        now = 0.0
        in_flight: list[int] = []  # servers with a request outstanding, oldest first
        request = 0

        def dispatched(released_flat, released_ref):
            assert released_flat == released_ref
            in_flight.extend(sid for _, sid in released_ref)

        for op in ops:
            kind = op[0]
            if kind == "submit":
                group = GROUPS[op[1]]
                decision = flat.submit(request, group, now)
                expected = ref.submit(request, group, now)
                assert (
                    decision.server_id,
                    decision.backpressured,
                    decision.retry_after_ms,
                    decision.ranking,
                ) == expected
                assert decision.sent == (expected[0] is not None)
                if decision.sent:
                    in_flight.append(decision.server_id)
                request += 1
            elif kind == "respond" and in_flight:
                sid = in_flight.pop(op[1] % len(in_flight))
                dispatched(flat.on_response(sid, op[2], op[3], now), ref.on_response(sid, op[2], op[3], now))
            elif kind == "timeout" and in_flight:
                sid = in_flight.pop(op[1] % len(in_flight))
                flat.on_timeout(sid, now)
                ref.on_timeout(sid)
            elif kind == "reset":
                flat.scorer.reset_server(op[1])
                ref.reset_server(op[1])
            elif kind == "advance":
                now += op[1]
            elif kind == "drain":
                dispatched(flat.drain_backlog(now), ref.drain(now))
            assert flat.pending_backlog() == ref.pending()
            assert flat.next_retry_ms(now) == ref.next_retry(now)

        assert flat.sending_rates() == {sid: ctrl.limiter.rate for sid, ctrl in ref.controllers.items()}
        assert flat.stats() == ref.stats()
        for sid, server in ref.servers.items():
            snapshot = flat.scorer.stats_for(sid).snapshot()
            assert snapshot["response_time"] == server.response_time.value
            assert snapshot["queue_size"] == server.queue_size.value
            assert snapshot["service_time"] == server.service_time.value
            assert snapshot["outstanding"] == server.outstanding


# ------------------------------------------------------------- tracker roll
def _state(tracker: ReceiveRateTracker) -> tuple:
    return (tracker._window_start, tracker._count, tracker._value, tracker._seeded)


# Gaps reach the fixed point of the decay 1 - alpha, where the flat roll skips
# the rest with one advance: 0.1**k is 0.0 after 324 windows, 0.5**k after
# 1075, and 0.9**k stalls on the smallest subnormal after some 16 000
# (several gaps without a response).
_deltas = st.sampled_from([20.0, 5.0, 0.5])
_alphas = st.sampled_from([0.1, 0.5, 0.9])
_gaps = st.lists(
    st.tuples(st.integers(1, 5000), st.sampled_from([0.0, 0.25, 0.75]), st.integers(0, 3)),
    min_size=1,
    max_size=6,
)


class TestReceiveRateTrackerRoll:
    @given(_deltas, _alphas, _gaps)
    def test_roll_equals_the_per_window_loop(self, delta, alpha, gaps):
        tracker, oracle = ReceiveRateTracker(delta, alpha), RefTracker(delta, alpha)
        now = 0.0
        for windows, offset, responses in gaps:
            now += (windows + offset) * delta
            for _ in range(responses):
                tracker.record_response(now)
                oracle.record(now)
            tracker._roll(now)
            oracle.roll(now)
            assert _state(tracker) == (oracle.start, oracle.count, oracle.ewma.value, oracle.ewma.initialized)

    @given(_deltas, _alphas, st.integers(0, 3), st.integers(0, 5000), st.integers(0, 5000))
    def test_rolling_twice_equals_rolling_once(self, delta, alpha, responses, first, second):
        """roll(t1); roll(t2) == roll(t2): a skipped roll is caught up by the next."""
        twice, once = ReceiveRateTracker(delta, alpha), ReceiveRateTracker(delta, alpha)
        for tracker in (twice, once):
            for _ in range(responses):
                tracker.record_response(0.25 * delta)
        t1 = (first + 0.5) * delta
        t2 = t1 + second * delta
        twice._roll(t1)
        twice._roll(t2)
        once._roll(t2)
        assert _state(twice) == _state(once)


# ------------------------------------------------------------ pending counter
queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, len(GROUPS) - 1)),
        st.tuples(st.just("drain_ready"), st.booleans()),
        st.tuples(st.just("pop"), st.integers(0, len(GROUPS) - 1)),
    ),
    max_size=60,
)


class TestPendingCounter:
    @given(queue_ops)
    def test_pending_is_the_sum_of_queue_lengths(self, ops):
        """The O(1) count must not drift when callers touch a queue directly."""
        queues = BackpressureQueues()
        for op in ops:
            if op[0] == "enqueue":
                queues.enqueue(object(), GROUPS[op[1]], 0.0)
            elif op[0] == "drain_ready":
                queues.drain_ready(1.0, lambda entry, now: "s" if op[1] else None)
            else:
                queue = queues.queue_for(GROUPS[op[1]])
                if queue:
                    queue.pop(1.0)
            assert queues.pending() == sum(len(queue) for queue in queues._queues.values())
            assert queues.stats()["pending"] == queues.pending()
