"""Property-based tests for the discrete-event loop (hypothesis).

These pin down the invariants the whole simulator's determinism rests on:

* events fire in ``(time, seq)`` order — same-time events FIFO;
* cancelled events never fire, whatever the cancellation pattern;
* ``run(until=h)`` never executes an event scheduled past ``h``;
* lazy heap compaction is invisible: any cancellation pattern leaves the
  surviving schedule's semantics untouched;
* all of the above with the heap shared between ``schedule()``'s timers and
  ``post()``'s handle-free messages (the ``mixed_*`` properties): the lane a
  call site picks never changes what fires, when, or in which order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simulator.engine import EventLoop

# Times are non-negative, finite, and deliberately drawn from a small range
# with coarse granularity so collisions (same-time events) are common.
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)
#: One scheduling instruction: (absolute time, cancel this event?).
ops = st.lists(st.tuples(times, st.booleans()), min_size=0, max_size=150)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_events_fire_in_time_then_seq_order(ops):
    loop = EventLoop()
    fired: list[int] = []
    expected: list[tuple[float, int]] = []
    for seq, (time, _) in enumerate(ops):
        loop.schedule_at(time, fired.append, seq)
        expected.append((time, seq))
    loop.run_until_idle()
    expected.sort()
    assert [seq for _, seq in expected] == fired


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_cancelled_events_never_fire(ops):
    loop = EventLoop()
    fired: list[int] = []
    survivors: list[int] = []
    for seq, (time, cancel) in enumerate(ops):
        event = loop.schedule_at(time, fired.append, seq)
        if cancel:
            event.cancel()
            event.cancel()  # double-cancel must be harmless
        else:
            survivors.append(seq)
    loop.run_until_idle()
    assert sorted(fired) == survivors
    assert loop.live_pending_events == 0


@settings(max_examples=60, deadline=None)
@given(ops=ops, horizon=times)
def test_run_until_never_passes_the_horizon(ops, horizon):
    loop = EventLoop()
    fired_times: list[float] = []
    for time, _ in ops:
        loop.schedule_at(time, lambda t=time: fired_times.append(t))
    loop.run(until=horizon)
    assert all(t <= horizon for t in fired_times)
    assert loop.now >= horizon  # clock reaches the horizon even when idle
    # Exactly the events at or before the horizon fired.
    assert len(fired_times) == sum(1 for t, _ in ops if t <= horizon)
    # The remainder still fires afterwards — nothing was lost at the boundary.
    loop.run_until_idle()
    assert len(fired_times) == len(ops)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(times, st.booleans()), min_size=80, max_size=250))
def test_compaction_preserves_pending_event_semantics(ops):
    """Reference semantics: a loop that compacts must match one that cannot."""
    compacting = EventLoop()
    reference = EventLoop()
    reference.COMPACT_MIN_SIZE = 10**9  # effectively disable compaction
    fired_a: list[int] = []
    fired_b: list[int] = []
    for seq, (time, cancel) in enumerate(ops):
        ev_a = compacting.schedule_at(time, fired_a.append, seq)
        ev_b = reference.schedule_at(time, fired_b.append, seq)
        if cancel:
            ev_a.cancel()
            ev_b.cancel()
    assert compacting.live_pending_events == reference.live_pending_events
    compacting.run_until_idle()
    reference.run_until_idle()
    assert fired_a == fired_b
    assert compacting.now == reference.now
    assert compacting.processed_events == reference.processed_events


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(st.tuples(times, st.booleans()), min_size=1, max_size=100),
    data=st.data(),
)
def test_step_horizon_interleaving_matches_single_run(ops, data):
    """Driving the loop in random run(until=...) slices equals one big run."""
    sliced = EventLoop()
    oneshot = EventLoop()
    fired_sliced: list[int] = []
    fired_oneshot: list[int] = []
    for seq, (time, cancel) in enumerate(ops):
        ev_a = sliced.schedule_at(time, fired_sliced.append, seq)
        ev_b = oneshot.schedule_at(time, fired_oneshot.append, seq)
        if cancel:
            ev_a.cancel()
            ev_b.cancel()
    horizon = 0.0
    while sliced.live_pending_events:
        horizon += data.draw(st.floats(min_value=0.5, max_value=20.0), label="slice")
        sliced.run(until=horizon)
    oneshot.run_until_idle()
    assert fired_sliced == fired_oneshot


# ---------------------------------------------------------------- mixed heaps
#: One instruction on a mixed heap: (time, use the message lane?, cancel?).
#: Messages cannot be cancelled, so the flag only applies to timers.
mixed_ops = st.lists(st.tuples(times, st.booleans(), st.booleans()), min_size=0, max_size=150)


def _load(loop: EventLoop, ops, fired: list[int]) -> list[tuple[float, int]]:
    """Apply ``ops`` to a loop at time 0; return the surviving (time, seq)."""
    survivors = []
    for seq, (time, message, cancel) in enumerate(ops):
        if message:
            loop.post(time, fired.append, seq)
        elif cancel:
            loop.schedule_at(time, fired.append, seq).cancel()
            continue
        else:
            loop.schedule_at(time, fired.append, seq)
        survivors.append((time, seq))
    return survivors


@settings(max_examples=60, deadline=None)
@given(ops=mixed_ops)
def test_mixed_heap_fires_in_time_then_seq_order(ops):
    loop = EventLoop()
    fired: list[int] = []
    survivors = _load(loop, ops, fired)
    assert loop.live_pending_events == len(survivors)
    assert loop.pending_events >= len(survivors)
    assert loop.run_until_idle() == len(survivors)
    assert fired == [seq for _, seq in sorted(survivors)]
    assert loop.pending_events == loop.live_pending_events == 0


@settings(max_examples=60, deadline=None)
@given(ops=mixed_ops)
def test_mixed_heap_equals_the_all_timer_heap(ops):
    """The lane is invisible: posting instead of scheduling changes nothing."""
    mixed = EventLoop()
    timers = EventLoop()
    fired_mixed: list[int] = []
    fired_timers: list[int] = []
    _load(mixed, ops, fired_mixed)
    _load(timers, [(time, False, cancel and not message) for time, message, cancel in ops], fired_timers)
    assert mixed.live_pending_events == timers.live_pending_events
    mixed.run_until_idle()
    timers.run_until_idle()
    assert fired_mixed == fired_timers
    assert mixed.now == timers.now
    assert mixed.processed_events == timers.processed_events


@settings(max_examples=60, deadline=None)
@given(ops=mixed_ops, horizon=times, max_events=st.integers(min_value=0, max_value=200))
def test_mixed_heap_respects_horizon_and_max_events(ops, horizon, max_events):
    loop = EventLoop()
    fired: list[int] = []
    survivors = sorted(_load(loop, ops, fired))
    due = [seq for time, seq in survivors if time <= horizon]
    assert loop.run(until=horizon, max_events=max_events) == min(len(due), max_events)
    assert fired == due[:max_events]
    if max_events > len(due):
        assert loop.now >= horizon  # the run ended on the horizon, not the budget
    assert loop.live_pending_events == len(survivors) - len(fired)
    loop.run_until_idle()
    assert fired == [seq for _, seq in survivors]


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(times, st.booleans(), st.booleans()), min_size=80, max_size=250))
def test_mixed_heap_compaction_is_invisible(ops):
    compacting = EventLoop()
    reference = EventLoop()
    reference.COMPACT_MIN_SIZE = 10**9  # effectively disable compaction
    fired_a: list[int] = []
    fired_b: list[int] = []
    _load(compacting, ops, fired_a)
    _load(reference, ops, fired_b)
    assert compacting.live_pending_events == reference.live_pending_events
    assert compacting.pending_events <= reference.pending_events
    compacting.run_until_idle()
    reference.run_until_idle()
    assert fired_a == fired_b
    assert compacting.now == reference.now
    assert compacting.processed_events == reference.processed_events


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(times, st.booleans(), st.booleans()), min_size=1, max_size=100), data=st.data())
def test_mixed_heap_step_and_run_interleavings_match_single_run(ops, data):
    """Any mix of step(), run(until=...) and run(max_events=...) equals one run."""
    driven = EventLoop()
    oneshot = EventLoop()
    fired_driven: list[int] = []
    fired_oneshot: list[int] = []
    _load(driven, ops, fired_driven)
    _load(oneshot, ops, fired_oneshot)
    horizon = 0.0
    while driven.live_pending_events:
        move = data.draw(st.sampled_from(["step", "slice", "burst"]), label="move")
        if move == "step":
            assert driven.step()
        elif move == "slice":
            horizon = max(horizon, driven.now) + data.draw(st.floats(min_value=0.5, max_value=20.0), label="slice")
            driven.run(until=horizon)
        else:
            driven.run(max_events=data.draw(st.integers(min_value=1, max_value=10), label="burst"))
    assert not driven.step()
    oneshot.run_until_idle()
    assert fired_driven == fired_oneshot
    assert driven.processed_events == oneshot.processed_events


@settings(max_examples=40, deadline=None)
@given(ops=mixed_ops, fired_before=st.integers(min_value=0, max_value=20))
def test_clear_on_a_mixed_heap_resets_every_counter(ops, fired_before):
    loop = EventLoop()
    fired: list[int] = []
    _load(loop, ops, fired)
    loop.run(max_events=fired_before)
    loop.clear()
    assert loop.pending_events == loop.live_pending_events == loop.processed_events == 0
    del fired[:]
    loop.post(1.0, fired.append, 0)
    loop.schedule(1.0, fired.append, 1)
    loop.run_until_idle()
    assert fired == [0, 1]
