"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, strategies as st

from repro.sim import DeadlockError, EventEngine, SimulationError, TIME_INFINITY


def test_empty_run():
    engine = EventEngine()
    assert engine.run() == 0
    assert (engine.now, engine.pending, engine.events_processed) == (0, 0, 0)
    assert engine.next_time == TIME_INFINITY


def test_events_fire_in_time_order():
    engine = EventEngine()
    fired = []
    engine.schedule(30, lambda: fired.append(30))
    engine.schedule(10, lambda: fired.append(10))
    engine.schedule(20, lambda: fired.append(20))
    engine.run()
    assert fired == [10, 20, 30]


def test_same_time_events_fire_fifo():
    engine = EventEngine()
    fired = []
    for tag in range(5):
        engine.schedule(7, lambda tag=tag: fired.append(tag))
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_now_tracks_last_fired_event():
    engine = EventEngine()
    seen = []
    engine.schedule(5, lambda: seen.append(engine.now))
    engine.schedule(9, lambda: seen.append(engine.now))
    end = engine.run()
    assert seen == [5, 9]
    assert end == 9


def test_callbacks_may_schedule_more_events():
    engine = EventEngine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule(engine.now + 5, lambda: fired.append("second"))

    engine.schedule(1, first)
    engine.run()
    assert fired == ["first", "second"]


def test_scheduling_in_the_past_raises():
    engine = EventEngine()
    engine.schedule(10, lambda: engine.schedule(5, lambda: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_schedule_after_uses_current_time():
    engine = EventEngine()
    fired = []
    engine.schedule(10, lambda: engine.schedule_after(7, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [17]


def test_peek_time_empty_is_infinity():
    engine = EventEngine()
    assert engine.peek_time() == TIME_INFINITY


def test_peek_time_returns_earliest():
    engine = EventEngine()
    engine.schedule(42, lambda: None)
    engine.schedule(17, lambda: None)
    assert engine.peek_time() == 17


def test_pending_counts_queue():
    engine = EventEngine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    assert engine.pending == 2
    engine.run()
    assert engine.pending == 0


def test_run_until_stops_at_deadline():
    engine = EventEngine()
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.schedule(15, lambda: fired.append(15))
    engine.run_until(10)
    assert fired == [5]
    assert engine.now == 10
    engine.run()
    assert fired == [5, 15]


def test_event_limit_guards_livelock():
    engine = EventEngine(event_limit=10)

    def rearm():
        engine.schedule(engine.now + 1, rearm)

    engine.schedule(0, rearm)
    with pytest.raises(SimulationError):
        engine.run()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_pop_order_is_sorted_and_stable(times):
    engine = EventEngine()
    fired = []
    for index, time in enumerate(times):
        engine.schedule(time, lambda t=time, i=index: fired.append((t, i)))
    engine.run()
    assert [t for t, _ in fired] == sorted(times)
    # FIFO among equal times: insertion indices increase within a time.
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


def _rearming(event_limit):
    engine = EventEngine(event_limit=event_limit)

    def rearm():
        engine.schedule(engine.now + 1, rearm)

    engine.schedule(0, rearm)
    return engine


def test_event_limit_message_names_livelock_and_pending():
    engine = _rearming(event_limit=10)
    with pytest.raises(SimulationError, match="likely a livelock") as excinfo:
        engine.run()
    assert "events pending" in str(excinfo.value)


def test_run_until_event_limit_message_matches_run():
    engine = _rearming(event_limit=10)
    with pytest.raises(SimulationError, match="likely a livelock") as excinfo:
        engine.run_until(1_000)
    assert "events pending" in str(excinfo.value)


def test_heartbeat_fires_every_n_events():
    engine = EventEngine()
    for t in range(25):
        engine.schedule(t, lambda: None)
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=10)
    engine.run()
    assert beats == [10, 20]


def test_heartbeat_detaches_with_none():
    engine = EventEngine()
    for t in range(20):
        engine.schedule(t, lambda: None)
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=5)
    engine.set_heartbeat(None)
    engine.run()
    assert beats == []


def test_heartbeat_rejects_nonpositive_interval():
    engine = EventEngine()
    with pytest.raises(ValueError):
        engine.set_heartbeat(lambda e: None, every=0)


def test_time_infinity_is_an_integer():
    # The empty-calendar sentinel must be an int: peek_time feeds
    # straight into pclock comparisons in the processor's inline
    # batching path, and a float('inf') would silently promote integer
    # time arithmetic to floats.
    assert type(TIME_INFINITY) is int
    engine = EventEngine()
    assert type(engine.peek_time()) is int
    assert type(engine.next_time) is int


def test_run_until_deadline_is_inclusive():
    engine = EventEngine()
    fired = []
    for t in (3, 5, 5, 7):
        engine.schedule(t, lambda t=t: fired.append(t))
    assert engine.run_until(5) == 5
    assert fired == [3, 5, 5]
    assert engine.next_time == 7
    engine.run()
    assert fired == [3, 5, 5, 7]


def test_run_until_advances_now_to_deadline_when_idle():
    engine = EventEngine()
    assert engine.run_until(42) == 42
    assert engine.now == 42
    # The clock never runs backwards on a stale deadline.
    assert engine.run_until(17) == 42
    assert engine.now == 42


def test_run_until_resumes_after_deadline():
    engine = EventEngine()
    fired = []
    engine.schedule(137, lambda: fired.append(engine.now))
    engine.run_until(128)
    assert fired == []
    assert (engine.now, engine.pending, engine.next_time) == (128, 1, 137)
    assert engine.run_until(256) == 256
    assert fired == [137]
    assert (engine.pending, engine.events_processed) == (0, 1)
    assert engine.next_time == TIME_INFINITY


def test_heartbeat_exception_aborts_the_run():
    class Abort(SimulationError):
        pass

    engine = EventEngine()
    fired = []

    def beat(e):
        raise Abort(f"aborted at {e.events_processed}")

    engine.set_heartbeat(beat, every=3)
    for t in range(6):
        engine.schedule(t, lambda t=t: fired.append(t))
    with pytest.raises(Abort, match="aborted at 3"):
        engine.run()
    # The heartbeat fires before the third event's callback runs.
    assert fired == [0, 1]
    assert (engine.now, engine.events_processed, engine.pending) == (2, 3, 3)


@pytest.mark.parametrize("exc_type", [DeadlockError, SimulationError])
def test_callback_exception_consumes_its_event(exc_type):
    """A raising callback's event is gone; the survivors stay pending,
    keep their FIFO order and fire on the next run."""
    engine = EventEngine()
    fired = []

    def boom():
        raise exc_type("stalled")

    engine.schedule(4, lambda: fired.append("a"))
    engine.schedule(4, boom)
    engine.schedule(4, lambda: fired.append("c"))
    engine.schedule(9, lambda: fired.append("d"))
    with pytest.raises(exc_type, match="stalled"):
        engine.run()
    assert fired == ["a"]
    assert (engine.now, engine.events_processed, engine.pending) == (4, 2, 2)
    assert engine.next_time == 4
    engine.run()
    assert fired == ["a", "c", "d"]
    assert (engine.now, engine.events_processed, engine.pending) == (9, 4, 0)


def test_engine_times_stay_integral(monkeypatch):
    """No path may feed a float time into the calendar: latencies,
    pclock arithmetic, and the TIME_INFINITY sentinel are all integer by
    contract, and a single float would poison every downstream
    comparison.  Wrap schedule() on a real smoke run and check every
    scheduled time (and the engine clock) stays exactly ``int``."""
    from repro.config import dash_scaled_config
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.system import run_program

    seen = {"count": 0}
    original = EventEngine.schedule

    def checked(self, time, callback, *args):
        assert type(time) is int, f"non-integer time {time!r} scheduled"
        assert type(self.next_time) is int
        seen["count"] += 1
        return original(self, time, callback, *args)

    monkeypatch.setattr(EventEngine, "schedule", checked)
    config = dash_scaled_config(num_processors=SMOKE_PROCESSES)
    result = run_program(smoke_program("LU"), config)
    assert type(result.execution_time) is int
    assert seen["count"] > 0


def _snapshot(engine):
    return (
        engine.now,
        engine.pending,
        engine.events_processed,
        engine.peek_time(),
        engine.next_time,
    )


def test_fifo_ties_drain_to_an_empty_calendar():
    engine = EventEngine()
    fired = []
    for tag in range(5):
        engine.schedule(7, lambda tag=tag: fired.append(tag))
    engine.run()
    assert fired == [0, 1, 2, 3, 4]
    assert _snapshot(engine) == (7, 0, 5, TIME_INFINITY, TIME_INFINITY)


def test_schedule_after_from_a_callback_counts_both_events():
    engine = EventEngine()
    fired = []
    engine.schedule(5, lambda: engine.schedule_after(3, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [8]
    assert _snapshot(engine) == (8, 0, 2, TIME_INFINITY, TIME_INFINITY)


def test_schedule_in_the_past_is_rejected_without_side_effects():
    messages = []
    for _ in range(2):
        engine = EventEngine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError) as excinfo:
            engine.schedule(9, lambda: None)
        messages.append(str(excinfo.value))
        # The rejected event never entered the calendar.
        assert _snapshot(engine) == (10, 0, 1, TIME_INFINITY, TIME_INFINITY)
    assert messages[0] == messages[1]


def test_event_limit_error_is_deterministic():
    outcomes = []
    for _ in range(2):
        engine = EventEngine(event_limit=10)

        def respawn(engine=engine):
            engine.schedule_after(1, respawn)

        engine.schedule(0, respawn)
        # Background events so the pending count in the message is
        # exercised, not just zero.
        engine.schedule(1000, lambda: None)
        engine.schedule(3000, lambda: None)
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        outcomes.append((str(excinfo.value), _snapshot(engine)))
    assert outcomes[0] == outcomes[1]
    # The over-limit event is already popped; only the background two remain.
    assert "2 events pending" in outcomes[0][0]


def test_lone_event_exception_consumes_it():
    engine = EventEngine()

    def boom():
        raise DeadlockError("lone event")

    engine.schedule(5, boom)
    engine.schedule(11, lambda: None)
    with pytest.raises(DeadlockError, match="lone event"):
        engine.run()
    assert _snapshot(engine) == (5, 1, 1, 11, 11)
    engine.run()
    assert _snapshot(engine) == (11, 0, 2, TIME_INFINITY, TIME_INFINITY)


def test_heartbeat_sees_now_and_count_at_each_beat():
    engine = EventEngine()
    beats = []
    engine.set_heartbeat(lambda e: beats.append((e.now, e.events_processed)), every=2)
    for t in range(5):
        engine.schedule(t, lambda: None)
    engine.run()
    assert beats == [(1, 2), (3, 4)]
    assert _snapshot(engine) == (4, 0, 5, TIME_INFINITY, TIME_INFINITY)


def test_heartbeat_detached_between_runs_stops_beating():
    engine = EventEngine()
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.now), every=1)
    engine.schedule(1, lambda: None)
    engine.run()
    engine.set_heartbeat(None)
    engine.schedule(2, lambda: None)
    engine.run()
    assert beats == [1]


def test_heartbeat_detach_accepts_nonpositive_interval():
    engine = EventEngine()
    engine.set_heartbeat(None, every=0)
    engine.schedule(1, lambda: None)
    assert engine.run() == 1


class _Peer:
    """An object resumed by a bound-method callback, as a processor is
    by its ``_loop``."""

    def __init__(self, name):
        self.name = name
        self.resumed = 0

    def resume(self):
        self.resumed += 1

    def stop(self):
        self.stopped = True


def _taking(engine, seen, at, mine=lambda: None, take=_Peer.resume):
    """A callback that schedules ``mine`` at ``at`` and, with ``take``,
    asks ``schedule`` to take the next event in place."""

    def taking():
        owner = engine.schedule(at, mine, take)
        seen.append((owner, engine.now, engine.events_processed, engine.next_time))

    return taking


def test_take_next_pops_an_owned_head_without_calling_it():
    engine = EventEngine()
    seen, fired = [], []
    peer = _Peer("peer")
    engine.schedule(1, _taking(engine, seen, 3, lambda: fired.append("mine")))
    engine.schedule(2, peer.resume)
    engine.schedule(3, lambda: fired.append("last"))
    assert engine.run() == 3
    # Popped exactly as run would have: clock, count and next_time.
    assert seen == [(peer, 2, 2, 3)]
    assert peer.resumed == 0
    # The caller's own entry went in behind the equal-time one before it.
    assert fired == ["last", "mine"]
    assert engine.events_processed == 4


def test_take_next_leaves_a_foreign_head_alone():
    engine = EventEngine()
    seen, fired = [], []
    other = _Peer("other")
    engine.schedule(1, _taking(engine, seen, 5))
    engine.schedule(2, lambda: fired.append(2))
    engine.schedule(3, _taking(engine, seen, 5))
    # A bound method of another function is not taken either.
    engine.schedule(4, other.stop)
    engine.run()
    assert seen == [(None, 1, 1, 2), (None, 3, 3, 4)]
    assert fired == [2]
    assert other.stopped


def test_take_next_outside_a_dispatch_loop_takes_nothing():
    engine = EventEngine()
    peer = _Peer("peer")
    engine.schedule(5, peer.resume)
    assert engine.schedule(6, lambda: None, _Peer.resume) is None
    assert _snapshot(engine) == (0, 2, 0, 5, 5)
    # Not even an owned entry of its own that would be the earliest.
    assert engine.schedule(3, _Peer("me").resume, _Peer.resume) is None
    assert _snapshot(engine) == (0, 3, 0, 3, 3)


def test_take_next_respects_the_run_until_deadline():
    engine = EventEngine()
    seen = []
    peer = _Peer("peer")
    engine.schedule(1, _taking(engine, seen, 6))
    engine.schedule(5, peer.resume)
    assert engine.run_until(4) == 4
    assert seen == [(None, 1, 1, 5)]
    assert (engine.pending, engine.next_time) == (2, 5)


def test_take_next_of_its_own_earliest_entry():
    """When the caller's own entry is the earliest once pushed, and it
    is owned, the push and the pop cancel: it is taken, and the calendar
    is left as it was."""
    engine = EventEngine()
    seen = []
    me = _Peer("me")
    engine.schedule(1, _taking(engine, seen, 2, me.resume))
    engine.schedule(5, lambda: None)
    assert engine.run() == 5
    assert seen == [(me, 2, 2, 5)]
    assert me.resumed == 0
    assert engine.events_processed == 3


def test_take_next_event_limit_matches_run():
    def overrun(take):
        engine = EventEngine(event_limit=1)
        engine.schedule(1, _taking(engine, [], 3, take=_Peer.resume if take else None))
        engine.schedule(2, _Peer("peer").resume)
        engine.schedule(3, lambda: None)
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        return str(excinfo.value), engine.events_processed, engine.pending

    assert overrun(take=True) == overrun(take=False)
    assert overrun(take=True)[0].startswith("event limit 1 exceeded at t=2 with 2 events")


class _Yielder:
    """Logs each firing, then, while it has delays left, reschedules
    itself ``delay`` pclocks on, as a yielding processor does: through
    ``yield_to`` when given, which may hand back the owner of the next
    event to run in this frame."""

    def __init__(self, i, delays, log, engine, yield_to):
        self.i = i
        self.delays = list(delays)
        self.log = log
        self.engine = engine
        self.yield_to = yield_to

    def fire(self):
        me = self
        while True:
            engine = me.engine
            me.log.append((me.i, *_snapshot(engine)))
            if not me.delays:
                return
            time = engine.now + me.delays.pop()
            if me.yield_to is None:
                engine.schedule(time, me.fire)
                return
            me = me.yield_to(engine, time, me.fire)
            if me is None:
                return


def _fused(engine, time, callback):
    return engine.schedule(time, callback, _Yielder.fire)


def _push_then_take(engine, time, callback):
    """The reference: push, then pop the head through the dispatch
    loop's own step if it is an owned continuation within the deadline."""
    engine.schedule(time, callback)
    head_time, _seq, head = engine._queue[0]
    if getattr(head, "__func__", None) is _Yielder.fire and head_time <= engine._deadline:
        engine._pop()
        return head.__self__
    return None


def _yielder_trail(yield_to, starts, delays, foreign, limit, every, deadline):
    """Drive ``_Yielder`` chains and foreign events through
    ``run_until(deadline)`` then ``run``; return everything observable."""
    log = []
    engine = EventEngine(event_limit=limit)
    engine.set_heartbeat(lambda e: log.append(("beat", e.now, e.events_processed)), every)
    for i, time in enumerate(starts):
        yielder = _Yielder(i, delays[i % len(delays)], log, engine, yield_to)
        engine.schedule(time, yielder.fire)
    for time in foreign:
        engine.schedule(time, lambda: log.append(("foreign", *_snapshot(engine))))
    try:
        engine.run_until(deadline)
        log.append(("until", *_snapshot(engine)))
        engine.run()
    except SimulationError as exc:
        log.append(("error", str(exc)))
    return log, _snapshot(engine)


_TRAIL = dict(
    starts=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8),
    delays=st.lists(
        st.lists(st.integers(min_value=0, max_value=3), max_size=6), min_size=1, max_size=4
    ),
    foreign=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
    limit=st.integers(min_value=1, max_value=45),
    every=st.integers(min_value=1, max_value=7),
    deadline=st.integers(min_value=-1, max_value=12),
)


@given(**_TRAIL)
@example(starts=[0, 1], delays=[[]], foreign=[], limit=10, every=3, deadline=0)
@example(starts=[2, 2, 2], delays=[[0, 0, 1]], foreign=[2, 3], limit=40, every=2, deadline=12)
def test_take_next_leaves_the_dispatch_loop_trail(
    starts, delays, foreign, limit, every, deadline
):
    """Firing every continuation in place must leave exactly the trail
    ``run_until`` + ``run`` leave — clock, count, ``next_time``,
    heartbeat beats, event-limit error and the calendar it leaves
    behind."""
    args = (starts, delays, foreign, limit, every, deadline)
    assert _yielder_trail(_fused, *args) == _yielder_trail(None, *args)


@given(**_TRAIL)
# Equal-time ties: the head at the yielder's own time is taken first.
@example(starts=[0, 0, 0], delays=[[0, 0, 0]], foreign=[0], limit=40, every=4, deadline=12)
# The yielder's own entry is the earliest once pushed, and is taken.
@example(starts=[0], delays=[[1, 1, 2]], foreign=[9], limit=40, every=2, deadline=12)
@example(starts=[0], delays=[[1, 1, 2]], foreign=[], limit=3, every=1, deadline=-1)
def test_take_next_matches_push_then_pop(starts, delays, foreign, limit, every, deadline):
    """The fused call is "push, then pop the head if it is owned": the
    same pop order, ``now``, ``next_time``, event count, event-limit
    error and heartbeat beats as that two-step reference."""
    args = (starts, delays, foreign, limit, every, deadline)
    assert _yielder_trail(_fused, *args) == _yielder_trail(_push_then_take, *args)


class _Chain:
    """Two of these take turns one pclock apart, each rescheduling itself
    until the event count reaches ``stop`` — in place through
    ``schedule(..., take=)`` or through the dispatch loop.  ``actions``
    run at given event counts."""

    def __init__(self, engine, take, actions, stop):
        self.engine = engine
        self.take = take
        self.actions = actions
        self.stop = stop

    def step(self):
        me = self
        while True:
            engine = me.engine
            action = me.actions.get(engine.events_processed)
            if action is not None:
                action()
            if engine.events_processed >= me.stop:
                return
            if not me.take:
                engine.schedule(engine.now + 2, me.step)
                return
            me = engine.schedule(engine.now + 2, me.step, _Chain.step)
            if me is None:
                return


def _chained(take, limit, actions=None, stop=30):
    engine = EventEngine(event_limit=limit)
    for start in (0, 1):
        engine.schedule(start, _Chain(engine, take, actions or {}, stop).step)
    return engine


def _record_checkpoints(monkeypatch):
    """Record the event count at each entry into the slow per-event
    step: with ``_check_at`` current, only where a beat or the limit is
    due."""
    entered = []
    original = EventEngine._checkpoint

    def checkpoint(self, time):
        entered.append(self.events_processed)
        original(self, time)

    monkeypatch.setattr(EventEngine, "_checkpoint", checkpoint)
    return entered


@pytest.mark.parametrize("take", [False, True], ids=["plain", "in-place"])
def test_check_at_follows_heartbeat_changes_made_mid_run(take, monkeypatch):
    """``_check_at`` is kept current when the heartbeat is attached,
    changed and detached from inside callbacks, by the dispatch loop
    and by a take in ``schedule`` alike."""
    entered = _record_checkpoints(monkeypatch)
    beats = []

    def beat(e):
        beats.append(e.events_processed)
        if e.events_processed == 16:
            # A heartbeat may re-arm itself with a new interval.
            e.set_heartbeat(beat, every=4)

    actions = {
        2: lambda: engine.set_heartbeat(beat, every=3),
        9: lambda: engine.set_heartbeat(beat, every=7),
        22: lambda: engine.set_heartbeat(None),
    }
    engine = _chained(take, limit=100, actions=actions)
    engine.run()
    assert beats == [5, 8, 16, 20]
    assert entered == beats
    assert engine.events_processed == 31


@pytest.mark.parametrize("take", [False, True], ids=["plain", "in-place"])
def test_check_at_event_limit_below_the_heartbeat_interval(take, monkeypatch):
    entered = _record_checkpoints(monkeypatch)
    beats = []
    engine = _chained(take, limit=4)
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=10)
    with pytest.raises(SimulationError, match="event limit 4 exceeded at t=4 with 1 events"):
        engine.run()
    assert beats == []
    assert entered == [5]
    assert engine.events_processed == 5
