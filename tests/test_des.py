"""Discrete-event engine: ordering, determinism, lifecycle, randomness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetsim.des import Entity, EnvState, Event, SimEnv


class Recorder(Entity):
    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.seen = []

    def note(self, tag):
        self.seen.append((self.env.now, tag))


def test_events_execute_in_time_order():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(30, rec, "note", "c")
    env.schedule_at(10, rec, "note", "a")
    env.schedule_at(20, rec, "note", "b")
    env.run()
    assert rec.seen == [(10, "a"), (20, "b"), (30, "c")]


def test_same_time_orders_by_priority_then_fifo():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(5, rec, "note", "low", priority=1)
    env.schedule_at(5, rec, "note", "hi", priority=0)
    env.schedule_at(5, rec, "note", "low2", priority=1)
    env.run()
    assert [tag for _, tag in rec.seen] == ["hi", "low", "low2"]


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 5)),
                min_size=1, max_size=60))
def test_fel_pops_in_sort_key_order(items):
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    for time, priority in items:
        env.schedule_at(time, rec, "note", priority, priority=priority)
    report = env.run()
    assert [line[:3] for line in env.trace] == sorted(
        (time, priority, seq) for seq, (time, priority) in enumerate(items))
    assert report.events_executed == len(items) and env.fel == []


def test_fel_breaks_time_priority_ties_by_seq_without_comparing_events():
    assert "__lt__" not in vars(Event)  # a heap comparison of two events would raise
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    for tag in ("e0", "e1", "e2"):
        env.schedule_at(7, rec, "note", tag, priority=1)
    assert [item[2] for item in env.fel] == [0, 1, 2]
    assert env.fel[0][3].args == ("e0",)
    env.run()
    assert [tag for _, tag in rec.seen] == ["e0", "e1", "e2"]
    assert [seq for _, _, seq, _ in env.trace] == [0, 1, 2]
    assert env.fel == []


def test_cancelled_tie_is_skipped_and_the_rest_run_in_seq_order():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(5, rec, "note", "first")
    handle = env.schedule_at(5, rec, "note", "cancelled")
    env.schedule_at(5, rec, "note", "third")
    handle.cancel()
    report = env.run()
    assert [tag for _, tag in rec.seen] == ["first", "third"]
    assert [seq for _, _, seq, _ in env.trace] == [0, 2]
    assert report.events_executed == 2


def test_schedule_before_init_rejected():
    env = SimEnv("t")
    rec = Recorder("r", env)
    with pytest.raises(RuntimeError):
        env.schedule_at(1, rec, "note", "x")


def test_schedule_into_past_rejected():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(10, rec, "note", "x")
    env.run()
    assert env.now == 10
    env2 = SimEnv("t2")
    rec2 = Recorder("r", env2)
    env2.init()
    env2.schedule_at(50, rec2, "advance_then_rewind")

    def advance_then_rewind():
        with pytest.raises(ValueError):
            env2.schedule_at(10, rec2, "note", "never")
    rec2.advance_then_rewind = advance_then_rewind
    env2.run()


def test_cancelled_event_is_skipped():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    handle = env.schedule_at(10, rec, "note", "dropped")
    env.schedule_at(20, rec, "note", "kept")
    handle.cancel()
    env.run()
    assert rec.seen == [(20, "kept")]


def test_run_stops_at_end_time_without_consuming_later_events():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(10, rec, "note", "a")
    env.schedule_at(99, rec, "note", "beyond")
    report = env.run(end_time=50)
    assert rec.seen == [(10, "a")]
    assert report.final_time == 10
    assert env.state is EnvState.FINISHED


def test_default_env_required_when_unset():
    with pytest.raises(RuntimeError):
        Recorder("orphan")


def test_init_runs_each_hook_once_in_attach_order():
    env = SimEnv("t")
    inited = []
    entities = [Recorder(name, env) for name in "bca"]
    for entity in entities:
        entity._init = lambda name=entity.name: inited.append(name)
    entities[2].install(entities[0])  # an installed component keeps its place
    env.init()
    assert inited == ["b", "c", "a"]
    with pytest.raises(RuntimeError, match="init is only legal"):
        env.init()
    assert inited == ["b", "c", "a"]


def test_rng_streams_are_stable_and_independent_of_creation_order():
    env_a = SimEnv("a", seed=11)
    env_b = SimEnv("b", seed=11)
    draw_a = env_a.rng_for("alice").random(4)
    # creating other streams first must not perturb "alice"
    env_b.rng_for("zed")
    draw_b = env_b.rng_for("alice").random(4)
    assert np.array_equal(draw_a, draw_b)
    assert not np.array_equal(draw_a, env_a.rng_for("bob").random(4))


def test_different_seeds_give_different_streams():
    a = SimEnv("a", seed=1).rng_for("x").random(8)
    b = SimEnv("b", seed=2).rng_for("x").random(8)
    assert not np.array_equal(a, b)


class PingPong(Entity):
    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.count = 0

    def _init(self):
        self.env.schedule_after(1, self, "ping")

    def ping(self):
        self.count += 1
        if self.count < 5:
            jitter = int(self.rng.integers(1, 10))
            self.env.schedule_after(jitter, self, "ping")


def _run_trace(seed):
    env = SimEnv("d", seed=seed)
    PingPong("p", env)
    PingPong("q", env)
    env.init()
    env.run()
    return list(env.trace)


def test_identical_seeds_identical_traces():
    assert _run_trace(7) == _run_trace(7)


def test_trace_records_handler_names():
    trace = _run_trace(7)
    assert all(name in ("p.ping", "q.ping") for *_ignored, name in trace)


def test_log_lines_format_and_level_filter():
    env = SimEnv("t", seed=0)
    env.set_log(level="INFO")
    rec = Recorder("r", env)
    env.init()
    env.schedule_at(42, rec, "note", "x")
    env.run()
    env.log("DEBUG", rec, "hidden")
    env.log("WARN", rec, "shown")
    assert env._log_lines == ["42\tWARN\tr\tshown"]


# ---- events are their own handles -------------------------------------------

def test_schedule_returns_the_event_and_cancel_drops_it():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    event = env.schedule_at(10, rec, "note", "dropped")
    assert isinstance(event, Event)
    assert (event.time, event.seq, event.handler_name) == (10, 0, "r.note")
    env.schedule_at(20, rec, "note", "kept")
    event.cancel()
    report = env.run()
    assert rec.seen == [(20, "kept")]
    assert report.events_executed == 1
    assert not event.executed


def test_cancel_after_execution_warns_and_does_nothing():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    event = env.schedule_at(10, rec, "note", "ran")
    env.run()
    with pytest.warns(UserWarning, match="already-executed"):
        event.cancel()
    assert event.executed and not event.cancelled
    assert rec.seen == [(10, "ran")]


class Ticker(Entity):
    """Re-arms the event that called it, as a periodic loop does."""

    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.timer = None

    def tick(self):
        self.timer.time = self.env.now + 10
        self.env.schedule(self.timer)

    def stop(self):
        self.timer.cancel()


def test_executed_event_rescheduled_gets_the_next_seq_and_can_be_cancelled():
    env = SimEnv("t")
    ticker = Ticker("k", env)
    rec = Recorder("r", env)
    env.init()
    ticker.timer = env.schedule(Event(10, ticker, "tick"))
    env.schedule_at(15, rec, "note", "x")
    env.schedule_at(25, ticker, "stop")
    env.run(end_time=100)  # a timer that cannot be cancelled ticks until then
    assert env.trace == [(10, 0, 0, "k.tick"), (15, 0, 1, "r.note"),
                         (20, 0, 3, "k.tick"), (25, 0, 2, "k.stop")]
    assert ticker.timer.cancelled and not ticker.timer.executed


def test_pending_event_cannot_be_scheduled_twice():
    env = SimEnv("t")
    rec = Recorder("r", env)
    env.init()
    event = env.schedule_at(10, rec, "note", "once")
    with pytest.raises(ValueError, match="already scheduled"):
        env.schedule(event)
    event.cancel()
    with pytest.raises(ValueError, match="already scheduled"):
        env.schedule(event)
    env.run()
    assert rec.seen == []
