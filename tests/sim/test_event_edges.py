"""Event edge cases: trigger-chaining, defuse, repr states."""

import pytest

from repro.sim import Environment, Event


def test_trigger_copies_outcome(env):
    source = env.event()
    sink = env.event()
    source.callbacks.append(sink.trigger)
    source.succeed("payload")
    env.run()
    assert sink.triggered and sink.ok
    assert sink.value == "payload"


def test_trigger_copies_failure(env):
    source = env.event()
    sink = env.event()
    source.callbacks.append(sink.trigger)
    source.defuse()
    sink.defuse()
    source.fail(RuntimeError("x"))
    env.run()
    assert sink.triggered and not sink.ok
    assert isinstance(sink.value, RuntimeError)


def test_defused_failure_does_not_crash_run(env):
    ev = env.event()
    ev.defuse()
    ev.fail(ValueError("handled elsewhere"))
    env.run()  # must not raise


def test_undefused_failure_crashes_run(env):
    ev = env.event()
    ev.fail(ValueError("unhandled"))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_repr_reflects_state(env):
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed(42)
    assert "triggered" in repr(ev)
    env.run()
    assert "processed" in repr(ev)


def test_yielding_already_processed_event_continues_immediately(env):
    ev = env.event()
    ev.succeed("early")
    env.run()

    def proc(env, ev):
        value = yield ev  # already processed
        return value

    p = env.process(proc(env, ev))
    env.run()
    assert p.value == "early"


def test_condition_value_equality(env):
    def proc(env):
        t1 = env.timeout(1, "a")
        outcome = yield t1 & env.timeout(1, "b")
        return outcome

    p = env.process(proc(env))
    env.run()
    outcome = p.value
    assert outcome == outcome.todict()
    assert list(outcome.keys())
    assert list(outcome.values()) == ["a", "b"]


def test_fired_condition_detaches_from_pending_events(env):
    """A fired condition leaves no stale callback on the components
    still pending: that callback would tie the condition (and whatever
    waits on it) to an event that outlives the wait."""
    fast, slow = env.timeout(1), env.timeout(5)
    either = env.any_of([fast, slow])
    env.run(until=either)
    assert env.now == 1
    assert slow.callbacks == []
    env.run()
    assert env.now == 5


def test_failed_condition_detaches_from_pending_events(env):
    bad, slow = env.event(), env.timeout(5)
    both = env.all_of([bad, slow])
    both.defuse()
    bad.fail(ValueError("component failed"))
    env.run(until=2)
    assert both.triggered and not both.ok
    assert slow.callbacks == []


def test_condition_fired_at_construction_attaches_nowhere(env):
    done = env.timeout(1)
    env.run()
    pending = env.timeout(3)
    either = env.any_of([done, pending])
    assert either.triggered
    assert pending.callbacks == []


def test_clear_drops_queued_events(env):
    env.timeout(2)
    env.timeout(1)
    env.run(until=1.5)
    env.clear()
    assert len(env) == 0
    env.run()  # nothing left to run
    assert env.now == 1.5
