"""Event primitives for the discrete-event kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
scheduled), *triggered* (scheduled with a value, waiting in the event queue)
and *processed* (callbacks have run).  Processes wait on events by yielding
them; the environment wires the process's resume callback to the event.
"""

from __future__ import annotations

import typing as t

from repro.sim.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
PENDING = object()

#: Default priority for ordinary events.
NORMAL = 1
#: Priority for high-urgency events (resource bookkeeping runs before user code).
URGENT = 0


class Event:
    """A happening at a point in simulated time that processes can wait on.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    # The kernel allocates one Event (or subclass) per scheduled
    # happening — slots keep that allocation dict-free.  Subclasses that
    # add state must declare their own __slots__ to stay dict-free.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[t.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool = True
        self._defused = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} at {id(self):#x} {self._state_str()}>"

    def _state_str(self) -> str:
        if self._value is PENDING:
            return "pending"
        if self.callbacks is not None:
            return f"triggered value={self._value!r}"
        return f"processed value={self._value!r}"

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (has a value)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception for failed events)."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Schedule the event as successful with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event as failed, carrying ``exception``.

        A failed event re-raises the exception in every waiting process.
        If nothing waits on a failed event the environment raises it at the
        end of the step (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy outcome of ``event`` onto this event and schedule it.

        Used as a callback to chain events.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not raise."""
        self._defused = True

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed ``delay`` of simulated time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """Immediately-scheduled event that starts a new :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "t.Any") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class ConditionValue:
    """Result of a condition: an ordered mapping of triggered events."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> object:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self) -> t.Iterator[Event]:
        return iter(self.events)

    def keys(self) -> t.Iterable[Event]:
        return list(self.events)

    def values(self) -> t.Iterable[object]:
        return [e._value for e in self.events]

    def todict(self) -> dict[Event, object]:
        return {e: e._value for e in self.events}


class Condition(Event):
    """Waits for a boolean combination of events (``&`` / ``|``).

    The ``evaluate`` callable decides, given the component events and the
    count of triggered ones, whether the condition holds.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: t.Callable[[list[Event], int], bool],
        events: t.Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")

        if self._evaluate(self._events, 0):
            # Degenerate condition (e.g. AllOf([])) succeeds immediately.
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if self._value is not PENDING:
                break  # fired on an already-processed event
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition) and event._value is not PENDING:
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(t.cast(BaseException, event._value))
            self._detach()
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)
            self._detach()

    def _detach(self) -> None:
        """Drop ``_check`` from the component events still pending.

        Once the condition has fired a stale ``_check`` only returns, but
        it keeps the condition reachable from every pending component: a
        reference cycle whenever a component (say a timer) outlives the
        wait.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that succeeds once every component event succeeds."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: t.Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that succeeds as soon as one component event succeeds."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: t.Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
