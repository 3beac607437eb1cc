"""Discrete-event simulation kernel.

This is the substrate on which the clockless MANGO circuits are modelled.
SimPy is not available in this offline environment, so the kernel is built
from scratch with the same programming model: *processes* are Python
generators that ``yield`` events; the :class:`Simulator` advances virtual
time (in nanoseconds) by popping events off a heap in deterministic order.

Determinism matters for reproducing the paper's guarantees: two events at
the same timestamp are ordered by (priority, insertion sequence), so a run
with fixed seeds is bit-reproducible.

Hot-path design notes (the kernel dominates large-mesh runtime):

* ``Event.callbacks`` is stored lazily: ``None`` while no callback is
  attached, a bare callable for the common single-waiter case, a list only
  when several waiters pile up, and the ``_PROCESSED`` sentinel once the
  event has been dispatched.  This avoids a list allocation per event and
  an append per yield.
* Pending entries live in one ``heapq`` list (``docs/kernel.md``).  Each
  entry is a ``(time, priority, seq, ...)`` tuple whose ``seq`` is
  globally unique, so tuple comparison never reaches the mixed-width
  tail and the heap pops in exact (time, priority, seq) order.
* :class:`Timeout` construction and :meth:`Event.succeed` push through the
  prebound ``Simulator._push`` (a C-level ``partial(heappush, heap)``)
  instead of going through :meth:`Simulator._enqueue`.
* :meth:`Simulator.defer` schedules a plain ``fn(*args)`` with no
  :class:`Event` allocation at all — links use it for flit delivery and
  unlock/credit wires, the highest-volume scheduling in the system.
* :meth:`Simulator._drain` is the *only* drive loop: :meth:`Simulator.run`
  and :meth:`Simulator.run_until_triggered` are thin wrappers over it (via
  :meth:`Simulator.run_batch`), never separate stepping paths.
* ``events_processed`` counts *logical* events dispatched: heap
  entries, synchronous :func:`fire` deliveries, inline consumptions of
  already-processed events, and wire hops condensed away by link-segment
  batching (``repro.backends.graphnet``).  All four were heap
  round-trips in the seed kernel.  The count is informational: speed
  is measured in flit hops and simulated ns per wall-second
  (``benchmarks/perf/``).
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "AnyOf",
    "AllOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]

# Scheduling priorities: lower value pops first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LATE = 2

_PENDING = object()

#: Sentinel stored in ``Event.callbacks`` once the event has been
#: dispatched by the event loop.
_PROCESSED = object()

_INF = float("inf")


def fire(event: "Event", value: Any = None) -> None:
    """Succeed ``event`` and run its callbacks *synchronously*, skipping
    the heap entirely.

    Only valid for success at the current simulated time, from code that
    is itself running inside the event loop (a callback or a resumed
    process): the woken continuations execute immediately, nested in the
    caller's dispatch, instead of at a later same-timestamp heap slot.
    Resources use this for waiter wake-ups, where the waiter's next step
    is always either another wait or a time-consuming operation.
    """
    if event._value is not _PENDING:
        # Without this guard a double trigger would run callbacks twice
        # and leave a stale heap entry that crashes far from the cause.
        raise SimulationError("event already triggered")
    event.sim.events_processed += 1
    event._ok = True
    event._value = value
    cbs = event.callbacks
    event.callbacks = _PROCESSED
    if cbs is not None:
        if type(cbs) is list:
            for callback in cbs:
                callback(event)
        else:
            cbs(event)


class SimulationError(Exception):
    """Raised for kernel-level protocol violations (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* once it has a value (success or failure) and
    *processed* once its callbacks have run.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # None -> no callbacks yet; callable -> exactly one; list -> many;
        # _PROCESSED -> the event loop has dispatched this event.
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._ok = True
        # A failed event is "defused" once some process has received its
        # exception; an undefused failure crashes the simulation so that
        # errors never pass silently.
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully; callbacks run after ``delay``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + delay, priority, seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown.

        Accepts the same ``priority`` as :meth:`succeed`, so failure
        callbacks can be ordered against urgent interrupts at the same
        timestamp.
        """
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + delay, priority, seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; if already processed it fires immediately
        on the next kernel step (same timestamp)."""
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = callback
        elif cbs is _PROCESSED:
            proxy = Event(self.sim)
            proxy._ok = self._ok
            proxy._value = self._value
            # Carry the defused state: attaching a benign callback to an
            # already-consumed failure must not re-raise it from the loop.
            proxy._defused = self._defused
            proxy.callbacks = callback
            self.sim._enqueue(proxy, 0.0, PRIORITY_URGENT)
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self.callbacks = [cbs, callback]

    @classmethod
    def completed(cls, sim: "Simulator", value: Any = None) -> "Event":
        """A successfully *processed* event, never touching the heap.

        Yielding it resumes the process inline (see
        :meth:`Process._do_resume`'s already-processed fast path), so
        resources whose wait condition is already satisfied — a non-empty
        store, an open gate, a free mutex — cost no heap traffic at all.
        """
        event = cls.__new__(cls)
        event.sim = sim
        event.callbacks = _PROCESSED
        event._value = value
        event._ok = True
        event._defused = False
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after its creation.

    Construction is the single hottest allocation in the system (every
    ``yield sim.timeout(...)`` makes one), so it writes its slots and
    pushes through the prebound heap-push fast path, bypassing the
    generic init chain.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._ok = True
        self._defused = False
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + delay, PRIORITY_NORMAL, seq, self))


class _ConditionValue:
    """Mapping of events to values for AnyOf/AllOf results."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: dict = {}

    def __getitem__(self, event):
        return self.events[event]

    def __contains__(self, event):
        return event in self.events

    def __len__(self):
        return len(self.events)

    def todict(self) -> dict:
        return dict(self.events)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes simulators")
        if not self._events:
            self.succeed(_ConditionValue())
            return
        for event in self._events:
            event.add_callback(self._check)

    def _collect(self) -> _ConditionValue:
        result = _ConditionValue()
        for event in self._events:
            if event._value is not _PENDING and event._ok:
                result.events[event] = event._value
        return result

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True  # the condition takes over the failure
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any child event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Triggers when all child events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self._events)


class Process(Event):
    """A generator-based coroutine driven by the events it yields.

    The process object itself is an event that triggers when the generator
    returns (its value is the ``return`` value), so processes can wait on
    each other.
    """

    __slots__ = ("_generator", "_target", "_resume", "name")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        # One bound method reused for every park/notify instead of a fresh
        # bound-method object per yield.
        self._resume = self._do_resume
        self.name = name or getattr(generator, "__name__", "process")
        # First resume rides a shared pre-completed event: a 16x16 mango
        # mesh boots about 4,800 processes, so the per-process bootstrap
        # Event is replaced by one deferred call against a singleton.
        sim.defer(0.0, self._resume, sim._boot_event)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        poke = Event(self.sim)
        poke._ok = False
        poke._value = Interrupt(cause)
        poke.callbacks = self._resume
        self.sim._enqueue(poke, 0.0, PRIORITY_URGENT)

    def _do_resume(self, event: Event) -> None:
        # If we were waiting on another event, detach from it (relevant for
        # interrupts arriving while blocked).
        resume = self._resume
        target = self._target
        if target is not None:
            cbs = target.callbacks
            if cbs is resume:
                target.callbacks = None
            elif type(cbs) is list:
                try:
                    cbs.remove(resume)
                except ValueError:
                    pass
            self._target = None

        generator = self._generator
        send = generator.send
        throw = generator.throw
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = throw(event._value)
            except StopIteration as stop:
                if self._value is _PENDING:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if self._value is _PENDING:
                    self.fail(exc)
                else:  # pragma: no cover - defensive
                    raise
                return

            try:
                cbs = next_event.callbacks
            except AttributeError:
                # EAFP stand-in for isinstance(next_event, Event): only
                # kernel events carry a callbacks slot.
                error = SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event")
                try:
                    throw(error)
                except StopIteration:
                    pass
                except SimulationError:
                    pass
                self.fail(error)
                return

            if cbs is not _PROCESSED:
                # Not yet processed: park until it fires.
                if cbs is None:
                    next_event.callbacks = resume
                elif type(cbs) is list:
                    cbs.append(resume)
                else:
                    next_event.callbacks = [cbs, resume]
                self._target = next_event
                return
            # Already processed: consume its value immediately.  This is
            # a logical event delivered without a heap round-trip
            # (Event.completed fast path), so it counts as processed.
            self.sim.events_processed += 1
            event = next_event


class Simulator:
    """Event loop over one ``heapq`` of (time, priority, seq, ...) entries.

    Deferred plain calls (see :meth:`defer`) ride the same heap as
    ``(time, priority, sequence, None, fn, args)`` entries — ``seq`` is
    globally unique, so the first three elements alone order the heap
    and entry widths may mix.

    ``profile`` opts into callback-site profiling: pass a profiler (any
    object with ``record(fn, seconds)`` and ``overhead(seconds)`` — see
    :class:`repro.obs.profile.CallSiteProfiler`) or ``True`` for a fresh
    one.  Profiling swaps the drive loop for an instrumented twin that
    times every dispatch; with ``profile=None`` (the default) the hot
    loop is untouched — the only cost is one ``is None`` check per
    *drain call*, never per event.
    """

    def __init__(self, profile=None):
        self._heap: list = []
        # Prebound push fast path shared by Timeout/succeed/fail/defer: a
        # C-level partial, so a push costs no Python frame.
        self._push = partial(heappush, self._heap)
        self._seq = 0
        self._now = 0.0
        #: Logical events dispatched so far: heap entries, fire()
        #: deliveries, inline consumptions of already-processed events,
        #: and hops condensed by link-segment batching (see the module
        #: docstring); benchmarks report events per wall-clock second.
        self.events_processed = 0
        if profile is True:
            # Deliberate upward seam (like network/connection.py -> alloc):
            # the profiler *type* lives in the observability layer; the
            # kernel only holds the duck-typed instance.
            from ..obs.profile import CallSiteProfiler
            profile = CallSiteProfiler()
        #: Active callback-site profiler, or ``None`` (the default).
        self.profile = profile or None
        # Shared ok/None event handed to every process's first resume.
        self._boot_event = Event.completed(self)

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq = seq = self._seq + 1
        self._push((self._now + delay, priority, seq, event))

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run after ``delay`` ns.

        The cheapest way to model a wire: no :class:`Event` is allocated
        and nothing can wait on the result.  Links use this for flit
        delivery and for the reverse unlock/credit wires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq = seq = self._seq + 1
        self._push((self._now + delay, PRIORITY_NORMAL, seq, None, fn, args))

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if nothing is scheduled."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    # -- the event loop ----------------------------------------------------

    def _drain(self, until: float, max_entries: Optional[int],
               stop_event: Optional[Event]) -> int:
        """Dispatch heap entries with time <= ``until``.

        Stops early after ``max_entries`` dispatches or once
        ``stop_event`` has triggered.  Returns the number dispatched.
        This single tight loop backs every public drive method.
        """
        if self.profile is not None:
            return self._drain_profiled(until, max_entries, stop_event)
        heap = self._heap
        count = 0
        bounded = max_entries is not None or stop_event is not None
        try:
            while heap and heap[0][0] <= until:
                if bounded:
                    if count == max_entries:
                        break
                    if stop_event is not None and \
                            stop_event._value is not _PENDING:
                        break
                entry = heappop(heap)
                self._now = entry[0]
                count += 1
                event = entry[3]
                if event is None:
                    entry[4](*entry[5])
                    continue
                cbs = event.callbacks
                event.callbacks = _PROCESSED
                if cbs is not None:
                    if type(cbs) is list:
                        for callback in cbs:
                            callback(event)
                    else:
                        cbs(event)
                if not event._ok and not event._defused:
                    # No process consumed the failure: surface it here
                    # rather than letting the error pass silently.
                    raise event._value
        finally:
            self.events_processed += count
        return count

    def _drain_profiled(self, until: float, max_entries: Optional[int],
                        stop_event: Optional[Event]) -> int:
        """Instrumented twin of :meth:`_drain`: identical dispatch order,
        but every callback/deferred call is timed and attributed to its
        *site* through ``self.profile``.  Time the loop spends outside
        dispatches (heap pops, bookkeeping, the timer itself) is
        attributed separately via ``profile.overhead``, so the profiler's
        total accounts for essentially the whole drain wall time.

        Nested synchronous work (:func:`fire` deliveries, inline event
        consumptions) counts *inside* the dispatch that triggered it —
        inclusive timing, matching how a sampling profiler would blame
        the callback that kept the interpreter busy.
        """
        profile = self.profile
        record = profile.record
        heap = self._heap
        count = 0
        bounded = max_entries is not None or stop_event is not None
        t_loop = perf_counter()
        dispatched_s = 0.0
        try:
            while heap and heap[0][0] <= until:
                if bounded:
                    if count == max_entries:
                        break
                    if stop_event is not None and \
                            stop_event._value is not _PENDING:
                        break
                entry = heappop(heap)
                self._now = entry[0]
                count += 1
                event = entry[3]
                if event is None:
                    fn = entry[4]
                    t0 = perf_counter()
                    fn(*entry[5])
                    dt = perf_counter() - t0
                    dispatched_s += dt
                    record(fn, dt)
                    continue
                cbs = event.callbacks
                event.callbacks = _PROCESSED
                if cbs is not None:
                    if type(cbs) is list:
                        for callback in cbs:
                            t0 = perf_counter()
                            callback(event)
                            dt = perf_counter() - t0
                            dispatched_s += dt
                            record(callback, dt)
                    else:
                        t0 = perf_counter()
                        cbs(event)
                        dt = perf_counter() - t0
                        dispatched_s += dt
                        record(cbs, dt)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self.events_processed += count
            profile.overhead(perf_counter() - t_loop - dispatched_s)
        return count

    def step(self) -> None:
        """Process one event (advance time to it, run its callbacks)."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        self._drain(_INF, 1, None)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        A thin wrapper over :meth:`run_batch` (and thereby the single
        :meth:`_drain` loop) — no separate stepping path.
        """
        self.run_batch(until=until)

    def run_batch(self, until: Optional[float] = None,
                  max_events: Optional[int] = None) -> int:
        """Deadline-driven stepping: dispatch up to ``max_events`` entries
        with time <= ``until`` and return how many ran.

        The clock only advances to ``until`` once everything due by then
        has been dispatched, so callers can pump the loop in slices::

            while sim.run_batch(deadline, max_events=10_000):
                ...  # interleave host-side work per batch

        Returns 0 when nothing is left before the deadline.
        """
        limit = _INF if until is None else until
        if limit < self._now:
            raise SimulationError(f"until={until} is before now={self._now}")
        count = self._drain(limit, max_events, None)
        if until is not None and self.peek() > until:
            if self._now < until:
                self._now = until
        return count

    def run_until_triggered(self, event: Event,
                            max_ns: Optional[float] = None) -> bool:
        """Run until ``event`` triggers (or time passes ``max_ns`` / the
        heap drains).  Returns whether the event triggered.

        This replaces poll-every-N-ns driving: traffic harnesses wait on
        an :class:`AllOf` over their source processes instead of waking
        up per flit slot to check them.
        """
        limit = _INF if max_ns is None else max_ns
        if limit < self._now:
            raise SimulationError(
                f"max_ns={max_ns} is before now={self._now}")
        self._drain(limit, None, event)
        return event._value is not _PENDING

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run a process to completion and return its value."""
        proc = self.process(generator, name=name)
        # run_process observes the outcome itself, so a failure is not an
        # "unhandled" one — it is re-raised below, at the call site.
        proc._defused = True
        self._drain(_INF, None, proc)
        if proc._value is _PENDING:
            raise SimulationError(
                f"deadlock: process {proc.name!r} never finished")
        if not proc._ok:
            raise proc._value
        return proc._value
