"""Blocking resources built on the kernel: stores and mutexes.

* :class:`Store` — a capacity-bounded FIFO: an NA's ``be_inbox``, the
  handshake channel slot and the generic-VC baseline's queues.  The
  mango router's data paths — the GS VC slots, the BE router's input
  buffers and output locks, the BE channels' queues, the NA's transmit
  queues and synchronizer FIFOs, and the local BE port — are plain
  fields and calls (``core/output_port.py``, ``core/be_router.py``,
  ``network/adapter.py``, ``core/router.py``), not Stores.
* :class:`Resource` — FIFO mutual exclusion: the local BE injection
  port, and baseline routers where a shared crossbar *is* arbitrated,
  unlike MANGO's non-blocking switch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .kernel import Event, Simulator, SimulationError, fire

__all__ = ["Store", "Resource"]


class Store:
    """Capacity-bounded FIFO: ``put`` blocks while full, ``get`` blocks
    while empty."""

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        # Waiter queues are created on first use: most stores never see
        # contention.
        self._getters: Optional[deque] = None
        self._putters: Optional[deque] = None  # (event, item)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.items

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is in the store.

        When space is free the returned event is already processed, so a
        yielding process continues inline with no heap round-trip.
        """
        if len(self.items) < self.capacity and not self._putters:
            self.items.append(item)
            if self._getters:
                self._wake_consumers()
            return Event.completed(self.sim)
        event = Event(self.sim)
        if self._putters is None:
            self._putters = deque()
        self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full."""
        if len(self.items) >= self.capacity or self._putters:
            return False
        self.items.append(item)
        if self._getters:
            self._wake_consumers()
        return True

    def get(self) -> Event:
        """Return an event whose value is the item removed from the head.

        Already processed (inline resume) when an item is waiting.
        """
        if self.items and not self._getters:
            item = self.items.popleft()
            if self._putters:
                self._admit_writers()
            return Event.completed(self.sim, item)
        event = Event(self.sim)
        if self._getters is None:
            self._getters = deque()
        self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty (or a waiter exists)."""
        if not self.items or self._getters:
            return None
        item = self.items.popleft()
        if self._putters:
            self._admit_writers()
        return item

    def _wake_consumers(self) -> None:
        while self._getters and self.items:
            item = self.items.popleft()
            fire(self._getters.popleft(), item)
            if self._putters:
                self._admit_writers()

    def _admit_writers(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self.items.append(item)
            fire(event)
            # Newly stored item may satisfy a waiting getter.
            while self._getters and self.items:
                got = self.items.popleft()
                fire(self._getters.popleft(), got)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Store {self.name!r} {len(self.items)}/{self.capacity} "
                f"getters={len(self._getters or ())} "
                f"putters={len(self._putters or ())}>")


class Resource:
    """FIFO mutual exclusion over ``capacity`` slots."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users = 0
        self._queue: deque = deque()

    @property
    def in_use(self) -> int:
        return self._users

    def request(self) -> Event:
        if self._users < self.capacity and not self._queue:
            self._users += 1
            return Event.completed(self.sim)
        event = Event(self.sim)
        self._queue.append(event)
        return event

    def release(self) -> None:
        if self._users <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            fire(self._queue.popleft())
        else:
            self._users -= 1
