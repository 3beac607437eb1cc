"""Share-based VC control primitives (paper Figure 6).

One wire per VC implements non-blocking access to a shared media: the
:class:`Sharebox` admits a single flit and locks; the flit crosses the
media into the :class:`Unsharebox` latch at the far side; when the flit
leaves the unsharebox the unlock wire toggles, unlocking the sharebox.  As
long as the media itself is deadlock-free, no flit ever stalls inside it —
the key property that makes the MANGO switching module non-blocking.

The sharebox is the model's one flow-control window: a count of free
places downstream.  The paper's share scheme is a window of 1.  The
credit-based scheme Section 4.3 compares it with is the same count with
a window of ``credit_window``, and Section 5's per-hop BE credits are a
window of ``be_buffer_depth``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..sim.kernel import Event, Simulator, SimulationError, fire

__all__ = ["Sharebox", "Unsharebox", "ShareProtocolError"]


class ShareProtocolError(SimulationError):
    """Raised when the lock/unlock protocol is violated (e.g. an unlock
    arriving while the sharebox is already unlocked)."""


class Sharebox:
    """Admission window of one sender onto the shared media.

    ``credits`` counts the free places downstream, ``window`` at the
    start.  ``admit`` takes one as a flit enters the media; ``release``
    (the unlock toggle or credit from downstream) gives it back.
    ``wait_ready`` lets the sender block until a place is free; its
    waiters wake synchronously when the count goes from 0 to 1.
    """

    def __init__(self, sim: Simulator, window: int = 1,
                 name: str = "sharebox"):
        if window < 1:
            raise ValueError("a flow-control window must be >= 1")
        self.sim = sim
        self.window = window
        self.name = name
        self.credits = window
        self.admitted = 0
        # Created on first wait: a large mesh builds tens of thousands
        # of windows and most never block.
        self._waiters = None

    @property
    def ready(self) -> bool:
        return self.credits > 0

    def wait_ready(self) -> Event:
        if self.credits:
            return Event.completed(self.sim)
        event = Event(self.sim)
        if self._waiters is None:
            self._waiters = [event]
        else:
            self._waiters.append(event)
        return event

    def admit(self) -> None:
        """Take a free place as a flit enters the media."""
        if not self.credits:
            raise ShareProtocolError(
                f"{self.name}: admit with no free place ({self.window} "
                "flit(s) already on the media)")
        self.credits -= 1
        self.admitted += 1

    def release(self) -> None:
        """Unlock toggle (or credit) arriving from downstream."""
        if self.credits >= self.window:
            raise ShareProtocolError(
                f"{self.name}: release while the whole window is free")
        self.credits += 1
        if self.credits == 1 and self._waiters:
            waiters, self._waiters = self._waiters, None
            for event in waiters:
                fire(event)


class Unsharebox:
    """Latch at the far side of the shared media.

    Holds up to ``capacity`` flits: one under the share scheme, the
    window under credits.  ``leave`` removes the oldest; its owner fires
    the unlock toggle as it returns (a VC slot hands it to the VC
    control module, which routes it to the right upstream sharebox).
    """

    def __init__(self, capacity: int, name: str):
        self.capacity = capacity
        self.name = name
        self.latch: deque = deque()
        self.accepted = 0
        self.departed = 0

    @property
    def occupied(self) -> bool:
        return bool(self.latch)

    def accept(self, flit: Any) -> None:
        """Capture an arriving flit; the protocol guarantees space."""
        if len(self.latch) >= self.capacity:
            raise ShareProtocolError(
                f"{self.name}: flit arrived at an occupied unsharebox "
                "(share-based protocol violated)")
        self.latch.append(flit)
        self.accepted += 1

    def leave(self) -> Any:
        """Remove the oldest latched flit now (the non-blocking
        departure: the caller knows a flit is latched, and fires the
        unlock toggle)."""
        if not self.latch:
            raise ShareProtocolError(
                f"{self.name}: departure from an empty unsharebox")
        flit = self.latch.popleft()
        self.departed += 1
        return flit
