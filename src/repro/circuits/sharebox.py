"""Share-based VC control primitives (paper Figure 6).

One wire per VC implements non-blocking access to a shared media: the
:class:`Sharebox` admits a single flit and locks; the flit crosses the
media into the :class:`Unsharebox` latch at the far side; when the flit
leaves the unsharebox the unlock wire toggles, unlocking the sharebox.  As
long as the media itself is deadlock-free, no flit ever stalls inside it —
the key property that makes the MANGO switching module non-blocking.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..sim.kernel import Event, Simulator, SimulationError
from ..sim.resources import Gate, Store

__all__ = ["Sharebox", "Unsharebox", "ShareProtocolError"]


class ShareProtocolError(SimulationError):
    """Raised when the lock/unlock protocol is violated (e.g. an unlock
    arriving while the sharebox is already unlocked)."""


class Sharebox:
    """Admission gate for one VC onto the shared media.

    The box starts unlocked.  ``admit`` locks it; a later ``unlock``
    (triggered by the downstream unsharebox) re-opens it.  ``wait_unlocked``
    lets the VC sender block until admission is possible.
    """

    def __init__(self, sim: Simulator, name: str = "sharebox"):
        self.sim = sim
        self.name = name
        self._gate = Gate(sim, is_open=True, name=f"{name}.gate")
        self.admitted = 0
        self.unlocks = 0

    @property
    def locked(self) -> bool:
        return not self._gate.is_open

    def wait_unlocked(self) -> Event:
        return self._gate.wait_open()

    def admit(self) -> None:
        """Lock the box as a flit enters the media."""
        if self.locked:
            raise ShareProtocolError(
                f"{self.name}: admit while locked (two flits on the media)")
        self.admitted += 1
        self._gate.close()

    def unlock(self) -> None:
        """Unlock toggle arriving from the downstream unsharebox."""
        if not self.locked:
            raise ShareProtocolError(
                f"{self.name}: unlock while already unlocked")
        self.unlocks += 1
        self._gate.open()


class Unsharebox:
    """Latch at the far side of the shared media.

    Capacity one flit.  ``leave`` removes the flit and fires the unlock
    callback (the VC control module routes the toggle to the right
    upstream sharebox).
    """

    def __init__(self, sim: Simulator, name: str = "unsharebox",
                 on_unlock: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.name = name
        self.latch = Store(sim, capacity=1, name=f"{name}.latch")
        self._on_unlock: List[Callable[[], None]] = []
        if on_unlock is not None:
            self._on_unlock.append(on_unlock)
        self.accepted = 0
        self.departed = 0

    def on_unlock(self, callback: Callable[[], None]) -> None:
        self._on_unlock.append(callback)

    @property
    def occupied(self) -> bool:
        return not self.latch.is_empty

    def accept(self, flit: Any) -> None:
        """Capture an arriving flit; the protocol guarantees space."""
        if not self.latch.try_put(flit):
            raise ShareProtocolError(
                f"{self.name}: flit arrived at an occupied unsharebox "
                "(share-based protocol violated)")
        self.accepted += 1

    def leave(self) -> Any:
        """Remove the latched flit now and fire the unlock toggle (the
        non-blocking departure: the caller knows a flit is latched)."""
        flit = self.latch.try_get()
        if flit is None:
            raise ShareProtocolError(
                f"{self.name}: departure from an empty unsharebox")
        self.departed += 1
        for callback in self._on_unlock:
            callback()
        return flit
