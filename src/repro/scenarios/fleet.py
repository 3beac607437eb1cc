"""Sharded scenario fleet: run matrix cells on N worker processes.

The conformance matrix (``python -m repro scenario matrix``) grew to
~37 registry cells x 6 backends x 3 allocators, all driven by one
sequential loop.  This module is the parallel executor behind its
``--jobs N``:

* a :class:`FleetCell` names one (scenario, backend, allocator,
  topology, smoke, metrics) matrix cell as plain JSON-safe data, so any
  cross-product is a list comprehension away;
* :func:`run_cell` executes one cell and captures the outcome — ``ok``
  with the full :class:`~repro.scenarios.runner.ScenarioResult` dict,
  ``skip`` for :class:`~repro.backends.BackendCapabilityError`, or
  ``error`` with the traceback — so one crashing cell becomes an
  ``ERROR`` row instead of aborting the whole run;
* :func:`run_fleet` fans the cells out over a spawn-safe
  ``ProcessPoolExecutor`` (``jobs=1`` stays in-process, byte-identical
  to the historical serial loop) and returns outcomes in input order,
  so tables, golden checks and fingerprints are independent of
  completion order.

Workers never write shared files themselves (``benchmarks/results.txt``
included); all output funnels through the parent via the returned
outcome dicts.  See ``docs/benchmarks.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "CellOutcome",
    "FleetCell",
    "code_fingerprint",
    "run_cell",
    "run_fleet",
]


@dataclass(frozen=True)
class FleetCell:
    """One matrix cell: a registry scenario replayed on one backend /
    allocator / topology combination, at smoke or full duration.

    ``backend=None`` resolves the spec's topology to its default
    backend (mesh cells on ``mango``, fabric cells on their fabric's
    backend); ``topology=None`` keeps the spec's own fabric — the same
    semantics as the ``scenario matrix`` flags.
    """

    name: str
    backend: Optional[str] = None
    allocator: str = "xy"
    topology: Optional[str] = None
    smoke: bool = True
    #: Collect the standard metrics probe set into the result payload
    #: (``scenario matrix --metrics``).  Probes are read-only, so the
    #: fingerprint is unchanged.
    metrics: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetCell":
        return cls(**data)

    def resolve_spec(self):
        """The exact spec this cell runs (topology override applied
        first, then the smoke scaling — the serial loop's order)."""
        from .registry import get

        spec = get(self.name)
        if self.topology:
            spec = dataclasses.replace(spec, topology=self.topology)
        if self.smoke:
            spec = spec.smoke()
        return spec


@dataclass
class CellOutcome:
    """What happened to one cell.

    ``status`` is ``"ok"`` (``result`` holds the
    :meth:`~repro.scenarios.runner.ScenarioResult.to_dict` payload and
    ``failures`` the verdict problems), ``"skip"`` (capability-gated:
    ``reason`` names the incompatibility) or ``"error"`` (``reason`` is
    the exception, ``traceback`` the full trace).
    """

    cell: FleetCell
    status: str
    result: Optional[Dict[str, Any]] = None
    failures: List[str] = field(default_factory=list)
    reason: str = ""
    traceback: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok" and bool(self.result["passed"])

    @property
    def verdict(self) -> str:
        if self.status == "skip":
            return "SKIP"
        if self.status == "error":
            return "ERROR"
        return "PASS" if self.passed else "FAIL"

    @property
    def fingerprint(self) -> Optional[str]:
        return self.result["fingerprint"] if self.status == "ok" else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "status": self.status,
            "result": self.result,
            "failures": list(self.failures),
            "reason": self.reason,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellOutcome":
        data = dict(data)
        data["cell"] = FleetCell.from_dict(data["cell"])
        return cls(**data)


def run_cell(cell: FleetCell) -> CellOutcome:
    """Execute one cell, capturing every failure mode as data.

    This is the only place the fleet touches the runner, and it never
    raises: capability gaps become ``skip``, everything else —
    construction errors, simulation deadlocks, verdict machinery bugs —
    becomes ``error`` with the traceback preserved, so a single
    crashing cell reports an ``ERROR`` row instead of losing the whole
    partial table.
    """
    from ..backends import BackendCapabilityError
    from .runner import ScenarioRunner

    try:
        spec = cell.resolve_spec()
        obs = None
        if cell.metrics:
            from ..obs import ObsConfig
            obs = ObsConfig(metrics=True)
        runner = ScenarioRunner(spec, backend=cell.backend,
                                allocator=cell.allocator, obs=obs)
        result = runner.run()
    except BackendCapabilityError as error:
        return CellOutcome(cell, "skip", reason=str(error))
    except Exception as error:
        return CellOutcome(cell, "error",
                           reason=f"{type(error).__name__}: {error}",
                           traceback=traceback.format_exc())
    return CellOutcome(cell, "ok", result=result.to_dict(),
                       failures=result.failures())


def _worker(cell_data: Dict[str, Any]) -> Dict[str, Any]:
    """Spawn-safe pool entry point: plain dicts in, plain dicts out."""
    return run_cell(FleetCell.from_dict(cell_data)).to_dict()


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (relative path + bytes):
    names the exact code a measurement ran (the perf harness records it
    in each run header)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


# -- the fleet -------------------------------------------------------------

def run_fleet(cells: Sequence[FleetCell], jobs: int = 1) -> List[CellOutcome]:
    """Run every cell and return outcomes in input order.

    ``jobs=1`` executes in-process, sequentially — the exact behaviour
    (and fingerprints) of the historical serial matrix loop.  ``jobs>1``
    fans out over a ``spawn`` ``ProcessPoolExecutor``: every cell is an
    independent simulation with its own RNG seeds, so parallel outcomes
    are bit-identical to serial ones (asserted by
    ``tests/scenarios/test_fleet.py`` and ``benchmarks/bench_fleet.py``).
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    context = multiprocessing.get_context("spawn")
    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        futures = {pool.submit(_worker, cell.to_dict()): (index, cell)
                   for index, cell in enumerate(cells)}
        for future in as_completed(futures):
            index, cell = futures[future]
            try:
                outcome = CellOutcome.from_dict(future.result())
            except Exception as error:
                # The worker process itself died (e.g. OOM-killed):
                # still one ERROR row, not a lost table.
                outcome = CellOutcome(
                    cell, "error",
                    reason=f"worker failed: {error!r}")
            outcomes[index] = outcome
    return outcomes
