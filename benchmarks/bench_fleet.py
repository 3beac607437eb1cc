"""F1 — The sharded scenario fleet: parallel == serial, and faster.

Runs the full smoke registry through :mod:`repro.scenarios.fleet` two
ways — the in-process serial loop (``jobs=1``) and sharded over 4 spawn
workers — and asserts:

* verdicts and flit-hop fingerprints are bit-identical across both
  (the determinism contract behind ``scenario matrix --jobs N``);
* on multi-core hosts, the sharded run beats the serial one (on a
  single-core host no speedup exists to measure, so only equality is
  asserted and the wall times are recorded as informational).
"""

import os
import time

from repro.analysis.report import Table
from repro.scenarios import registry
from repro.scenarios.fleet import FleetCell, run_fleet

from .common import record, run_once

JOBS = 4


def _signature(outcomes):
    """The determinism-relevant projection of a fleet run."""
    return [(outcome.cell.name, outcome.verdict, outcome.fingerprint)
            for outcome in outcomes]


def run_experiment():
    cells = [FleetCell(name=name) for name in registry.names()]
    start = time.perf_counter()
    serial = run_fleet(cells, jobs=1)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_fleet(cells, jobs=JOBS)
    t_parallel = time.perf_counter() - start
    return {
        "cells": cells,
        "serial": serial, "parallel": parallel,
        "t_serial": t_serial, "t_parallel": t_parallel,
    }


def test_fleet_speedup_and_determinism(benchmark):
    data = run_once(benchmark, run_experiment)
    serial, parallel = data["serial"], data["parallel"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)

    table = Table(["drive", "jobs", "wall s", "cells", "passed"],
                  title=f"Sharded fleet, full smoke registry "
                        f"({len(serial)} cells, {cpus} cpus)")
    for label, outcomes, wall, jobs in (
            ("serial", serial, data["t_serial"], 1),
            ("sharded", parallel, data["t_parallel"], JOBS)):
        table.add_row(label, jobs, round(wall, 2), len(outcomes),
                      sum(outcome.verdict == "PASS"
                          for outcome in outcomes))
    speedup = data["t_serial"] / data["t_parallel"]
    body = table.render() + f"\nsharded speedup: {speedup:.2f}x"
    record("F1", "sharded scenario fleet", body)

    # Determinism: the sharded matrix is the serial matrix, cell for
    # cell.
    assert _signature(parallel) == _signature(serial)
    assert all(outcome.verdict == "PASS" for outcome in serial), \
        [(o.cell.name, o.reason or o.failures) for o in serial
         if o.verdict != "PASS"]
    # The payoff: on a multi-core host the sharded fleet must beat the
    # serial loop.  A single-core host cannot show a speedup (spawn
    # overhead with zero parallelism), so there the wall times above
    # are informational only.
    if cpus >= 2:
        assert data["t_parallel"] < data["t_serial"], \
            (f"jobs={JOBS} took {data['t_parallel']:.2f}s vs serial "
             f"{data['t_serial']:.2f}s on {cpus} cpus")
