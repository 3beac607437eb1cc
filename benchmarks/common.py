"""Shared helpers for the benchmark suite.

Each bench regenerates one table/figure/claim from the paper (see the
experiment index in DESIGN.md).  Results are printed and appended to
``benchmarks/results.txt`` so the paper-vs-measured record survives pytest
output capturing; EXPERIMENTS.md is written from that file.

Simulator speed is measured by the serial perf harness next door,
``benchmarks/perf/`` (see its README).
"""

from __future__ import annotations

import os
import sys
import time

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

_run_header_written = False


def run_scenario(name: str, smoke: bool = False, config=None,
                 backend=None, topology=None):
    """Run one registry scenario through the :class:`ScenarioRunner`.

    The single entry point benchmarks use for workload construction —
    specs live in ``repro.scenarios.registry``, never in per-bench
    driver code — returning the :class:`ScenarioResult` (events, wall
    time, flit hops, fingerprint, QoS verdicts).  ``backend`` selects
    the router architecture (``repro.backends``) the cell replays on;
    ``backend=None`` resolves the spec's topology to its default
    backend, and ``topology`` overrides the spec's fabric first (like
    the ``--topology`` CLI flag).
    """
    import dataclasses

    from repro.scenarios import ScenarioRunner, get

    spec = get(name)
    if topology is not None:
        spec = dataclasses.replace(spec, topology=topology)
    if smoke:
        spec = spec.smoke()
    return ScenarioRunner(spec, config=config, backend=backend).run()


def record(experiment_id: str, title: str, body: str) -> None:
    """Print and persist one experiment's output block.

    The block is committed with a single ``O_APPEND`` write — the
    kernel appends it atomically, so concurrently recording processes
    can never interleave half-blocks — and the first record of each
    process stamps a run-boundary header, so ``results.txt`` reads as a
    sequence of delimited runs rather than one unbounded accretion.
    Fleet workers (``repro.scenarios.fleet``) never call this: they
    return outcome dicts and the parent does any recording.
    """
    global _run_header_written
    block = f"\n=== {experiment_id}: {title} ===\n{body}\n"
    if not _run_header_written:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        block = (f"\n##### run {stamp} (pid {os.getpid()}, "
                 f"python {sys.version.split()[0]}) #####\n") + block
        _run_header_written = True
    print(block, file=sys.stderr)
    fd = os.open(RESULTS_PATH,
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, block.encode("utf-8"))
    finally:
        os.close(fd)


def run_once(benchmark, fn):
    """Run a deterministic simulation experiment exactly once under
    pytest-benchmark (repeating a DES run only re-measures the host)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
