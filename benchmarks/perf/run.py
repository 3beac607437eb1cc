"""Serial perf benchmark: simulator speed and QoS, end to end and per layer.

Run from the repository root (the reps put ``src/`` on their own path)::

    python3 benchmarks/perf/run.py --seed 0 --out perf.json \\
        [--chrome-trace trace.json]
    python3 benchmarks/perf/run.py --workload ring-fabric --seed 3 \\
        --seconds 15 --trace 0
    python3 benchmarks/perf/run.py --compare PARENT.json CHANGE.json

One parent process launches one child process (``rep.py``) per
repetition ("rep"), strictly one at a time: nothing runs in parallel,
and the next rep starts only when the previous one has exited (a closed
loop of one client).  Each workload first gets one discarded warm-up
rep, which fills the ``.pyc`` and file caches.  Timed reps then run
round-robin across the selected workloads, so host drift hits every
workload alike, until each workload has spent ``--seconds`` of rep wall
time (at least ``MIN_REPS`` reps).  With ``--trace 1`` one extra traced
rep per workload follows; the per-layer numbers come only from it.

Every rep is checked.  A rep fails when the child exits non-zero or runs
past ``TIMEOUT_FACTOR`` times its workload's median rep, when its
verdict is not PASS, when (at seed 0 and the workloads' own scale) its
fingerprint, flit hops, simulated ns or QoS numbers differ from
``expected.json``, or (at any other seed or scale) when they differ
from the workload's first rep.  Failures are named, never tracebacks.

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; names are prefixed ``<workload>.`` when more than one
workload runs).  Exit status: 0 every rep passed, 1 a rep failed (or
``--compare`` found a regression), 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
from rep import EXIT_NO_PROGRAM  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

#: Timed reps every workload runs, however short ``--seconds`` is.
MIN_REPS = 2
#: A rep running past this multiple of its workload's median is killed.
TIMEOUT_FACTOR = 10
#: Cap on the warm-up rep, which has no median yet.
WARMUP_TIMEOUT_S = 150.0

#: Host metrics of one rep, by the names ``BENCHMARK.json`` gives them.
HOST_METRICS: Dict[str, Callable[[dict], float]] = {
    "hops_per_s": lambda r: r["flit_hops"] / r["run_s"],
    "sim_ns_per_s": lambda r: r["sim_ns"] / r["run_s"],
    "wall_s": lambda r: r["wall_s"],
    "setup_s": lambda r: r["import_s"] + r["build_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}

#: Simulated QoS metrics (unit, better).  They repeat exactly for a
#: given seed, so their bound is 0: any change is a behaviour change.
EXACT_METRICS = {
    "gs_slack_min_ns": ("ns", "higher"),
    "be_latency_p50_ns": ("ns", "lower"),
    "be_latency_p99_ns": ("ns", "lower"),
    "gs_throughput_flits_per_ns": ("flits/ns", "higher"),
}

#: Simulated outputs every rep must reproduce.
SIM_KEYS = ("fingerprint", "flit_hops", "sim_ns")


class NoProgram(Exception):
    """The program under test cannot be imported from ``src/``."""


@dataclass
class Rep:
    kind: str                   # "warm-up" | "timed" | "traced"
    start: float                # s since the benchmark started
    elapsed: float              # parent-measured wall of the child
    record: Optional[dict]
    failures: List[str] = field(default_factory=list)


def launch(workload: str, kind: str, seed: int, scale: Optional[int],
           timeout: float, clock0: float) -> Rep:
    """Run one rep in a child process and wait for it to exit."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if kind == "traced":
        cmd.append("--traced")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    epoch = time.time()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(kind, start - clock0, timeout, None,
                   [f"ran past {timeout:.1f} s and was killed"])
    rep = Rep(kind, start - clock0, time.perf_counter() - start, None)
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        rep.failures.append(f"exited {proc.returncode}: {lines[-1]}")
        return rep
    rep.record = json.loads(proc.stdout.splitlines()[-1])
    # Where the child's own clock started, on the parent's timeline.
    rep.record["offset_s"] = rep.start + rep.record["t0_epoch"] - epoch
    return rep


def sim_block(record: dict, workload: str) -> dict:
    """The simulated outputs of a rep, in ``expected.json``'s shape."""
    block = {key: record[key] for key in SIM_KEYS}
    block["exact"] = {name: record["exact"][name]
                      for name in WORKLOADS[workload].exact}
    return block


class WorkloadRun:
    """The reps of one workload and the reference they are checked
    against (pinned, or the first rep that produced outputs)."""

    def __init__(self, name: str, pinned: Optional[dict]):
        self.name = name
        self.pinned = pinned is not None
        self.reference = pinned
        self.reps: List[Rep] = []

    def add(self, rep: Rep) -> None:
        if rep.record is not None:
            if self.reference is None:
                self.reference = sim_block(rep.record, self.name)
            rep.failures += self.check(rep.record)
        self.reps.append(rep)

    def check(self, record: dict) -> List[str]:
        problems = []
        if not record["passed"]:
            problems.append("verdict FAIL: " + "; ".join(record["failures"]))
        what = "pinned value" if self.pinned else "first rep's"
        got = sim_block(record, self.name)
        for key in SIM_KEYS:
            if got[key] != self.reference[key]:
                problems.append(f"{key} {got[key]!r} differs from the "
                                f"{what} {self.reference[key]!r}")
        for name, value in got["exact"].items():
            if value != self.reference["exact"][name]:
                problems.append(f"{name} {value!r} differs from the "
                                f"{what} {self.reference['exact'][name]!r}")
        return problems

    def timed(self) -> List[dict]:
        return [rep.record for rep in self.reps
                if rep.kind == "timed" and not rep.failures]

    def estimate(self) -> float:
        return median(rep.elapsed for rep in self.reps
                      if rep.kind != "traced")

    def wants_rep(self, seconds: float) -> bool:
        timed = [rep for rep in self.reps if rep.kind == "timed"]
        spent = sum(rep.elapsed for rep in timed)
        return len(timed) < MIN_REPS or spent + self.estimate() <= seconds


def measure(names: List[str], seed: int, scale: Optional[int],
            seconds: float, trace: bool, expected: dict,
            header: dict) -> Dict[str, WorkloadRun]:
    """Warm-up, timed round-robin reps, then the traced reps."""
    clock0 = time.perf_counter()
    pinned = seed == 0 and scale is None
    runs = {name: WorkloadRun(name, expected[name] if pinned else None)
            for name in names}

    def rep(run: WorkloadRun, kind: str, timeout: float) -> None:
        run.add(launch(run.name, kind, seed, scale, timeout, clock0))

    for run in runs.values():
        rep(run, "warm-up", WARMUP_TIMEOUT_S)
    load_before = os.getloadavg()[0]
    while True:
        pending = [run for run in runs.values() if run.wants_rep(seconds)]
        if not pending:
            break
        for run in pending:
            rep(run, "timed", TIMEOUT_FACTOR * run.estimate())
    load_after = os.getloadavg()[0]
    header["load_1min"] = {"before": load_before, "after": load_after}
    # The benchmark's own rep keeps one CPU busy, which the 1-min load
    # average counts: more than nproc - 1 means other work was running.
    if max(load_before, load_after) > header["nproc"] - 1:
        header["warnings"].append(
            f"1-min load average {load_before:.2f} before / "
            f"{load_after:.2f} after the timed set exceeds "
            f"{header['nproc'] - 1} (nproc - 1): host timings are noisy")
    if trace:
        for run in runs.values():
            rep(run, "traced", TIMEOUT_FACTOR * run.estimate())
    return runs


def stats(values: List[float], unit: str, better: str,
          bound: float) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count, with
    the metric's unit, direction and bound."""
    med = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "better": better, "bound": bound}


def summarize(run: WorkloadRun, bench: dict, scale: Optional[int]) -> dict:
    timed = run.timed()
    metrics = {}
    if timed:
        for m in bench["end_to_end"]:
            fn = HOST_METRICS[m["name"]]
            metrics[m["name"]] = stats([fn(r) for r in timed], m["unit"],
                                       m["better"], m["bound"])
        for name in WORKLOADS[run.name].exact:
            metrics[name] = stats([r["exact"][name] for r in timed],
                                  *EXACT_METRICS[name], 0.0)
    attempted = len(run.reps)
    failures = [f"{rep.kind} rep: {problem}"
                for rep in run.reps for problem in rep.failures]
    failed = sum(1 for rep in run.reps if rep.failures)
    metrics["fail_rate"] = stats([failed / attempted], "share", "lower",
                                 0.0)
    metrics["fail_rate"]["n"] = attempted
    out = {"cell": WORKLOADS[run.name].cell,
           "scale": scale or WORKLOADS[run.name].scale,
           "attempted": attempted, "failed": failed, "failures": failures,
           "sim": run.reference, "metrics": metrics}
    traced = [rep.record for rep in run.reps
              if rep.kind == "traced" and rep.record is not None]
    if traced:
        layers = dict(traced[0]["layers"])
        if timed:
            untraced = metrics["hops_per_s"]["median"]
            layers["trace.overhead"] = \
                HOST_METRICS["hops_per_s"](traced[0]) / untraced
        out["layers"] = layers
        out["modules"] = traced[0]["modules"]
        out["hooks_missing"] = traced[0]["hooks_missing"]
    return out


def chrome_trace(runs: Dict[str, WorkloadRun]) -> dict:
    """Chrome trace-event JSON of the traced reps: a ``rep`` span per
    rep with its import/build/run/verdict phases and build children,
    all sharing the rep id; one track per workload."""
    events = []
    for tid, run in enumerate(runs.values()):
        events.append({"ph": "M", "name": "thread_name", "pid": 0,
                       "tid": tid, "args": {"name": run.name}})
        for index, rep in enumerate(run.reps):
            if rep.kind != "traced" or rep.record is None:
                continue
            rep_id = f"{run.name}#{index}"
            offset = rep.record["offset_s"]
            spans = [("rep", rep.start, rep.start + rep.elapsed, None)]
            for name, start, end in rep.record["spans"]:
                parent = ("rep" if name in ("import", "build", "run",
                                            "verdict") else "build")
                spans.append((name, offset + start, offset + end, parent))
            for name, start, end, parent in spans:
                events.append({
                    "ph": "X", "name": name, "cat": "perf", "pid": 0,
                    "tid": tid, "ts": start * 1e6,
                    "dur": max(0.0, end - start) * 1e6,
                    "args": {"rep": rep_id, "parent": parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"format": "repro-perf-trace/1"}}


def result_line(summary: dict, bench: dict, trace: bool) -> dict:
    """The contract's last line: end-to-end metrics (``--trace 0``) or
    per-layer metrics (``--trace 1``), each ``{value, unit}``."""
    workloads = summary["workloads"]
    single = len(workloads) == 1
    defs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for wname, w in workloads.items():
        values = (w.get("layers", {}) if trace else
                  {k: v["median"] for k, v in w["metrics"].items()})
        for metric in defs:
            if metric["name"] in values:
                key = metric["name"] if single \
                    else f"{wname}.{metric['name']}"
                metrics[key] = {"value": values[metric["name"]],
                                "unit": metric["unit"]}
    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_summary(summary: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, w in summary["workloads"].items():
        n = w["metrics"].get("hops_per_s", {}).get("n", 0)
        print(f"{name}: {n} timed reps, {w['failed']}/{w['attempted']} "
              "reps failed")
        for failure in w["failures"]:
            print(f"  FAILED {failure}")
        for metric, s in w["metrics"].items():
            print(f"  {metric:<28s} {s['median']:>14.6g} {s['unit']:<9s}"
                  f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")
        for metric, value in w.get("layers", {}).items():
            print(f"  {metric:<28s} {value:>14.6g} {units.get(metric, '')}")


# -- compare -------------------------------------------------------------


def iqr_share(s: dict) -> float:
    spread = s["q3"] - s["q1"]
    if spread == 0:
        return 0.0
    return spread / abs(s["median"]) if s["median"] else float("inf")


def verdict(parent: dict, change: dict) -> str:
    """better / worse / unchanged / unresolved for one metric, by the
    parent's bound and direction.

    A relative bound (``BENCHMARK.json``) flags a move beyond the bound,
    and the verdict is unresolved when either side's quartile spread is
    wider than the bound.  Bound 0 (the exact QoS metrics, fail_rate)
    flags any change."""
    bound = parent["bound"]
    p, c = parent["median"], change["median"]
    sign = 1.0 if parent["better"] == "higher" else -1.0
    if bound == 0:
        gain = sign * (c - p)
    else:
        if iqr_share(parent) > bound or iqr_share(change) > bound:
            return "unresolved"
        gain = sign * (c - p) / abs(p) if p else 0.0
        if abs(gain) <= bound:
            return "unchanged"
    if gain == 0:
        return "unchanged"
    return "better" if gain > 0 else "worse"


def compare(parent: dict, change: dict) -> List[dict]:
    rows = []
    for wname, pw in parent["workloads"].items():
        cw = change["workloads"].get(wname)
        if cw is None:
            continue
        for name, ps in pw["metrics"].items():
            cs = cw["metrics"].get(name)
            if cs is None:
                continue
            delta = ((cs["median"] - ps["median"]) / abs(ps["median"])
                     if ps["median"] else 0.0)
            rows.append({"workload": wname, "metric": name,
                         "unit": ps["unit"], "parent": ps, "change": cs,
                         "delta": delta,
                         "verdict": verdict(ps, cs)})
    return rows


def print_compare(rows: List[dict]) -> None:
    def side(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
    print(f"{'workload':<18s} {'metric':<28s} {'parent med [q1, q3]':>36s} "
          f"{'change med [q1, q3]':>36s} {'delta':>8s}  verdict")
    for row in rows:
        print(f"{row['workload']:<18s} {row['metric']:<28s} "
              f"{side(row['parent']):>36s} {side(row['change']):>36s} "
              f"{row['delta']:>+8.1%}  {row['verdict']}")


# -- entry point ---------------------------------------------------------


def parse_args(argv, bench: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="timed rep wall per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced rep; the result line "
                             "then carries the per-layer metrics")
    parser.add_argument("--scale", type=int, default=None,
                        help="override every workload's scale")
    parser.add_argument("--out", help="write the full record (JSON)")
    parser.add_argument("--chrome-trace",
                        help="write the traced reps' spans (Chrome JSON)")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    if args.chrome_trace and not args.trace:
        parser.error("--chrome-trace needs --trace 1")
    if args.scale is not None and args.scale < 1:
        parser.error("--scale must be >= 1")
    return args


def main(argv=None) -> int:
    try:
        bench = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as error:
        print(f"cannot read {BENCHMARK.name}: {error}", file=sys.stderr)
        return 2
    args = parse_args(argv, bench)
    if args.compare:
        parent, change = (json.loads(Path(p).read_text())
                          for p in args.compare)
        rows = compare(parent, change)
        print_compare(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    names = args.workload or list(WORKLOADS)
    expected = json.loads(EXPECTED.read_text())
    header = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace,
              "warnings": []}
    try:
        runs = measure(names, args.seed, args.scale, args.seconds,
                       bool(args.trace), expected, header)
    except NoProgram as error:
        print(error, file=sys.stderr)
        return 2
    header["code_fingerprint"] = next(
        (rep.record["code_fingerprint"] for run in runs.values()
         for rep in run.reps if rep.record is not None), None)
    summary = {"schema": "repro-perf/1", "header": header,
               "workloads": {name: summarize(run, bench, args.scale)
                             for name, run in runs.items()}}
    for warning in header["warnings"]:
        print(f"WARNING: {warning}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.chrome_trace:
        Path(args.chrome_trace).write_text(json.dumps(chrome_trace(runs)))
    print_summary(summary, bench)
    result = result_line(summary, bench, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
