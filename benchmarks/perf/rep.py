"""One benchmark rep: build and run one workload, print one JSON line.

Run as a child process of ``run.py`` (``PYTHONPATH=src``), once per
rep, so every rep pays the import and build a user pays::

    python benchmarks/perf/rep.py --workload mesh-be-saturated --seed 0

The rep times three calls into the public API with ``perf_counter``:
``import repro.scenarios``; ``ScenarioRunner(spec)`` followed by
``.build()``; and ``.run()``, whose total minus ``result.wall_s`` is the
verdict time (fingerprint, verdicts, result assembly).  It then reports
the simulated outputs the parent checks (fingerprint, flit hops,
simulated ns, verdict, the QoS numbers) and its own peak RSS.

``--traced`` is the per-layer run: observability on
(``ObsConfig(metrics=True, profile=...)``) with :class:`LayerProfiler`
as the kernel profiler, plus timing wrappers around a few public calls,
all installed from this file.  Its host timings are inflated by the
instrumentation; only its per-layer numbers are used.

Exit codes: 0 rep ran (the JSON says whether it passed), 1 the rep
raised (an import error inside the program included), 3 there is no
``repro`` package to import.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import make_spec  # noqa: E402

#: Exit code for "the program under test is not importable here".
EXIT_NO_PROGRAM = 3

#: Layers of the architecture map (docs/architecture.md) whose run-phase
#: self time the traced rep reports, and the core/ modules broken out.
LAYERS = ("sim", "core", "network", "traffic", "scenarios", "backends")
CORE_MODULES = ("be_router", "link_arbiter", "router", "output_port")

#: Module the kernel's own loop time (scheduler pops, bookkeeping) is
#: charged to.
KERNEL_MODULE = "repro.sim.kernel"


def module_of_file(filename: str) -> str:
    """Dotted module name of a source file under a ``repro`` package
    (``.../repro/core/router.py`` -> ``repro.core.router``); the bare
    file name when it lies outside the package."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return filename
    index = len(parts) - 1 - parts[::-1].index("repro")
    names = [p for p in parts[index:] if p != "__init__"]
    return ".".join(names)


class LayerProfiler:
    """Kernel profiler (the ``record(fn, s)`` / ``overhead(s)`` duck type
    ``Simulator(profile=...)`` accepts) that charges each dispatch to the
    source module of its site: ``type(owner).__module__`` for a bound
    method, the generator's ``co_filename`` for a process resume, and
    ``__module__`` for a plain function.  Timing is inclusive per
    dispatch, as the kernel measures it."""

    def __init__(self):
        #: module -> [dispatches, seconds]
        self.modules: Dict[str, List] = {}
        self._files: Dict[str, str] = {}

    def site_module(self, fn: Callable) -> str:
        while isinstance(fn, functools.partial):
            fn = fn.func
        owner = getattr(fn, "__self__", None)
        if owner is None:
            return getattr(fn, "__module__", None) or repr(fn)
        code = getattr(getattr(owner, "_generator", None), "gi_code", None)
        if code is None:
            return type(owner).__module__
        filename = code.co_filename
        module = self._files.get(filename)
        if module is None:
            module = self._files[filename] = module_of_file(filename)
        return module

    def record(self, fn: Callable, seconds: float) -> None:
        module = self.site_module(fn)
        entry = self.modules.get(module)
        if entry is None:
            self.modules[module] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def overhead(self, seconds: float) -> None:
        entry = self.modules.setdefault(KERNEL_MODULE, [0, 0.0])
        entry[1] += seconds

    def reset(self) -> None:
        self.modules.clear()

    def layer_seconds(self) -> Dict[str, float]:
        """Seconds per layer (``core``) and per core module
        (``core.router``); modules outside ``repro`` are left out."""
        out: Dict[str, float] = {}
        for module, (_calls, seconds) in self.modules.items():
            parts = module.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            for depth in (2, 3):
                if len(parts) >= depth:
                    key = ".".join(parts[1:depth])
                    out[key] = out.get(key, 0.0) + seconds
        return out

    @property
    def dispatches(self) -> int:
        return sum(entry[0] for entry in self.modules.values())


class Hooks:
    """Timing wrappers around public calls, installed on the classes for
    the traced rep (the process ends after one rep, so nothing is
    restored).

    A hook whose class or method no longer exists is listed in
    :attr:`missing` instead of failing the rep: the hooks reach into
    internals that later refactors may rename, and the timed reps must
    keep running when they do."""

    def __init__(self):
        #: name -> [(start, end)] perf_counter intervals
        self.spans: Dict[str, List[Tuple[float, float]]] = {}
        self.open_ns: List[float] = []
        self.occupancy_max = 0
        self.queue_depth_max = 0
        self.missing: List[str] = []

    def _install(self, module: str, cls_name: str, method: str,
                 make: Callable[[Callable], Callable]) -> None:
        try:
            cls = getattr(__import__(module, fromlist=[cls_name]), cls_name)
            original = getattr(cls, method)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{cls_name}.{method}")
            return
        setattr(cls, method, functools.wraps(original)(make(original)))

    def _timed(self, name: str) -> Callable[[Callable], Callable]:
        spans = self.spans.setdefault(name, [])

        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    spans.append((start, perf_counter()))
            return wrapper
        return make

    def install(self, backend_cls: type, allocator_cls: type) -> None:
        for cls, method, name in (
                (backend_cls, "build_network", "build_network"),
                (backend_cls, "open_connection", "open_connection"),
                (allocator_cls, "allocate", "allocate")):
            self._install(cls.__module__, cls.__name__, method,
                          self._timed(name))
        self._install("repro.traffic.workload", "UniformBeWorkload",
                      "__init__", self._timed("workload_build"))
        hooks = self

        def timed_open(original):
            # ConnectionManager.open is a sub-generator: time it in
            # simulated ns across the ``yield from``.
            def wrapper(manager, *args, **kwargs):
                start = manager.sim.now
                conn = yield from original(manager, *args, **kwargs)
                hooks.open_ns.append(manager.sim.now - start)
                return conn
            return wrapper

        def high_water(attr: str, depth: Callable):
            def make(original):
                def wrapper(obj, *args, **kwargs):
                    result = original(obj, *args, **kwargs)
                    value = depth(obj)
                    if value > getattr(hooks, attr):
                        setattr(hooks, attr, value)
                    return result
                return wrapper
            return make

        self._install("repro.network.connection", "ConnectionManager",
                      "open", timed_open)
        # A VC slot's occupancy only grows on an accept, so reading it
        # after each accept gives the exact high-water mark.
        self._install("repro.core.output_port", "VcSlot", "accept",
                      high_water("occupancy_max", lambda s: s.occupancy))
        self._install("repro.backends.graphnet", "FairShareLink", "enqueue",
                      high_water("queue_depth_max",
                                 lambda f: len(f.be_queue) + sum(
                                     len(q) for q in f.gs_queues.values())))

    def seconds(self, name: str) -> float:
        return sum(end - start for start, end in self.spans.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))


def _sum(values: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in values.items() if k.endswith(suffix))


def _finite(value: float) -> Optional[float]:
    return None if value is None or math.isnan(value) else value


def exact_metrics(result) -> Dict[str, Optional[float]]:
    """The simulated QoS numbers (repeat exactly for a given seed)."""
    slack = [v.latency_bound_ns - v.observed_max_latency_ns
             for v in result.gs if v.latency_checked]
    delivered = sum(v.delivered for v in result.gs)
    return {
        "gs_slack_min_ns": min(slack) if slack else None,
        "be_latency_p50_ns": _finite(result.latency_p50_ns),
        "be_latency_p99_ns": _finite(result.latency_p99_ns),
        "gs_throughput_flits_per_ns": (delivered / result.sim_ns
                                       if result.gs and result.sim_ns
                                       else None),
    }


def layer_metrics(result, profiler: LayerProfiler, hooks: Hooks,
                  times: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer number of the traced rep (``trace.overhead`` is
    added by the parent, which knows the untraced hops/s)."""
    snapshot = result.metrics or {}
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    layers = profiler.layer_seconds()
    run_s = result.wall_s
    attributed = sum(v for k, v in layers.items() if "." not in k)
    batched = counters.get("fabric.batched_hops", 0)
    opens = sorted(hooks.open_ns)
    out = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    out.update({f"core.{m}.self_s": layers.get(f"core.{m}", 0.0)
                for m in CORE_MODULES})
    out.update({
        "core.be_credit_stalls": _sum(counters, ".credit_stalls"),
        "core.arbiter_grants": sum(v for k, v in counters.items()
                                   if k.startswith("arbiter.")),
        "core.arbiter_busy_ns": _sum(gauges, ".busy_ns"),
        "core.vc_sharebox_rotations": _sum(counters, ".sharebox_rotations"),
        "core.vc_occupancy_max": hooks.occupancy_max,
        "core.config_commands": _sum(counters, ".config_commands"),
        "network.link_gs_flits": sum(v for k, v in counters.items()
                                     if k.startswith("link.")
                                     and k.endswith(".gs_flits")),
        "network.link_be_flits": _sum(counters, ".be_flits"),
        "network.link_unlocks": _sum(counters, ".unlocks"),
        "network.gs_opens": len(opens),
        "network.gs_open_p50_ns": median(opens) if opens else 0.0,
        "sim.dispatches": profiler.dispatches,
        "sim.events": result.events,
        "backends.fabric_batched_hops": batched,
        "backends.fabric_batch_share": (batched / result.flit_hops
                                        if result.flit_hops else 0.0),
        "backends.fabric_queue_depth_max": hooks.queue_depth_max,
        "backends.build_network_s": hooks.seconds("build_network"),
        "backends.open_connection_s": hooks.seconds("open_connection"),
        "traffic.workload_build_s": hooks.seconds("workload_build"),
        "alloc.allocate_calls": hooks.calls("allocate"),
        "alloc.allocate_s": hooks.seconds("allocate"),
        "scenarios.import_s": times["import_s"],
        "scenarios.build_s": times["build_s"],
        "scenarios.verdict_s": times["verdict_s"],
        "layer.unattributed_share": (max(0.0, run_s - attributed) / run_s
                                     if run_s > 0 else 0.0),
    })
    return out


def run_rep(workload: str, seed: int, traced: bool,
            scale: Optional[int] = None) -> Dict:
    t0_epoch = time.time()
    t_import = perf_counter()
    try:
        import repro.scenarios as scenarios
    except ModuleNotFoundError as error:
        # Only a missing ``repro`` package means there is no program; an
        # import that fails inside it is a broken program, a failed rep.
        if error.name != "repro":
            raise
        print(f"cannot import the program under test: {error}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    t_imported = perf_counter()
    spec = make_spec(workload, seed, scenarios.registry.get, scale)
    obs = profiler = hooks = None
    if traced:
        from repro.alloc import get_allocator
        from repro.backends import backend_for_topology
        from repro.obs import ObsConfig
        profiler = LayerProfiler()
        hooks = Hooks()
        hooks.install(type(backend_for_topology(spec.topology)),
                      type(get_allocator("xy")))
        obs = ObsConfig(metrics=True, profile=profiler)
    t_build = perf_counter()
    runner = scenarios.ScenarioRunner(spec, obs=obs)
    runner.build()
    t_run = perf_counter()
    if profiler is not None:
        profiler.reset()         # attribute the run phase only
    result = runner.run()
    t_end = perf_counter()
    times = {
        "import_s": t_imported - t_import,
        "build_s": t_run - t_build,
        "run_s": result.wall_s,
        "verdict_s": (t_end - t_run) - result.wall_s,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "t0_epoch": t0_epoch,
        **times,
        "wall_s": (t_imported - t_import) + (t_end - t_build),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ns": result.sim_ns,
        "flit_hops": result.flit_hops,
        "events": result.events,
        "fingerprint": result.fingerprint,
        "passed": result.passed,
        "failures": result.failures(),
        "exact": exact_metrics(result),
        "code_fingerprint": scenarios.fleet.code_fingerprint(),
    }
    if traced:
        record["layers"] = layer_metrics(result, profiler, hooks, times)
        record["modules"] = {m: s for m, (_c, s)
                             in sorted(profiler.modules.items())}
        record["hooks_missing"] = hooks.missing
        spans = [("import", t_import, t_imported),
                 ("build", t_build, t_run),
                 ("run", t_run, t_run + result.wall_s),
                 ("verdict", t_run + result.wall_s, t_end)]
        spans += [(name, start, end) for name in
                  ("build_network", "open_connection", "workload_build")
                  for start, end in hooks.spans.get(name, ())
                  if end <= t_run]
        record["spans"] = [(name, start - t_import, end - t_import)
                           for name, start, end in spans]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = run_rep(args.workload, args.seed, args.traced, args.scale)
    except Exception:  # the parent counts the rep failed, with this reason
        traceback.print_exc()
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
