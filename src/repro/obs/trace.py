"""Streaming Chrome trace-event export and text timeline rendering.

:class:`ChromeTraceSink` attaches to a :class:`~repro.sim.tracing.Tracer`
as its streaming ``sink``: it sees every record at emit time (before the
tracer's ring may shed it) and converts the per-flit timeline kinds into
Chrome trace events —

* ``inject`` / ``hop`` records carrying a ``dur_ns`` become duration
  events (``ph: "X"``): the span of a flit occupying one link;
* every other kind becomes an instant event (``ph: "i"``) — arbiter
  grants, ejects, packet deliveries.

The JSON written by :meth:`ChromeTraceSink.to_json` loads in
``chrome://tracing`` and Perfetto (each trace *source* — a link, an NA —
becomes one named track) and is **byte-deterministic**: events are
sorted by a total key and timestamps are rounded to femtosecond
granularity, so the export is identical across the plain vs profiled
drain loop and hop batching on/off.  Condensed hops re-expand to the
cycle boundaries an unbatched run fires at, differing only by float
ulps, which the rounding absorbs.  Batching does not keep the order of
same-timestamp events (``docs/kernel.md``); the total sort absorbs that.

:class:`OrderDigestSink` is the other streaming sink: it hashes every
record in *emission* order, so two runs with the same digest emitted
the same records in the same order — what the flit-hop fingerprint
(per-link counts) and the sorted Chrome export cannot see.  The golden
order digests in :mod:`repro.scenarios.golden` are taken with it.

The module also provides :func:`render_timeline` (the terminal view of a
tracer's ring) and :func:`validate_chrome_trace` (the schema check the
CI ``obs-smoke`` job runs on an exported file).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.tracing import TraceRecord, Tracer

__all__ = ["ChromeTraceSink", "OrderDigestSink", "parse_filters",
           "render_timeline", "validate_chrome_trace"]

#: Chrome trace timestamps are microseconds; simulation time is ns.
_NS_TO_US = 1e-3

#: Rounding applied to ``ts``/``dur`` (decimal digits of a microsecond):
#: 1e-9 us = 1 femtosecond.  Far below the simulation's time scale, far
#: above float-arithmetic ulp drift between batched and unbatched hop
#: delivery — the knob that makes the export byte-deterministic.
_TS_DIGITS = 9

#: Record kinds exported as duration events when they carry ``dur_ns``.
_SPAN_KINDS = frozenset({"inject", "hop"})


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class ChromeTraceSink:
    """Streaming consumer of :class:`TraceRecord` s, bounded in memory.

    ``max_events`` caps the retained event list (newest events are
    dropped past the cap, counted in :attr:`dropped`); ``sources`` /
    ``kinds`` filter at ingest, so an export of one link's records costs
    only that link's memory.
    """

    def __init__(self, max_events: int = 1_000_000,
                 sources: Optional[Iterable[str]] = None,
                 kinds: Optional[Iterable[str]] = None):
        self.max_events = max_events
        self.sources = frozenset(sources) if sources else None
        self.kinds = frozenset(kinds) if kinds else None
        #: ``(ts_us, source, name, ph, dur_us, args)`` tuples.
        self._events: List[Tuple] = []
        self.dropped = 0

    def __call__(self, record: TraceRecord) -> None:
        if self.sources is not None and record.source not in self.sources:
            return
        if self.kinds is not None and record.kind not in self.kinds:
            return
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        info = record.info
        ts = round(record.time * _NS_TO_US, _TS_DIGITS)
        dur_ns = info.get("dur_ns")
        if record.kind in _SPAN_KINDS and dur_ns is not None:
            ph = "X"
            dur = round(dur_ns * _NS_TO_US, _TS_DIGITS)
            name = str(info.get("flit", record.kind))
        else:
            ph = "i"
            dur = None
            name = record.kind
        args = {k: _json_safe(v) for k, v in info.items() if k != "dur_ns"}
        args["kind"] = record.kind
        self._events.append((ts, record.source, name, ph, dur, args))

    def __len__(self) -> int:
        return len(self._events)

    def to_payload(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (deterministically ordered)."""
        tids = {source: index for index, source in
                enumerate(sorted({ev[1] for ev in self._events}))}
        events: List[Dict[str, Any]] = []
        for source, tid in tids.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": tid, "args": {"name": source}})
        # Total order: time, then track, then a canonical serialization
        # as the final tiebreaker — emission order (which hop batching
        # may permute) never leaks into the bytes.
        for ts, source, name, ph, dur, args in sorted(
                self._events,
                key=lambda ev: (ev[0], ev[1], ev[2], ev[3],
                                json.dumps(ev[5], sort_keys=True))):
            event = {"ph": ph, "ts": ts, "pid": 0, "tid": tids[source],
                     "name": name, "cat": args["kind"], "args": args}
            if ph == "X":
                event["dur"] = dur
            else:
                event["s"] = "t"
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped": self.dropped,
                          "format": "repro-chrome-trace/1"},
        }

    def to_json(self) -> str:
        """Canonical (byte-deterministic) serialization."""
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":"))


class OrderDigestSink:
    """Streaming sha256 over every record's ``(time, source, kind,
    sorted(info))`` in emission order; :meth:`hexdigest` is its first 16
    hex characters.  ``repr`` of floats round-trips exactly, so the
    digest is the same across processes and Python versions."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def __call__(self, record: TraceRecord) -> None:
        self._sha.update(repr((record.time, record.source, record.kind,
                               sorted(record.info.items()))).encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()[:16]


def parse_filters(specs: Iterable[str]) -> Dict[str, List[str]]:
    """Parse repeated ``--filter field=value`` flags (fields: ``source``,
    ``kind``); values of the same field OR together, fields AND."""
    out: Dict[str, List[str]] = {}
    for spec in specs:
        field, sep, value = spec.partition("=")
        if not sep or field not in ("source", "kind") or not value:
            raise ValueError(
                f"bad filter {spec!r}: expected source=NAME or kind=KIND")
        out.setdefault(field, []).append(value)
    return out


def render_timeline(tracer: Tracer, limit: Optional[int] = None,
                    sources: Optional[Iterable[str]] = None,
                    kinds: Optional[Iterable[str]] = None) -> str:
    """Terminal view of a tracer's ring: the retained records (filtered,
    newest-``limit`` when capped), then a per-kind census and the ring's
    drop count — what ``python -m repro trace run <cell>`` prints when no
    ``--out`` file is named."""
    sources = frozenset(sources) if sources else None
    kinds = frozenset(kinds) if kinds else None
    records = [rec for rec in tracer.records
               if (sources is None or rec.source in sources)
               and (kinds is None or rec.kind in kinds)]
    shown = records if limit is None else records[-limit:]
    lines = [rec.format() for rec in shown]
    if len(shown) < len(records):
        lines.insert(0, f"... {len(records) - len(shown)} earlier "
                        "record(s) not shown (raise --limit)")
    counts: Dict[str, int] = {}
    for rec in records:
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
    census = ", ".join(f"{kind}={count}" for kind, count
                       in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(records)} record(s) retained "
                 f"({tracer.drop_count} shed by the ring); "
                 f"kinds: {census or 'none'}")
    return "\n".join(lines)


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema-check a loaded Chrome trace JSON object; returns the list
    of problems (empty means valid).  An export with no span (``X``) or
    instant (``i``) event is a problem too: a hop path that stops
    emitting must not pass as a valid trace."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not any(isinstance(event, dict) and event.get("ph") in ("X", "i")
               for event in events):
        problems.append("no trace events (no X or i record)")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: ph {ph!r} not one of X/i/M")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
    return problems
