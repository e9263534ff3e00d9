"""Chrome-trace-event / Perfetto export of a search trace.

``repro trace run.jsonl --perfetto out.json`` turns a JSONL search
trace (schema v2, :mod:`repro.search.trace`) into the Trace Event
Format that ``chrome://tracing`` and https://ui.perfetto.dev load
directly: the batch is one process, every tuning job is a thread, and
each evaluation is a span with its compile passes nested inside.

Span reconstruction: trace events carry only their *completion* time
``t`` plus a ``wall`` duration, so an eval span is ``[t - wall, t]``.
Candidate fan-out records worker evals back-to-back in ask-order with
overlapping wall windows; since Trace-Event ``B``/``E`` pairs on one
thread must nest, sibling spans are clamped to be sequential (each
starts no earlier than its predecessor ends) and children are clamped
inside their parent.  The timeline is therefore faithful in *ordering
and duration attribution*, not in exact wall-clock overlap — which is
what a span viewer needs.

Every ``B`` has a matching ``E`` on the same pid/tid (unclosed spans —
a trace truncated mid-job — are closed at the last event time), and
all output is strict JSON (the trace layer already sanitized
non-finite floats).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional

_PID = 1
_ENGINE_TID = 0

#: event kinds rendered as zero-duration instants on the job's track
_INSTANT = {"cache-hit", "round", "phase", "pool-broken"}


def _span(name: str, cat: str, start: float, end: Optional[float],
          args: Dict) -> Dict:
    return {"name": name, "cat": cat, "start": start, "end": end,
            "args": args, "children": []}


def _lay_passes(span: Dict, passes: List[Dict]) -> None:
    """Place pass spans sequentially from the eval's start, scaled down
    only when their summed wall exceeds the eval window (the window
    also covers the timing run, so normally they fit)."""
    window = max(span["end"] - span["start"], 0.0)
    walls = [max(float(p.get("wall") or 0.0), 0.0) for p in passes]
    total = sum(walls)
    scale = (window / total) if total > window and total > 0 else 1.0
    cursor = span["start"]
    for p, wall in zip(passes, walls):
        dur = wall * scale
        args = {k: v for k, v in p.items()
                if k not in ("t", "event", "job", "params")}
        span["children"].append(
            _span(p.get("pass", "?"), "pass", cursor, cursor + dur, args))
        cursor += dur


def export_perfetto(events: List[Dict]) -> Dict:
    """Convert trace events into a Trace-Event-Format document
    (``{"traceEvents": [...], "displayTimeUnit": "ms"}``)."""
    times = [ev["t"] for ev in events
             if isinstance(ev.get("t"), (int, float))]
    t0 = min(times) if times else 0.0
    t_last = max(times) if times else 0.0

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    tids: Dict[str, int] = {}          # job key -> tid, first-seen order

    def tid_of(job: Optional[str]) -> int:
        if not job:
            return _ENGINE_TID
        if job not in tids:
            tids[job] = len(tids) + 1
        return tids[job]

    # per-tid span forest + instants, built in one chronological scan
    roots: Dict[int, List[Dict]] = {}
    open_job: Dict[int, Dict] = {}     # tid -> currently open job span
    last_eval: Dict[int, Dict] = {}
    pending_passes: Dict[int, List[Dict]] = {}
    instants: List[Dict] = []
    batch_span: Optional[Dict] = None

    for ev in events:
        kind = ev.get("event")
        t = ev.get("t")
        if not isinstance(t, (int, float)):
            continue
        tid = tid_of(ev.get("job"))
        if kind == "batch-start":
            batch_span = _span("batch", "batch", t, None,
                               {"njobs": ev.get("njobs")})
            roots.setdefault(_ENGINE_TID, []).append(batch_span)
        elif kind == "batch-end":
            if batch_span is not None and batch_span["end"] is None:
                batch_span["end"] = t
                batch_span["args"].update(
                    {k: ev.get(k) for k in ("completed", "errors",
                                            "evaluations", "cache_hits")})
        elif kind == "job-start":
            span = _span(ev.get("job") or "job", "job", t, None,
                         {k: ev.get(k) for k in ("kernel", "machine",
                                                 "context", "n", "space",
                                                 "strategy", "seed")})
            roots.setdefault(tid, []).append(span)
            open_job[tid] = span
        elif kind in ("job-end", "job-error"):
            span = open_job.pop(tid, None)
            if span is not None and span["end"] is None:
                span["end"] = t
                span["args"].update(
                    {k: ev.get(k) for k in ("best_cycles", "evaluations",
                                            "mflops", "error")
                     if ev.get(k) is not None})
            elif kind == "job-error":
                instants.append({"name": "job-error", "ph": "i", "s": "t",
                                 "ts": us(t), "pid": _PID, "tid": tid,
                                 "args": {"error": ev.get("error")}})
        elif kind == "pass":
            pending_passes.setdefault(tid, []).append(ev)
        elif kind == "eval":
            wall = max(float(ev.get("wall") or 0.0), 0.0)
            span = _span("eval", "eval", t - wall, t,
                         {k: ev.get(k) for k in ("params", "cycles",
                                                 "status", "fast", "phase")})
            _lay_passes(span, pending_passes.pop(tid, []))
            parent = open_job.get(tid)
            (parent["children"] if parent is not None
             else roots.setdefault(tid, [])).append(span)
            last_eval[tid] = span
        elif kind == "attribution":
            ev_span = last_eval.get(tid)
            if ev_span is not None:
                ev_span["args"]["attribution"] = {
                    k: v for k, v in ev.items()
                    if k not in ("t", "event", "job", "phase", "params")}
        elif kind in _INSTANT:
            args = {k: v for k, v in ev.items() if k not in ("t", "event")}
            instants.append({"name": kind, "ph": "i", "s": "t",
                             "ts": us(t), "pid": _PID, "tid": tid,
                             "args": args})

    for span in open_job.values():      # truncated trace: close at end
        if span["end"] is None:
            span["end"] = t_last
    if batch_span is not None and batch_span["end"] is None:
        batch_span["end"] = t_last

    out: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID,
         "args": {"name": "repro tune"}},
        {"name": "thread_name", "ph": "M", "pid": _PID,
         "tid": _ENGINE_TID, "args": {"name": "engine"}}]
    for job, tid in tids.items():
        out.append({"name": "thread_name", "ph": "M", "pid": _PID,
                    "tid": tid, "args": {"name": job}})

    def serialize(span: Dict, lo: float, hi: float, tid: int) -> float:
        b = min(max(span["start"], lo), hi)
        e = min(max(span["end"], b), hi)
        out.append({"name": span["name"], "cat": span["cat"], "ph": "B",
                    "ts": us(b), "pid": _PID, "tid": tid,
                    "args": span["args"]})
        cursor = b
        for child in span["children"]:
            cursor = serialize(child, cursor, e, tid)
        out.append({"name": span["name"], "cat": span["cat"], "ph": "E",
                    "ts": us(e), "pid": _PID, "tid": tid})
        return e

    for tid, spans in sorted(roots.items()):
        cursor = -float("inf")
        for span in spans:
            cursor = serialize(span, cursor, float("inf"), tid)
    out.extend(instants)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_perfetto(events: List[Dict], path: str) -> Dict:
    """Export ``events`` and write the JSON document to ``path``."""
    doc = export_perfetto(events)
    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc) + "\n")
    return doc
