"""Anytime-performance curves — ``repro curves``.

ROADMAP item 1 names the *fixed-budget anytime-performance curve* as
the acceptance bar for every search strategy: at each point of the
budget, how good is the best kernel the strategy could hand you if you
stopped it right there?  This module derives that curve from a search
trace and renders it per strategy so strategies are compared at equal
budget, not just at the finish line.

Two sources, one curve:

* **round events** (one per ``tell``) carry the engine's own
  best-so-far samples — ``evaluations`` charged and ``best_cycles``
  after each ask/tell round (every trace carries them, including
  those recorded beside the ``curve`` events of schema v2, which are
  ignored);
* the same trajectory is *derived* at evaluation granularity from the
  ``eval`` and ``cache-hit`` events in file order (both charge the
  searcher's budget, so the derived x-axis matches the searcher's
  accounting).

Everything here consumes any iterable of events — a materialized
:class:`~repro.search.trace.TraceEvents` list or a streaming
:class:`~repro.search.trace.TraceStream` — in a single pass.

Aggregation normalizes each job's curve to *ratio of best known*
(best cycles any strategy reached on that job, over the strategy's
best-so-far at the checkpoint — 1.0 means "already at the best known
answer"), then averages across jobs at power-of-two budget
checkpoints.  That is the ELAPS-style comparative view: one row per
strategy, comparable across kernels with wildly different absolute
cycle counts.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["collect_curves", "aggregate_curves", "render_curves_markdown",
           "curves_document"]


def collect_curves(events: Iterable[Dict]) -> "OrderedDict[str, Dict]":
    """One pass over a trace -> per-(job, strategy) convergence curves.

    Returns an ordered dict keyed ``job@strategy`` (suffixed ``#2``,
    ``#3``, ... when the same pair tunes repeatedly in one trace).
    Each entry carries:

    * ``points`` — eval-granularity improvement steps
      ``[[budget_charged, best_cycles], ...]`` (budget counts real
      evaluations *and* cache hits, matching the searcher's charging);
    * ``tells`` — the engine's per-tell round-event samples
      ``[[evaluations, best_cycles], ...]``;
    * ``evaluations`` — total budget charged;
    * ``best_cycles`` — the final best.
    """
    out: "OrderedDict[str, Dict]" = OrderedDict()
    active: Dict[str, Dict] = {}    # job key -> open entry

    def open_entry(job: str, strategy: str, seed) -> Dict:
        base = f"{job}@{strategy or '?'}"
        key, n = base, 1
        while key in out:
            n += 1
            key = f"{base}#{n}"
        entry = out[key] = {"job": job, "strategy": strategy or "?",
                            "seed": seed, "points": [], "tells": [],
                            "evaluations": 0, "best_cycles": None}
        return entry

    for ev in events:
        kind = ev.get("event")
        job = ev.get("job")
        if not job:
            continue
        if kind == "job-start":
            active[job] = open_entry(job, ev.get("strategy"),
                                     ev.get("seed"))
            continue
        entry = active.get(job)
        if entry is None:
            # trace without job-start (hand-built or truncated): open
            # an anonymous entry so the curve is still recovered
            entry = active[job] = open_entry(job, ev.get("strategy"),
                                             ev.get("seed"))
        if kind in ("eval", "cache-hit"):
            entry["evaluations"] += 1
            c = ev.get("cycles")
            if isinstance(c, (int, float)) and (
                    entry["best_cycles"] is None
                    or c < entry["best_cycles"]):
                entry["best_cycles"] = float(c)
                entry["points"].append([entry["evaluations"], float(c)])
        elif kind == "round":
            b = ev.get("best_cycles")
            n = ev.get("evaluations")
            if isinstance(b, (int, float)) and isinstance(n, (int, float)):
                entry["tells"].append([int(n), float(b)])
        elif kind in ("job-end", "job-error"):
            active.pop(job, None)
    # round events carry the budget/best trajectory too, so a trace
    # holding only them (no per-eval events) still aggregates to
    # nonzero checkpoints instead of the zero-budget "no data"
    # degenerate.  Folded only where no eval/cache-hit events were
    # seen: when both sources are present the per-eval counter is the
    # ground truth, and mixing them would double-count the budget.
    for entry in out.values():
        if entry["evaluations"]:
            continue
        for n, b in entry["tells"]:
            if n > entry["evaluations"]:
                entry["evaluations"] = int(n)
            if math.isfinite(b) and (entry["best_cycles"] is None
                                     or b < entry["best_cycles"]):
                entry["best_cycles"] = float(b)
    return out


def _best_at(points: List[List[float]], budget: int) -> Optional[float]:
    """Step-function lookup: the best value reached within ``budget``."""
    best = None
    for n, value in points:
        if n > budget:
            break
        best = value
    return best


def _checkpoints(max_budget: int) -> List[int]:
    """Power-of-two budget checkpoints, always ending at the budget."""
    out, k = [], 1
    while k < max_budget:
        out.append(k)
        k *= 2
    out.append(max_budget)
    return out


def aggregate_curves(curves: Dict[str, Dict],
                     checkpoints: Optional[List[int]] = None) -> Dict:
    """Cross-job, per-strategy anytime summary.

    For every job, the *best known* is the lowest cycle count any
    strategy reached at full budget.  At each checkpoint a strategy
    scores ``best_known / best_so_far`` on each job (in (0, 1], higher
    is better, 1.0 = converged to the best known), averaged over the
    jobs where it had charged at least one evaluation by then.
    """
    by_job_best: Dict[str, float] = {}
    for entry in curves.values():
        b = entry.get("best_cycles")
        if b is None:
            continue
        job = entry["job"]
        if job not in by_job_best or b < by_job_best[job]:
            by_job_best[job] = b

    max_budget = max((e["evaluations"] for e in curves.values()),
                     default=0)
    if not max_budget:
        return {"checkpoints": [], "strategies": {}, "jobs": 0}
    points = checkpoints or _checkpoints(max_budget)

    strategies: "OrderedDict[str, Dict]" = OrderedDict()
    for entry in curves.values():
        strategies.setdefault(entry["strategy"],
                              {"entries": []})["entries"].append(entry)

    table: "OrderedDict[str, Dict]" = OrderedDict()
    for strategy, group in strategies.items():
        row = {}
        for k in points:
            ratios = []
            for entry in group["entries"]:
                curve = entry["points"] or entry["tells"]
                best_k = _best_at(curve, k)
                best_known = by_job_best.get(entry["job"])
                if best_k and best_known and math.isfinite(best_k):
                    ratios.append(best_known / best_k)
            row[k] = (sum(ratios) / len(ratios)) if ratios else None
        table[strategy] = {"ratio_of_best": row,
                           "jobs": len(group["entries"])}
    return {"checkpoints": points, "strategies": table,
            "jobs": len(by_job_best)}


def render_curves_markdown(curves: Dict[str, Dict],
                           aggregate: Optional[Dict] = None,
                           title: str = "Anytime performance") -> str:
    """Markdown: the per-strategy anytime table plus each curve's
    improvement steps."""
    aggregate = aggregate or aggregate_curves(curves)
    lines = [f"# {title}", ""]
    points = aggregate.get("checkpoints") or []
    if points and aggregate["strategies"]:
        lines += [f"Mean ratio-of-best-known across "
                  f"{aggregate['jobs']} job(s) "
                  f"(1.000 = best answer any strategy found):", ""]
        headers = ["Strategy"] + [f"@{k}" for k in points] + ["Jobs"]
        rows = []
        for strategy, row in aggregate["strategies"].items():
            cells = [strategy]
            for k in points:
                r = row["ratio_of_best"].get(k)
                cells.append("-" if r is None else f"{r:.3f}")
            cells.append(str(row["jobs"]))
            rows.append(cells)
        lines += ["| " + " | ".join(headers) + " |",
                  "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        lines.append("")
    else:
        lines += ["No convergence data in this trace.", ""]
    for key, entry in curves.items():
        steps = entry["points"] or entry["tells"]
        lines.append(f"## {key}")
        lines.append("")
        lines.append(f"- budget charged: {entry['evaluations']}  "
                     f"best: {entry['best_cycles']}")
        if steps:
            lines.append("- improvements: "
                         + "  ".join(f"{n}→{c:.0f}cy" for n, c in steps))
        lines.append("")
    return "\n".join(lines)


def curves_document(curves: Dict[str, Dict],
                    aggregate: Optional[Dict] = None) -> Dict:
    """The JSON artifact behind ``repro curves --json`` (and the
    ``bench_strategies.py`` curves upload)."""
    return {"version": 1,
            "curves": {k: dict(v) for k, v in curves.items()},
            "aggregate": aggregate or aggregate_curves(curves)}
