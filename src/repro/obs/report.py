"""Markdown run report — ``repro report <trace>``.

Renders a recorded search trace (schema v2) into the run report a
human asks for after a batch: where the wall time went per job and
phase, what each compile pass cost across the whole run, and — the
paper's Figure-7 analogue — how the timing model attributes the best
kernel's cycles to compute, memory stalls and wasted prefetches.

The report degrades gracefully: a v1 trace (no ``pass`` /
``attribution`` events, i.e. recorded without ``--observe``) still
gets the phase breakdown, result and cache sections, with a note on
how to capture the rest.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional


def _f(x, digits: int = 1) -> str:
    if x is None:
        return "-"
    return f"{x:,.{digits}f}"


def _pct(part, whole) -> str:
    if not whole:
        return "-"
    return f"{100.0 * part / whole:.1f}%"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_report(events: List[Dict], title: Optional[str] = None) -> str:
    from ..search.trace import summarize_trace
    summary = summarize_trace(events)

    lines = [f"# {title or 'repro tuning run report'}", ""]
    if summary.get("malformed_lines"):
        lines += [f"> **WARNING**: {summary['malformed_lines']} malformed "
                  f"trace line(s) were skipped; totals below may "
                  f"undercount.", ""]
    n_evals = summary["evaluations"]
    n_hits = summary["cache_hits"]
    lines += [f"- events: {summary['n_events']}",
              f"- evaluations: {n_evals} "
              f"(+ {n_hits} cache hits, "
              f"hit rate {100.0 * summary['cache_hit_rate']:.1f}%)",
              f"- evaluation wall time: {summary['eval_wall']:.2f}s "
              f"({summary['evals_per_sec']:.1f} evals/s)",
              ""]

    # -- per-job wall-time breakdown by phase ---------------------------
    by_job: "OrderedDict[str, OrderedDict[str, List[float]]]" = OrderedDict()
    for ev in events:
        if ev.get("event") != "eval":
            continue
        job = ev.get("job") or "?"
        phase = ev.get("phase") or "?"
        cell = by_job.setdefault(job, OrderedDict()).setdefault(
            phase, [0, 0.0])
        cell[0] += 1
        cell[1] += ev.get("wall") or 0.0
    lines += ["## Per-job phase breakdown", ""]
    if by_job:
        rows = []
        for job, phases in by_job.items():
            job_wall = sum(w for _, w in phases.values())
            for phase, (n, wall) in phases.items():
                rows.append([job, phase, str(n), f"{wall:.3f}",
                             _pct(wall, job_wall)])
        lines += _table(["Job", "Phase", "Evals", "Wall (s)",
                         "Job share"], rows)
    else:
        lines.append("No evaluations recorded.")
    lines.append("")

    # -- pass-pipeline cost (observe-only) ------------------------------
    passes: "OrderedDict[str, List]" = OrderedDict()
    for ev in events:
        if ev.get("event") != "pass":
            continue
        agg = passes.setdefault(ev.get("pass", "?"), [0, 0, 0.0, 0])
        agg[0] += 1
        agg[1] += 1 if ev.get("applied") else 0
        agg[2] += ev.get("wall") or 0.0
        agg[3] += ev.get("d_instrs") or 0
    lines += ["## Pass pipeline cost", ""]
    if passes:
        total_wall = sum(a[2] for a in passes.values())
        rows = [[name, str(a[0]), str(a[1]), f"{a[2] * 1e3:.2f}",
                 _pct(a[2], total_wall), f"{a[3]:+d}"]
                for name, a in sorted(passes.items(),
                                      key=lambda kv: (-kv[1][2], kv[0]))]
        lines += _table(["Pass", "Runs", "Applied", "Wall (ms)",
                         "Share", "Net Δinstrs"], rows)
    else:
        lines.append("No pass telemetry in this trace — record one with "
                     "`--observe` to get the per-pass cost table.")
    lines.append("")

    # -- cycle attribution of each job's best kernel (Figure-7 analogue)
    best_params: Dict[str, Optional[str]] = {}
    for ev in events:
        if ev.get("event") == "job-end" and ev.get("job"):
            best_params[ev["job"]] = ev.get("params")
    attribution: "OrderedDict[str, Dict]" = OrderedDict()
    for ev in events:
        if ev.get("event") != "attribution" or not ev.get("job"):
            continue
        job = ev["job"]
        # the winner's attribution if we saw it; otherwise the last one
        if job not in attribution \
                or best_params.get(job) is None \
                or ev.get("params") == best_params.get(job):
            attribution[job] = ev
    lines += ["## Cycle attribution (best kernel per job)", ""]
    if attribution:
        rows = []
        pf_rows = []
        for job, ev in attribution.items():
            total = ev.get("total") or 0
            tag = ("" if best_params.get(job) is None
                   or ev.get("params") == best_params.get(job)
                   else " (last evaluated)")
            rows.append([job + tag, _f(total, 0),
                         _pct(ev.get("compute") or 0, total),
                         _pct(ev.get("memory_stall") or 0, total),
                         _pct(ev.get("prefetch_waste") or 0, total),
                         _pct(ev.get("other") or 0, total)])
            pf_rows.append([job, _f(ev.get("prefetch_issued"), 0),
                            _f(ev.get("prefetch_dropped"), 0),
                            _f(ev.get("prefetch_wasted"), 0),
                            _f(ev.get("demand_misses"), 0),
                            _f(ev.get("hw_prefetches"), 0),
                            _f(ev.get("bus_busy"), 0)])
        lines += _table(["Job", "Total cycles", "Compute",
                         "Memory stall", "Prefetch waste", "Other"], rows)
        lines += ["", "Prefetch and bus behaviour:", ""]
        lines += _table(["Job", "PF issued", "PF dropped", "PF wasted",
                         "Demand misses", "HW prefetches",
                         "Bus busy (cy)"], pf_rows)
        lines += ["", "Memory-stall and prefetch-waste cycles overlap by "
                  "design: a wasted prefetch shows up both as bus "
                  "occupancy and (indirectly) as stall.", ""]
    else:
        lines += ["No attribution telemetry in this trace — record one "
                  "with `--observe` to get the cycle breakdown.", ""]

    # -- TILE phase (Level-3 blocked nests) -----------------------------
    # Rendered only when the trace carries TILE-phase activity, so
    # Level-1/2 reports are byte-identical to before this section
    # existed.
    tile_jobs: "OrderedDict[str, Dict]" = OrderedDict()
    last_best: Dict[str, float] = {}
    for ev in events:
        job = ev.get("job")
        if not job:
            continue
        kind = ev.get("event")
        if kind == "round":
            if ev.get("phase") == "TILE":
                entry = tile_jobs.setdefault(
                    job, {"evals": 0, "before": last_best.get(job),
                          "after": None, "tiles": None})
                entry["after"] = ev.get("best_cycles")
            last_best[job] = ev.get("best_cycles")
        elif kind == "eval" and ev.get("phase") == "TILE":
            tile_jobs.setdefault(
                job, {"evals": 0, "before": last_best.get(job),
                      "after": None, "tiles": None})["evals"] += 1
        elif kind == "job-end" and job in tile_jobs:
            for tok in (ev.get("params") or "").split():
                if tok.startswith("TILE="):
                    tile_jobs[job]["tiles"] = tok[len("TILE="):]
    if tile_jobs:
        rows = []
        for job, e in tile_jobs.items():
            before, after = e["before"], e["after"]
            gain = (before / after) if before and after else None
            rows.append([job, str(e["evals"]), _f(before, 0), _f(after, 0),
                         (f"{gain:.3f}x" if gain is not None else "-"),
                         e["tiles"] or "(untiled)"])
        lines += ["## TILE phase (blocked-nest attribution)", ""]
        lines += _table(["Job", "TILE evals", "Best entering (cy)",
                         "Best after (cy)", "Gain", "Best tiles"], rows)
        lines += ["", "Gain is the best-so-far improvement across the "
                  "TILE line-search phase (cache blocking of the loop "
                  "nest); tiles are the winner's `TILE=` parameters.", ""]

    # -- cache and timing-path stats ------------------------------------
    lines += ["## Cache and timing-path stats", "",
              f"- cache hits: {n_hits} "
              f"(hit rate {100.0 * summary['cache_hit_rate']:.1f}%)",
              f"- fast path (steady-state replay): {summary['fast_path']}",
              f"- slow path (full per-line walk): {summary['slow_path']}"]
    batch = summary.get("batch") or {}
    if batch.get("prefix_hits") or batch.get("prefix_misses"):
        compiles = batch["prefix_hits"] + batch["prefix_misses"]
        lines += [f"- batch.prefix_hits: {batch['prefix_hits']} "
                  f"(reuse rate {100.0 * batch['prefix_hits'] / compiles:.1f}%"
                  f" of {compiles} compiles)",
                  f"- batch.prefix_misses: {batch['prefix_misses']}",
                  f"- batch.walk_hits (shared timing walks): "
                  f"{batch.get('walk_hits', 0)}"]
        if batch.get("groups"):
            lines.append(f"- batch.size: {batch['mean_size']:.1f} mean "
                         f"({batch['size_total']} candidates over "
                         f"{batch['groups']} prefix-sharing groups)")
    bad = {k: v for k, v in summary["statuses"].items() if k != "ok"}
    if bad:
        lines.append("- non-ok evaluations: "
                     + ", ".join(f"{k}={v}" for k, v in sorted(bad.items())))
    lines.append("")

    # -- per-job results ------------------------------------------------
    if summary["jobs"]:
        lines += ["## Results", ""]
        rows = []
        for key, j in summary["jobs"].items():
            if j["status"] == "error":
                rows.append([key, "-", "-", str(j["evaluations"]),
                             str(j["cache_hits"]),
                             f"ERROR: {j.get('error')}"])
            else:
                rows.append([key, _f(j["best_cycles"], 0),
                             _f(j["mflops"], 1), str(j["evaluations"]),
                             str(j["cache_hits"]), j["params"] or "-"])
        lines += _table(["Job", "Best cycles", "MFLOPS", "Evals",
                         "Cache hits", "Best params"], rows)
        lines.append("")
    return "\n".join(lines)
