#!/usr/bin/env python
"""Strategy race: every registered global-search strategy on the full
kernel x machine x context grid at equal evaluation budget.

Each grid point is tuned once per strategy through the same
:class:`TuningSession` machinery (same budget accounting, same
evaluation cache, same simulated machines), so the comparison is at
equal measured-compilation cost.  Writes
``results/BENCH_strategies.json`` with per-point best cycles, speedups
over the FKO-defaults start, and a summary of who won where.

Every strategy's session records a search trace, and the race also
emits the **anytime-performance curves** derived from them
(``results/BENCH_strategy_curves.json`` + ``.md``): mean
ratio-of-best-known per strategy at power-of-two budget checkpoints,
so strategies are compared along the whole budget, not just at the
finish line (``repro curves`` renders the same view for any trace).

The one hard failure (nonzero exit) is a *structured-search regression*:
``genetic``, ``surrogate`` or ``transfer`` losing to uniform ``random``
sampling on any grid point at equal budget.  Everything else (who wins
overall, wall time) is reported but never fails the run.

The ``transfer`` row is the surrogate run with ``TuneConfig.warm_start``
pointing at a store built from the ``random`` strategy's own results on
the same grid (the serve result-store layout, written through
``repro.search.warmstart``), so the race also exercises the neighbor
lookup and its spelling canonicalization end-to-end.  The full grid
includes blocked GEMM, whose ``tile:`` dimensions are exactly the space
the surrogate exists for.

Given several ``--seed`` or ``--budget`` values, the script instead
races the seeded strategies (random, genetic, surrogate) over every
(seed, budget) pair and writes ``results/BENCH_strategy_seeds.json``:
mean ratio-of-best per budget with its range over seeds, and pairwise
point-by-point counts of where one strategy is ahead of another by
more than the seed-to-seed spread.  That mode gates nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_strategies.py
    PYTHONPATH=src python benchmarks/bench_strategies.py --quick
    PYTHONPATH=src python benchmarks/bench_strategies.py --budget 64 --jobs 4
    PYTHONPATH=src python benchmarks/bench_strategies.py \
        --seed 0 1 2 3 4 --budget 48 96 192
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from itertools import chain

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.kernels import KERNEL_ORDER
from repro.machine import Context
from repro.obs import (aggregate_curves, collect_curves, curves_document,
                       render_curves_markdown)
from repro.search import TraceStream, TuneConfig, TuningSession

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: race rows; ``transfer`` is the surrogate behind the warm-start wrapper
STRATEGIES = ("line", "random", "genetic", "surrogate", "transfer")
#: strategies the race hard-gates against uniform random sampling
GATED = ("genetic", "surrogate", "transfer")
#: the strategies the multi-seed race compares
SEEDED = ("random", "genetic", "surrogate")

#: small enough to keep the full race to minutes, big enough that the
#: out-of-cache physics (prefetch, bus) dominates like at the paper's N
SIZES = {Context.OUT_OF_CACHE: 8000, Context.IN_L2: 1024}
#: blocked-GEMM matrix orders (full grid only): the wire-schema
#: defaults — 512 puts the working set out of cache so the tile:
#: dimensions carry real speedup, 160 keeps the operands L2-resident
GEMM_SIZES = {Context.OUT_OF_CACHE: 512, Context.IN_L2: 160}


def _grid(quick: bool):
    kernels = ["ddot", "dasum", "dcopy"] if quick else list(KERNEL_ORDER)
    machines = ["p4e"] if quick else ["p4e", "opteron"]
    for kernel in kernels:
        for machine in machines:
            for ctx, n in SIZES.items():
                yield kernel, machine, ctx, n
    if not quick:
        # blocked GEMM: the Level-3 nest whose tile: dimensions the
        # surrogate's generic feature encoding has to handle unchanged
        for machine in machines:
            for ctx, n in GEMM_SIZES.items():
                yield "dgemm", machine, ctx, n


def race(quick: bool, budget: int, seed: int, jobs: int,
         trace_dir: pathlib.Path):
    from repro.search import write_warm_entry

    grid = {}
    walls = {}
    traces = []
    warm_dir = trace_dir / "warmstore"
    for strategy in STRATEGIES:
        trace = trace_dir / f"race_{strategy}.jsonl"
        traces.append(trace)
        transfer = strategy == "transfer"
        cfg = TuneConfig(strategy="surrogate" if transfer else strategy,
                         seed=seed, max_evals=budget,
                         run_tester=False, jobs=jobs, trace=str(trace),
                         # transfer warm-starts from random's results on
                         # this very grid (written below), so its gate
                         # below is also an end-to-end check of the
                         # neighbor lookup's canonicalization
                         warm_start=str(warm_dir) if transfer else None)
        t0 = time.perf_counter()
        with TuningSession(cfg) as session:
            for kernel, machine, ctx, n in _grid(quick):
                r = session.tune(kernel, machine, ctx, n).search
                point = grid.setdefault(
                    f"{kernel}:{machine}:{ctx.value}:{n}",
                    {"start_cycles": r.start_cycles})
                point[strategy] = {
                    "best_cycles": r.best_cycles,
                    "n_evaluations": r.n_evaluations,
                    "speedup_over_start": round(r.speedup_over_start, 4),
                }
                if strategy == "random":
                    write_warm_entry(warm_dir, kernel=kernel,
                                     machine=machine, context=ctx, n=n,
                                     params=r.best_params,
                                     cycles=r.best_cycles)
        walls[strategy] = round(time.perf_counter() - t0, 2)
    return grid, walls, traces


def summarize(grid):
    wins = dict.fromkeys(STRATEGIES, 0)
    regressions = []
    for key, point in sorted(grid.items()):
        best = min(point[s]["best_cycles"] for s in STRATEGIES)
        for s in STRATEGIES:
            if point[s]["best_cycles"] == best:
                wins[s] += 1
        for s in GATED:
            if point[s]["best_cycles"] > point["random"]["best_cycles"]:
                regressions.append({
                    "point": key, "strategy": s,
                    "best_cycles": point[s]["best_cycles"],
                    "random_cycles": point["random"]["best_cycles"]})
    return {"points": len(grid), "wins_or_ties": wins,
            "random_regressions": regressions}


def seed_race(quick: bool, budgets, seeds, jobs: int,
              cache_dir: pathlib.Path):
    """Best cycles per strategy, budget, seed and grid point.  One
    session per (strategy, seed) runs every budget; the eval cache is
    shared by all of them, which changes no cycle count."""
    best = {}
    for strategy in SEEDED:
        for seed in seeds:
            cfg = TuneConfig(strategy=strategy, seed=seed, run_tester=False,
                             jobs=jobs, cache_dir=str(cache_dir))
            with TuningSession(cfg) as session:
                for budget in budgets:
                    row = best.setdefault(strategy, {}).setdefault(
                        budget, {}).setdefault(seed, {})
                    for kernel, machine, ctx, n in _grid(quick):
                        r = session.tune(kernel, machine, ctx, n,
                                         max_evals=budget).search
                        row[f"{kernel}:{machine}:{ctx.value}:{n}"] = \
                            r.best_cycles
    return best


def seed_summary(best, budgets, seeds):
    """The seeds table and the pairwise counts.

    A point's best-known cycles is the minimum over every run of every
    seeded strategy, seed and budget; a run's ratio-of-best at that
    point is best-known divided by the run's best.  At each budget, a
    strategy is *ahead* of another at a point when its mean ratio over
    seeds beats the other's by more than the larger of the two seed
    ranges (the range rule) or of the two interquartile distances (the
    quartile rule)."""
    points = sorted(best[SEEDED[0]][budgets[0]][seeds[0]])
    known = {p: min(best[s][b][seed][p] for s in SEEDED for b in budgets
                    for seed in seeds) for p in points}

    def ratios(strategy, budget):     # seeds x points
        return np.array([[known[p] / best[strategy][budget][seed][p]
                          for p in points] for seed in seeds])

    table, pairwise = {}, {}
    for budget in budgets:
        r = {s: ratios(s, budget) for s in SEEDED}
        per_seed = {s: r[s].mean(axis=1) for s in SEEDED}
        table[budget] = {s: {"mean": round(float(per_seed[s].mean()), 4),
                             "min": round(float(per_seed[s].min()), 4),
                             "max": round(float(per_seed[s].max()), 4)}
                         for s in SEEDED}
        mean = {s: r[s].mean(axis=0) for s in SEEDED}
        spread = {s: r[s].max(axis=0) - r[s].min(axis=0) for s in SEEDED}
        iqr = {s: np.subtract(*np.percentile(r[s], [75, 25], axis=0))
               for s in SEEDED}
        for i, a in enumerate(SEEDED):
            for b in SEEDED[i + 1:]:
                lead = mean[a] - mean[b]
                by_range = np.maximum(spread[a], spread[b])
                by_quartile = np.maximum(iqr[a], iqr[b])
                pairwise.setdefault(f"{a}-vs-{b}", {})[budget] = {
                    "range_rule": {a: int((lead > by_range).sum()),
                                   b: int((-lead > by_range).sum())},
                    "quartile_rule": {a: int((lead > by_quartile).sum()),
                                      b: int((-lead > by_quartile).sum())},
                    "pair_wins": {a: int((r[a] > r[b]).sum()),
                                  b: int((r[b] > r[a]).sum())},
                    "seeds_aggregate_ahead": {
                        a: int((per_seed[a] > per_seed[b]).sum()),
                        b: int((per_seed[b] > per_seed[a]).sum())}}
    return {"points": len(points), "table": table, "pairwise": pairwise}


def print_seed_summary(summary, budgets, seeds) -> None:
    print(f"== seeded strategy race: {summary['points']} grid points, "
          f"seeds {' '.join(map(str, seeds))} ==")
    print("mean ratio-of-best [range over seeds]")
    print("| B | " + " | ".join(SEEDED) + " |")
    print("|---" * (len(SEEDED) + 1) + "|")
    for budget in budgets:
        row = summary["table"][budget]
        print(f"| {budget} | " + " | ".join(
            f"{row[s]['mean']:.3f} [{row[s]['min']:.3f}–{row[s]['max']:.3f}]"
            for s in SEEDED) + " |")
    print(f"points ahead, B = {'/'.join(map(str, budgets))}")
    for pair, by_budget in summary["pairwise"].items():
        a, b = pair.split("-vs-")
        for rule in ("range_rule", "quartile_rule", "pair_wins",
                     "seeds_aggregate_ahead"):
            counts = {s: "/".join(str(by_budget[bb][rule][s])
                                  for bb in budgets) for s in (a, b)}
            print(f"{pair:22s} {rule:22s} {a} {counts[a]}, "
                  f"{b} {counts[b]}")


def main_seeds(args) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-seeds-") as td:
        t0 = time.perf_counter()
        best = seed_race(args.quick, args.budget, args.seed, args.jobs,
                         pathlib.Path(td))
        wall = round(time.perf_counter() - t0, 2)
    summary = seed_summary(best, args.budget, args.seed)
    print_seed_summary(summary, args.budget, args.seed)
    out = pathlib.Path(args.out).parent / "BENCH_strategy_seeds.json"
    report = {"quick": args.quick, "budgets": args.budget,
              "seeds": args.seed, "jobs": args.jobs,
              "strategies": list(SEEDED),
              "sizes": {c.value: n for c, n in SIZES.items()},
              "wall_s": wall, **summary, "best_cycles": best}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small grid (CI smoke)")
    ap.add_argument("--budget", type=int, nargs="+", default=[48],
                    help="max_evals given to every strategy (several: "
                         "the multi-seed race)")
    ap.add_argument("--seed", type=int, nargs="+", default=[0],
                    help="random seed of the seeded strategies (several: "
                         "the multi-seed race)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes per tuning session")
    ap.add_argument("--out", default=str(RESULTS / "BENCH_strategies.json"))
    args = ap.parse_args(argv)
    if len(args.budget) > 1 or len(args.seed) > 1:
        return main_seeds(args)
    args.budget, args.seed = args.budget[0], args.seed[0]

    with tempfile.TemporaryDirectory(prefix="bench-strategies-") as td:
        grid, walls, traces = race(args.quick, args.budget, args.seed,
                                   args.jobs, pathlib.Path(td))
        curves = collect_curves(chain.from_iterable(
            TraceStream(str(t)) for t in traces if t.exists()))
        aggregate = aggregate_curves(curves)
    summary = summarize(grid)

    print(f"== strategy race: {summary['points']} grid points, "
          f"budget {args.budget}, seed {args.seed} ==")
    for s in STRATEGIES:
        print(f"{s:8s} wins-or-ties {summary['wins_or_ties'][s]:3d} "
              f"points in {walls[s]}s")
    for reg in summary["random_regressions"]:
        print(f"REGRESSION: {reg['strategy']} lost to random on "
              f"{reg['point']} ({reg['best_cycles']:.0f} vs "
              f"{reg['random_cycles']:.0f} cycles)", file=sys.stderr)

    report = {"quick": args.quick, "budget": args.budget, "seed": args.seed,
              "jobs": args.jobs, "strategies": list(STRATEGIES),
              "sizes": {c.value: n for c, n in SIZES.items()},
              "wall_s": walls, "grid": grid, "summary": summary}
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")

    curves_json = out.parent / "BENCH_strategy_curves.json"
    curves_md = out.parent / "BENCH_strategy_curves.md"
    doc = curves_document(curves, aggregate)
    doc.update(quick=args.quick, budget=args.budget, seed=args.seed)
    curves_json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    curves_md.write_text(render_curves_markdown(
        curves, aggregate,
        title=f"Anytime performance (budget {args.budget}, "
              f"seed {args.seed})") + "\n")
    print(f"wrote {curves_json} and {curves_md}")
    for strategy, row in aggregate.get("strategies", {}).items():
        cells = " ".join(
            f"@{k}={row['ratio_of_best'][k]:.3f}"
            for k in aggregate["checkpoints"]
            if row["ratio_of_best"].get(k) is not None)
        print(f"anytime {strategy:8s} {cells}")

    if summary["random_regressions"]:
        print("FAIL: structured search lost to uniform random sampling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
