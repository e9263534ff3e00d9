#!/usr/bin/env python
"""Evaluation-throughput harness for the search engine's hot path.

Measures three things and writes ``results/BENCH_eval_throughput.json``:

1. **Divergence gate** — fast (steady-state replay) vs full-walk cycles
   across kernels x machines x contexts x params.  The contract is
   bit-identical equality; ANY divergence makes the script exit
   nonzero.  Everything else (slow hardware, low speedup) is reported
   but never fails the run — CI uses this as a non-gating smoke job
   whose only hard failure is divergence.
2. **Timing-path speedup** — wall time of ``LoopTimer.time`` with
   ``fast=True`` vs ``fast=False`` on pre-built loop summaries; the
   paper-size out-of-cache path (N=80000) is reported separately since
   that is where the acceptance criterion (>= 5x) lives, and so is the
   in-L2 path (N=1024), which walks every line either way (~1x).  For
   the out-of-cache walks it also logs the steady-state probe: how many
   lines each fast walk stepped before its replay (median, p90, max)
   and which walks never found a period and stepped every line.
3. **End-to-end eval throughput** — full compile+time evaluations per
   second through ``FKO`` + ``Timer`` (front-end cache warm, the way a
   line search actually uses them), serial and optionally with
   ``--jobs N`` worker processes.
4. **Observability overhead guard** — ``evaluate_params`` with the
   ``repro.obs`` instrumentation *disabled* vs the bare compile+time
   loop of (3), measured paired and interleaved in one process
   (best-of-k, so machine load cancels out).  Disabled instrumentation
   costing more than 3% is a hard failure — the second gating check
   besides divergence.  The *metrics-enabled* variant (the live
   registry behind ``/v1/metrics`` switched on, collector still off —
   the daemon's steady state) is held to the same 3% bar.  The
   collector-enabled (``--observe``) cost is reported informationally.
5. **Batched evaluation** — the exact workload of (3) through the
   batched path: one FKO per machine (prefix/full compile memo shared
   across kernels and contexts) and share-keyed timing walks.  Reports
   the compile-vs-timing wall split, prefix-cache hit rate and batch
   speedup; ANY per-eval cycle mismatch against the unbatched section
   is a hard failure (third gating check).

Usage::

    PYTHONPATH=src python benchmarks/bench_eval_throughput.py
    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.fko import FKO, PrefetchParams, TransformParams, compile_kernel
from repro.ir import PrefetchHint
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import (Context, LoopTimer, get_machine, opteron,
                           pentium4e, summarize)
from repro.timing.timer import Timer, paper_n

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def _params_list(spec):
    arrs = list(spec.vector_args)
    out = [TransformParams(),
           TransformParams(sv=True, unroll=8, ae=4)]
    if arrs:
        pf = {a: PrefetchParams(PrefetchHint.NTA, 512) for a in arrs}
        out.append(TransformParams(sv=True, unroll=8, ae=4, prefetch=pf))
    if spec.output_args:
        out.append(TransformParams(sv=True, unroll=4, wnt=True))
    return out


def _cases(quick: bool):
    kernels = ["ddot", "daxpy", "dscal"] if quick else KERNEL_ORDER
    machines = [pentium4e(), opteron()]
    contexts = [Context.OUT_OF_CACHE, Context.IN_L2]
    for kname in kernels:
        spec = get_kernel(kname)
        for mach in machines:
            for ctx in contexts:
                for params in _params_list(spec):
                    yield spec, mach, ctx, params


# ---------------------------------------------------------------------------
# 1. divergence gate + 2. timing-path speedup

def timing_path(quick: bool):
    mismatches = []
    t_fast = t_slow = 0.0
    t_fast_ooc80k = t_slow_ooc80k = 0.0
    t_fast_inl2 = t_slow_inl2 = 0.0
    n_cases = 0
    stepped = []          # lines each out-of-cache fast walk stepped
    no_period = []        # out-of-cache fast walks that never replayed
    fko_by_mach = {}
    for spec, mach, ctx, params in _cases(quick):
        fko = fko_by_mach.setdefault(mach.name, FKO(mach))
        summary = summarize(fko.compile(spec.hil, params).fn)
        n = paper_n(ctx)
        # warm the summary's cycles-per-trip memo, so that neither timed
        # variant pays for it (it dominates a short in-L2 walk)
        LoopTimer(mach, ctx).time(summary, n)
        t0 = time.perf_counter()
        fast = LoopTimer(mach, ctx, fast=True).time(summary, n)
        t1 = time.perf_counter()
        slow = LoopTimer(mach, ctx, fast=False).time(summary, n)
        t2 = time.perf_counter()
        t_fast += t1 - t0
        t_slow += t2 - t1
        if ctx is Context.OUT_OF_CACHE:
            t_fast_ooc80k += t1 - t0
            t_slow_ooc80k += t2 - t1
            stepped.append(fast.stats.lines_processed
                           - fast.stats.lines_extrapolated)
            if not fast.stats.steady_period:
                no_period.append(f"{mach.name}/{spec.name}/"
                                 f"{params.describe()}")
        else:
            t_fast_inl2 += t1 - t0
            t_slow_inl2 += t2 - t1
        n_cases += 1
        if fast.cycles != slow.cycles:
            mismatches.append({
                "kernel": spec.name, "machine": mach.name,
                "context": ctx.value, "n": n,
                "params": params.describe(),
                "fast_cycles": fast.cycles, "slow_cycles": slow.cycles})
    return {"cases": n_cases,
            "mismatches": mismatches,
            "fast_wall_s": round(t_fast, 4),
            "slow_wall_s": round(t_slow, 4),
            "speedup": round(t_slow / t_fast, 2) if t_fast > 0 else None,
            "speedup_ooc_n80000": (round(t_slow_ooc80k / t_fast_ooc80k, 2)
                                   if t_fast_ooc80k > 0 else None),
            "speedup_inl2_n1024": (round(t_slow_inl2 / t_fast_inl2, 2)
                                   if t_fast_inl2 > 0 else None),
            "ooc_probe": _probe_log(stepped, no_period)}


def _probe_log(stepped, no_period):
    """Stepped-line distribution of the out-of-cache fast walks (p90 by
    nearest rank) and the walks that found no steady period."""
    ranked = sorted(stepped)
    return {"walks": len(ranked),
            "stepped_lines_median": (statistics.median(ranked)
                                     if ranked else None),
            "stepped_lines_p90": (ranked[math.ceil(0.9 * len(ranked)) - 1]
                                  if ranked else None),
            "stepped_lines_max": max(ranked, default=None),
            "no_period": len(no_period),
            "no_period_cases": no_period}


# ---------------------------------------------------------------------------
# 3. end-to-end eval throughput

def _workload(quick: bool):
    """The canonical throughput workload: (machine, context, kernel, n,
    (unroll, ae, prefetch distance) grid) batches — shared by the
    unbatched and batched sections so their cycles are comparable eval
    for eval.  The distance axis makes most batched compiles hits in
    FKO's distance-class memo, so the mismatch gate covers the
    PREFETCH rebind."""
    unrolls = [1, 2, 4, 8] if quick else [1, 2, 3, 4, 6, 8, 12, 16]
    dists = [256, 512] if quick else [128, 256, 512, 1024]
    keys = [(u, ae, d) for u in unrolls for ae in (1, 2, 4) for d in dists]
    kernels = ["ddot", "daxpy"] if quick else ["ddot", "daxpy", "dscal",
                                               "dasum"]
    batches = []
    for kernel in kernels:
        for mname in ("p4e", "opteron"):
            for ctx in (Context.OUT_OF_CACHE, Context.IN_L2):
                batches.append((mname, ctx.value, kernel, paper_n(ctx), keys))
    return batches


def _candidate(spec, unroll, ae, dist) -> TransformParams:
    """One workload point: SV on, ``unroll`` x ``ae``, and every vector
    argument prefetched (NTA) ``dist`` bytes ahead (0: no prefetch)."""
    pf = {a: PrefetchParams(PrefetchHint.NTA, dist) for a in spec.vector_args}
    return TransformParams(sv=True, unroll=unroll, ae=ae, prefetch=pf)


class _ColdFKO(FKO):
    """The unmemoized reference: FKO's front end and analysis, but
    every compile runs the whole ``compile_kernel`` pipeline, and no
    share key is offered, so no walk is shared either."""

    def compile(self, source, params=None, debug_verify=False):
        fn, noprefetch = self.front_end(source)
        return compile_kernel(fn, self.machine, params,
                              noprefetch=noprefetch,
                              debug_verify=debug_verify,
                              analysis=self.analyze(source))

    def share_key(self, source, params=None, debug_verify=False):
        return None


def _eval_batch(machine_name, context_value, kernel, n, keys):
    """Run a batch of full evaluations the pre-batching way — fresh FKO
    per batch, no compile memo, no shared walks.  Returns (wall seconds,
    per-eval cycles).  Module level so worker processes can import it."""
    mach = get_machine(machine_name)
    spec = get_kernel(kernel)
    fko = _ColdFKO(mach)
    timer = Timer(mach, Context(context_value), n)
    cycles = []
    t0 = time.perf_counter()
    for key in keys:
        params = _candidate(spec, *key)
        cycles.append(timer.time(fko.compile(spec.hil, params), spec).cycles)
    return time.perf_counter() - t0, cycles


def eval_throughput(quick: bool, jobs: int):
    batches = _workload(quick)
    n_evals = sum(len(b[4]) for b in batches)

    cycles = []
    t0 = time.perf_counter()
    for batch in batches:
        cycles.extend(_eval_batch(*batch)[1])
    serial_wall = time.perf_counter() - t0
    out = {"evaluations": n_evals,
           "serial_wall_s": round(serial_wall, 3),
           "serial_evals_per_sec": round(n_evals / serial_wall, 1)}

    if jobs > 1:
        import concurrent.futures as cf
        t0 = time.perf_counter()
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_eval_batch_star, batches))
        par_wall = time.perf_counter() - t0
        out.update(jobs=jobs, parallel_wall_s=round(par_wall, 3),
                   parallel_evals_per_sec=round(n_evals / par_wall, 1),
                   parallel_speedup=round(serial_wall / par_wall, 2))
    return out, cycles


def _eval_batch_star(batch):
    return _eval_batch(*batch)


# ---------------------------------------------------------------------------
# 5. batched evaluation path (prefix-memoized compiles + shared walks)

def _batched_run(batches):
    """One pass of the workload through the batched path.  A candidate
    whose share key already has a memoized walk skips compile and
    summarize entirely (``Timer.peek_base``) — under a share key the
    compiled IR is bit-identical, so the skipped work could not have
    changed the cycles; the mismatch gate checks exactly that."""
    fkos = {}
    timers = {}
    compile_wall = timing_wall = 0.0
    cycles = []
    t0 = time.perf_counter()
    for mname, ctxv, kernel, n, keys in batches:
        mach = get_machine(mname)
        spec = get_kernel(kernel)
        fko = fkos.setdefault(mname, FKO(mach))
        timer = timers.setdefault((mname, ctxv, n),
                                  Timer(mach, Context(ctxv), n))
        flops = spec.flops(n)
        for key in keys:
            params = _candidate(spec, *key)
            c0 = time.perf_counter()
            share = fko.share_key(spec.hil, params)
            base = timer.peek_base(share)
            if base is None:
                compiled = fko.compile(spec.hil, params)
                c1 = time.perf_counter()
                base = timer.base(summarize(compiled.fn), share)
            else:
                c1 = time.perf_counter()
            timing = timer.finish(base, flops,
                                  ident=f"{spec.name}|{params.key()}")
            c2 = time.perf_counter()
            compile_wall += c1 - c0
            timing_wall += c2 - c1
            cycles.append(timing.cycles)
    wall = time.perf_counter() - t0
    return {"wall": wall, "compile_wall": compile_wall,
            "timing_wall": timing_wall, "cycles": cycles,
            "fkos": fkos, "timers": timers}


def batched_throughput(quick: bool, reference: dict, ref_cycles: list,
                       reps: int = 3):
    """The same workload through the batched path: one FKO per machine
    (its prefix/full compile caches live across contexts and kernels,
    exactly as a ``TuningSession`` shares them) and share-keyed timing
    walks.  Cycles must match the unbatched section bit for bit — any
    mismatch is a hard failure, same contract as the fast/slow gate.
    Wall numbers are best-of-``reps`` (each rep rebuilds every cache
    from cold); the mismatch gate is checked on every rep."""
    batches = _workload(quick)
    best = None
    mismatches = 0
    for _ in range(reps):
        run = _batched_run(batches)
        mismatches = max(mismatches, sum(
            1 for a, b in zip(run["cycles"], ref_cycles) if a != b))
        if best is None or run["wall"] < best["wall"]:
            best = run
    fkos, timers = best["fkos"], best["timers"]
    prefix_hits = sum(f.prefix_hits for f in fkos.values())
    prefix_misses = sum(f.prefix_misses for f in fkos.values())
    full_hits = sum(f.full_hits for f in fkos.values())
    walk_hits = sum(t.base_hits for t in timers.values())
    walk_misses = sum(t.base_misses for t in timers.values())
    n_evals = len(best["cycles"])
    wall = best["wall"]
    return {"evaluations": n_evals,
            "reps": reps,
            "serial_wall_s": round(wall, 3),
            "serial_evals_per_sec": round(n_evals / wall, 1),
            "compile_wall_s": round(best["compile_wall"], 3),
            "timing_wall_s": round(best["timing_wall"], 3),
            "prefix_hits": prefix_hits,
            "prefix_misses": prefix_misses,
            "full_hits": full_hits,
            "prefix_hit_rate": round(prefix_hits / n_evals, 4),
            "walk_hits": walk_hits,
            "walk_misses": walk_misses,
            "batch_speedup": round(reference["serial_wall_s"] / wall, 2)
            if wall > 0 else None,
            "cycle_mismatches": mismatches}


# ---------------------------------------------------------------------------
# 4. observability overhead guard

def _evaluate_batch(machine_name, context_value, kernel, n, keys,
                    observe=False):
    """The same work as ``_eval_batch`` but through the engine's
    ``evaluate_params`` front door, with obs off or on.  It compiles
    on the same unmemoized ``_ColdFKO`` as the bare loop: every key in
    this workload is a distinct compile prefix, so the compile memo
    would only add maintenance cost (snapshot clones on miss) and the
    comparison would charge that to observability."""
    from repro.search import evaluate_params
    mach = get_machine(machine_name)
    spec = get_kernel(kernel)
    fko = _ColdFKO(mach)
    timer = Timer(mach, Context(context_value), n)
    flops = spec.flops(n)
    t0 = time.perf_counter()
    for key in keys:
        params = _candidate(spec, *key)
        evaluate_params(fko, timer, spec.hil, params, flops, "bench|",
                        observe=observe)
    return time.perf_counter() - t0


def _evaluate_batch_metrics(case):
    """``_evaluate_batch`` with the live metrics registry enabled (and
    the collector still off) — the steady state of a serving daemon.
    The registry is reset afterwards so reps don't accumulate."""
    from repro.obs import metrics as _metrics
    _metrics.enable()
    try:
        return _evaluate_batch(*case)
    finally:
        _metrics.disable()
        _metrics.reset()


def obs_overhead(quick: bool, threshold: float = 0.03):
    """Paired reps: bare loop vs obs-disabled vs metrics-enabled vs
    collector-enabled, interleaved within each rep so transient machine
    load cannot bias any single variant.  The full key grid is used
    even under ``--quick`` — the overhead is a *relative* measure, and
    short reps put the noise floor above the threshold being
    enforced."""
    unrolls = [1, 2, 3, 4, 6, 8, 12, 16]
    keys = [(u, ae, 0) for u in unrolls for ae in (1, 2, 4)]
    ctx = Context.OUT_OF_CACHE
    case = ("p4e", ctx.value, "ddot", paper_n(ctx), keys)
    # single draws are still ±5% noisy, so the estimator is the MEDIAN
    # of per-rep paired ratios: each variant is divided by the bare
    # wall of its own rep (temporally adjacent, so CPU-frequency and
    # load drift cancel), then the median over reps rejects the
    # outlier draws that min-of-k lets through.  The order of the four
    # variants ROTATES each rep — a fixed order couples each variant to
    # a fixed position in the scheduler/boost-clock cycle, which showed
    # up as a reproducible ±4% position bias.
    # per-draw noise on a contended box is ~5% stdev, roughly i.i.d.;
    # the median of n paired ratios then has ~(1.25 * 7% / sqrt(n))
    # spread, so n=40 puts the estimator's noise near 1% — small
    # enough to enforce a 3% threshold without coin-flip failures
    import statistics
    reps = 40
    variants = [("bare", lambda: _eval_batch(*case)[0]),
                ("disabled", lambda: _evaluate_batch(*case)),
                ("metrics", lambda: _evaluate_batch_metrics(case)),
                ("enabled", lambda: _evaluate_batch(*case, observe=True))]
    # warm every path once (imports, front-end caches, allocator pools)
    for _, run in variants:
        run()
    walls = {name: [] for name, _ in variants}
    for rep in range(reps):
        for name, run in variants[rep % 4:] + variants[:rep % 4]:
            walls[name].append(run())

    def paired(name):
        return statistics.median(
            w / b for w, b in zip(walls[name], walls["bare"]))

    bare_w, disabled_w = walls["bare"], walls["disabled"]
    metrics_w, enabled_w = walls["metrics"], walls["enabled"]
    overhead_disabled = paired("disabled") - 1.0
    overhead_enabled = paired("enabled") - 1.0
    # the metrics gate isolates exactly the registry's cost: same
    # evaluate_params path with the registry on vs off, so the only
    # difference between the paired walls is the instrumentation
    # being judged (disabled-vs-bare also spans the engine-front-door
    # bookkeeping, which is the *other* gate's job)
    overhead_metrics = statistics.median(
        m / d for m, d in zip(metrics_w, disabled_w)) - 1.0
    return {"evaluations_per_rep": len(keys), "reps": reps,
            "bare_wall_s": round(min(bare_w), 4),
            "disabled_wall_s": round(min(disabled_w), 4),
            "metrics_wall_s": round(min(metrics_w), 4),
            "enabled_wall_s": round(min(enabled_w), 4),
            "overhead_disabled": round(overhead_disabled, 4),
            "overhead_metrics": round(overhead_metrics, 4),
            "overhead_enabled": round(overhead_enabled, 4),
            "threshold": threshold,
            "ok": (overhead_disabled <= threshold
                   and overhead_metrics <= threshold)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small case set (CI smoke)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="also measure parallel throughput with N workers")
    ap.add_argument("--obs-threshold", type=float, default=0.03,
                    help="max tolerated obs-disabled overhead (fraction)")
    ap.add_argument("--out", default=str(RESULTS / "BENCH_eval_throughput.json"))
    args = ap.parse_args(argv)

    print("== timing-path: fast vs full walk ==")
    tp = timing_path(args.quick)
    print(f"cases: {tp['cases']}, mismatches: {len(tp['mismatches'])}")
    print(f"fast {tp['fast_wall_s']}s vs slow {tp['slow_wall_s']}s "
          f"-> {tp['speedup']}x (OOC N=80000: {tp['speedup_ooc_n80000']}x, "
          f"in-L2 N=1024: {tp['speedup_inl2_n1024']}x)")
    probe = tp["ooc_probe"]
    print(f"out-of-cache probe over {probe['walks']} walks: stepped lines "
          f"median {probe['stepped_lines_median']}, p90 "
          f"{probe['stepped_lines_p90']}, max {probe['stepped_lines_max']}; "
          f"{probe['no_period']} found no period")

    print("== end-to-end eval throughput ==")
    et, ref_cycles = eval_throughput(args.quick, args.jobs)
    print(f"{et['evaluations']} evaluations, serial "
          f"{et['serial_evals_per_sec']} evals/s")
    if args.jobs > 1:
        print(f"jobs={args.jobs}: {et['parallel_evals_per_sec']} evals/s "
              f"({et['parallel_speedup']}x)")

    print("== batched evaluation (prefix-memoized + shared walks) ==")
    bt = batched_throughput(args.quick, et, ref_cycles)
    print(f"{bt['evaluations']} evaluations, serial "
          f"{bt['serial_evals_per_sec']} evals/s "
          f"({bt['batch_speedup']}x over unbatched)")
    print(f"wall split: compile {bt['compile_wall_s']}s, timing "
          f"{bt['timing_wall_s']}s; prefix hit rate "
          f"{bt['prefix_hit_rate']:.0%} ({bt['prefix_hits']} hits / "
          f"{bt['prefix_misses']} misses, {bt['full_hits']} full), "
          f"shared walks {bt['walk_hits']}/{bt['walk_hits'] + bt['walk_misses']}")
    print(f"cycle mismatches vs unbatched: {bt['cycle_mismatches']}")

    print("== observability overhead (disabled and metrics-on must "
          f"be <= {args.obs_threshold:.0%}) ==")
    oo = obs_overhead(args.quick, args.obs_threshold)
    print(f"bare {oo['bare_wall_s']}s, obs-disabled {oo['disabled_wall_s']}s "
          f"({oo['overhead_disabled']:+.1%}), metrics-on "
          f"{oo['metrics_wall_s']}s ({oo['overhead_metrics']:+.1%}), "
          f"obs-enabled {oo['enabled_wall_s']}s "
          f"({oo['overhead_enabled']:+.1%})")

    report = {"quick": args.quick, "timing_path": tp,
              "eval_throughput": et, "batched_throughput": bt,
              "obs_overhead": oo}
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    rc = 0
    if tp["mismatches"]:
        print("FAIL: fast/slow divergence detected", file=sys.stderr)
        rc = 1
    if bt["cycle_mismatches"]:
        print(f"FAIL: batched path diverged from unbatched on "
              f"{bt['cycle_mismatches']} evaluations", file=sys.stderr)
        rc = 1
    if not oo["ok"]:
        print(f"FAIL: observability overhead exceeds the "
              f"{args.obs_threshold:.0%} threshold (disabled "
              f"{oo['overhead_disabled']:+.1%}, metrics-on "
              f"{oo['overhead_metrics']:+.1%})", file=sys.stderr)
        rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
