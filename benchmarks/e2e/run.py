#!/usr/bin/env python3
"""End-to-end benchmark of the repro package, with a per-layer trace.

Four workloads (see README.md): ``paper`` regenerates every table and
figure cold, ``tune-sweep`` runs the Table-1 sweep on a two-worker pool
cold and then against its warm eval cache, ``model-search`` runs
surrogate-guided searches, and ``serve`` drives the ``repro serve``
daemon with two closed-loop clients.

Each rep runs in a fresh process.  Timings follow the paper's method
(section 3.2, minimum of repeated timings): every request's fastest
time over reps feeds the latency percentiles (and, for serial
workloads, the wall time); the per-rep min, median and maximum are kept
in the JSON report as the noise band; set-up time is the median.
Outputs are checked against ``golden/`` and against each other, and one
extra traced rep per workload gives the per-layer numbers.  Any failed
check makes the command exit 1.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload serve --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --record-golden     # after a
                                                      # deliberate change

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``, both by default).
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, geomean  # noqa: E402

#: workloads whose inputs depend on the seed: goldens exist for seeds 0, 1
SEEDED = ("model-search", "serve")
GOLDEN_SEEDS = (0, 1)

#: end-to-end metrics and their units
E2E = (("setup_s", "s"), ("wall_s", "s"), ("warm_wall_s", "s"),
       ("evals_per_sec", "1/s"), ("req_p50_ms", "ms"), ("req_tail_ms", "ms"),
       ("peak_rss_mb", "MB"))

REP_TIMEOUT = 170.0


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def child_env() -> Dict[str, str]:
    # REPRO_* variables would change what the workloads are
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_rep(workload: str, args, traced: bool = False,
            jobs: int = 2) -> Dict:
    """One rep in a fresh process: its record, or ``{"error": ...}``."""
    tmp = args.out / "tmp" / f"{workload}-{uuid.uuid4().hex[:8]}"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(args.seed), "--tmp", str(tmp), "--jobs", str(jobs)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace-dir", str(args.out)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"rep timed out after {REP_TIMEOUT:.0f}s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"rep exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}"}
    return json.loads(lines[-1])


def untraced_reps(workload: str, args) -> List[Dict]:
    """``--reps`` reps, or with ``--seconds`` as many as fit (at least
    two, so the minimum means something)."""
    records: List[Dict] = []
    start = time.monotonic()
    while True:
        records.append(run_rep(workload, args))
        if "error" in records[-1]:
            return records
        elapsed = time.monotonic() - start
        if args.seconds is None:
            if len(records) >= args.reps:
                return records
        elif len(records) >= 2 and (elapsed + elapsed / len(records)
                                    > args.seconds):
            return records


# ---------------------------------------------------------------------------
# goldens and checks

def golden_path(workload: str, seed: int, smoke: bool,
                golden_dir: pathlib.Path) -> Optional[pathlib.Path]:
    stem = workload + (".smoke" if smoke else "")
    if workload in SEEDED:
        if seed not in GOLDEN_SEEDS:
            return None
        stem += f".seed{seed}"
    return golden_dir / (stem + (".txt" if workload == "paper" else ".json"))


def load_golden(path: Optional[pathlib.Path]):
    if path is None or not path.exists():
        return None
    text = path.read_text()
    return text if path.suffix == ".txt" else json.loads(text)


def check(workload: str, records: List[Dict], golden, args) -> List[str]:
    """Every failed output check, one line each."""
    problems: List[str] = []
    ran = [r for r in records if "error" not in r]
    for i, rec in enumerate(records):
        tag = f"rep {i}" + (" (traced)" if rec.get("trace") else "")
        if "error" in rec:
            problems.append(f"{tag}: {rec['error']}")
            continue
        problems += [f"{tag}: {v}" for v in rec["violations"]]
        cold, warm = rec["outputs"]["cold"], rec["outputs"]["warm"]
        if warm != cold:
            problems.append(f"{tag}: warm pass differs from cold pass")
        if golden is not None and cold != golden:
            problems.append(f"{tag}: differs from golden")
            if workload == "paper":
                diff = difflib.unified_diff(golden.splitlines(True),
                                            cold.splitlines(True),
                                            "golden", tag)
                (args.out / "paper.diff").write_text("".join(diff))
        if ran and rec is not ran[0] and cold != ran[0]["outputs"]["cold"]:
            problems.append(f"{tag}: differs from rep 0")
    return problems


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` requests beyond
    it, at most 99; the slowest request when that would fall below the
    median (fewer than 20 requests)."""
    return min(99.0, 100.0 * (1 - 10 / n)) if n >= 20 else 100.0


def e2e_metrics(records: List[Dict]) -> Dict[str, Dict]:
    q = tail_percentile(len(records[0]["latencies_ms"]))
    per_rep = {
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": [r["wall_s"] for r in records],
        "warm_wall_s": [r["warm_wall_s"] for r in records],
        "evals_per_sec": [r["evaluations"] / r["wall_s"] for r in records],
        "req_p50_ms": [percentile(r["latencies_ms"], 50) for r in records],
        "req_tail_ms": [percentile(r["latencies_ms"], q) for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records]}
    # Every rep sends the same requests in the same order: each request's
    # fastest time over reps (the paper's min-of-repeats per timing)
    # drops the slow spells of a shared machine that hit one rep only.
    fastest = [min(u) for u in zip(*(r["latencies_ms"] for r in records))]
    wall = min(per_rep["wall_s"])
    if records[0]["serial"]:
        wall = sum(fastest) / 1e3 + min(
            r["wall_s"] - sum(r["latencies_ms"]) / 1e3 for r in records)
    values = {"setup_s": statistics.median(per_rep["setup_s"]),
              "wall_s": wall,
              "warm_wall_s": min(per_rep["warm_wall_s"]),
              "evals_per_sec": records[0]["evaluations"] / wall,
              "req_p50_ms": percentile(fastest, 50),
              "req_tail_ms": percentile(fastest, q),
              "peak_rss_mb": max(per_rep["peak_rss_mb"])}
    return {name: {"value": values[name], "unit": unit,
                   "min": min(per_rep[name]),
                   "median": statistics.median(per_rep[name]),
                   "max": max(per_rep[name]), "reps": len(records)}
            for name, unit in E2E}


def bench(workload: str, args) -> Dict:
    records: List[Dict] = []
    if args.trace != 1:
        records = untraced_reps(workload, args)
    ok = [r for r in records if "error" not in r]
    if args.trace != 0 and (ok or not records):
        if not ok:   # a reference for the tracing overhead
            records.append(run_rep(workload, args))
            ok = [r for r in records if "error" not in r]
        if ok:
            records.append(run_rep(workload, args, traced=True))
    untraced = [r for r in records if "error" not in r and "trace" not in r]
    traced = [r for r in records if "trace" in r]

    golden_file = golden_path(workload, args.seed, args.smoke, args.golden)
    problems = check(workload, records, load_golden(golden_file), args)
    attempted = sum(r.get("attempted", 1) for r in records)
    failed = sum(r.get("failed", 1) for r in records)
    result = {"golden": str(golden_file) if golden_file else None,
              "checks": problems, "output_mismatches": len(problems),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0}
    if untraced:
        result["e2e"] = e2e_metrics(untraced)
        result["best_cycles_geomean"] = geomean(untraced[0]["best_cycles"])
        result["requests"] = len(untraced[0]["latencies_ms"])
        result["req_tail_percentile"] = tail_percentile(result["requests"])
    if traced and untraced:
        summaries = traced[0]["trace"]
        rows = tracer.reconcile(summaries)
        overhead = (traced[0]["wall_s"] / min(r["wall_s"] for r in untraced)
                    - 1.0)
        result["layers"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.layer_metrics(
                summaries, rows, overhead).items()}
        result["reconcile"] = rows
        result["layer_table"] = [list(row)
                                 for row in tracer.layer_table(summaries)]
        result["reconcile_failures"] = sum(not r["ok"] for r in rows)
    return result


# ---------------------------------------------------------------------------
# output

def print_workload(workload: str, res: Dict) -> None:
    print(f"== {workload} ==")
    for name, m in res.get("e2e", {}).items():
        print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<4} "
              f"(per rep: min {m['min']:.4f}  median {m['median']:.4f}  "
              f"max {m['max']:.4f}, {m['reps']} reps)")
    if "best_cycles_geomean" in res:
        print(f"  {'best_cycles_geomean':<20} "
              f"{res['best_cycles_geomean']:.6g} cycles")
    print(f"  output_mismatches {res['output_mismatches']}  "
          f"failed_frac {res['failed_frac']:.4f} "
          f"({res['failed']}/{res['attempted']})")
    for line in res["checks"]:
        print(f"  MISMATCH {line}")
    if "layer_table" in res:
        total = sum(row[1] for row in res["layer_table"]) or 1.0
        print("  layer self time (traced rep, every timeline):")
        for name, secs, calls in res["layer_table"]:
            print(f"    {name:<22} {secs:>9.4f} s {secs / total:>6.1%} "
                  f"{calls:>9} calls")
        print("  reconciliation (serial timelines):")
        for row in res["reconcile"]:
            print(f"    {row['timeline']:<28} wall {row['wall_s']:.4f} s = "
                  f"layers {row['layers_s']:.4f} + unattributed "
                  f"{row['unattributed_s']:.4f}  "
                  f"{'ok' if row['ok'] else 'FAIL'}")
        overhead = res["layers"]["trace_overhead"]["value"]
        print(f"  trace_overhead {overhead:+.1%}")


def record_goldens(args, workloads: List[str]) -> int:
    """Rewrite the goldens from one rep each (tune-sweep at jobs=1, so
    the golden also pins jobs=1 == jobs=2)."""
    args.golden.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in (GOLDEN_SEEDS if workload in SEEDED else (args.seed,)):
            args.seed = seed
            rec = run_rep(workload, args,
                          jobs=1 if workload == "tune-sweep" else 2)
            if "error" in rec or rec["violations"]:
                print(f"{workload} seed {seed}: "
                      f"{rec.get('error') or rec['violations']}")
                status = 1
                continue
            path = golden_path(workload, seed, args.smoke, args.golden)
            cold = rec["outputs"]["cold"]
            path.write_text(cold if isinstance(cold, str)
                            else json.dumps(cold, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; "
                             "default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced reps per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --reps: run reps until about "
                             "this many seconds are spent (at least 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced reps only; 1: one traced rep "
                             "(plus one untraced reference); default both")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out",
                        help="report, spans and working files (default "
                             "benchmarks/e2e/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the self-test")
    parser.add_argument("--golden", type=pathlib.Path, default=HERE / "golden",
                        help="golden directory (default benchmarks/e2e/"
                             "golden)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the goldens instead of benchmarking")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    if args.record_golden:
        return record_goldens(args, workloads)

    started = time.time()
    results = {}
    for workload in workloads:
        results[workload] = bench(workload, args)
        print_workload(workload, results[workload])
    report = {"spec": {"argv": sys.argv[1:], "seed": args.seed,
                       "smoke": args.smoke, "reps": args.reps,
                       "seconds": args.seconds, "trace": args.trace,
                       "python": platform.python_version(),
                       "platform": platform.platform(),
                       "cpus": os.cpu_count(), "started": started,
                       "workloads": {w: " ".join(WORKLOADS[w].__doc__.split())
                                     for w in workloads}},
              "workloads": results}
    (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    correct = all(not r["checks"] and not r.get("reconcile_failures")
                  for r in results.values())
    sections = {0: ("e2e",), 1: ("layers",)}.get(args.trace,
                                                 ("e2e", "layers"))
    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for section in sections:
            for name, m in res.get(section, {}).items():
                metrics[prefix + name] = {"value": m["value"],
                                          "unit": m["unit"]}
    print(f"# report -> {args.out / 'report.json'}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
