"""One rep of one workload, in a fresh process so module-level caches
start cold.  ``run.py`` spawns it and reads the JSON record it prints
as its last line of output.

    PYTHONPATH=src python benchmarks/e2e/rep.py --workload paper \\
        --seed 0 --tmp benchmarks/e2e/out/tmp/x [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import pathlib
import shutil
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workloads import WORKLOADS, peak_rss_mb  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool workers of the tune-sweep workload")
    parser.add_argument("--tmp", required=True,
                        help="working directory (created, then removed)")
    parser.add_argument("--spawned", type=float, default=None,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace-dir", default=None,
                        help="trace this rep; spans and totals go here")
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned

    tracer = None
    # the serve workload's client is load, not program: only the
    # daemon is traced
    in_process = args.trace_dir is not None and args.workload != "serve"
    if args.trace_dir is not None:
        from tracer import Tracer, install, merge_pid_files
        tracer = Tracer(args.trace_dir, tag=args.workload)
        root = pathlib.Path(args.trace_dir)
        root.mkdir(parents=True, exist_ok=True)
        for stale in root.glob(f"{args.workload}.*"):
            stale.unlink()
        if in_process:
            install(tracer)

    def span(name):
        return tracer.span(name) if in_process else contextlib.nullcontext()

    tmp = pathlib.Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp,
                                            trace_dir=args.trace_dir,
                                            jobs=args.jobs)
        try:
            ready = time.monotonic()
            with span("bench.cold"):
                t0 = time.perf_counter()
                workload.cold()
                wall = time.perf_counter() - t0
            warm = []
            for _ in range(workload.warm_repeats):
                with span("bench.warm"):
                    t0 = time.perf_counter()
                    workload.warm()
                    warm.append(time.perf_counter() - t0)
        finally:
            workload.close()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        record = {"workload": args.workload, "seed": args.seed,
                  "serial": workload.serial,
                  "setup_s": (workload.setup_s if workload.setup_s is not None
                              else ready - spawned),
                  "wall_s": wall, "warm_wall_s": min(warm),
                  "evaluations": workload.evaluations,
                  "latencies_ms": workload.latencies_ms,
                  "best_cycles": workload.best_cycles,
                  "outputs": workload.outputs,
                  "violations": workload.violations,
                  "attempted": workload.attempted,
                  "failed": workload.failed,
                  "peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            if in_process:
                tracer.flush()
            # this process, its pool workers or the daemon
            record["trace"] = merge_pid_files(args.trace_dir, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
