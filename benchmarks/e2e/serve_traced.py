"""Start the ``repro serve`` daemon with the benchmark's layer wrappers.

Takes the same ``--host/--port/--jobs/--results-dir`` flags as
``repro serve`` plus ``--trace-dir``; installs the span wrappers, runs
``repro.service.daemon.serve`` and, on SIGTERM, shuts the daemon down
and writes its spans and per-layer totals to ``--trace-dir``.

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py \\
        --trace-dir out --port 0 --results-dir out/results
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--results-dir", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer(args.trace_dir, tag="serve")
    install(tracer)
    from repro.search.config import TuneConfig
    from repro.service.daemon import serve

    # serve() shuts down cleanly on KeyboardInterrupt
    signal.signal(signal.SIGTERM, _stop)
    try:
        return serve(host=args.host, port=args.port,
                     config=TuneConfig(jobs=args.jobs),
                     results_dir=args.results_dir)
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main())
