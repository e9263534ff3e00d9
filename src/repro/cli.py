"""Command-line driver — the reproduction's ``ifko`` binary.

The paper's system is a compiler plus search drivers invoked from the
command line; this module provides the same ergonomics::

    python -m repro analyze ddot --machine p4e
    python -m repro compile ddot --machine p4e --unroll 4 --ae 2 \\
        --prefetch X=nta:512 --asm
    python -m repro tune dasum --machine opteron --context oc --jobs 4
    python -m repro tune-all --jobs 4 --cache-dir .repro-cache \\
        --trace-out tune.jsonl --observe
    python -m repro serve --port 8642 --jobs 4 --cache-dir .repro-cache \\
        --results-dir .repro-results
    python -m repro tune ddot --serve-url http://127.0.0.1:8642
    python -m repro fuzz --budget 50 --via-serve http://127.0.0.1:8642
    python -m repro fuzz --seed 0 --budget 200 --artifact-dir fuzz-out
    python -m repro fuzz --replay fuzz-out/fuzz-ddot-p4e-return-1.json
    python -m repro trace tune.jsonl
    python -m repro trace tune.jsonl --perfetto tune.perfetto.json
    python -m repro report tune.jsonl -o report.md
    python -m repro metrics --serve-url http://127.0.0.1:8642
    python -m repro curves tune.jsonl --json curves.json -o curves.md
    python -m repro perf diff results/OLD.json results/NEW.json
    python -m repro kernels
    python -m repro experiments fig2 table3 --jobs 4

``analyze``/``compile``/``tune`` accept either a built-in kernel name
(``ddot``, ``isamax``, ...) or a path to a ``.hil`` source file, so the
tool works on user kernels exactly like the shipped ones.  All tuning
runs through the batch engine (:mod:`repro.search.engine`): ``--jobs``
fans evaluations/jobs across worker processes, ``--cache-dir`` persists
the evaluation cache across runs, ``--resume`` checkpoints a batch, and
``--trace-out`` records a JSONL search trace that ``repro trace``
summarizes.

Registry-kernel tuning goes through :mod:`repro.client` — the same
request/response path whether the work runs in this process or in a
``repro serve`` daemon (``--serve-url``), so the answers are
bit-identical by construction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
from typing import Optional, Tuple

from .fko import FKO, PrefetchParams, TransformParams
from .ir import PrefetchHint, emit_att, format_function
from .kernels import KERNEL_ORDER, REGISTRY, get_kernel
from .kernels.blas3 import BLAS3_ORDER
from .kernels.blas1 import KernelSpec
from .machine import Context, get_machine, parse_context
from .obs import (aggregate_curves, collect_curves, curves_document,
                  diff_metrics, load_artifact, render_curves_markdown,
                  render_diff, render_report, write_perfetto)
from .search import (TraceStream, TuneConfig, TuningSession, read_trace,
                     registry_jobs, render_trace_summary, summarize_trace)
from .timing.tester import test_function
from .timing.timer import default_n


def _load_source(name_or_path: str) -> Tuple[str, Optional[KernelSpec]]:
    """Resolve a kernel argument: registry name or .hil file path."""
    if name_or_path in REGISTRY:
        spec = get_kernel(name_or_path)
        return spec.hil, spec
    path = pathlib.Path(name_or_path)
    if path.suffix == ".hil" or path.exists():
        return path.read_text(), None
    raise SystemExit(
        f"error: {name_or_path!r} is neither a built-in kernel "
        f"({', '.join(KERNEL_ORDER)}) nor a .hil file")


def _parse_prefetch(items) -> dict:
    """``X=nta:512`` pairs -> prefetch dict."""
    out = {}
    for item in items or ():
        try:
            arr, rest = item.split("=", 1)
            hint_s, dist_s = rest.split(":", 1)
            hint = None if hint_s == "none" else PrefetchHint(hint_s)
            out[arr] = PrefetchParams(hint, int(dist_s))
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"error: bad --prefetch {item!r} "
                             f"(want ARRAY=hint:distance): {exc}")
    return out


def _params_from_args(args) -> TransformParams:
    return TransformParams(
        sv=not args.no_sv,
        unroll=args.unroll,
        lc=not args.no_lc,
        ae=args.ae,
        wnt=args.wnt,
        block_fetch=args.block_fetch,
        prefetch=_parse_prefetch(args.prefetch),
        register_allocation=args.regalloc,
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_kernels(args) -> int:
    print("built-in kernels (paper Table 1):")
    for name in KERNEL_ORDER:
        spec = get_kernel(name)
        print(f"  {name:8s} {spec.ctype:7s} flops={spec.flops_per_elem}N "
              f"vectors={','.join(spec.vector_args)}"
              + (f" scalars={','.join(spec.scalar_args)}"
                 if spec.scalar_args else ""))
    print("Level-3 / nest kernels (cache-blocking extension):")
    for name in BLAS3_ORDER:
        spec = get_kernel(name)
        order = f"N^{spec.flops_order}" if spec.flops_order > 1 else "N"
        print(f"  {name:9s} {spec.ctype:7s} "
              f"flops={spec.flops_per_elem}*{order} "
              f"arrays={','.join(spec.array_args)}"
              + (f" scalars={','.join(spec.scalar_args)}"
                 if spec.scalar_args else ""))
    return 0


def cmd_analyze(args) -> int:
    source, _ = _load_source(args.kernel)
    machine = get_machine(args.machine)
    fko = FKO(machine)
    print(f"# FKO analysis of {args.kernel} for {machine.name}")
    print(fko.analyze(source).describe())
    return 0


def cmd_compile(args) -> int:
    source, spec = _load_source(args.kernel)
    machine = get_machine(args.machine)
    fko = FKO(machine)
    params = _params_from_args(args)
    compiled = fko.compile(source, params, debug_verify=True)
    if args.test:
        if spec is None:
            print("warning: --test requires a built-in kernel "
                  "(no reference for user sources)", file=sys.stderr)
        else:
            test_function(compiled.fn, spec)
            print(f"# tester: {spec.name} OK", file=sys.stderr)
    print(f"# applied: {compiled.applied}", file=sys.stderr)
    if args.asm:
        print(emit_att(compiled.fn, comment_ir=args.verbose))
    else:
        print(format_function(compiled.fn))
    return 0


# ---------------------------------------------------------------------------
# engine flags: generated from the TuneConfig fields

#: flag spellings other than ``--<field-name>``
_FLAG_NAMES = {"jobs": ("--jobs", "-j"), "trace": ("--trace-out",),
               "run_tester": ("--test",)}
#: the fields ``tune-all`` takes as flags: all but the live objects
#: ``space`` and ``start`` and the library-only ``min_gain``
_ENGINE_FLAGS = tuple(f.name for f in dataclasses.fields(TuneConfig)
                      if f.name not in ("space", "start", "min_gain"))
#: ``tune`` checks registry kernels always and user sources never, and
#: tunes one problem (nothing to checkpoint)
_TUNE_FLAGS = tuple(n for n in _ENGINE_FLAGS
                    if n not in ("run_tester", "resume"))


def _flags(f: dataclasses.Field) -> Tuple[str, ...]:
    """The CLI spelling of one TuneConfig field: dashes for
    underscores."""
    return _FLAG_NAMES.get(f.name, ("--" + f.name.replace("_", "-"),))


def _flag_type(f: dataclasses.Field):
    """A flag's value type: its default's, else X of ``Optional[X]``."""
    if f.default is not None:
        return type(f.default)
    inner = f.type.removeprefix("Optional[").removesuffix("]")
    return {"int": int, "float": float}.get(inner, str)


def add_config_flags(p, names) -> None:
    """One flag per TuneConfig field in ``names``: default, type and
    help all come from the field."""
    for f in dataclasses.fields(TuneConfig):
        if f.name not in names:
            continue
        flags, help = _flags(f), f.metadata["help"]
        if isinstance(f.default, bool):
            # a bool flag turns its knob on (tune-all tests only on --test)
            p.add_argument(*flags, dest=f.name, help=help,
                           action="store_true")
        else:
            p.add_argument(*flags, dest=f.name, type=_flag_type(f),
                           default=f.default, help=help)


def _engine_config(args, **overrides) -> TuneConfig:
    """TuneConfig from the parsed engine flags; an invalid value is a
    clean ``error:`` exit."""
    knobs = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(TuneConfig) if hasattr(args, f.name)}
    try:
        return TuneConfig(**{**knobs, **overrides})
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _note_engine_knobs(args, config: TuneConfig) -> None:
    """With ``--serve-url`` the daemon runs its own engine: say which
    engine-side flags set here it ignores."""
    from .service.schema import ENGINE_KNOBS
    ignored = [_flags(f)[0] for f in dataclasses.fields(TuneConfig)
               if f.name in ENGINE_KNOBS and hasattr(args, f.name)
               and getattr(config, f.name) != f.default]
    if ignored:
        print(f"# note: the daemon at --serve-url runs its own engine and "
              f"ignores the engine-side {', '.join(ignored)}")


def _print_tuned(args, tuned, config: TuneConfig, stats: dict,
                 served: str = "") -> None:
    """The result lines of one ``repro tune``, whichever path ran it."""
    result = tuned.search
    via = f" (via {args.serve_url})" if args.serve_url else ""
    print(f"# ifko: {args.kernel} on {tuned.machine.name}, "
          f"{tuned.context.value}, N={tuned.n}{via}")
    print(f"# strategy: {config.strategy} (seed {config.seed})")
    if served:
        print(served)
    print(f"# evaluations: {result.n_evaluations}, "
          f"speedup over FKO defaults: {result.speedup_over_start:.2f}x")
    hits = stats.get("cache_hits", 0)
    if hits:
        print(f"# evaluation cache: {hits} hits, "
              f"{stats.get('evaluations', 0)} computed")
    print(f"# best parameters: {result.best_params.describe()}")
    print(f"# performance: {tuned.timing.mflops:.1f} model-MFLOPS")
    gains = [(p, g) for p, g in result.phase_speedups().items()
             if abs(g - 1) > 0.002]
    if gains:
        print("# gains: " + "  ".join(f"{p}={100 * (g - 1):+.1f}%"
                                      for p, g in gains))
    if args.asm:
        print(emit_att(tuned.compiled.fn))
    elif args.verbose:
        print(format_function(tuned.compiled.fn))


def _print_row(key: str, width: int, outcome, note: str = "") -> None:
    """One ``repro tune-all`` row: a tuned kernel or an error message."""
    if isinstance(outcome, str):
        print(f"  {key:{width}s}  ERROR: {outcome}")
        return
    evals = outcome.search.n_evaluations if outcome.search else 0
    print(f"  {key:{width}s}  {outcome.mflops:8.1f} MFLOPS  "
          f"evals={evals:<4d} {outcome.params.describe()}{note}")


def _file_spec(source: str, name: str, elem_size: int) -> KernelSpec:
    """Wrap a user ``.hil`` source as a minimal KernelSpec so it runs
    through the engine like a registry kernel.  With no reference
    implementation the tester is skipped, and "FLOPs" are counted as
    bytes moved (a neutral unit for user kernels)."""
    return KernelSpec(name=name, base=name, precision="d", hil=source,
                      vector_args=(), output_args=(),
                      flops_per_elem=elem_size)


def cmd_tune(args) -> int:
    if args.kernel in REGISTRY:
        return _tune_service(args)
    if args.serve_url:
        raise SystemExit("error: --serve-url tunes registry kernels only "
                         "(a daemon cannot load local .hil files)")
    return _tune_file_direct(args)


def _tune_service(args) -> int:
    """Registry kernels tune through :mod:`repro.client`: in-process by
    default, against a ``repro serve`` daemon with ``--serve-url`` —
    one code path, bit-identical answers."""
    from .client import ServiceError, make_client
    from .service import TuneRequest
    config = _engine_config(args)
    try:
        request = TuneRequest.from_config(args.kernel, args.machine,
                                          args.context, args.n, config)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.serve_url:
        _note_engine_knobs(args, config)
    try:
        with make_client(args.serve_url, config=config) as client:
            response = client.tune(request)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    served = (f"# served from {response.served_from}: request "
              f"{response.digest[:12]} already answered (no engine run)"
              if response.served_from else "")
    _print_tuned(args, response.tuned(), config, response.stats, served)
    return 0


def _tune_file_direct(args) -> int:
    """User ``.hil`` kernels have no registry reference, so they tune
    through an in-process session directly (the service only answers
    for named registry kernels)."""
    source, _ = _load_source(args.kernel)
    machine = get_machine(args.machine)
    fko = FKO(machine)
    analysis = fko.analyze(source)
    if not analysis.has_tuned_loop:
        raise SystemExit("error: no @TUNE loop in kernel")

    spec = _file_spec(source, pathlib.Path(args.kernel).stem,
                      analysis.elem.size)
    config = _engine_config(args, run_tester=False)
    with TuningSession(config) as session:
        tuned = session.tune(spec, machine, args.context,
                             args.n or default_n(spec, args.context))
    _print_tuned(args, tuned, config, session.stats.to_dict())
    return 0


def cmd_tune_all(args) -> int:
    machines = [m.strip() for m in args.machine.split(",") if m.strip()]
    kernels = ([k.strip() for k in args.kernels.split(",") if k.strip()]
               if args.kernels else None)
    for k in kernels or ():
        if k not in REGISTRY:
            raise SystemExit(f"error: unknown kernel {k!r}")
    jobs = registry_jobs(kernels=kernels, machines=machines,
                         contexts=(args.context,), n=args.n)
    config = _engine_config(args)
    if args.serve_url:
        return _tune_all_via_serve(args, config, jobs)
    with TuningSession(config) as session:
        batch = session.run(jobs)

    print(f"# tune-all: {len(batch.results)}/{len(jobs)} jobs "
          f"({len(batch.resumed)} resumed from checkpoint) "
          f"in {batch.wall:.1f}s with jobs={args.jobs}")
    s = session.stats
    print(f"# evaluations: {s.evaluations} computed, {s.cache_hits} "
          f"cache hits, {s.timeouts} timeouts, {s.faults} faults")
    print(f"# throughput: {s.throughput(batch.wall):.1f} evals/s, "
          f"cache hit rate {s.cache_hit_rate:.1%}, "
          f"fast-path {s.fast_path}/slow-path {s.slow_path}")
    width = max(len(job.key()) for job in jobs)
    for job in jobs:
        key = job.key()
        _print_row(key, width, batch.errors[key] if key in batch.errors
                   else batch.results[key])
    return 1 if batch.errors else 0


def _tune_all_via_serve(args, config: TuneConfig, jobs) -> int:
    """Batch-tune against a running daemon: submit everything up front
    (identical requests coalesce on the daemon; repeats answer from its
    result store), then collect in order."""
    import time

    from .client import ServeClient, ServiceError
    from .service import TuneRequest

    _note_engine_knobs(args, config)
    client = ServeClient(args.serve_url)
    t0 = time.perf_counter()
    tickets = []
    for job in jobs:
        request = TuneRequest.from_config(job.kernel, job.machine,
                                          job.context, job.n, config)
        try:
            tickets.append((job, client.submit(request)))
        except ServiceError as exc:
            raise SystemExit(f"error: {exc}")
    print(f"# tune-all via {client.url}: {len(jobs)} jobs submitted")
    errors = 0
    width = max(len(j.key()) for j in jobs)
    for job, ticket in tickets:
        try:
            response = client.wait(ticket["job_id"])
        except (ServiceError, TimeoutError) as exc:
            _print_row(job.key(), width, str(exc))
            errors += 1
            continue
        if not response.ok:
            _print_row(job.key(), width, str(response.error))
            errors += 1
            continue
        note = (f"  [{response.served_from}]"
                if response.served_from else "")
        _print_row(job.key(), width, response.tuned(), note)
    stats = client.stats()
    print(f"# daemon: {stats.get('launched', 0)} engine runs, "
          f"{stats.get('deduped', 0)} deduped, "
          f"{stats.get('cache_answers', 0)} cache answers "
          f"in {time.perf_counter() - t0:.1f}s")
    return 1 if errors else 0


def cmd_trace(args) -> int:
    if args.perfetto:
        try:
            events = read_trace(args.file)
        except OSError as exc:
            raise SystemExit(
                f"error: cannot read trace {args.file!r}: {exc}")
        if not events:
            print(f"# trace: {args.file} is empty")
            return 0
        doc = write_perfetto(events, args.perfetto)
        print(f"# perfetto: {len(doc['traceEvents'])} trace events "
              f"-> {args.perfetto} (open in https://ui.perfetto.dev "
              f"or chrome://tracing)")
        return 0
    # the summary never needs the events in memory: one streamed pass
    try:
        summary = summarize_trace(TraceStream(args.file))
    except OSError as exc:
        raise SystemExit(f"error: cannot read trace {args.file!r}: {exc}")
    if not summary.get("n_events"):
        print(f"# trace: {args.file} is empty")
        return 0
    print(render_trace_summary(summary))
    return 0


def cmd_report(args) -> int:
    try:
        events = read_trace(args.file)
    except OSError as exc:
        raise SystemExit(f"error: cannot read trace {args.file!r}: {exc}")
    if not events:
        print(f"# trace: {args.file} is empty")
        return 1
    text = render_report(events, title=args.title)
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"# report -> {args.out}")
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    from .service import serve
    config = _engine_config(args)
    return serve(host=args.host, port=args.port, config=config,
                 results_dir=args.results_dir, verbose=args.verbose,
                 max_total_evals=args.max_total_evals,
                 metrics=not args.no_metrics)


def cmd_metrics(args) -> int:
    """Snapshot a running daemon's ``/v1/metrics``."""
    import urllib.error
    import urllib.request

    url = args.serve_url.rstrip("/") + "/v1/metrics"
    if args.json:
        url += "?format=json"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            body = resp.read().decode()
    except (urllib.error.URLError, OSError) as exc:
        raise SystemExit(f"error: cannot fetch {url}: {exc} "
                         f"(is `repro serve` running?)")
    sys.stdout.write(body if body.endswith("\n") else body + "\n")
    return 0


def cmd_curves(args) -> int:
    """Anytime-performance curves from one or more search traces."""
    from itertools import chain

    for path in args.files:
        if not pathlib.Path(path).exists():
            raise SystemExit(f"error: cannot read trace {path!r}: "
                             f"no such file")
    streams = [TraceStream(path) for path in args.files]
    curves = collect_curves(chain.from_iterable(streams))
    if not curves:
        # an empty (or curve-event-free) trace is a valid answer, not
        # an error: report "no data" and exit clean so pipelines that
        # tee every trace through here don't trip on quiet ones
        print(f"# curves: no convergence data in "
              f"{', '.join(args.files)}")
        return 0
    aggregate = aggregate_curves(curves)
    if args.json:
        doc = curves_document(curves, aggregate)
        pathlib.Path(args.json).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"# curves json -> {args.json}")
    text = render_curves_markdown(
        curves, aggregate, title=args.title or "Anytime performance")
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"# curves -> {args.out}")
    elif not args.json:
        print(text)
    return 0


def cmd_perf_diff(args) -> int:
    """Diff two benchmark artifacts; exit 1 on a gated regression."""
    try:
        old = load_artifact(args.old)
        new = load_artifact(args.new)
    except OSError as exc:
        raise SystemExit(f"error: cannot load artifact: {exc}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise SystemExit(f"error: malformed artifact: {exc}")
    report = diff_metrics(old, new, threshold=args.threshold)
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(report, indent=2) + "\n")
        print(f"# perf diff json -> {args.json}")
    print(f"# perf diff: {args.old} -> {args.new}")
    print(render_diff(report, verbose=args.verbose))
    return 1 if report["regressions"] else 0


def cmd_fuzz(args) -> int:
    from .qa import replay_artifact, run_fuzz

    if args.replay:
        try:
            result = replay_artifact(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"error: cannot replay artifact {args.replay!r}: {exc}")
        print(f"# replay: {args.replay}")
        print(result.describe())
        return 1 if result.observed is not None else 0

    machines = [m.strip() for m in args.machine.split(",") if m.strip()]
    kernels = ([k.strip() for k in args.kernels.split(",") if k.strip()]
               if args.kernels else None)
    for k in kernels or ():
        if k not in REGISTRY:
            raise SystemExit(f"error: unknown kernel {k!r}")
    fuzz_kwargs = {}
    if args.via_serve:
        from .qa.fuzz import serve_check
        fuzz_kwargs["check"] = serve_check(args.via_serve)
    report = run_fuzz(seed=args.seed, budget=args.budget,
                      kernels=kernels, machines=machines,
                      shrink=not args.no_shrink,
                      artifact_dir=args.artifact_dir,
                      log=(print if args.verbose else None),
                      **fuzz_kwargs)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_experiments(args) -> int:
    from .experiments.__main__ import main as exp_main
    return exp_main(args.which, jobs=args.jobs, cache_dir=args.cache_dir)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ifko reproduction: empirical compilation of floating "
                    "point kernels on simulated 2005 x86 machines")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list built-in kernels").set_defaults(
        func=cmd_kernels)

    def add_common(p):
        p.add_argument("kernel", help="built-in kernel name or .hil file")
        p.add_argument("--machine", "-m", default="p4e",
                       help="p4e or opteron (default p4e)")

    pa = sub.add_parser("analyze",
                        help="run FKO's analysis phase and print the report")
    add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("compile",
                        help="compile once with explicit parameters")
    add_common(pc)
    pc.add_argument("--no-sv", action="store_true",
                    help="disable SIMD vectorization")
    pc.add_argument("--unroll", "-u", type=int, default=1)
    pc.add_argument("--no-lc", action="store_true",
                    help="disable loop-control optimization")
    pc.add_argument("--ae", type=int, default=1,
                    help="number of accumulators (1 = off)")
    pc.add_argument("--wnt", action="store_true",
                    help="non-temporal stores on output arrays")
    pc.add_argument("--block-fetch", action="store_true")
    pc.add_argument("--prefetch", "-p", action="append", metavar="X=nta:512",
                    help="per-array prefetch (repeatable)")
    pc.add_argument("--regalloc", choices=("global", "local", "off"),
                    default="global")
    pc.add_argument("--asm", action="store_true",
                    help="emit AT&T assembly instead of IR")
    pc.add_argument("--test", action="store_true",
                    help="verify against the NumPy reference")
    pc.add_argument("--verbose", "-v", action="store_true")
    pc.set_defaults(func=cmd_compile)

    def add_problem(p):
        """The problem's context and size, shared by tune / tune-all."""
        p.add_argument("--context", "-c", type=parse_context,
                       default=Context.OUT_OF_CACHE,
                       help="oc (out-of-cache) or ic (in-L2)")
        p.add_argument("--n", type=int, default=None,
                       help="problem size (default: the paper's for the "
                            "kernel and context)")

    pt = sub.add_parser("tune", help="run the full ifko empirical search")
    add_common(pt)
    add_problem(pt)
    add_config_flags(pt, _TUNE_FLAGS)
    pt.add_argument("--serve-url", default=None, metavar="URL",
                    help="tune through a running `repro serve` daemon "
                         "instead of in-process (registry kernels only; "
                         "answers are bit-identical)")
    pt.add_argument("--asm", action="store_true",
                    help="emit the tuned kernel as AT&T assembly")
    pt.add_argument("--verbose", "-v", action="store_true")
    pt.set_defaults(func=cmd_tune)

    pta = sub.add_parser("tune-all",
                         help="batch-tune every registry kernel through "
                              "the engine")
    pta.add_argument("--machine", "-m", default="p4e",
                     help="comma-separated machine list (default p4e)")
    pta.add_argument("--kernels", default=None,
                     help="comma-separated subset (default: all kernels)")
    pta.add_argument("--serve-url", default=None, metavar="URL",
                     help="submit the whole batch to a running "
                          "`repro serve` daemon and collect the answers")
    add_problem(pta)
    add_config_flags(pta, _ENGINE_FLAGS)
    pta.set_defaults(func=cmd_tune_all)

    psv = sub.add_parser("serve",
                         help="run the tuning daemon: a local HTTP/JSON "
                              "API (/v1/tune, /v1/jobs, /v1/results, "
                              "/v1/stats) over one shared engine session "
                              "with request dedup and a persistent "
                              "result store")
    psv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    psv.add_argument("--port", type=int, default=8642,
                     help="TCP port (default 8642; 0 picks a free one)")
    add_config_flags(psv, ("jobs", "cache_dir", "trace"))
    psv.add_argument("--results-dir", default=None, metavar="DIR",
                     help="persist answered requests here; repeats are "
                          "served instantly without re-tuning")
    psv.add_argument("--max-total-evals", type=int, default=None,
                     help="refuse new engine runs once this many "
                          "evaluations have been spent across all jobs")
    psv.add_argument("--no-metrics", action="store_true",
                     help="do not enable the process metrics registry "
                          "(GET /v1/metrics then answers empty series)")
    psv.add_argument("--verbose", "-v", action="store_true",
                     help="log every HTTP request to stderr")
    psv.set_defaults(func=cmd_serve)

    pmx = sub.add_parser("metrics",
                         help="print a running daemon's /v1/metrics "
                              "snapshot (Prometheus text exposition)")
    pmx.add_argument("--serve-url", default="http://127.0.0.1:8642",
                     metavar="URL",
                     help="daemon base URL (default "
                          "http://127.0.0.1:8642)")
    pmx.add_argument("--json", action="store_true",
                     help="fetch the JSON snapshot instead of the "
                          "Prometheus text format")
    pmx.set_defaults(func=cmd_metrics)

    ptr = sub.add_parser("trace",
                         help="summarize a JSONL search trace")
    ptr.add_argument("file", help="trace file written by --trace-out")
    ptr.add_argument("--perfetto", default=None, metavar="FILE",
                     help="export the trace as Chrome-trace-event JSON "
                          "for ui.perfetto.dev instead of summarizing")
    ptr.set_defaults(func=cmd_trace)

    pr = sub.add_parser("report",
                        help="render a markdown run report from a trace "
                             "(pass costs + cycle attribution need a "
                             "trace recorded with --observe)")
    pr.add_argument("file", help="trace file written by --trace-out")
    pr.add_argument("--out", "-o", default=None, metavar="FILE",
                    help="write the report to FILE instead of stdout")
    pr.add_argument("--title", default=None,
                    help="report title (default: generic)")
    pr.set_defaults(func=cmd_report)

    pcv = sub.add_parser("curves",
                         help="render fixed-budget anytime-performance "
                              "curves per search strategy from one or "
                              "more traces (markdown + JSON)")
    pcv.add_argument("files", nargs="+",
                     help="trace file(s) written by --trace-out")
    pcv.add_argument("--json", default=None, metavar="FILE",
                     help="also write the curves document as JSON")
    pcv.add_argument("--out", "-o", default=None, metavar="FILE",
                     help="write the markdown to FILE instead of stdout")
    pcv.add_argument("--title", default=None,
                     help="markdown title (default: generic)")
    pcv.set_defaults(func=cmd_curves)

    ppf = sub.add_parser("perf",
                         help="performance regression tracking over "
                              "benchmark artifacts")
    ppfs = ppf.add_subparsers(dest="perf_command", required=True)
    ppd = ppfs.add_parser(
        "diff",
        help="compare two results/BENCH_*.json artifacts (or two "
             ".jsonl traces, reduced to their summaries); exits 1 "
             "when a gated deterministic metric regresses")
    ppd.add_argument("old", help="baseline artifact (JSON or .jsonl)")
    ppd.add_argument("new", help="candidate artifact (JSON or .jsonl)")
    ppd.add_argument("--threshold", type=float, default=0.05,
                     metavar="F",
                     help="relative regression threshold "
                          "(default 0.05 = 5%%)")
    ppd.add_argument("--json", default=None, metavar="FILE",
                     help="also write the full diff report as JSON")
    ppd.add_argument("--verbose", "-v", action="store_true",
                     help="list every compared metric, not just "
                          "notable movements")
    ppd.set_defaults(func=cmd_perf_diff)

    pf = sub.add_parser("fuzz",
                        help="differentially fuzz the transform space: "
                             "every sample compiles with pass-boundary "
                             "IR verification and is checked against "
                             "the untransformed baseline and the NumPy "
                             "reference; failures are shrunk to minimal "
                             "JSON repro artifacts")
    pf.add_argument("--seed", type=int, default=0,
                    help="fuzz seed (the sample stream is deterministic "
                         "per seed)")
    pf.add_argument("--budget", type=int, default=200,
                    help="number of samples to check (default 200)")
    pf.add_argument("--machine", "-m", default="p4e,opteron",
                    help="comma-separated machine list "
                         "(default: both machines)")
    pf.add_argument("--kernels", default=None,
                    help="comma-separated subset (default: all kernels)")
    pf.add_argument("--artifact-dir", default=None, metavar="DIR",
                    help="write one JSON repro artifact per distinct "
                         "failure into DIR")
    pf.add_argument("--no-shrink", action="store_true",
                    help="keep raw failing samples instead of greedily "
                         "minimizing them")
    pf.add_argument("--via-serve", default=None, metavar="URL",
                    help="also compile every clean sample through a "
                         "running `repro serve` daemon and fail on any "
                         "IR divergence from the local compile (service "
                         "soak mode)")
    pf.add_argument("--replay", default=None, metavar="FILE",
                    help="re-run a repro artifact and report whether "
                         "the identical failure reproduces (exit 0 = "
                         "clean, 1 = still failing)")
    pf.add_argument("--verbose", "-v", action="store_true",
                    help="print each failure as it is found")
    pf.set_defaults(func=cmd_fuzz)

    pe = sub.add_parser("experiments",
                        help="regenerate the paper's tables and figures")
    pe.add_argument("which", nargs="*",
                    help="subset, e.g. fig2 table3 (default: all)")
    add_config_flags(pe, ("jobs",))
    pe.add_argument("--cache-dir", default=None,
                    help="persist results + evaluation cache here")
    pe.set_defaults(func=cmd_experiments)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:   # e.g. `python -m repro trace ... | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
