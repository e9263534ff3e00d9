"""Per-layer span tracing, installed from outside the program.

The benchmark measures each layer of the ``repro`` package by wrapping
the module attributes and methods through which that layer is entered
(``install``).  Nothing inside ``src/`` changes: a wrapped call opens a
span, runs the original function and closes the span.

Spans live on per-thread stacks.  A span records its name, start, end,
parent span and the job it belongs to; its *self* time is its duration
minus the time covered by its child spans, so the self times of one
thread add up exactly to the duration of that thread's root spans.
Spans named ``bench.*`` are the benchmark's own code: their self
time is reported as ``unattributed_s``.

Forked pool workers inherit the wrappers.  The wrapper around
``repro.search.engine._job_worker`` resets the tracer on the first job
of a new process and flushes that worker's spans and totals to
per-pid files after every job, which the parent merges
(``merge_pid_files``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import os
import pathlib
import sys
import threading
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: FKO pipeline passes: (name imported in ``repro.fko.pipeline``, layer)
PASSES = (("vectorize", "sv"), ("unroll", "ur"),
          ("optimize_loop_control", "lc"), ("expand_accumulators", "ae"),
          ("insert_prefetches", "pf"), ("apply_nontemporal", "wnt"),
          ("run_copy_opt", "copyprop"), ("run_peephole", "peephole"),
          ("cleanup_cfg", "cfg"), ("allocate_registers", "regalloc"),
          ("verify", "verify"), ("clone_function", "clone"))

#: self-time layers reported as ``<layer>_s`` (``fko.compile_self_s``,
#: ``engine.self_s``, ... are composed in ``layer_metrics``)
TIME_LAYERS = ("hil.front_end", "hil.tiling", "fko.analyze",
               *(f"fko.{p}" for _, p in PASSES),
               "machine.summarize", "machine.walk", "machine.nest",
               "machine.interp", "timing.finish", "timing.peek",
               "timing.tester",
               "search.ask", "search.tell", "evalcache.key",
               "evalcache.get", "evalcache.put", "engine.pool_wait",
               "engine.absorb", "atlas.search", "refcomp.build",
               "service.http", "service.submit", "service.store_get",
               "service.store_put", "service.wait")

#: timelines the reconciliation gate checks: the main thread of every
#: process (rep child, pool workers) and the daemon's dispatcher
SERIAL_THREADS = ("MainThread", "repro-serve-dispatch")

UNATTRIBUTED_LIMIT = 0.05


class _Timeline:
    """The spans and per-layer totals of one thread."""

    __slots__ = ("key", "stack", "spans", "self_s", "incl_s", "calls",
                 "root_s")

    def __init__(self, key: str):
        self.key = key
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.incl_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.Counter()
        self.root_s = 0.0


class Tracer:
    """Span stacks per thread, totals per layer, counters per event."""

    def __init__(self, out_dir: str, tag: str):
        #: where ``flush`` writes ``<tag>.spans.<pid>.jsonl`` and
        #: ``<tag>.summary.<pid>.json``
        self.out_dir = out_dir
        self.tag = tag
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._timelines: List[_Timeline] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.counts: Dict[str, float] = collections.Counter()

    def forked(self) -> bool:
        """True (once) in a process forked from the one that installed
        the tracer; the inherited spans belong to the parent."""
        if os.getpid() == self.pid:
            return False
        self._reset()
        return True

    def _timeline(self) -> _Timeline:
        tl = getattr(self._local, "tl", None)
        if tl is None:
            tl = _Timeline(f"{self.pid}/{threading.current_thread().name}")
            self._local.tl = tl
            with self._lock:
                self._timelines.append(tl)
        return tl

    # -- spans ----------------------------------------------------------
    def enter(self, name: str, job: Optional[str] = None) -> list:
        tl = self._timeline()
        parent = tl.stack[-1] if tl.stack else None
        if job is None and parent is not None:
            job = parent[3]
        frame = [next(self._ids), perf_counter(), 0.0, job, name, parent, tl]
        tl.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        ident, start, child, job, name, parent, tl = frame
        tl.stack.pop()
        dur = end - start
        if parent is not None:
            parent[2] += dur
        else:
            tl.root_s += dur
        tl.self_s[name] += dur - child
        tl.incl_s[name] += dur
        tl.calls[name] += 1
        tl.spans.append((ident, name, start, end,
                         parent[0] if parent is not None else None, job))

    def span(self, name: str, job: Optional[str] = None):
        return _Span(self, name, job)

    def wrap(self, fn: Callable, name: str,
             job: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span named ``name``; ``job(args)`` names the
        job the span starts, ``on_result(result, args)`` counts events."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, job(args) if job else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_result is not None:
                on_result(result, args)
            return result
        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` is a span (the
        consumer's loop body runs outside it)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame)
                yield item
        return traced

    # -- patching -------------------------------------------------------
    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Replace every ``repro.*`` module attribute bound to ``fn``."""
        traced = self.wrap(fn, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, **kw))

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- results --------------------------------------------------------
    def summary(self) -> Dict:
        """Per-timeline totals plus event counters (JSON-safe)."""
        with self._lock:
            timelines = list(self._timelines)
        return {"timelines": {tl.key: {"root_s": tl.root_s,
                                       "self": dict(tl.self_s),
                                       "incl": dict(tl.incl_s),
                                       "calls": dict(tl.calls)}
                              for tl in timelines},
                "counts": dict(self.counts)}

    def drain_spans(self) -> List[Dict]:
        with self._lock:
            timelines = list(self._timelines)
        out = []
        for tl in timelines:
            spans, tl.spans = tl.spans, []
            out.extend({"id": f"{self.pid}:{i}", "name": n, "start": s,
                        "end": e, "parent": (f"{self.pid}:{p}"
                                             if p is not None else None),
                        "job": j, "thread": tl.key}
                       for i, n, s, e, p, j in spans)
        return out

    def flush(self) -> None:
        """Append this process's spans and overwrite its totals in the
        per-pid files under ``out_dir``."""
        root = pathlib.Path(self.out_dir)
        root.mkdir(parents=True, exist_ok=True)
        with open(root / f"{self.tag}.spans.{self.pid}.jsonl", "a") as fh:
            for record in self.drain_spans():
                fh.write(json.dumps(record) + "\n")
        (root / f"{self.tag}.summary.{self.pid}.json").write_text(
            json.dumps(self.summary()))


class _Span:
    __slots__ = ("tracer", "name", "job", "frame")

    def __init__(self, tracer: Tracer, name: str, job: Optional[str]):
        self.tracer, self.name, self.job = tracer, name, job

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.job)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.frame)
        return False


def merge_pid_files(out_dir: str, tag: str) -> List[Dict]:
    """Append the per-pid span files of ``tag`` to ``<tag>.spans.jsonl``
    and return the per-pid summaries, deleting the per-pid files."""
    root = pathlib.Path(out_dir)
    summaries = []
    for path in sorted(root.glob(f"{tag}.summary.*.json")):
        summaries.append(json.loads(path.read_text()))
        path.unlink()
    with open(root / f"{tag}.spans.jsonl", "a") as out:
        for path in sorted(root.glob(f"{tag}.spans.*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    out.write(line)
            path.unlink()
    return summaries


# ---------------------------------------------------------------------------
# the layer map

def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer of ``repro``."""
    import concurrent.futures

    import repro.atlas.search
    import repro.experiments.__main__ as experiments_main
    import repro.fko as fko
    import repro.machine.blocking as blocking
    import repro.machine.interp as interp
    import repro.machine.loopinfo as loopinfo
    import repro.refcomp.base as refcomp
    import repro.search.engine as engine
    import repro.search.evalcache as evalcache
    import repro.search.strategies as strategies
    import repro.service.daemon as daemon
    import repro.service.jobs as jobs
    import repro.timing.tester as tester
    from repro.experiments.store import ResultStore
    from repro.fko import pipeline
    from repro.machine.timing import LoopTimer
    from repro.timing.timer import Timer

    t = tracer
    for attr in ("parse", "check", "lower"):
        t.patch_function(getattr(fko, attr), "hil.front_end")
    t.patch_function(fko.tiled_source, "hil.tiling")
    t.patch_function(fko.analyze, "fko.analyze")
    for attr, layer in PASSES:
        t.patch_function(getattr(pipeline, attr), f"fko.{layer}")

    def _compiled(result, args):
        if isinstance(args[1], str):
            t.count("fko.compile_str")
    t.patch_method(fko.FKO, "compile", "fko.compile", on_result=_compiled)
    # the memoized path's halves, counted to derive the hit rates
    for attr in ("compile_prefix", "finish_kernel"):
        setattr(fko, attr, t.wrap(getattr(fko, attr), f"fko.{attr}"))

    t.patch_function(loopinfo.summarize, "machine.summarize")

    def _walked(result, args):
        if result.stats.lines_extrapolated > 0:
            t.count("machine.fast_path")
    t.patch_method(LoopTimer, "time", "machine.walk", on_result=_walked)
    t.patch_function(blocking.nest_cycles, "machine.nest")
    t.patch_function(interp.run_function, "machine.interp")

    t.patch_method(Timer, "finish", "timing.finish")

    def _peeked(result, args):
        if result is not None:
            t.count("timing.walk_hits")
    t.patch_method(Timer, "peek_base", "timing.peek", on_result=_peeked)
    t.patch_function(tester.test_kernel, "timing.tester")
    t.patch_function(tester.test_function, "timing.tester")

    for attr in ("ask", "ask_batch"):
        t.patch_method(strategies.Searcher, attr, "search.ask")
    t.patch_method(strategies.Searcher, "tell", "search.tell")

    t.patch_function(evalcache.eval_key, "evalcache.key")

    def _got(result, args):
        if result is not None:
            t.count("evalcache.hits")
    t.patch_method(evalcache.EvalCache, "get", "evalcache.get",
                   on_result=_got)
    t.patch_method(evalcache.EvalCache, "put", "evalcache.put")

    def _job_key(args):
        _, spec, machine, context, n = args[:5]
        return (f"{getattr(spec, 'name', spec)}:"
                f"{getattr(machine, 'name', machine)}:"
                f"{getattr(context, 'value', context)}:{n}")
    t.patch_method(engine.TuningSession, "_tune", "engine", job=_job_key)
    for attr in ("run", "compile_default"):
        t.patch_method(engine.TuningSession, attr, "engine")
    t.patch_method(engine._Evaluator, "many", "engine")
    t.patch_method(engine.TuningSession, "_absorb", "engine.absorb")
    concurrent.futures.as_completed = t.wrap_iter(
        concurrent.futures.as_completed, "engine.pool_wait")

    worker = engine._job_worker

    def _job_worker(payload):
        t.forked()
        job = payload["job"]
        with t.span("engine",
                    job=f"{job['kernel']}:{job['machine']}:"
                        f"{job['context']}:{job['n']}"):
            result = worker(payload)
        t.flush()
        return result
    # pickled by name: the pool sends "repro.search.engine._job_worker"
    _job_worker.__module__ = worker.__module__
    _job_worker.__qualname__ = worker.__qualname__
    engine._job_worker = _job_worker

    t.patch_function(repro.atlas.search.atlas_search, "atlas.search")
    t.patch_method(refcomp.ModeledCompiler, "build", "refcomp.build")
    t.patch_function(experiments_main.main, "experiments")
    for attr in ("get", "_compute"):
        t.patch_method(ResultStore, attr, "experiments")

    for attr in ("do_POST", "do_GET"):
        t.patch_method(daemon.ServiceHandler, attr, "service.http")
    t.patch_method(jobs.JobManager, "submit", "service.submit")

    def _queued(args):
        job = args[1]
        # ServeJob.created is wall-clock time
        t.count("service.queue_wait_s", time.time() - job.created)
        return job.id
    t.patch_method(jobs.JobManager, "_execute", "service.execute",
                   job=_queued)
    t.patch_method(jobs.JobManager, "wait", "service.wait")
    t.patch_method(jobs.ServeResultStore, "get", "service.store_get")
    t.patch_method(jobs.ServeResultStore, "put", "service.store_put")


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reconcile(summaries: List[Dict]) -> List[Dict]:
    """One row per serial timeline: its wall (root span time), the sum
    of its layer self times, its unattributed self time, and whether
    the two add up to the wall with unattributed time within 5%."""
    rows = []
    for summary in summaries:
        for key, tl in summary["timelines"].items():
            if key.split("/", 1)[1] not in SERIAL_THREADS or not tl["root_s"]:
                continue
            wall = tl["root_s"]
            unattributed = sum(v for k, v in tl["self"].items()
                               if k.startswith("bench."))
            layers = sum(v for k, v in tl["self"].items()
                         if not k.startswith("bench."))
            closes = math.isclose(layers + unattributed, wall,
                                  rel_tol=1e-6, abs_tol=1e-6)
            rows.append({"timeline": key, "wall_s": wall,
                         "layers_s": layers, "unattributed_s": unattributed,
                         "ok": closes
                         and unattributed <= UNATTRIBUTED_LIMIT * wall})
    return rows


def totals(summaries: List[Dict]):
    self_s: Dict[str, float] = collections.defaultdict(float)
    incl_s: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    counts: Dict[str, float] = collections.Counter()
    for summary in summaries:
        for tl in summary["timelines"].values():
            for k, v in tl["self"].items():
                self_s[k] += v
            for k, v in tl["incl"].items():
                incl_s[k] += v
            for k, v in tl["calls"].items():
                calls[k] += v
        for k, v in summary["counts"].items():
            counts[k] += v
    return self_s, incl_s, calls, counts


def layer_metrics(summaries: List[Dict], rows: List[Dict],
                  trace_overhead: float) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    self_s, incl_s, calls, counts = totals(summaries)
    out: Dict[str, tuple] = {}
    for layer in TIME_LAYERS:
        out[f"{layer}_s"] = (self_s[layer], "s")
    for _, p in PASSES:
        out[f"fko.{p}_calls"] = (calls[f"fko.{p}"], "count")
    out["hil.tiling_calls"] = (calls["hil.tiling"], "count")
    out["fko.compile_self_s"] = (self_s["fko.compile"]
                                 + self_s["fko.compile_prefix"]
                                 + self_s["fko.finish_kernel"], "s")
    compiles = counts["fko.compile_str"]
    out["fko.prefix_hit_rate"] = (
        _ratio(compiles - calls["fko.compile_prefix"], compiles), "ratio")
    out["fko.full_hit_rate"] = (
        _ratio(compiles - calls["fko.finish_kernel"], compiles), "ratio")
    out["machine.walk_calls"] = (calls["machine.walk"], "count")
    out["machine.fast_path_rate"] = (
        _ratio(counts["machine.fast_path"], calls["machine.walk"]), "ratio")
    out["timing.walk_hit_rate"] = (
        _ratio(counts["timing.walk_hits"], calls["timing.peek"]), "ratio")
    out["search.rounds"] = (calls["search.tell"], "count")
    out["evalcache.hit_rate"] = (
        _ratio(counts["evalcache.hits"], calls["evalcache.get"]), "ratio")
    out["engine.self_s"] = (self_s["engine"], "s")
    out["atlas.search_incl_s"] = (incl_s["atlas.search"], "s")
    out["experiments.self_s"] = (self_s["experiments"], "s")
    out["service.queue_wait_s"] = (counts["service.queue_wait_s"], "s")
    out["service.execute_self_s"] = (self_s["service.execute"], "s")
    out["unattributed_s"] = (sum(r["unattributed_s"] for r in rows), "s")
    out["trace_overhead"] = (trace_overhead, "ratio")
    return out


def layer_table(summaries: List[Dict]) -> List[tuple]:
    """``(span name, self s, calls)`` sorted by self time, descending."""
    self_s, _, calls, _ = totals(summaries)
    return sorted(((k, v, calls[k]) for k, v in self_s.items()),
                  key=lambda row: -row[1])
