"""The parallel batch-tuning engine behind the :class:`TuningSession` API.

The paper's evaluation tunes 10+ kernels x 2 machines x 2 contexts, and
each ifko run makes hundreds of compile+time evaluations.  All of that
work is embarrassingly parallel at two grains, and this module exploits
both through one ``concurrent.futures.ProcessPoolExecutor``:

* **across jobs** — independent (kernel, machine, context, N) tuning
  runs fan out whole, one search per worker process
  (:meth:`TuningSession.run`);
* **within a sweep** — a single search's candidates fan out as
  evaluation groups (:meth:`TuningSession.tune` with ``jobs > 1``).

Parallelism never changes the answer: every search strategy (the
ask/tell :class:`~repro.search.strategies.Searcher` protocol — line
search, random, genetic, surrogate) charges its budget and reduces each
asked batch in candidate order regardless of who computed the cycle
counts, so ``jobs=N`` is bit-identical to ``jobs=1`` (the simulated
machines and the seeded timer noise are deterministic).

Around the pool the session layers the robustness an overnight tuning
run needs:

* a persistent content-addressed **evaluation cache**
  (:mod:`repro.search.evalcache`) shared across runs and processes;
* per-evaluation **timeouts**; :class:`~repro.errors.SimulationFault`
  is recorded immediately (the simulated machine is deterministic, so
  identical inputs fault identically — nothing to retry, neither an
  evaluation nor a whole job);
* **checkpoint/resume** of partially completed batches to a JSON state
  file;
* a JSON-lines **trace** (:mod:`repro.search.trace`) of every
  evaluation, cache hit and phase move;
* graceful **fallback to serial** when ``jobs=1`` or the pool dies.

Worker-pool lifecycle (and the fair-queue / in-flight-dedup / budget
primitives the service daemon builds on) live one layer down in
:mod:`repro.search.scheduler`; how requests arrive and results leave is
the transport layer's business — this session for in-process callers,
:mod:`repro.service` for HTTP clients.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import __version__
from ..errors import KernelTestFailure, ReproError, SimulationFault
from ..fko import FKO, TransformParams
from ..hil.tiling import nest_info
from ..kernels import KERNEL_ORDER, REGISTRY, get_kernel
from ..kernels.blas1 import KernelSpec
from ..machine import (Context, canonical_machine, get_machine,
                       machine_ident, parse_context, summarize)
from ..machine.config import MachineConfig
from ..obs import metrics as _metrics
from ..obs.core import Collector, use as _obs_use
from ..records import read_json, write_json
from ..timing.tester import test_kernel
from ..timing.timer import Timer, default_n
from ..util import LRUCache
from .config import TuneConfig
from .drivers import TunedKernel
from .evalcache import EvalCache, eval_key
from .scheduler import Scheduler
from .space import build_space
from .strategies import Searcher, TransferSearch, make_searcher
from .trace import TraceWriter


# ---------------------------------------------------------------------------
# one evaluation: compile + time, with timeout

class EvalTimeout(ReproError):
    """An evaluation exceeded the configured per-evaluation timeout."""


class _alarm:
    """SIGALRM-based wall-clock guard around one evaluation.  A no-op
    when no timeout is set, off the main thread, or on platforms
    without SIGALRM (evaluations then simply run to completion)."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self.active = (seconds is not None and hasattr(signal, "SIGALRM")
                       and threading.current_thread()
                       is threading.main_thread())
        self._prev = None

    def __enter__(self):
        if self.active:
            def _raise(signum, frame):
                raise EvalTimeout(f"evaluation exceeded {self.seconds}s")
            self._prev = signal.signal(signal.SIGALRM, _raise)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._prev)
        return False


def evaluate_params(fko: FKO, timer: Timer, hil: str,
                    params: TransformParams, flops: float,
                    ident_prefix: str,
                    timeout: Optional[float] = None,
                    observe: bool = False,
                    verify_ir: bool = False) -> Tuple[float, str, Dict]:
    """One compile+time.  Returns ``(cycles, status, meta)`` where
    status is ``ok`` | ``timeout`` | ``fault: ...``; failures come back
    as ``inf`` cycles (the sweep just never picks them) instead of
    killing a batch that has hours of work behind it.  ``meta`` reports
    whether the timing model's steady-state fast path fired.

    ``observe=True`` additionally collects pass-level compile telemetry
    (an :mod:`repro.obs` collector around the compile) and the timing
    model's cycle attribution, returned as ``meta["passes"]`` /
    ``meta["attribution"]``.  Observation reads state the compile and
    the simulator produce anyway, so cycles, cache keys and search
    decisions are bit-identical with it on or off.

    ``verify_ir=True`` runs the IR verifier at every pass boundary of
    the compile.  Like observation it never perturbs the result — a
    clean compile produces bit-identical cycles; a violation surfaces
    as an :class:`~repro.errors.IRVerifyError` fault instead of a
    silently miscompiled candidate.

    A :class:`SimulationFault` is terminal: the simulated machine is
    deterministic, so re-running the identical (kernel, params) inputs
    would fault identically — the fault is recorded immediately instead
    of compiling and timing a doomed candidate twice."""
    col = Collector() if observe else None
    try:
        with _alarm(timeout):
            if col is not None:
                with _obs_use(col):
                    compiled = fko.compile(hil, params,
                                           debug_verify=verify_ir)
            else:
                compiled = fko.compile(hil, params, debug_verify=verify_ir)
            # the share key asserts the compile's complete effective
            # identity, letting the timer reuse the walk of an earlier
            # bit-identical kernel; on a memoized walk the summary
            # itself is skipped — the shared key guarantees it would
            # have been identical
            share = fko.share_key(hil, params, debug_verify=verify_ir)
            base = timer.peek_base(share)
            if base is None:
                base = timer.base(summarize(compiled.fn), share,
                                  source=hil, tiles=params.tiles())
            timing = timer.finish(base, flops,
                                  ident=f"{ident_prefix}{params.key()}")
    except SimulationFault as exc:
        return float("inf"), f"fault: {exc}", {"fast": False}
    except EvalTimeout:
        return float("inf"), "timeout", {"fast": False}
    raw = timing.raw
    meta = {"fast": bool(raw is not None
                         and raw.stats.lines_extrapolated > 0)}
    if col is not None:
        meta["passes"] = col.passes
        if raw is not None:
            meta["attribution"] = raw.attribution(timer.machine)
    return timing.cycles, "ok", meta


# ---------------------------------------------------------------------------
# one candidate group: the only evaluation loop, serial or in a worker

class _Tools:
    """Memoized FKO/Timer pairs — every candidate of a sweep shares
    them, and so do the FKO-default, ATLAS and reference-compiler
    builds of an experiment store.  One FKO per machine: its compile
    caches are context-independent, so an (OOC, in-L2) sweep shares
    compiles; one Timer (and its walk memos) per (machine, context, n).
    A machine is identified by :func:`machine_ident`, not its name, so
    a modified registry machine never borrows the registry machine's
    caches.  Bounded, because a long tune-all batch walks many
    (machine, context, N) combinations through the same process."""

    def __init__(self):
        self._fkos = LRUCache(maxsize=4)
        self._timers = LRUCache(maxsize=8)

    def get(self, machine: MachineConfig, context: Context,
            n: int) -> Tuple[FKO, Timer]:
        ident = machine_ident(machine)
        tkey = (ident, context.value, int(n))
        fko = self._fkos.get(ident)
        if fko is None:
            fko = FKO(machine)
            self._fkos.put(ident, fko)
        timer = self._timers.get(tkey)
        if timer is None:
            timer = Timer(machine, context, n)
            self._timers.put(tkey, timer)
        return fko, timer


def _eval_group(fko: FKO, timer: Timer, payload: Dict,
                params_list: Sequence[TransformParams]
                ) -> Tuple[List[Dict], Dict[str, int]]:
    """Evaluate candidates in order on one FKO/Timer pair.  Returns one
    outcome per candidate (``evaluate_params``' meta plus cycles,
    status and wall) and the group's compile-prefix / shared-walk
    reuse-counter deltas."""
    hil, flops, ident = payload["hil"], payload["flops"], payload["ident"]
    timeout = payload["timeout"]
    observe, verify_ir = payload["observe"], payload["verify_ir"]
    before = fko.cache_stats()
    tbefore = timer.cache_stats()
    outcomes = []
    for params in params_list:
        t0 = time.perf_counter()
        cycles, status, meta = evaluate_params(fko, timer, hil, params,
                                               flops, ident, timeout,
                                               observe=observe,
                                               verify_ir=verify_ir)
        outcomes.append(dict(meta, cycles=cycles, status=status,
                             wall=time.perf_counter() - t0))
    after = fko.cache_stats()
    tafter = timer.cache_stats()
    return outcomes, {
        "batch_prefix_hits": after["prefix_hits"] - before["prefix_hits"],
        "batch_prefix_misses": after["prefix_misses"]
        - before["prefix_misses"],
        "batch_walk_hits": tafter["base_hits"] - tbefore["base_hits"]}


# pool workers are top-level so they pickle by name
_WORKER_TOOLS = _Tools()


def _eval_group_worker(payload: Dict) -> Tuple[List[Dict], Dict[str, int]]:
    """Evaluate one candidate group in a worker (within-sweep fan-out)."""
    fko, timer = _WORKER_TOOLS.get(payload["machine"],
                                   Context(payload["context"]), payload["n"])
    return _eval_group(fko, timer, payload,
                       [TransformParams.from_dict(p)
                        for p in payload["params_list"]])


#: TuneConfig fields a job worker never takes from the parent
_PARENT_ONLY = ("jobs", "trace", "resume", "space", "start")


def _job_worker(payload: Dict) -> Dict:
    """Run one whole tuning job serially in a worker (job-level
    fan-out).  Trace events are buffered and shipped back so the parent
    stays the only writer of the trace file."""
    job = TuningJob.from_dict(payload["job"])
    config = TuneConfig(jobs=1, trace=None, resume=None,
                        **payload["config"])
    with TuningSession(config, buffer_events=True) as session:
        try:
            tuned = session.tune(job.kernel, job.machine, job.context, job.n,
                                 max_evals=job.max_evals)
            return {"ok": True, "result": tuned.to_dict(),
                    "events": session.drain_events(),
                    "stats": session.stats.to_dict()}
        except Exception as exc:   # noqa: BLE001 — report, parent decides
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "events": session.drain_events(),
                    "stats": session.stats.to_dict()}


# ---------------------------------------------------------------------------
# jobs, stats, batch results

def job_key(kernel: str, machine: str, context, n: int) -> str:
    """The ``kernel:machine:context:n`` string that names one problem in
    job results, checkpoints, wire keys and every trace ``job`` field."""
    return f"{kernel}:{machine}:{getattr(context, 'value', context)}:{n}"


@dataclass
class TuningJob:
    """One unit of batch work: tune ``kernel`` on ``machine`` in
    ``context`` at size ``n``.  Kernel and machine are held by registry
    *name* so a job pickles as a handful of strings (a
    :class:`MachineConfig` that differs from its registry machine is
    refused); the context may be given in any
    :func:`~repro.machine.parse_context` spelling."""

    kernel: str
    machine: str
    context: Context
    n: int
    max_evals: Optional[int] = None    # per-job budget override

    def __post_init__(self):
        if isinstance(self.kernel, KernelSpec):
            self.kernel = self.kernel.name
        if isinstance(self.machine, MachineConfig):
            if ":" in machine_ident(self.machine):
                raise ValueError(
                    f"TuningJob names machines by registry name, but this "
                    f"{self.machine.name!r} config differs from the "
                    f"registry machine; tune a custom MachineConfig with "
                    f"TuningSession.tune")
            self.machine = self.machine.name
        # canonicalize aliases ("P4E", "pentium4", ...) so checkpoint
        # keys match however the job was constructed
        self.machine = canonical_machine(self.machine)
        self.context = parse_context(self.context)
        if self.kernel not in REGISTRY:
            raise KeyError(f"unknown kernel {self.kernel!r}")

    def key(self) -> str:
        return job_key(self.kernel, self.machine, self.context, self.n)

    def to_dict(self) -> Dict:
        return {"kernel": self.kernel, "machine": self.machine,
                "context": self.context.value, "n": self.n,
                "max_evals": self.max_evals}

    @staticmethod
    def from_dict(data: Dict) -> "TuningJob":
        return TuningJob(kernel=data["kernel"], machine=data["machine"],
                         context=data["context"], n=int(data["n"]),
                         max_evals=data.get("max_evals"))


def registry_jobs(kernels: Optional[Sequence[str]] = None,
                  machines: Sequence[str] = ("p4e",),
                  contexts: Sequence[Context] = (Context.OUT_OF_CACHE,),
                  n: Optional[int] = None) -> List[TuningJob]:
    """The full batch for ``tune-all``: every registry kernel crossed
    with the requested machines and contexts (``default_n`` per kernel
    and context when ``n`` is None)."""
    return [TuningJob(kernel, machine, context,
                      n or default_n(kernel, context))
            for kernel in (kernels or KERNEL_ORDER)
            for machine in machines for context in contexts]


@dataclass
class EngineStats:
    """Counters across one session (workers report theirs back and the
    parent merges, so these are batch-wide totals)."""

    evaluations: int = 0      # real compile+time runs
    cache_hits: int = 0       # served from the persistent cache
    timeouts: int = 0
    faults: int = 0           # evaluations lost to a SimulationFault
    fast_path: int = 0        # evaluations timed via steady-state replay
    slow_path: int = 0        # evaluations that walked every line
    jobs_completed: int = 0
    jobs_resumed: int = 0
    # batched-evaluation reuse (compile prefix snapshots forked /
    # full pipelines run, and walks served from the timer's shared
    # cache); the session and its workers both contribute
    batch_prefix_hits: int = 0
    batch_prefix_misses: int = 0
    batch_walk_hits: int = 0
    batch_groups: int = 0      # evaluation groups dispatched
    batch_size_total: int = 0  # candidates across those groups

    def to_dict(self) -> Dict:
        return dict(self.__dict__)

    def merge(self, other: Optional[Dict]) -> None:
        for k, v in (other or {}).items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + int(v))

    def throughput(self, wall: float) -> float:
        """Real evaluations per second over ``wall`` seconds."""
        return self.evaluations / wall if wall > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        seen = self.evaluations + self.cache_hits
        return self.cache_hits / seen if seen else 0.0


@dataclass
class BatchResult:
    """What :meth:`TuningSession.run` hands back."""

    results: Dict[str, TunedKernel]
    errors: Dict[str, str] = field(default_factory=dict)
    resumed: List[str] = field(default_factory=list)
    wall: float = 0.0

    def __getitem__(self, job_key: str) -> TunedKernel:
        return self.results[job_key]

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> Dict:
        return {"results": {k: tk.to_dict()
                            for k, tk in self.results.items()},
                "errors": dict(self.errors),
                "resumed": list(self.resumed), "wall": self.wall}


# ---------------------------------------------------------------------------
# the cache-, trace- and fault-aware evaluator handed to LineSearch

class _Evaluator:
    def __init__(self, session: "TuningSession", spec: KernelSpec,
                 machine: MachineConfig, context: Context, n: int,
                 fko: FKO, timer: Timer):
        self.session = session
        self.spec = spec
        self.machine = machine
        self.context = context
        self.n = n
        self.fko = fko
        self.timer = timer
        self.flops = spec.flops(n)
        self.ident = f"{spec.name}|"
        self.job = job_key(spec.name, machine.name.lower(), context, n)
        self.machine_ident = machine_ident(machine)
        self.search: Optional[Searcher] = None   # set post-construction
        config = session.config
        # what a candidate group needs besides its params: the serial
        # path reads the first six keys, a pool worker all of them (the
        # machine travels as its config, so a worker times the machine
        # the parent was given, not the registry entry of its name)
        self.payload = {"hil": spec.hil, "flops": self.flops,
                        "ident": self.ident, "timeout": config.timeout,
                        "observe": config.observe,
                        "verify_ir": config.verify_ir,
                        "machine": machine, "context": context.value,
                        "n": n}

    def _phase(self) -> str:
        return self.search.phase if self.search is not None else ""

    def _digest(self, params: TransformParams) -> str:
        return eval_key(self.spec.hil, self.machine_ident, self.context,
                        self.n, params.key(), __version__)

    def __call__(self, params: TransformParams) -> float:
        return self.many([params])[0]

    def _groups_to_run(self, batch: List[TransformParams],
                       groups: Optional[List[List[TransformParams]]],
                       to_run: List[int]) -> List[List[int]]:
        """Project the searcher's evaluation groups onto the indices
        that still need real evaluations (cache hits drop out), in
        group order.  Without groups, every candidate is its own
        group."""
        if not groups:
            return [[i] for i in to_run]
        pos = {batch[i].key(): i for i in to_run}
        out = []
        for group in groups:
            idxs = [pos[p.key()] for p in group if p.key() in pos]
            if idxs:
                out.append(idxs)
        return out

    _BATCH_KEYS = (("batch_prefix_hits", "repro_batch_prefix_hits_total"),
                   ("batch_prefix_misses", "repro_batch_prefix_misses_total"),
                   ("batch_walk_hits", "repro_batch_walk_hits_total"))

    def _charge_batch(self, deltas: Dict[str, int]) -> None:
        """Fold one ``_eval_group``'s cache-reuse counter deltas into
        the session stats and the metrics registry."""
        stats = self.session.stats
        for key, metric in self._BATCH_KEYS:
            v = deltas[key]
            if v:
                setattr(stats, key, getattr(stats, key) + v)
                _metrics.inc(metric, v)

    def many(self, batch: List[TransformParams],
             groups: Optional[List[List[TransformParams]]] = None
             ) -> List[float]:
        session = self.session
        cycles: List[Optional[float]] = [None] * len(batch)

        to_run: List[int] = []
        digests = [self._digest(p) for p in batch]
        for i, params in enumerate(batch):
            hit = (session.cache.get(digests[i])
                   if session.cache is not None else None)
            if hit is not None:
                cycles[i] = hit
                session.stats.cache_hits += 1
                _metrics.inc("repro_eval_cache_hits_total")
                session.emit("cache-hit", job=self.job, phase=self._phase(),
                             params=params.describe(), cycles=hit, wall=0.0)
            else:
                to_run.append(i)

        run_groups = self._groups_to_run(batch, groups, to_run)
        if groups:
            session.stats.batch_groups += len(run_groups)
            session.stats.batch_size_total += len(to_run)
            if _metrics._ENABLED:
                _metrics.inc("repro_batch_groups_total", len(run_groups))
                for idxs in run_groups:
                    _metrics.observe("repro_batch_group_size", len(idxs))

        # one payload per group; replies are charged only once the whole
        # map has come back, so a pool dying mid-batch leaves nothing
        # for the serial fallback to count twice
        replies = None
        pool = session.pool() if len(to_run) > 1 else None
        if pool is not None:
            payloads = [dict(self.payload,
                             params_list=[batch[i].to_dict() for i in idxs])
                        for idxs in run_groups]
            try:
                replies = list(pool.map(_eval_group_worker, payloads))
            except BrokenProcessPool:
                session.mark_pool_broken(self.job)
        if replies is None:
            # serial path, and fallback after a dead pool: the groups
            # back to back (prefix-sharing candidates adjacent) as one
            run_groups = [[i for idxs in run_groups for i in idxs]]
            replies = [_eval_group(self.fko, self.timer, self.payload,
                                   [batch[i] for i in run_groups[0]])]
        outcomes: Dict[int, Dict] = {}
        for idxs, (group_outcomes, deltas) in zip(run_groups, replies):
            self._charge_batch(deltas)
            outcomes.update(zip(idxs, group_outcomes))

        # record strictly in ask order, whoever computed the numbers —
        # trace rows, eval-cache writes and stats are order-identical
        # to per-candidate dispatch
        for i in to_run:
            cycles[i] = self._record(batch[i], digests[i], outcomes[i])
        return cycles

    def _record(self, params: TransformParams, digest: str,
                outcome: Dict) -> float:
        session = self.session
        c, status = outcome["cycles"], outcome["status"]
        session.stats.evaluations += 1
        if status == "timeout":
            session.stats.timeouts += 1
        elif status != "ok":
            session.stats.faults += 1
        elif outcome.get("fast"):
            session.stats.fast_path += 1
        else:
            session.stats.slow_path += 1
        if _metrics._ENABLED:
            # recorded parent-side (whichever process computed the
            # outcome), so engine metrics are complete under fan-out
            _metrics.inc("repro_evaluations_total",
                         status=("fault" if status.startswith("fault")
                                 else status))
            if status == "ok":
                _metrics.inc("repro_eval_path_total",
                             path="fast" if outcome.get("fast") else "slow")
            _metrics.observe("repro_eval_wall_seconds",
                             float(outcome.get("wall") or 0.0))
        # only completed measurements are worth remembering: a timeout
        # may be transient, so the next run should try again
        if session.cache is not None and status == "ok":
            session.cache.put(digest, c, meta={"kernel": self.spec.name,
                                               "machine": self.machine.name,
                                               "context": self.context.value,
                                               "n": self.n,
                                               "params": params.describe()})
        desc = params.describe()
        phase = self._phase()
        # observation rows bracket the eval: every pass record first,
        # the eval itself, then its cycle attribution — one contiguous,
        # deterministic per-candidate group in the trace regardless of
        # whether the outcome came from a worker or the serial path
        for p in outcome.get("passes") or ():
            session.emit("pass", job=self.job, phase=phase,
                         params=desc, **p)
        session.emit("eval", job=self.job, phase=phase,
                     params=desc, cycles=c,
                     wall=outcome["wall"], status=status,
                     fast=bool(outcome.get("fast")))
        attribution = outcome.get("attribution")
        if attribution is not None:
            session.emit("attribution", job=self.job, phase=phase,
                         params=desc, **attribution)
        return c


# ---------------------------------------------------------------------------
# the session

class TuningSession:
    """The in-process transport over the engine + scheduler layers.

    Owns the scheduler (and through it the worker pool), the persistent
    evaluation cache, the trace writer and batch checkpoints.  Use it
    as a context manager::

        with TuningSession(TuneConfig(jobs=4, cache_dir=".cache")) as s:
            batch = s.run(registry_jobs(machines=["p4e", "opteron"]))
    """

    def __init__(self, config: Optional[TuneConfig] = None,
                 buffer_events: bool = False):
        self.config = config or TuneConfig()
        self.cache = (EvalCache(self.config.cache_dir)
                      if self.config.cache_dir else None)
        self.stats = EngineStats()
        self._trace = (TraceWriter(self.config.trace)
                       if (self.config.trace or buffer_events) else None)
        # the scheduling layer owns the worker-pool lifecycle; the
        # session is just its first transport
        self.scheduler = Scheduler(self.config.jobs)
        # FKO/Timer instances reused across the jobs of a batch
        self._tools = _Tools()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Idempotent teardown: the scheduler's pool is cancelled and
        shut down (no orphaned workers) and the trace file is closed —
        safe from error paths, including a mid-batch KeyboardInterrupt."""
        self.scheduler.shutdown()
        if self._trace is not None:
            self._trace.close()

    def __enter__(self) -> "TuningSession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- pool / trace plumbing -----------------------------------------
    def pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The executor, or None when running serially (``jobs=1``, a
        previously broken pool, or a platform that cannot fork)."""
        return self.scheduler.pool()

    def mark_pool_broken(self, job: Optional[str] = None) -> None:
        self.scheduler.mark_broken()
        self.emit("pool-broken", job=job)

    @property
    def trace_writer(self) -> Optional[TraceWriter]:
        """The session's trace writer (None when tracing is off) — the
        seam a transport subscribes to for live event streaming."""
        return self._trace

    def emit(self, event: str, **fields) -> None:
        if self._trace is not None:
            self._trace.emit(event, **fields)

    def drain_events(self) -> List[Dict]:
        return self._trace.drain() if self._trace is not None else []

    # -- single-kernel tuning ------------------------------------------
    def tune(self, spec: Union[str, KernelSpec],
             machine: Union[str, MachineConfig], context: Context, n: int,
             max_evals: Optional[int] = None) -> TunedKernel:
        """ifko one kernel: analysis -> global search -> verified best.

        The strategy is picked by ``config.strategy`` (the paper's line
        search by default); any registered strategy is driven through
        the same ask/tell loop, so every strategy shares the budget
        accounting, the persistent evaluation cache and — with
        ``jobs > 1`` — the per-batch fan-out across the worker pool.
        Candidates are charged and reduced in ask-order, which keeps
        each strategy bit-identical between ``jobs=1`` and ``jobs=N``.

        A ``KeyboardInterrupt`` (or any other non-``Exception``) during
        the search tears the session down on the way out — the
        scheduler's pool is shut down with futures cancelled and the
        trace file is closed — so an interrupted interactive run leaves
        no orphaned workers and a readable partial trace.  Ordinary
        exceptions propagate without closing: a batch (:meth:`run`)
        keeps its session alive across individual job failures.
        """
        try:
            return self._tune(spec, machine, context, n,
                              max_evals=max_evals)
        except Exception:
            raise
        except BaseException:   # KeyboardInterrupt, SystemExit, ...
            self.close()
            raise

    def _tune(self, spec: Union[str, KernelSpec],
              machine: Union[str, MachineConfig], context: Context, n: int,
              max_evals: Optional[int] = None) -> TunedKernel:
        spec = get_kernel(spec) if isinstance(spec, str) else spec
        machine = (get_machine(machine) if isinstance(machine, str)
                   else machine)
        config = self.config
        fko, timer = self.tools(machine, context, n)
        analysis = fko.analyze(spec.hil)
        space = config.space or build_space(
            analysis, machine, enable_block_fetch=config.enable_block_fetch,
            nest=nest_info(spec.hil))
        start = config.start or fko.defaults(spec.hil)

        evaluator = _Evaluator(self, spec, machine, context, n, fko, timer)
        kwargs = dict(max_evals=max_evals or config.max_evals,
                      min_gain=config.min_gain, seed=config.seed,
                      output_arrays=analysis.output_arrays)
        strategy_name = config.strategy
        warm: List[TransformParams] = []
        warm_source = ""
        if config.warm_start:
            # warm-starting wraps the strategy in the transfer layer and
            # resolves the neighbor lookup parent-side (workers only
            # ever compute cycles, so jobs=1 vs jobs=N stays
            # bit-identical)
            from .warmstart import lookup_warm_start
            warm, warm_source = lookup_warm_start(
                config.warm_start, kernel=spec.name, machine=machine.name,
                context=context, n=n)
            searcher: Searcher = TransferSearch(
                space, start, config.strategy, warm=warm,
                warm_source=warm_source, **kwargs)
            strategy_name = f"{searcher.name}:{config.strategy}"
        else:
            searcher = make_searcher(config.strategy, space, start, **kwargs)
        evaluator.search = searcher

        self.emit("job-start", job=evaluator.job, kernel=spec.name,
                  machine=machine.name, context=context.value, n=n,
                  space=space.size, strategy=strategy_name,
                  seed=config.seed)
        if config.warm_start:
            self.emit("warm-start", job=evaluator.job,
                      store=config.warm_start, source=warm_source or None,
                      candidates=len(warm))
        prefix_of = None
        if config.batch_size > 1:
            from ..fko import prefix_key

            def prefix_of(p: TransformParams):
                return prefix_key(p, analysis,
                                  debug_verify=config.verify_ir)
        best_prev = float("inf")
        while not searcher.finished:
            batch = searcher.ask()
            groups = (searcher.ask_batch(config.batch_size, key=prefix_of)
                      if config.batch_size > 1 else None)
            cycles = evaluator.many(batch, groups=groups)
            searcher.tell(list(zip(batch, cycles)))
            # convergence telemetry: one best-so-far sample per tell.
            # Emitted off-path (nothing in the search reads it) and with
            # deterministic fields only, so jobs=1 vs jobs=N traces stay
            # bit-identical
            best_now = searcher.best_cycles
            self.emit("curve", job=evaluator.job, strategy=searcher.name,
                      seed=config.seed, round=searcher.rounds,
                      evaluations=searcher.n_evaluations,
                      best_cycles=best_now, improved=best_now < best_prev)
            best_prev = min(best_prev, best_now)
            self.emit("round", job=evaluator.job, strategy=searcher.name,
                      round=searcher.rounds, phase=searcher.phase,
                      evaluations=searcher.n_evaluations,
                      best_cycles=searcher.best_cycles)
        result = searcher.result()

        compiled = fko.compile(spec.hil, result.best_params,
                               debug_verify=config.verify_ir)
        if config.run_tester and spec.name in REGISTRY:
            try:
                test_kernel(compiled, spec)
            except KernelTestFailure as exc:
                # the winner failed the tester: never hand it back as a
                # "fast" kernel — record the rejection in the trace and
                # surface the failure
                self.emit("best-rejected", job=evaluator.job,
                          params=result.best_params.describe(),
                          best_cycles=result.best_cycles, error=str(exc))
                raise
        timing = timer.time(compiled, spec)
        self.emit("job-end", job=evaluator.job,
                  best_cycles=result.best_cycles,
                  evaluations=result.n_evaluations, mflops=timing.mflops,
                  params=result.best_params.describe(),
                  batch_prefix_hits=self.stats.batch_prefix_hits,
                  batch_prefix_misses=self.stats.batch_prefix_misses,
                  batch_walk_hits=self.stats.batch_walk_hits,
                  batch_groups=self.stats.batch_groups,
                  batch_size_total=self.stats.batch_size_total)
        self.stats.jobs_completed += 1
        return TunedKernel(spec=spec, machine=machine, context=context, n=n,
                           compiled=compiled, timing=timing, search=result)

    def tools(self, machine: MachineConfig, context: Context,
              n: int) -> Tuple[FKO, Timer]:
        """The session's FKO and Timer for one (machine, context, N).
        Searches, FKO-default builds and any caller that compiles or
        times on the session's behalf (the experiment store's ATLAS and
        reference-compiler rows) share them, and with them one set of
        compile caches per machine and one walk memo per timer."""
        return self._tools.get(machine, context, n)

    def compile_default(self, spec: Union[str, KernelSpec],
                        machine: Union[str, MachineConfig],
                        context: Context, n: int) -> TunedKernel:
        """Plain FKO (static defaults, no search) in the same
        fully-populated result shape, just with ``search=None``."""
        spec = get_kernel(spec) if isinstance(spec, str) else spec
        machine = (get_machine(machine) if isinstance(machine, str)
                   else machine)
        fko, timer = self.tools(machine, context, n)
        compiled = fko.compile(spec.hil)   # params=None -> defaults
        timing = timer.time(compiled, spec)
        return TunedKernel(spec=spec, machine=machine, context=context, n=n,
                           compiled=compiled, timing=timing, search=None)

    # -- batch tuning ---------------------------------------------------
    def run(self, jobs: Sequence[Union[TuningJob, Dict]]) -> BatchResult:
        """Tune a batch of independent jobs, fanning whole jobs across
        the pool; each worker runs its search serially, so per-job
        results are bit-identical to a serial batch.

        If the batch dies with an unhandled exception the session is
        closed on the way out, so the trace file handle does not leak
        and the partial trace is flushed and readable — callers that
        skipped the ``with`` block still get a usable trace."""
        try:
            return self._run_batch(jobs)
        except BaseException:
            self.close()
            raise

    def _run_batch(self, jobs: Sequence[Union[TuningJob, Dict]]
                   ) -> BatchResult:
        jobs = [j if isinstance(j, TuningJob) else TuningJob.from_dict(j)
                for j in jobs]
        t0 = time.perf_counter()
        completed = self._load_checkpoint()
        results: Dict[str, TunedKernel] = {}
        errors: Dict[str, str] = {}
        resumed: List[str] = []

        self.emit("batch-start", jobs=[j.key() for j in jobs],
                  njobs=len(jobs))
        pending: List[TuningJob] = []
        for job in jobs:
            key = job.key()
            if key in completed:
                try:
                    results[key] = TunedKernel.from_dict(completed[key])
                except (ReproError, KeyError, ValueError, TypeError):
                    pending.append(job)   # corrupt entry: recompute
                    continue
                resumed.append(key)
                self.stats.jobs_resumed += 1
                self.emit("job-resumed", job=key)
            else:
                pending.append(job)

        pool = self.pool() if len(pending) > 1 else None
        if pool is not None:
            blob = self._worker_config()
            futures = {pool.submit(_job_worker,
                                   {"job": job.to_dict(), "config": blob}):
                       job for job in pending}
            try:
                for fut in concurrent.futures.as_completed(futures):
                    job = futures[fut]
                    outcome = fut.result()
                    self._absorb(job, outcome, results, errors, completed)
            except BrokenProcessPool:
                self.mark_pool_broken()   # leftovers re-run serially below

        leftovers = [job for job in pending
                     if job.key() not in results
                     and job.key() not in errors]
        for job in leftovers:
            key = job.key()
            try:
                tuned = self.tune(job.kernel, job.machine, job.context,
                                  job.n, max_evals=job.max_evals)
            except Exception as exc:   # noqa: BLE001 — keep batch alive
                errors[key] = f"{type(exc).__name__}: {exc}"
                self.emit("job-error", job=key, error=errors[key])
                continue
            results[key] = tuned
            completed[key] = tuned.to_dict()
            self._save_checkpoint(completed)

        wall = time.perf_counter() - t0
        stats = self.stats
        _metrics.set_gauge("repro_evals_per_sec",
                           round(stats.throughput(wall), 2), scope="batch")
        self.emit("batch-end", completed=len(results), errors=len(errors),
                  wall=wall, evaluations=stats.evaluations,
                  cache_hits=stats.cache_hits,
                  evals_per_sec=round(stats.throughput(wall), 2),
                  cache_hit_rate=round(stats.cache_hit_rate, 4),
                  fast_path=stats.fast_path, slow_path=stats.slow_path,
                  batch_prefix_hits=stats.batch_prefix_hits,
                  batch_prefix_misses=stats.batch_prefix_misses,
                  batch_walk_hits=stats.batch_walk_hits,
                  batch_groups=stats.batch_groups,
                  batch_size_total=stats.batch_size_total)
        return BatchResult(results=results, errors=errors, resumed=resumed,
                           wall=wall)

    def _absorb(self, job: TuningJob, outcome: Dict,
                results: Dict[str, TunedKernel], errors: Dict[str, str],
                completed: Dict[str, Dict]) -> None:
        key = job.key()
        if self._trace is not None:
            self._trace.write_many(outcome.get("events") or [])
        self.stats.merge(outcome.get("stats"))
        if outcome.get("ok"):
            results[key] = TunedKernel.from_dict(outcome["result"])
            completed[key] = outcome["result"]
            self._save_checkpoint(completed)
        else:
            errors[key] = outcome.get("error") or "unknown worker failure"
            self.emit("job-error", job=key, error=errors[key])

    def _worker_config(self) -> Dict:
        """The picklable TuneConfig subset a job worker rebuilds from:
        every field but the parent-only ones (space/start stay
        parent-side: batch jobs are registry kernels whose space comes
        from their own analysis)."""
        return {f.name: getattr(self.config, f.name)
                for f in dataclasses.fields(TuneConfig)
                if f.name not in _PARENT_ONLY}

    # -- checkpointing --------------------------------------------------
    def _load_checkpoint(self) -> Dict[str, Dict]:
        path = self.config.resume
        state = read_json(path) if path else None
        if state is None or state.get("version") != __version__:
            return {}   # absent, damaged, or another code version
        completed = state.get("completed")
        return dict(completed) if isinstance(completed, dict) else {}

    def _save_checkpoint(self, completed: Dict[str, Dict]) -> None:
        if self.config.resume:
            write_json(self.config.resume,
                       {"version": __version__, "completed": completed})
