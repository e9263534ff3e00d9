"""The service's job layer: an async queue over one shared engine.

:class:`JobManager` is the piece between transport and engine: it
accepts :class:`~repro.service.schema.TuneRequest` submissions from any
number of threads, coalesces identical in-flight requests onto one job
(its in-flight map, keyed by request digest), answers repeats of
completed requests from the persistent :class:`ServeResultStore` (or
from memory) without touching the engine, and drains fresh work through
one shared :class:`~repro.search.engine.TuningSession` in fair order
(FIFO per client, round-robin across clients).  One lock guards the
queue, the in-flight map and the job table; the global evaluation
budget is read from the session's own
:class:`~repro.search.engine.EngineStats`, so every evaluation counts
against it, including those of a job that ends in an error.

One session serves every job, so all jobs share the engine's worker
pool, its persistent evaluation cache and its warm FKO front-end
caches.  Jobs execute one at a time in arrival order (parallelism lives
*inside* a job: candidate fan-out across the pool), which keeps the
daemon's answers bit-identical to the in-process API — the standing
determinism invariant is proven end-to-end by the service test suite.

Every trace event the engine emits while a job runs is routed onto that
job's event list (the :meth:`~repro.search.trace.TraceWriter.subscribe`
seam), so clients can stream or replay exactly what a local
``--trace-out`` file would contain.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..errors import ReproError
from ..fko import FKO, TransformParams
from ..kernels import get_kernel
from ..machine import Context, get_machine
from ..records import RecordStore, read_json
from ..search.config import TuneConfig
from ..search.engine import TuningSession
from .schema import TuneRequest, TuneResponse, history_digest

#: job states
QUEUED, RUNNING, DONE, ERROR = "queued", "running", "done", "error"


class BudgetExhaustedError(ReproError):
    """The daemon's global evaluation budget (``--max-total-evals``) is
    spent: fresh engine runs are refused; coalesced and cached answers
    still work because they cost nothing."""


class _FairQueue:
    """FIFO within a client, round-robin across clients.

    A single greedy client enqueueing a hundred tune requests must not
    starve everyone else: the queue keeps one FIFO lane per client key
    and each ``pop`` takes the next item of the least-recently-served
    client.  With a single client this is plain FIFO — arrival order,
    fully deterministic.  It has no lock: the manager pushes and pops
    under its own."""

    def __init__(self):
        self._lanes: "OrderedDict[Hashable, deque]" = OrderedDict()

    def push(self, item, client: Hashable = "") -> None:
        self._lanes.setdefault(client, deque()).append(item)

    def pop(self):
        """Next item, or None when empty.  The served client's lane
        moves to the back, which is the whole fairness policy."""
        if not self._lanes:
            return None
        client, lane = next(iter(self._lanes.items()))
        item = lane.popleft()
        if lane:
            self._lanes.move_to_end(client)
        else:
            del self._lanes[client]
        return item

    def __len__(self) -> int:
        return sum(map(len, self._lanes.values()))


class ServeJob:
    """One submitted request's lifecycle inside the daemon."""

    def __init__(self, job_id: str, request: TuneRequest):
        self.id = job_id
        self.request = request
        self.digest = request.digest()
        self.state = QUEUED
        self.events: List[Dict] = []
        self.response: Optional[TuneResponse] = None
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.state in (QUEUED, RUNNING)

    def snapshot(self) -> Dict:
        """The ``GET /v1/jobs/{id}`` body."""
        out = {"job_id": self.id, "digest": self.digest,
               "state": self.state, "request": self.request.to_dict(),
               "created": self.created, "started": self.started,
               "finished": self.finished, "n_events": len(self.events),
               "error": self.error}
        if self.response is not None:
            out["response"] = self.response.to_dict()
        return out


class ServeResultStore(RecordStore):
    """Persistent request-digest -> :class:`TuneResponse` store.

    Where the eval cache remembers single candidate timings, this
    remembers whole answered requests, one record per
    :meth:`TuneRequest.digest`, so a daemon restart — or a different
    daemon pointed at the same directory — keeps answering repeats
    instantly.  A record that does not parse as a response is a miss."""

    def get(self, digest: str) -> Optional[TuneResponse]:
        try:
            return TuneResponse.from_dict(super().get(digest))
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def put(self, digest: str, response: TuneResponse) -> bool:
        return super().put(digest, response.to_dict())

    def list(self, limit: Optional[int] = None) -> List[Dict]:
        """Stored response dicts, most recently written first."""
        paths = sorted(self._files(), key=lambda p: p.stat().st_mtime,
                       reverse=True)
        records = (read_json(p) for p in (paths[:limit] if limit else paths))
        return [data for data in records if data is not None]


class JobManager:
    """Submissions in, deterministic answers out.

    ``config`` is the daemon's base :class:`TuneConfig` — its ``jobs``,
    ``cache_dir`` and ``trace`` apply to every request; the
    search-shaping fields are overridden per request.  ``results_dir``
    enables the persistent result store.  Call :meth:`start` for the
    background dispatcher (the daemon does), or :meth:`run_inline` to
    drain work in the calling thread (the local client does) — both go
    through the identical submit/execute path.  ``max_total_evals``
    caps the evaluations the session may run across all jobs.
    """

    def __init__(self, config: Optional[TuneConfig] = None,
                 results_dir: Optional[str] = None,
                 retention: int = 256,
                 max_total_evals: Optional[int] = None):
        self.config = config or TuneConfig()
        # buffer_events=True guarantees a trace writer exists even
        # without a trace file, so the event stream always works; the
        # buffer is drained after every job (events live on the job)
        self.session = TuningSession(self.config, buffer_events=True)
        self.session.trace_writer.subscribe(self._on_event)
        self.store = (ServeResultStore(results_dir)
                      if results_dir else None)
        self.max_total_evals = max_total_evals
        self.retention = retention
        self.jobs: "OrderedDict[str, ServeJob]" = OrderedDict()
        # guarded by the lock: queued jobs, and the queued/running job
        # of each digest (identical requests coalesce onto it)
        self._queue = _FairQueue()
        self._inflight: Dict[str, ServeJob] = {}
        self._done_by_digest: Dict[str, str] = {}
        self._lock = threading.RLock()
        self.cond = threading.Condition(self._lock)
        self._current: Optional[ServeJob] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = False
        self._seq = 0
        self.started_at = time.time()
        # transport-level counters (engine counters live on the session);
        # each is the one count of its fact that /v1/metrics reads
        self.clients: Counter = Counter()    # every POST /v1/tune
        self.requests: Counter = Counter()   # by how: new|coalesced|cached
        self.launched = 0         # jobs that actually ran the engine
        self.completed = 0
        self.errors = 0
        self._newest_run: Optional[TuneResponse] = None
        # /v1/compile counter (compiles use a fresh FKO each — see
        # compile_info — so there is no shared front-end to guard)
        self._compile_lock = threading.Lock()
        self.compiles = 0

    @property
    def submitted(self) -> int:
        return sum(self.clients.values())

    @property
    def coalesced(self) -> int:
        """Submissions that joined an identical in-flight job."""
        return self.requests["coalesced"]

    @property
    def cache_answers(self) -> int:
        """Submissions served from the store or memory, no engine run."""
        return self.requests["cached"]

    # -- submission -----------------------------------------------------
    def submit(self, request: TuneRequest,
               client: str = "") -> Tuple[ServeJob, str]:
        """Submit one request; returns ``(job, how)`` where ``how`` is
        ``"new"`` (queued for the engine), ``"coalesced"`` (joined an
        identical queued/running job) or ``"cached"`` (answered from
        the result store or a resident completed job — no engine run).
        """
        with self.cond:
            self.clients[client or "anonymous"] += 1
            digest = request.digest()
            # identical request already in flight -> same job
            slot = self._inflight.get(digest)
            if slot is not None:
                self.requests["coalesced"] += 1
                return slot, "coalesced"
            # already answered and still resident?
            done_id = self._done_by_digest.get(digest)
            if done_id is not None:
                job = self.jobs.get(done_id)
                if job is not None and job.state == DONE:
                    self.requests["cached"] += 1
                    return job, "cached"
            # persisted by an earlier run (or another daemon)?
            if self.store is not None:
                response = self.store.get(digest)
                if response is not None and response.ok:
                    job = self._admit(request)
                    response.served_from = "store"
                    response.job_id = job.id
                    job.response = response
                    job.state = DONE
                    job.finished = time.time()
                    self._done_by_digest[digest] = job.id
                    self.requests["cached"] += 1
                    self.cond.notify_all()
                    return job, "cached"
            # fresh work: claim the digest and queue fairly
            spent = self.session.stats.evaluations
            if (self.max_total_evals is not None
                    and spent >= self.max_total_evals):
                raise BudgetExhaustedError(
                    f"global evaluation budget spent "
                    f"({spent}/{self.max_total_evals}); "
                    f"fresh tune requests are refused")
            job = self._admit(request)
            self._inflight[digest] = job
            self._queue.push(job, client=client)
            self.requests["new"] += 1
            self.cond.notify_all()
            return job, "new"

    def _admit(self, request: TuneRequest) -> ServeJob:
        self._seq += 1
        job = ServeJob(f"j-{self._seq:06d}", request)
        self.jobs[job.id] = job
        self._trim()
        return job

    def _trim(self) -> None:
        """Bound resident finished jobs to ``retention`` (persisted
        responses stay reachable through the store)."""
        finished = [j for j in self.jobs.values() if not j.active]
        excess = len(finished) - self.retention
        for job in finished:
            if excess <= 0:
                break
            del self.jobs[job.id]
            if self._done_by_digest.get(job.digest) == job.id:
                del self._done_by_digest[job.digest]
            excess -= 1

    def get(self, job_id: str) -> Optional[ServeJob]:
        with self.cond:
            return self.jobs.get(job_id)

    # -- execution ------------------------------------------------------
    def _execute(self, job: ServeJob) -> None:
        with self.cond:
            job.state = RUNNING
            job.started = time.time()
            self._current = job
            self.launched += 1
            self.cond.notify_all()
        stats = self.session.stats
        before = stats.to_dict()
        request = job.request
        base, t0 = self.session.config, time.perf_counter()
        response: Optional[TuneResponse] = None
        try:
            # the shared session runs this request's search shape; the
            # operational knobs (jobs/cache/trace) stay the daemon's
            self.session.config = request.to_config(base)
            tuned = self.session.tune(request.kernel, request.machine,
                                      Context(request.context), request.n,
                                      max_evals=request.budget)
            response = TuneResponse(
                digest=job.digest, job_id=job.id, status=DONE,
                result=tuned.to_dict(),
                history_digest=history_digest(tuned.search))
            response._kernel = tuned
        except Exception as exc:   # noqa: BLE001 — report, client decides
            response = TuneResponse(
                digest=job.digest, job_id=job.id, status=ERROR,
                error=f"{type(exc).__name__}: {exc}")
        finally:
            self.session.config = base
            # events already live on the job via the listener; drain
            # the writer's buffer so a file-less daemon stays bounded
            self.session.drain_events()
            with self.cond:
                self._current = None
                if response is None:   # KeyboardInterrupt/SystemExit
                    job.state = ERROR
                    job.error = "interrupted"
                else:
                    # an errored job has spent its evaluations too
                    response.wall = time.perf_counter() - t0
                    response.stats = {k: v - before.get(k, 0)
                                      for k, v in stats.to_dict().items()}
                    job.response = response
                    job.state = response.status
                    job.error = response.error
                    if response.ok:
                        self.completed += 1
                        self._newest_run = response
                        self._done_by_digest[job.digest] = job.id
                        if self.store is not None:
                            self.store.put(job.digest, response)
                    else:
                        self.errors += 1
                job.finished = time.time()
                self._inflight.pop(job.digest, None)
                self.cond.notify_all()

    def _on_event(self, record: Dict) -> None:
        job = self._current
        if job is not None:
            with self.cond:
                job.events.append(record)
                self.cond.notify_all()

    # -- driving the queue ---------------------------------------------
    def start(self) -> None:
        """Start the background dispatcher (the daemon's mode)."""
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return
        self._stop = False
        self._dispatcher = threading.Thread(target=self._loop,
                                            name="repro-serve-dispatch",
                                            daemon=True)
        self._dispatcher.start()

    def _loop(self) -> None:
        while True:
            with self.cond:
                while not self._stop and len(self._queue) == 0:
                    self.cond.wait(0.1)
                if self._stop:
                    return
                job = self._queue.pop()
            self._execute(job)

    def drain(self, until: Optional[ServeJob] = None) -> None:
        """Execute queued jobs in the calling thread, in fair order,
        until the queue is empty or ``until`` has finished — the local
        client's mode.  A no-op while the background dispatcher runs."""
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return
        while until is None or until.active:
            with self.cond:
                job = self._queue.pop()
            if job is None:
                return
            self._execute(job)

    def run_inline(self, request: TuneRequest,
                   client: str = "") -> TuneResponse:
        """Submit and drain in the calling thread (the local client's
        mode — no dispatcher, same code path)."""
        job, how = self.submit(request, client=client)
        self.drain(until=job)
        return self.annotate(self.wait(job.id), how)

    @staticmethod
    def annotate(response: TuneResponse, how: str) -> TuneResponse:
        """Mark a repeat answered from a resident completed job, so
        clients can tell an instant answer from an engine run (the
        store path stamps ``served_from="store"`` itself)."""
        if how == "cached" and response.served_from is None:
            response = copy.copy(response)
            response.served_from = "memory"
        return response

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> TuneResponse:
        deadline = (time.time() + timeout) if timeout is not None else None
        with self.cond:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            while job.active:
                remaining = (deadline - time.time()
                             if deadline is not None else 0.25)
                if deadline is not None and remaining <= 0:
                    raise TimeoutError(f"job {job_id} still {job.state} "
                                       f"after {timeout}s")
                self.cond.wait(min(0.25, remaining) if deadline is not None
                               else 0.25)
            if job.response is None:
                return TuneResponse(digest=job.digest, job_id=job.id,
                                    status=ERROR,
                                    error=job.error or "job lost")
            return job.response

    def events(self, job_id: str, start: int = 0,
               follow: bool = False) -> Iterator[Dict]:
        """The job's events from ``start``; with ``follow``, yields live
        until the job finishes.  The lock is never held across a
        yield, so a consumer that stops early blocks nothing."""
        with self.cond:
            job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        idx = start
        while True:
            with self.cond:
                if follow and job.active and len(job.events) <= idx:
                    self.cond.wait(0.25)
                batch = job.events[idx:]
                finished = not job.active
            yield from batch
            idx += len(batch)
            if not follow or (finished and not batch):
                return

    # -- one-shot compile (the fuzzer's soak hook) ----------------------
    def compile_info(self, kernel: str, machine: str,
                     params: Dict) -> Dict:
        """Compile one (kernel, machine, params) point with IR
        verification on and return a content digest of the produced IR
        — the differential fuzzer's ``--via-serve`` oracle.  A fresh
        front-end per compile (FKO's symbol generation is stateful
        across compiles) and the *canonical* IR dump (VReg uids
        renumbered by first appearance, so the global uid counter's
        position does not leak into the text): together these make the
        digest a pure function of (kernel, machine, params), matching
        what ``repro.qa.differ.compile_digest`` computes locally."""
        from ..ir import canonical_function_text
        spec = get_kernel(kernel)
        mach = get_machine(machine)
        tp = TransformParams.from_dict(params)
        compiled = FKO(mach).compile(spec.hil, tp, debug_verify=True)
        text = canonical_function_text(compiled.fn)
        with self._compile_lock:
            self.compiles += 1
        return {"kernel": spec.name, "machine": mach.name.lower(),
                "applied": list(compiled.applied),
                "ir_digest": hashlib.sha256(text.encode()).hexdigest()}

    # -- introspection --------------------------------------------------
    def stats_dict(self) -> Dict:
        with self.cond:
            engine = self.session.stats.to_dict()
            return {"uptime": time.time() - self.started_at,
                    "submitted": self.submitted,
                    "launched": self.launched,
                    "deduped": self.coalesced,
                    "cache_answers": self.cache_answers,
                    "completed": self.completed,
                    "errors": self.errors,
                    "compiles": self.compiles,
                    "queued": len(self._queue),
                    "inflight": len(self._inflight),
                    "resident_jobs": len(self.jobs),
                    "stored_results": (len(self.store)
                                       if self.store is not None else 0),
                    "engine": engine,
                    "budget": {
                        "total_evaluations": engine["evaluations"],
                        "total_cache_hits": engine["cache_hits"],
                        "max_total_evals": self.max_total_evals},
                    "config": self.config.to_public_dict()}

    def metric_series(self) -> Tuple[Dict, Dict]:
        """The counters and gauges ``GET /v1/metrics`` serves, read from
        their owners at scrape time: the engine's from the session's
        :class:`EngineStats`, the transport's from this manager, its
        queue and its in-flight map.  Returns ``(counters, gauges)`` in
        :func:`repro.obs.metrics.render_prometheus`'s derived form."""
        with self.cond:
            s = self.session.stats
            # ok = fast + slow (= evaluations - faults): a sum of two
            # monotonic counts stays monotonic while the engine thread
            # is mid-update, a difference need not
            counters = {
                "repro_evaluations_total":
                    ("status", {"ok": s.fast_path + s.slow_path,
                                "fault": s.faults}),
                "repro_eval_path_total":
                    ("path", {"fast": s.fast_path, "slow": s.slow_path}),
                "repro_eval_cache_hits_total": s.cache_hits,
                "repro_batch_groups_total": s.batch_groups,
                "repro_batch_prefix_hits_total": s.batch_prefix_hits,
                "repro_batch_prefix_misses_total": s.batch_prefix_misses,
                "repro_batch_walk_hits_total": s.batch_walk_hits,
                "repro_requests_total": ("how", dict(self.requests)),
                "repro_client_requests_total":
                    ("client", dict(self.clients)),
                "repro_jobs_completed_total": self.completed,
                "repro_jobs_errored_total": self.errors,
                "repro_compiles_total": self.compiles}
            gauges = {
                "repro_queue_depth": len(self._queue),
                "repro_inflight": len(self._inflight),
                "repro_budget_remaining_evals": (
                    -1 if self.max_total_evals is None
                    else max(0, self.max_total_evals - s.evaluations))}
            run = self._newest_run
            if run is not None and run.wall:
                gauges["repro_evals_per_sec"] = ("scope", {"job": round(
                    run.stats.get("evaluations", 0) / run.wall, 2)})
            return counters, gauges

    def results(self, limit: Optional[int] = None) -> List[Dict]:
        """Completed responses, newest first — persisted ones from the
        result store plus any resident-only completions."""
        with self.cond:
            resident = [j.response.to_dict() for j in self.jobs.values()
                        if j.state == DONE and j.response is not None]
        if self.store is None:
            resident.reverse()
            return resident[:limit] if limit else resident
        stored = self.store.list(limit=limit)
        have = {r.get("digest") for r in stored}
        extra = [r for r in reversed(resident)
                 if r.get("digest") not in have]
        merged = extra + stored
        return merged[:limit] if limit else merged

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self.cond:
            self._stop = True
            self.cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        self.session.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


__all__ = ["BudgetExhaustedError", "JobManager", "ServeJob",
           "ServeResultStore", "QUEUED", "RUNNING", "DONE", "ERROR"]
