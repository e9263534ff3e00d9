"""The four workloads of the end-to-end benchmark.

Each workload makes its inputs from the seed, runs a cold pass (the
measured ``wall_s``) and a warm pass (the same work again with the
program's caches warm, ``warm_wall_s``), and reports what it produced
so ``run.py`` can check it against goldens and against other reps.
Every workload keeps the load to one process with at most two client
threads or two pool workers.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import math
import pathlib
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent


def _digest(search) -> str:
    from repro.service.schema import history_digest
    return history_digest(search)


def peak_rss_mb() -> float:
    """Max resident set of this process and of every child it waited on."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Workload:
    """Subclasses fill ``evaluations``, ``best_cycles``, the ``cold`` and
    ``warm`` outputs, and ``latencies_ms``: the cold pass's requests, the
    same requests in the same order in every rep, so reps can be compared
    request by request."""

    name = "?"
    #: warm passes per rep (the minimum is reported)
    warm_repeats = 1
    #: the cold pass runs its requests one after another, so its wall is
    #: their latencies plus a small remainder
    serial = False

    def __init__(self, seed: int, smoke: bool, tmp: pathlib.Path,
                 trace_dir: Optional[str] = None, jobs: int = 2):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        #: set when the rep is traced; only the daemon traces out of process
        self.trace_dir = trace_dir
        self.jobs = jobs
        self.latencies_ms: List[float] = []
        self.evaluations = 0
        self.best_cycles: List[float] = []
        self.outputs: Dict[str, object] = {"cold": None, "warm": None}
        self.violations: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: set by workloads whose set-up is not the rep process's own
        self.setup_s: Optional[float] = None

    def cold(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

class Paper(Workload):
    """Cold regeneration of every table and figure at the paper's sizes:
    ``repro.experiments`` main on a fresh store, jobs=1, no cache dir.
    Line search is deterministic, so the seed is recorded but unused."""

    name = "paper"
    warm_repeats = 3
    serial = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.experiments import store as store_mod
        from repro.experiments.__main__ import main
        self._main = main
        # global_store() hands this store to main(): quick sizes only
        # for the smoke run, which also renders just Figure 2
        self.store = store_mod.ResultStore(quick=self.smoke, jobs=1)
        store_mod._GLOBAL = self.store
        self.which = ["fig2"] if self.smoke else []
        compute = self.store._compute

        def timed_compute(*args):
            t0 = time.perf_counter()
            result = compute(*args)
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.attempted += 1
            return result
        self.store._compute = timed_compute

    def _render(self) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self._main(self.which, jobs=1)
        return "".join(line for line in buf.getvalue().splitlines(True)
                       if not line.startswith("# done in"))

    def cold(self) -> None:
        self.outputs["cold"] = self._render()
        self.evaluations = self.store.session.stats.evaluations
        self.best_cycles = [r.cycles for (_, _, _, method), r
                            in sorted(self.store._cache.items(), key=str)
                            if method == "ifko"]

    def warm(self) -> None:
        self.outputs["warm"] = self._render()


# ---------------------------------------------------------------------------

class TuneSweep(Workload):
    """The Table-1 sweep over both machines and both contexts at jobs=2
    with a fresh eval cache, in a seed-shuffled submit order; the warm
    pass reruns the identical batch against the now-warm cache."""

    name = "tune-sweep"
    warm_repeats = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.kernels import KERNEL_ORDER
        from repro.machine import Context
        from repro.search.engine import registry_jobs
        kernels = ["sscal", "ddot"] if self.smoke else KERNEL_ORDER
        self.batch = registry_jobs(kernels, machines=["p4e", "opteron"],
                                   contexts=[Context.OUT_OF_CACHE,
                                             Context.IN_L2])
        random.Random(self.seed).shuffle(self.batch)
        self.cache_dir = str(self.tmp / "evals")

    def _pass(self, cold: bool):
        from repro.search import TuneConfig, TuningSession
        config = TuneConfig(jobs=self.jobs, cache_dir=self.cache_dir,
                            run_tester=False)
        with TuningSession(config, buffer_events=True) as session:
            batch = session.run(self.batch)
            events = session.drain_events()
        self.attempted += len(self.batch)
        self.failed += len(batch.errors)
        for key, error in sorted(batch.errors.items()):
            self.violations.append(f"job {key} failed: {error}")
        out = {key: [tk.search.best_cycles, _digest(tk.search)]
               for key, tk in sorted(batch.results.items())}
        if cold:
            self.evaluations = session.stats.evaluations
            self.best_cycles = [v[0] for v in out.values()]
            # per-job service time from the workers' own job events, in
            # job-key order
            starts = {e["job"]: e["t"] for e in events
                      if e["event"] == "job-start"}
            ends = {e["job"]: e["t"] for e in events
                    if e["event"] == "job-end"}
            self.latencies_ms = [(ends[job] - starts[job]) * 1e3
                                 for job in sorted(ends)]
        elif session.stats.evaluations:
            self.violations.append(f"warm pass ran "
                                   f"{session.stats.evaluations} evaluations")
        return out

    def cold(self) -> None:
        self.outputs["cold"] = self._pass(cold=True)

    def warm(self) -> None:
        self.outputs["warm"] = self._pass(cold=False)


# ---------------------------------------------------------------------------

#: model-search problems: five Table-1 kernels, one blocked gemm and two
#: other Level-3-family kernels, both machines.  The set is fixed and
#: the seed drives the surrogate's random stream, so a rep costs about
#: the same at every seed.
MODEL_PROBLEMS = (("dswap", "p4e"), ("sscal", "opteron"),
                  ("daxpy", "opteron"), ("sdot", "p4e"), ("dasum", "opteron"),
                  ("dgemm", "p4e"), ("sstencil3", "opteron"),
                  ("dsumsq", "p4e"))


class ModelSearch(Workload):
    """Surrogate-guided search (budget 96, batch 8, jobs=1, fresh eval
    cache, seeded) on eight kernels out of cache; the warm pass repeats
    every search in a new session against the now-warm eval cache, which
    leaves the surrogate's own ask/tell cost.  A request is one ask/tell
    round (or a search's final compile and timing)."""

    name = "model-search"
    warm_repeats = 2
    serial = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.kernels import REGISTRY
        from repro.search import TuneConfig
        problems = (("sdot", "opteron"), ("dgemm", "p4e")) if self.smoke \
            else MODEL_PROBLEMS
        self.problems = [(k, m, 512 if REGISTRY[k].flops_order >= 3
                          else 80000) for k, m in problems]
        self.config = TuneConfig(strategy="surrogate", seed=self.seed,
                                 max_evals=32 if self.smoke else 96,
                                 batch_size=8, jobs=1, run_tester=False,
                                 cache_dir=str(self.tmp / "evals"))

    def _pass(self, cold: bool):
        # A new session per pass: re-tuning a kernel in one session after
        # a tiled search has churned the module-wide front-end cache can
        # pair a cached analysis with a re-lowered function (KeyError in
        # vectorize).
        from repro.machine import Context
        from repro.search import TuningSession
        out = {}
        with TuningSession(self.config, buffer_events=True) as session:
            for kernel, machine, n in self.problems:
                tuned = session.tune(kernel, machine, Context.OUT_OF_CACHE,
                                     n)
                self.attempted += 1
                out[f"{kernel}:{machine}:{n}"] = [tuned.search.best_cycles,
                                                  _digest(tuned.search)]
            events = session.drain_events()
        if cold:
            self.evaluations = session.stats.evaluations
            self.best_cycles = [v[0] for v in out.values()]
            # the engine's own round events time each request
            last = 0.0
            for e in events:
                if e["event"] in ("round", "job-end"):
                    self.latencies_ms.append((e["t"] - last) * 1e3)
                if e["event"] in ("job-start", "round"):
                    last = e["t"]
        elif session.stats.evaluations:
            self.violations.append(f"warm pass ran "
                                   f"{session.stats.evaluations} evaluations")
        return out

    def cold(self) -> None:
        self.outputs["cold"] = self._pass(cold=True)

    def warm(self) -> None:
        self.outputs["warm"] = self._pass(cold=False)


# ---------------------------------------------------------------------------

class Serve(Workload):
    """The ``repro serve`` daemon (jobs=1, fresh results dir) under two
    closed-loop client threads sending ``POST /v1/tune?wait=1``.  The
    problems are the Table-1 kernels on both machines and contexts
    (random search, budget 16, tester on), requested in a fixed sequence
    drawn with Zipf(1) popularity.  The seed moves each problem's N by
    0-7 elements off the paper's size, so every seed asks new questions
    (new digests, new remainder loops) at the same cost.  The warm pass
    asks each requested problem once more, from one client."""

    name = "serve"
    warm_repeats = 3
    clients = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.kernels import KERNEL_ORDER
        from repro.service.schema import default_n, parse_context
        kernels = ["sscal", "ddot"] if self.smoke else KERNEL_ORDER
        rng = random.Random(self.seed)
        # The search seed, like the sequence below, is the same at every
        # seed: the slowest fresh tunes set req_tail_ms, and their cost
        # follows the random candidates drawn.
        self.problems = [{"kernel": k, "machine": m, "context": c,
                          "n": default_n(k, parse_context(c))
                          + rng.randrange(8),
                          "strategy": "random", "seed": 0,
                          "budget": 16, "test": True}
                         for k in kernels for m in ("p4e", "opteron")
                         for c in ("out-of-cache", "in-l2")]
        # Where the first request for a rare problem lands decides how
        # long the dispatcher idles, which moved wall_s by half between
        # seeds.
        ranks = list(range(len(self.problems)))
        random.Random(0).shuffle(ranks)
        weights = [1.0 / (r + 1) for r in ranks]
        self.sequence = random.Random(0).choices(
            range(len(self.problems)), weights,
            k=120 if self.smoke else 1200)
        self._start_daemon()

    def _start_daemon(self) -> None:
        results = str(self.tmp / "results")
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--trace-dir", self.trace_dir]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                "--results-dir", results]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        hostport = line.split("http://", 1)[1].split()[0]
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        while self._get("/v1/healthz")[0] != 200:
            time.sleep(0.002)
        self.setup_s = time.monotonic() - spawned

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _get(self, path: str):
        try:
            return self._request("GET", path)
        except OSError:
            return 0, b""

    def _tune(self, index: int) -> Dict:
        body = json.dumps(self.problems[index]).encode()
        t0 = time.perf_counter()
        status, data = self._request("POST", "/v1/tune?wait=1", body)
        latency = (time.perf_counter() - t0) * 1e3
        payload = json.loads(data) if status == 200 else {}
        ok = status == 200 and payload.get("status") == "done"
        return {"problem": index, "latency_ms": latency, "ok": ok,
                "how": payload.get("how"),
                "digest": payload.get("history_digest"),
                "cycles": ((payload.get("result") or {}).get("search")
                           or {}).get("best_cycles")}

    def _key(self, index: int) -> str:
        p = self.problems[index]
        return f"{p['kernel']}:{p['machine']}:{p['context']}:{p['n']}"

    def cold(self) -> None:
        todo = iter(enumerate(self.sequence))
        lock = threading.Lock()
        # in sequence order, so reps can be compared request by request
        replies: List[Dict] = [None] * len(self.sequence)

        def client():
            while True:
                with lock:
                    pos, index = next(todo, (None, None))
                if pos is None:
                    return
                replies[pos] = self._tune(index)

        threads = [threading.Thread(target=client)
                   for _ in range(self.clients)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.attempted += len(replies)
        self.failed += sum(not r["ok"] for r in replies)
        self.latencies_ms = [r["latency_ms"] for r in replies]
        digests: Dict[str, set] = {}
        cycles: Dict[str, float] = {}
        for r in replies:
            digests.setdefault(self._key(r["problem"]), set()).add(r["digest"])
            cycles[self._key(r["problem"])] = r["cycles"]
        for key, seen in sorted(digests.items()):
            if len(seen) != 1:
                self.violations.append(f"{key}: {len(seen)} digests")
        fresh = sum(r["how"] == "new" for r in replies)
        if fresh != len(digests):
            self.violations.append(f"{fresh} fresh tunes for "
                                   f"{len(digests)} distinct problems")
        self.outputs["cold"] = {k: sorted(map(str, v))[0]
                                for k, v in sorted(digests.items())}
        self.best_cycles = [c for _, c in sorted(cycles.items())]
        status, data = self._get("/v1/stats")
        if status == 200:
            self.evaluations = json.loads(data)["engine"]["evaluations"]

    def warm(self) -> None:
        out = {}
        for index in sorted(set(self.sequence)):
            reply = self._tune(index)
            self.attempted += 1
            self.failed += not reply["ok"]
            out[self._key(index)] = reply["digest"]
        self.outputs["warm"] = out

    def close(self) -> None:
        if self.proc.poll() is None:
            # SIGINT is the CLI daemon's clean shutdown; the traced
            # launcher flushes its spans on SIGTERM
            self.proc.send_signal(signal.SIGINT if self.trace_dir is None
                                  else signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


WORKLOADS = {cls.name: cls for cls in (Paper, TuneSweep, ModelSearch, Serve)}


def geomean(values: List[float]) -> float:
    values = [v for v in values if v and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
