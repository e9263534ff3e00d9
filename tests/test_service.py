"""Tests for the tuning service: schema, scheduling, job layer, daemon.

The layering contract under test:

* **schema** — every spelling of the same problem digests identically;
  ``from_dict`` is tolerant; the digest changes when the answer could;
* **scheduling** — tested at its owners: the job manager's fair queue
  (round-robin across clients, FIFO within one), its in-flight map and
  its evaluation budget, and the session's idempotent pool shutdown;
* **jobs** — identical in-flight requests share one engine run, repeats
  are answered from memory or the persistent result store without
  re-evaluation, the event stream replays exactly what the trace file
  records, and the global evaluation ceiling refuses fresh work;
* **daemon** — the HTTP transport adds nothing: answers through
  ``repro serve`` are bit-identical (history digest and all) to the
  in-process API, budget exhaustion maps to 429, and ``/v1/compile``
  matches the local differential-fuzzer digest.
"""

import http.client
import json
import threading
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.machine import Context
from repro.search import TuneConfig, TuningSession, read_trace
from repro.service import (BudgetExhaustedError, JobManager, ServeResultStore,
                           TuneRequest, TuneResponse, history_digest)
from repro.service.daemon import start_server
from repro.client import (LocalClient, ServeClient, ServiceError,
                          make_client)

N = 4000
EVALS = 40


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


def _request(**kw):
    kw.setdefault("kernel", "dscal")
    kw.setdefault("machine", "p4e")
    kw.setdefault("context", "out-of-cache")
    kw.setdefault("n", N)
    kw.setdefault("budget", EVALS)
    kw.setdefault("test", False)
    return TuneRequest(**kw)


# ---------------------------------------------------------------------------
# schema: canonicalization, digests, tolerant parsing

class TestTuneRequestSchema:
    def test_spellings_digest_identically(self):
        a = _request(machine="p4e", context="out-of-cache")
        b = _request(machine="P4E", context="oc")
        assert a.digest() == b.digest()
        assert a.canonical() == b.canonical()

    def test_default_n_matches_paper(self):
        from repro.timing.timer import paper_n
        r = TuneRequest(kernel="ddot", context="in-l2")
        assert r.n == paper_n(Context.IN_L2)
        assert r.context == Context.IN_L2.value

    def test_legacy_payload_digest_and_defaults_unchanged(self):
        # the exact field set a pre-tiling client sends: it must parse,
        # canonicalize and digest exactly like a native construction
        legacy = {"schema": 1, "kernel": "dscal", "machine": "P4E",
                  "context": "oc", "n": N, "strategy": "line",
                  "seed": 0, "budget": EVALS, "test": False}
        assert TuneRequest.from_dict(legacy).digest() == _request().digest()
        # a payload from before the per-evaluation timeout was deleted
        # still parses: the retired key is ignored like any unknown one
        assert (TuneRequest.from_dict(dict(legacy, timeout=2.5)).digest()
                == _request().digest())
        # vector kernels keep the paper's default N (old digests stable)
        from repro.timing.timer import paper_n
        assert TuneRequest(kernel="ddot").n == \
            paper_n(Context.OUT_OF_CACHE)
        # cubic nest kernels default to matrix orders instead
        assert TuneRequest(kernel="dgemm").n == 512
        assert TuneRequest(kernel="dgemm", context="in-l2").n == 160

    def test_answer_shaping_fields_change_digest(self):
        base = _request()
        assert _request(seed=1).digest() != base.digest()
        assert _request(budget=EVALS + 1).digest() != base.digest()
        assert _request(kernel="ddot").digest() != base.digest()

    def test_from_dict_tolerates_unknown_keys_and_alias(self):
        r = TuneRequest.from_dict({"schema": 1, "kernel": "dscal",
                                   "max_evals": 77, "future_knob": True})
        assert r.budget == 77
        with pytest.raises(ValueError):
            TuneRequest.from_dict({"schema": 99, "kernel": "dscal"})
        with pytest.raises(ValueError):
            TuneRequest.from_dict({"schema": 1})   # no kernel

    def test_unknown_kernel_and_context_refused(self):
        with pytest.raises(ValueError):
            TuneRequest(kernel="nope")
        with pytest.raises(ValueError):
            _request(context="in-l9")

    @pytest.mark.parametrize("field", ["observe", "verify_ir",
                                       "enable_block_fetch", "test"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_bool_knobs_take_only_booleans(self, field, value):
        # bool("false") is True: a coercing schema would run the tester
        # or turn observation on for a request that asked the opposite
        with pytest.raises(ValueError, match=field):
            TuneRequest.from_dict({"kernel": "ddot", field: value})
        assert getattr(TuneRequest.from_dict({"kernel": "ddot",
                                              field: False}), field) is False

    @pytest.mark.parametrize("field, value", [
        ("budget", True), ("seed", False), ("n", True), ("min_gain", False),
        ("budget", 12.5), ("seed", 2.9), ("n", 4000.5),
        ("budget", "12"), ("min_gain", "0.01"), ("n", "4000"),
    ])
    def test_number_knobs_take_only_numbers(self, field, value):
        # int(True) is 1 and int(2.9) is 2: a casting schema would run a
        # different search from the one the request spelled
        with pytest.raises(ValueError, match=field):
            TuneRequest.from_dict({"kernel": "ddot", field: value})

    def test_integral_numbers_are_normalized(self):
        request = TuneRequest.from_dict({"kernel": "ddot", "budget": 12.0,
                                         "seed": 3.0, "n": 4000.0,
                                         "min_gain": 0})
        assert (request.budget, request.seed, request.n) == (12, 3, 4000)
        assert all(type(v) is int for v in (request.budget, request.seed,
                                            request.n))
        assert type(request.min_gain) is float and request.min_gain == 0.0
        assert request.digest() == TuneRequest(
            kernel="ddot", budget=12, seed=3, n=4000, min_gain=0.0).digest()

    def test_to_config_keeps_operational_knobs(self, tmp_path):
        base = TuneConfig(jobs=3, cache_dir=str(tmp_path / "c"))
        cfg = _request(budget=17, seed=4).to_config(base)
        assert cfg.jobs == 3 and cfg.cache_dir == str(tmp_path / "c")
        assert cfg.max_evals == 17 and cfg.seed == 4
        assert cfg.run_tester is False

    @pytest.mark.parametrize("payload, want", [
        ({"kernel": "ddot"},
         "0174ee06407db46fe43d42d02f0fac2078a866fc1e5442dc111d62cde83598f5"),
        ({"kernel": "dgemm", "machine": "opteron",
          "context": "in-l2-cache", "n": 128, "strategy": "genetic",
          "seed": 7, "budget": 33, "observe": True, "verify_ir": True,
          "min_gain": 0.01,
          "enable_block_fetch": True, "test": False},
         "693ab31616b0e6ce99ad793a9392fe63b9a42c95b081c6ec111e6564b18f0ee7"),
        ({"kernel": "sasum", "max_evals": 12},
         "e89f44df72173e2bedb7a35f888e3225769dd0df50dfc6dba26f67dadcba8c8e"),
    ], ids=["defaults", "every-field", "max-evals-alias"])
    def test_golden_digests(self, monkeypatch, payload, want):
        """Request identity is load-bearing (dedup keys, stored
        answers): pinned digests under a fixed version string."""
        import repro.service.schema as schema
        monkeypatch.setattr(schema, "__version__", "golden-fixed")
        assert TuneRequest.from_dict(payload).digest() == want

    def test_response_roundtrip(self):
        resp = TuneResponse(digest="d" * 64, job_id="j-1", status="done",
                            result=None, stats={"evaluations": 3},
                            wall=1.5, served_from="store")
        back = TuneResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
        assert back.digest == resp.digest and back.served_from == "store"
        assert back.stats == {"evaluations": 3}


# ---------------------------------------------------------------------------
# scheduling, at its owners

def _drain_order(submissions):
    """Submit ``(client, seed)`` requests to a parked manager (no
    dispatcher), then drain it; returns the seeds in execution order.
    The engine is stubbed out: only the order is under test."""
    order = []
    with JobManager(config=_config()) as m:
        def record(*args, **kwargs):
            order.append(m.session.config.seed)
            raise RuntimeError("not run")
        m.session.tune = record
        for client, seed in submissions:
            assert m.submit(_request(seed=seed), client=client)[1] == "new"
        m.drain()
    return order


class TestSchedulerPrimitives:
    """The scheduling policy, at the objects that own it: the job
    manager's queue, in-flight map and budget, and the session's pool."""

    def test_fair_queue_round_robin(self):
        order = _drain_order([("a", 1), ("a", 2), ("a", 3), ("b", 4),
                              ("c", 5)])
        assert order == [1, 4, 5, 2, 3]

    def test_fair_queue_single_client_is_fifo(self):
        assert _drain_order([("", i) for i in range(5)]) == list(range(5))

    def test_inflight_claims_coalesce(self):
        with JobManager(config=_config()) as m:
            job, how = m.submit(_request())
            again, how2 = m.submit(_request(machine="P4E", context="oc"))
            assert (how, how2) == ("new", "coalesced") and again is job
            assert m.coalesced == 1 and m.stats_dict()["inflight"] == 1
            m.drain()
            assert not job.active and m.stats_dict()["inflight"] == 0
            assert m.submit(_request())[1] == "cached"

    def test_budget_ledger(self):
        """The budget is the session's own evaluation count: the
        ``/v1/stats`` budget block reads EngineStats, nothing else."""
        with JobManager(config=_config(), max_total_evals=EVALS + 1) as m:
            m.run_inline(_request())
            m.submit(_request(kernel="dcopy"))   # still under the ceiling
            stats = m.stats_dict()
            engine = stats["engine"]
            assert stats["budget"] == {
                "total_evaluations": engine["evaluations"],
                "total_cache_hits": engine["cache_hits"],
                "max_total_evals": EVALS + 1}
            assert 0 < engine["evaluations"] <= EVALS
            m.drain()
            with pytest.raises(BudgetExhaustedError):
                m.submit(_request(kernel="ddot"))

    def test_pool_death_mid_request_matches_serial(self):
        """A jobs=2 manager whose pool dies mid-request answers like a
        jobs=1 manager, and its EngineStats — and so its scraped
        evaluation counter — count each evaluation once."""
        from repro.obs import metrics
        from .test_batch import _DyingPool
        request = _request(kernel="daxpy", machine="opteron", n=80000,
                           strategy="genetic", seed=7, budget=10)
        answers = []
        for jobs in (1, 2):
            with JobManager(config=_config(jobs=jobs, batch_size=6)) as m:
                if jobs > 1:
                    m.session._pool = _DyingPool()
                response = m.run_inline(request)
                events = list(m.events(response.job_id))
                text = metrics.render_prometheus(*m.metric_series())
            scraped = sum(float(line.rsplit(" ", 1)[1])
                          for line in text.splitlines()
                          if line.startswith("repro_evaluations_total{"))
            assert response.ok and scraped == m.session.stats.evaluations
            assert (any(e["event"] == "pool-broken" for e in events)
                    == (jobs > 1))
            answers.append((response.history_digest,
                            m.session.stats.to_dict()))
        assert answers[0] == answers[1]

    def test_scheduler_shutdown_idempotent(self):
        with TuningSession(_config(jobs=1)) as s:
            assert s.pool() is None          # serial: no pool to own
        s = TuningSession(_config(jobs=2))
        pool = s.pool()
        assert pool is not None and s.pool() is pool
        s.close()
        s.close()                            # safe on error paths
        s.mark_pool_broken()
        assert s.pool() is None and s.pool() is None   # stays serial
        s.close()


# ---------------------------------------------------------------------------
# job layer: dedup, cache answers, events, budget

class TestJobManager:
    def test_repeat_is_served_from_memory(self):
        with JobManager(config=_config()) as m:
            first = m.run_inline(_request())
            evals = m.session.stats.evaluations
            second = m.run_inline(_request(machine="P4E", context="oc"))
        assert first.served_from is None and second.served_from == "memory"
        assert m.session.stats.evaluations == evals   # no second run
        assert second.result == first.result
        assert second.history_digest == first.history_digest
        assert m.launched == 1 and m.cache_answers == 1

    def test_store_answers_survive_a_restart(self, tmp_path):
        results = str(tmp_path / "results")
        with JobManager(config=_config(), results_dir=results) as m:
            first = m.run_inline(_request())
        # a different manager (daemon restart) pointed at the same store
        with JobManager(config=_config(), results_dir=results) as m2:
            again = m2.run_inline(_request())
            assert m2.session.stats.evaluations == 0
        assert again.served_from == "store"
        assert again.history_digest == first.history_digest
        assert again.tuned().params.key() == first.tuned().params.key()

    def test_concurrent_identical_requests_share_one_run(self):
        with JobManager(config=_config()) as m:
            tickets = []
            def submit():
                tickets.append(m.submit(_request()))
            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            hows = sorted(how for _, how in tickets)
            assert hows == ["coalesced", "coalesced", "coalesced", "new"]
            jobs = {job.id for job, _ in tickets}
            assert len(jobs) == 1                     # one shared job
            with LocalClient(manager=m) as client:
                response = client.wait(tickets[0][0].id)
        assert response.ok and m.launched == 1 and m.coalesced == 3

    def test_event_stream_replays_the_trace_file(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        with JobManager(config=_config(trace=str(trace))) as m:
            m.run_inline(_request())
            job = next(iter(m.jobs.values()))
            streamed = list(LocalClient(manager=m).events(job.id))
        on_disk = read_trace(str(trace))
        assert streamed == on_disk
        kinds = {e["event"] for e in streamed}
        assert {"job-start", "eval", "job-end"} <= kinds

    def test_budget_ceiling_refuses_fresh_work(self):
        with JobManager(config=_config(), max_total_evals=1) as m:
            first = m.run_inline(_request())
            assert first.ok
            # a repeat costs nothing and is still answered
            again = m.run_inline(_request())
            assert again.served_from == "memory"
            with pytest.raises(BudgetExhaustedError):
                m.submit(_request(kernel="dcopy"))

    def test_errored_job_is_charged_to_the_budget(self, monkeypatch):
        """A job whose winner fails the tester has still spent its
        evaluations; the next fresh request must see them."""
        import repro.search.engine as engine
        from repro.errors import KernelTestFailure

        def fail(*args, **kwargs):
            raise KernelTestFailure("forced")
        monkeypatch.setattr(engine, "test_kernel", fail)
        with JobManager(config=_config(), max_total_evals=10) as m:
            response = m.run_inline(_request(kernel="ddot", budget=12,
                                             test=True))
            assert not response.ok and "forced" in response.error
            assert response.stats["evaluations"] == 12
            assert m.session.stats.evaluations == 12
            assert m.stats_dict()["budget"]["total_evaluations"] == 12
            with pytest.raises(BudgetExhaustedError):
                m.submit(_request(kernel="dcopy"))

    def test_error_result_is_not_cached(self, monkeypatch):
        with JobManager(config=_config()) as m:
            def boom(*a, **kw):
                raise RuntimeError("engine fell over")
            monkeypatch.setattr(m.session, "tune", boom)
            with pytest.raises(ServiceError, match="engine fell over"):
                LocalClient(manager=m).tune(_request())
            assert m.errors == 1
            assert m._done_by_digest == {}

    def test_close_is_idempotent(self):
        m = JobManager(config=_config())
        m.start()
        m.close()
        m.close()
        assert m._dispatcher is None


# ---------------------------------------------------------------------------
# result store

class TestServeResultStore:
    def test_put_get_list(self, tmp_path):
        store = ServeResultStore(str(tmp_path))
        resp = TuneResponse(digest="ab" + "0" * 62, job_id="j-1",
                            status="done", stats={})
        store.put(resp.digest, resp)
        assert store.get(resp.digest).to_dict() == resp.to_dict()
        assert store.get("ff" + "0" * 62) is None
        assert len(store) == 1 and store.list() == [resp.to_dict()]

    def test_retired_strategy_answer_still_lists_and_seeds(self, tmp_path):
        """A store written when ``anneal`` was a strategy keeps serving:
        its answer lists under ``/v1/results`` and seeds a warm start.
        Responses carry no strategy, so retiring one strands nothing."""
        from repro.kernels import get_kernel
        from repro.machine import pentium4e
        from repro.search import lookup_warm_start, tune_kernel
        tuned = tune_kernel(get_kernel("dscal"), pentium4e(),
                            Context.OUT_OF_CACHE, N,
                            config=_config(strategy="random", max_evals=8))
        result = tuned.to_dict()
        result["search"]["history"] = [
            ["explore" if phase == "random" else phase, key, cycles]
            for phase, key, cycles in result["search"]["history"]]
        old = TuneResponse(digest="ae" + "0" * 62, job_id="j-1",
                           status="done", result=result, stats={})
        results = tmp_path / "results"
        ServeResultStore(str(results)).put(old.digest, old)
        with start_server("127.0.0.1", 0, config=_config(),
                          results_dir=str(results)) as handle:
            listed = ServeClient(handle.url).results()
        assert [r["digest"] for r in listed] == [old.digest]
        warm, source = lookup_warm_start(results, "dscal", "p4e", "oc", N)
        assert [w.key() for w in warm] == [tuned.params.key()]
        assert source == f"dscal:p4e:out-of-cache:{N}"
        trace = tmp_path / "trace.jsonl"
        tune_kernel(get_kernel("dscal"), pentium4e(), Context.OUT_OF_CACHE,
                    N, config=_config(max_evals=4, warm_start=str(results),
                                      trace=str(trace)))
        (event,) = [e for e in read_trace(str(trace))
                    if e["event"] == "warm-start"]
        assert event["candidates"] == 1 and event["source"] == source


# ---------------------------------------------------------------------------
# daemon: HTTP transport over the same job layer

@pytest.fixture(scope="class")
def daemon():
    handle = start_server("127.0.0.1", 0, config=_config())
    with handle:
        yield handle


class TestDaemon:
    def test_daemon_matches_in_process_bit_identically(self, daemon):
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        client = ServeClient(daemon.url)
        response = client.tune(_request())
        served = response.tuned()
        assert response.history_digest == history_digest(local.search)
        assert served.params.key() == local.params.key()
        assert served.search.best_cycles == local.search.best_cycles
        assert served.search.history == local.search.history
        assert served.mflops == local.mflops

    def test_repeat_over_http_is_cache_answered(self, daemon):
        client = ServeClient(daemon.url)
        first = client.tune(_request())
        stats0 = client.stats()
        again = client.tune(_request())
        stats1 = client.stats()
        assert again.served_from in ("memory", "store")
        assert again.history_digest == first.history_digest
        assert stats1["cache_answers"] > stats0["cache_answers"]
        assert stats1["launched"] == stats0["launched"]

    def test_legacy_payload_replays_identically_over_http(self, daemon):
        # a pre-tiling wire payload must be answered bit-identically to
        # an in-process run of the same problem
        legacy = {"schema": 1, "kernel": "dscal", "machine": "p4e",
                  "context": "out-of-cache", "n": N, "strategy": "line",
                  "seed": 0, "budget": EVALS, "test": False}
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        client = ServeClient(daemon.url)
        response = client.tune(TuneRequest.from_dict(legacy))
        assert response.history_digest == history_digest(local.search)
        assert response.tuned().params.key() == local.params.key()

    def test_submit_ticket_and_event_replay(self, daemon):
        client = ServeClient(daemon.url)
        ticket = client.submit(_request())
        assert set(ticket) == {"job_id", "digest", "status", "how"}
        response = client.wait(ticket["job_id"], timeout=120)
        assert response.ok
        events = list(client.events(ticket["job_id"]))
        snap = client.job(ticket["job_id"])
        assert snap["state"] == "done"
        assert len(events) == snap["n_events"] > 0
        # replay from an offset returns exactly the tail
        tail = list(client.events(ticket["job_id"], start=len(events) - 2))
        assert tail == events[-2:]

    def test_healthz_and_stats_shape(self, daemon):
        client = ServeClient(daemon.url)
        health = client.healthz()
        assert health["ok"] is True
        stats = client.stats()
        for key in ("submitted", "launched", "deduped", "cache_answers",
                    "engine", "budget", "config"):
            assert key in stats

    def test_results_listing(self, daemon):
        client = ServeClient(daemon.url)
        client.tune(_request())
        results = client.results(limit=5)
        assert results and results[0]["digest"]

    def test_bad_requests_are_400s(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServiceError, match="400"):
            client._json("POST", "/v1/tune", {"schema": 1})
        for retired in ("anneal", "transfer", "transfer:genetic"):
            with pytest.raises(ServiceError,
                               match="400.*unknown search strategy"):
                client._json("POST", "/v1/tune",
                             {"kernel": "dscal", "strategy": retired})
        with pytest.raises(ServiceError, match="404"):
            client.job("j-999999")
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/v1/nope")

    @pytest.mark.parametrize("path, body", [
        ("/v1/tune", '{"kernel": "ddot", "n": Infinity}'),
        ("/v1/tune", '{"kernel": "ddot", "budget": -Infinity}'),
        ("/v1/tune", '{"kernel": "ddot", "min_gain": NaN}'),
        ("/v1/tune", '{"kernel": "ddot", "min_gain": 1e999}'),
        ("/v1/tune", '{"kernel": "ddot", "min_gain": 1%s}' % ("0" * 400)),
        ("/v1/compile", '{"kernel": "ddot", "params": {"unroll": Infinity}}'),
    ], ids=["n-inf", "budget-neg-inf", "min-gain-nan", "min-gain-1e999",
            "min-gain-int-too-big-for-float", "compile-unroll-inf"])
    def test_non_finite_and_overflowing_numbers_are_400s(self, daemon, path,
                                                         body):
        code, payload = _post_raw(daemon, path, body)
        assert code == 400 and "error" in payload

    @pytest.mark.parametrize("body", [
        '{"kernel": "ddot", "budget": true}',
        '{"kernel": "ddot", "seed": 2.9}',
        '{"kernel": "ddot", "min_gain": false}',
    ], ids=["budget-bool", "seed-fraction", "min-gain-bool"])
    def test_booleans_and_fractions_in_number_knobs_are_400s(self, daemon,
                                                             body):
        code, payload = _post_raw(daemon, "/v1/tune", body)
        assert code == 400 and "error" in payload

    def test_compile_matches_local_fuzzer_digest(self, daemon):
        from repro.fko import TransformParams
        from repro.qa.differ import compile_digest
        from repro.qa.sampler import FuzzSample
        client = ServeClient(daemon.url)
        # register_allocation off leaves raw VRegs in the printed IR —
        # the canonical dump must erase the global uid counter's offset
        params = TransformParams(sv=False, unroll=2, lc=False, ae=1,
                                 wnt=False, register_allocation="off")
        sample = FuzzSample(kernel="dscal", machine="p4e",
                            params=params, n=64)
        local = compile_digest(sample)
        remote = client.compile("dscal", "p4e", params.to_dict())
        assert remote["ok"]
        assert remote["ir_digest"] == local["ir_digest"]
        assert remote["applied"] == local["applied"]


def _post_raw(handle, path, body):
    """POST ``body`` verbatim (it need not be strict JSON) and return
    ``(status, decoded JSON answer)``."""
    host, port = handle.server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=body.encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


#: a JSON value of any shape, non-finite floats included (``json.dumps``
#: writes them as the ``NaN``/``Infinity`` constants Python accepts)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["ddot", "dgemm", "p4e", "oc", "in-l2", "genetic"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner,
                                     max_size=3)),
    max_leaves=6)
_WIRE_KEYS = [f.name for f in fields(TuneRequest)] + ["schema", "max_evals"]
_PAYLOADS = (st.dictionaries(st.text(max_size=8), _JSON, max_size=4)
             | st.dictionaries(st.sampled_from(_WIRE_KEYS), _JSON,
                               max_size=6)
             | st.builds(lambda kernel, extra: dict(extra, kernel=kernel),
                         st.sampled_from(["ddot", "dscal", "dgemm"]),
                         st.dictionaries(st.sampled_from(_WIRE_KEYS), _JSON,
                                         max_size=4)))


def test_malformed_tune_payloads_are_4xx_not_500():
    """Whatever JSON object a client sends, ``/v1/tune`` answers a 202
    or a 4xx with a JSON ``error`` body, and the daemon stays up.  The
    dispatcher is parked, so accepted requests only queue."""
    handle = start_server("127.0.0.1", 0, config=_config(),
                          autostart=False)
    with handle:
        @settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=list(HealthCheck))
        @given(_PAYLOADS)
        @example({"kernel": "ddot", "n": float("inf")})
        @example({"kernel": "ddot", "budget": float("-inf")})
        def post(payload):
            code, answer = _post_raw(handle, "/v1/tune", json.dumps(payload))
            assert code == 202 or (400 <= code < 500
                                   and isinstance(answer.get("error"), str)), \
                (code, answer)

        post()
        host, port = handle.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/v1/healthz")
        assert conn.getresponse().status == 200
        conn.close()


class TestDaemonStaging:
    def test_staged_concurrent_dedup_over_http(self):
        """Two identical HTTP submissions while the dispatcher is
        parked must coalesce onto one job and one engine run."""
        handle = start_server("127.0.0.1", 0, config=_config(),
                              autostart=False)
        with handle:
            client = ServeClient(handle.url)
            t1 = client.submit(_request())
            t2 = client.submit(_request())
            assert t1["how"] == "new" and t2["how"] == "coalesced"
            assert t1["job_id"] == t2["job_id"]
            handle.manager.start()
            response = client.wait(t1["job_id"], timeout=120)
            assert response.ok
            stats = client.stats()
            assert stats["launched"] == 1 and stats["deduped"] == 1

    def test_budget_exhaustion_is_http_429(self):
        handle = start_server("127.0.0.1", 0, config=_config(),
                              max_total_evals=1)
        with handle:
            client = ServeClient(handle.url)
            assert client.tune(_request()).ok
            # cached repeat still answered after the ledger is spent
            assert client.tune(_request()).served_from is not None
            with pytest.raises(ServiceError, match="429"):
                client.submit(_request(kernel="dcopy"))


class TestDaemonFaults:
    def test_refused_store_write_still_answers(self, tmp_path,
                                               monkeypatch):
        """A result store that refuses the write costs durability, not
        the answer: the request is answered and a repeat is served from
        memory."""
        puts = []

        def refuse(self, digest, response):
            puts.append(digest)
            return False
        monkeypatch.setattr(ServeResultStore, "put", refuse)
        handle = start_server("127.0.0.1", 0, config=_config(),
                              results_dir=str(tmp_path / "results"))
        with handle:
            client = ServeClient(handle.url)
            first = client.tune(_request())
            again = client.tune(_request())
            assert first.ok and again.served_from == "memory"
            assert again.history_digest == first.history_digest
            assert client.stats()["stored_results"] == 0
        assert len(puts) == 1

    def test_client_disconnect_mid_stream(self, monkeypatch):
        """A client that drops a live NDJSON event stream partway
        through leaves the daemon serving.  The engine is held after
        ``job-start`` until the client has gone, so every later event
        is written to a closed connection."""
        import http.client
        import repro.search.engine as engine
        gate = threading.Event()
        many = engine._Evaluator.many

        def gated(self, *args, **kwargs):
            gate.wait(60)
            return many(self, *args, **kwargs)
        monkeypatch.setattr(engine._Evaluator, "many", gated)
        handle = start_server("127.0.0.1", 0, config=_config(),
                              autostart=False)
        with handle:
            client = ServeClient(handle.url)
            ticket = client.submit(_request())
            host, port = handle.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.request("GET", f"/v1/jobs/{ticket['job_id']}/events"
                                "?follow=1")
            stream = conn.getresponse()
            handle.manager.start()
            assert json.loads(stream.readline())["event"] == "job-start"
            stream.close()
            conn.close()
            gate.set()
            assert client.wait(ticket["job_id"], timeout=120).ok
            assert client.healthz()["ok"] is True
            assert client.tune(_request(kernel="dcopy")).ok


# ---------------------------------------------------------------------------
# client facade

class TestClientFacade:
    def test_make_client_picks_transport(self):
        local = make_client()
        assert isinstance(local, LocalClient)
        local.close()
        assert isinstance(make_client("http://127.0.0.1:1"), ServeClient)

    def test_facade_exports(self):
        import repro
        for name in ("TuneRequest", "TuneResponse", "history_digest",
                     "LocalClient", "ServeClient", "ServiceError",
                     "TuneClient", "make_client"):
            assert hasattr(repro, name)

    def test_local_client_matches_plain_session(self):
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        with make_client(config=_config()) as client:
            response = client.tune(_request())
        assert response.history_digest == history_digest(local.search)
        assert response.tuned().params.key() == local.params.key()

    def test_unreachable_daemon_is_a_service_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_tune_kwargs_shorthand(self):
        with make_client(config=_config()) as client:
            response = client.tune(kernel="dscal", n=N, budget=EVALS,
                                   test=False)
        assert response.ok
        with pytest.raises(TypeError):
            client.tune(_request(), kernel="dscal")


# ---------------------------------------------------------------------------
# canonical IR text (the compile-digest oracle's foundation)

class TestCanonicalText:
    def test_uid_offsets_do_not_change_the_canonical_dump(self):
        """Compiling the same point twice in one process advances the
        global VReg counter, so the plain dumps differ whenever VRegs
        survive (register allocation off) — the canonical dumps must
        not."""
        from repro.fko import FKO, TransformParams
        from repro.ir import canonical_function_text, format_function
        from repro.kernels import get_kernel
        from repro.machine import get_machine
        params = TransformParams(sv=False, unroll=2, lc=False, ae=1,
                                 wnt=False, register_allocation="off")
        hil = get_kernel("dscal").hil
        one = FKO(get_machine("p4e")).compile(hil, params)
        two = FKO(get_machine("p4e")).compile(hil, params)
        assert format_function(one.fn) != format_function(two.fn)
        assert (canonical_function_text(one.fn)
                == canonical_function_text(two.fn))

    def test_renumbering_keeps_distinct_registers_distinct(self):
        from repro.ir.printer import _VREG_TOKEN

        def canon(text):
            mapping = {}
            return _VREG_TOKEN.sub(
                lambda m: f"%{m.group(1)}."
                          f"{mapping.setdefault(m.group(2), len(mapping))}",
                text)

        assert canon("%x.17 %y.3 %x.17") == "%x.0 %y.1 %x.0"
        assert canon("%a.5 %a.9") == "%a.0 %a.1"
