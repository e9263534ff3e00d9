"""Tests for the batch tuning engine (repro.search.engine).

Covers the engine's contract surface:

* parallel == serial, bit-identical, at both fan-out grains;
* the persistent evaluation cache (warm rerun = zero evaluations);
* resume = rerun against the same cache dir, even after a batch died
  half-way through a job;
* JSON round-trips of params / search results / tuned kernels;
* robustness: a SimulationFault is never retried (neither an evaluation
  nor a job);
* the deprecation shim over the old tune_kernel keyword signature;
* the JSONL trace and its summary.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationFault
from repro.fko import FKO, TransformParams
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import Context, get_machine
from repro.search import (EvalCache, SearchResult, TuneConfig, TunedKernel,
                          TuningJob, TuningSession, compile_default,
                          eval_key, evaluate_params, read_trace,
                          registry_jobs, render_trace_summary,
                          summarize_trace, tune_kernel)
from repro.timing.timer import Timer

N = 4000
EVALS = 40


def _slow_p4e():
    """A custom config that keeps the registry name: P4E with a quarter
    of its bus bandwidth."""
    p4e = get_machine("p4e")
    return dataclasses.replace(p4e, bus_bpc=p4e.bus_bpc / 4)


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


@pytest.fixture(scope="module")
def serial_ddot():
    with TuningSession(_config()) as s:
        return s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)


# ---------------------------------------------------------------------------
# determinism: jobs=N must be bit-identical to jobs=1

class TestParallelEqualsSerial:
    def test_candidate_fanout_matches_serial(self, serial_ddot):
        with TuningSession(_config(jobs=4)) as s:
            par = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert par.params.key() == serial_ddot.params.key()
        assert par.search.best_cycles == serial_ddot.search.best_cycles
        assert par.search.history == serial_ddot.search.history

    def test_job_fanout_matches_serial(self):
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N, max_evals=EVALS)
                for k in ("ddot", "dasum")]
        with TuningSession(_config(jobs=1)) as s:
            serial = s.run(jobs)
        with TuningSession(_config(jobs=4)) as s:
            par = s.run(jobs)
        assert not serial.errors and not par.errors
        assert len(par) == len(serial) == 2
        for job in jobs:
            a, b = serial[job.key()], par[job.key()]
            assert a.params.key() == b.params.key()
            assert a.search.best_cycles == b.search.best_cycles
            assert a.timing.cycles == b.timing.cycles


# ---------------------------------------------------------------------------
# persistent evaluation cache

class TestEvalCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = EvalCache(str(tmp_path))
        cache.put("ab" * 32, 123.5, meta={"kernel": "ddot"})
        assert cache.get("ab" * 32) == 123.5
        assert len(cache) == 1
        assert EvalCache(str(tmp_path)).get("ab" * 32) == 123.5

    def test_absent_is_miss(self, tmp_path):
        cache = EvalCache(str(tmp_path))
        assert cache.get("cd" * 32) is None
        assert len(cache) == 0

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_entry_is_miss(self, tmp_path, bad):
        # a NaN/inf cycle count from disk used to be served as a hit,
        # poisoning every search that touched the entry
        cache = EvalCache(str(tmp_path))
        cache.put("ab" * 32, 7.0)
        for f in tmp_path.rglob("*.json"):
            f.write_text('{"cycles": %s}' % bad)
        fresh = EvalCache(str(tmp_path))
        assert fresh.get("ab" * 32) is None
        assert len(fresh) == 1    # still on disk, but never served

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_put_refused(self, tmp_path, bad):
        cache = EvalCache(str(tmp_path))
        cache.put("cd" * 32, bad)
        assert len(cache) == 0
        assert cache.get("cd" * 32) is None

    def test_eval_key_sensitivity(self):
        base = eval_key("hil", "p4e", Context.OUT_OF_CACHE, N, "k", "1.1.0")
        assert base == eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil2", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil", "opteron", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.IN_L2, N, "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N + 1,
                                "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k2", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "9.9.9")

    def test_warm_rerun_is_all_cache_hits(self, tmp_path, serial_ddot):
        cache_dir = str(tmp_path / "evals")
        with TuningSession(_config(cache_dir=cache_dir)) as s:
            cold = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            n_cold = s.stats.evaluations
        assert n_cold > 0
        with TuningSession(_config(cache_dir=cache_dir)) as s:
            warm = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            assert s.stats.evaluations == 0
            assert s.stats.cache_hits == n_cold
        # cached cycles are real measurements: same best as uncached runs
        assert warm.params.key() == cold.params.key()
        assert warm.params.key() == serial_ddot.params.key()
        assert warm.search.best_cycles == serial_ddot.search.best_cycles

    def test_modified_machine_gets_its_own_entries(self, tmp_path):
        """A config that keeps a registry name must not read the
        registry machine's entries; the registry machine's key is its
        bare canonical name."""
        from repro.machine import machine_ident
        p4e = get_machine("p4e")
        assert machine_ident(p4e) == "p4e"
        assert machine_ident(_slow_p4e()).startswith("p4e:")
        cfg = _config(max_evals=6, cache_dir=str(tmp_path / "evals"))
        with TuningSession(cfg) as s:
            s.tune("ddot", p4e, Context.OUT_OF_CACHE, 80000)
        with TuningSession(cfg) as s:
            cached = s.tune("ddot", _slow_p4e(), Context.OUT_OF_CACHE, 80000)
            assert s.stats.cache_hits == 0
        with TuningSession(_config(max_evals=6)) as s:
            fresh = s.tune("ddot", _slow_p4e(), Context.OUT_OF_CACHE, 80000)
        assert cached.search.best_cycles == fresh.search.best_cycles
        with TuningSession(cfg) as s:
            s.tune("ddot", _slow_p4e(), Context.OUT_OF_CACHE, 80000)
            assert s.stats.evaluations == 0 and s.stats.cache_hits == 6


# ---------------------------------------------------------------------------
# resume: rerun the batch against the same cache dir

class TestRerunResumes:
    def test_rerun_after_interrupt_matches_clean_run(self, tmp_path,
                                                     monkeypatch):
        """A serial batch of 3 jobs is stopped by a KeyboardInterrupt
        partway through job 2's search.  The rerun computes nothing for
        job 1, serves every evaluation job 2 had recorded from the
        cache, and answers all 3 jobs exactly as a clean run does."""
        from repro.service import history_digest
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N,
                          max_evals=EVALS)
                for k in ("ddot", "dasum", "dcopy")]
        cache = str(tmp_path / "evals")
        recorded = []
        put = EvalCache.put

        def interrupted_put(self, digest, cycles, meta=None):
            put(self, digest, cycles, meta=meta)
            if meta and meta["kernel"] == "dasum":
                recorded.append(digest)
                if len(recorded) == 5:
                    raise KeyboardInterrupt
        monkeypatch.setattr(EvalCache, "put", interrupted_put)
        with pytest.raises(KeyboardInterrupt):
            with TuningSession(_config(cache_dir=cache)) as s:
                s.run(jobs)
        monkeypatch.setattr(EvalCache, "put", put)
        assert len(recorded) == 5

        trace = str(tmp_path / "rerun.jsonl")
        with TuningSession(_config(cache_dir=cache, trace=trace)) as s:
            rerun = s.run(jobs)
        with TuningSession(_config()) as s:
            clean = s.run(jobs)
        per_job = summarize_trace(read_trace(trace))["jobs"]
        assert per_job[jobs[0].key()]["evaluations"] == 0
        assert per_job[jobs[1].key()]["cache_hits"] >= len(recorded)
        for job in jobs:
            got, want = rerun[job.key()], clean[job.key()]
            assert got.params.key() == want.params.key()
            assert got.search.best_cycles == want.search.best_cycles
            assert (history_digest(got.search)
                    == history_digest(want.search))


# ---------------------------------------------------------------------------
# robustness: fault handling around one evaluation

class _FlakyFKO:
    """Delegates to a real FKO after raising N SimulationFaults."""

    def __init__(self, machine, failures):
        self.real = FKO(machine)
        self.failures = failures

    def compile(self, hil, params=None, debug_verify=False):
        if self.failures > 0:
            self.failures -= 1
            raise SimulationFault("injected")
        return self.real.compile(hil, params, debug_verify=debug_verify)


def _faulting_job_worker(payload):
    """A pool job worker whose search hit a SimulationFault."""
    return {"ok": False, "error": "SimulationFault: injected",
            "events": [], "stats": {}}


class TestRobustness:
    def test_fault_is_terminal_not_retried(self, p4e, ddot_spec):
        """The simulator is deterministic: one fault means every retry
        would fault identically, so the status is ``fault`` immediately
        and the candidate is compiled exactly once."""
        fko = _FlakyFKO(p4e, failures=1)
        timer = Timer(p4e, Context.OUT_OF_CACHE, N)
        cycles, status, _ = evaluate_params(
            fko, timer, ddot_spec.hil, TransformParams(),
            ddot_spec.flops(N), "ddot|")
        assert cycles == float("inf")
        assert status.startswith("fault:")
        assert fko.failures == 0   # a retry would have consumed the real FKO

    def test_ok_eval_reports_fast_path(self, p4e, ddot_spec):
        fko = FKO(p4e)
        timer = Timer(p4e, Context.OUT_OF_CACHE, 80000)
        cycles, status, meta = evaluate_params(
            fko, timer, ddot_spec.hil, TransformParams(sv=True, unroll=8),
            ddot_spec.flops(80000), "ddot|")
        assert status == "ok" and cycles != float("inf")
        assert meta["fast"] is True


# ---------------------------------------------------------------------------
# JSON round-trips

_params_st = st.builds(
    TransformParams,
    sv=st.booleans(),
    unroll=st.sampled_from([1, 2, 4, 8, 16]),
    lc=st.booleans(),
    ae=st.sampled_from([1, 2, 4]),
    wnt=st.booleans(),
)


class TestRoundTrips:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=_params_st)
    def test_params_roundtrip_preserves_key(self, p):
        again = TransformParams.from_dict(json.loads(
            json.dumps(p.to_dict())))
        assert again.key() == p.key()

    def test_params_roundtrip_keeps_prefetch(self):
        from repro.ir import PrefetchHint
        p = TransformParams(sv=True, unroll=8).with_pf(
            "X", PrefetchHint.NTA, 512)
        again = TransformParams.from_dict(p.to_dict())
        assert again.key() == p.key()
        assert again.describe() == p.describe()

    def test_search_result_roundtrip(self, serial_ddot):
        sr = serial_ddot.search
        again = SearchResult.from_dict(json.loads(json.dumps(sr.to_dict())))
        assert again.best_params.key() == sr.best_params.key()
        assert again.best_cycles == sr.best_cycles
        assert again.n_evaluations == sr.n_evaluations
        assert again.history == sr.history
        assert again.phase_gains == sr.phase_gains
        assert again.start_cycles == sr.start_cycles

    def test_tuned_kernel_roundtrip(self, serial_ddot):
        again = TunedKernel.from_dict(json.loads(
            json.dumps(serial_ddot.to_dict())))
        assert again.params.key() == serial_ddot.params.key()
        assert again.mflops == serial_ddot.mflops
        assert again.timing.cycles == serial_ddot.timing.cycles
        assert again.context is serial_ddot.context
        assert again.n == serial_ddot.n
        assert again.compiled.fn is not None   # recompiled, not serialized
        assert (again.search.best_cycles
                == serial_ddot.search.best_cycles)

    def test_compile_default_roundtrip_keeps_search_none(self, p4e,
                                                         ddot_spec):
        tk = compile_default(ddot_spec, p4e, Context.OUT_OF_CACHE, N)
        assert tk.search is None and tk.mflops > 0
        again = TunedKernel.from_dict(tk.to_dict())
        assert again.search is None
        assert again.timing.cycles == tk.timing.cycles


# ---------------------------------------------------------------------------
# config=TuneConfig(...) is the only spelling (the pre-engine keyword
# shim finished its deprecation window and was removed)

class TestConfigOnlySignature:
    def test_legacy_kwargs_are_gone(self, p4e, ddot_spec):
        with pytest.raises(TypeError):
            tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N,
                        max_evals=EVALS, run_tester=False)

    def test_unknown_kwarg_raises(self, p4e, ddot_spec):
        with pytest.raises(TypeError):
            tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N, bogus=1)

    def test_config_object_is_the_front_door(self, p4e, ddot_spec,
                                             serial_ddot):
        tk = tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N,
                         config=_config())
        assert tk.params.key() == serial_ddot.params.key()


# ---------------------------------------------------------------------------
# jobs and batch plumbing

class TestTuningJob:
    def test_normalizes_objects_to_names(self, p4e, ddot_spec):
        job = TuningJob(ddot_spec, p4e, Context.OUT_OF_CACHE, N)
        assert job.kernel == "ddot" and job.machine == "p4e"
        assert job.key() == f"ddot:p4e:out-of-cache:{N}"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            TuningJob("zgemm", "p4e", Context.OUT_OF_CACHE, N)

    def test_modified_machine_config_refused(self):
        """A job names its machine by registry name, so a custom config
        would silently be tuned as the registry machine."""
        with pytest.raises(ValueError, match="TuningSession.tune"):
            TuningJob("ddot", _slow_p4e(), Context.OUT_OF_CACHE, N)

    def test_faulted_worker_job_is_one_error_not_rerun(self, monkeypatch,
                                                       tmp_path):
        """The simulator is deterministic: a job whose worker reports a
        SimulationFault would fault identically again, so it is
        recorded once and never re-run serially."""
        import repro.search.engine as engine
        monkeypatch.setattr(engine, "_job_worker", _faulting_job_worker)
        reruns = []
        monkeypatch.setattr(engine.TuningSession, "tune",
                            lambda self, *a, **kw: reruns.append(a))
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N)
                for k in ("ddot", "dasum")]
        trace = tmp_path / "t.jsonl"
        with TuningSession(_config(jobs=2, trace=str(trace))) as s:
            batch = s.run(jobs)
        assert reruns == []
        assert batch.errors == {j.key(): "SimulationFault: injected"
                                for j in jobs}
        errors = [e["job"] for e in read_trace(str(trace))
                  if e["event"] == "job-error"]
        assert sorted(errors) == sorted(j.key() for j in jobs)

    def test_dict_roundtrip(self):
        job = TuningJob("ddot", "opteron", Context.IN_L2, 1024,
                        max_evals=99)
        again = TuningJob.from_dict(job.to_dict())
        assert again == job

    def test_registry_jobs_cover_registry(self):
        jobs = registry_jobs()
        assert [j.kernel for j in jobs] == list(KERNEL_ORDER)
        both = registry_jobs(kernels=["ddot"],
                             machines=["p4e", "opteron"],
                             contexts=[Context.OUT_OF_CACHE, Context.IN_L2])
        assert len(both) == 4
        assert len({j.key() for j in both}) == 4


# ---------------------------------------------------------------------------
# tracing

class TestTrace:
    def test_trace_records_search_and_summarizes(self, tmp_path):
        out = tmp_path / "run.jsonl"
        with TuningSession(_config(trace=str(out))) as s:
            tk = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            n_evals = s.stats.evaluations
        events = read_trace(str(out))
        kinds = {e["event"] for e in events}
        assert {"job-start", "eval", "job-end"} <= kinds
        summary = summarize_trace(events)
        assert summary["evaluations"] == n_evals
        assert summary["cache_hits"] == 0
        job = next(iter(summary["jobs"].values()))
        assert job["evaluations"] == n_evals
        assert job["best_cycles"] == tk.search.best_cycles
        text = render_trace_summary(summary)
        assert "# trace:" in text and "evaluations by phase" in text

    def test_read_trace_skips_malformed_lines(self, tmp_path):
        f = tmp_path / "t.jsonl"
        f.write_text('{"event": "eval", "wall": 0.1}\n'
                     "NOT JSON\n"
                     '{"event": "cache-hit"}\n')
        events = read_trace(str(f))
        assert len(events) == 2
        summary = summarize_trace(events)
        assert summary["evaluations"] == 1
        assert summary["cache_hits"] == 1

    def test_nonfinite_cycles_serialize_as_null(self, tmp_path):
        from repro.search import TraceWriter
        out = tmp_path / "t.jsonl"
        w = TraceWriter(str(out))
        w.emit("eval", cycles=float("inf"), wall=0.0, status="fault: x")
        w.close()
        ev = read_trace(str(out))[0]
        assert ev["cycles"] is None
