"""Tests for the observability subsystem (repro.obs + trace schema v2).

Covers the PR's contract surface:

* the collector: inert when disabled, scoped by ``use()``, pass spans
  record wall/applied/IR deltas, counters accumulate;
* the instrumented pipeline: every transform pass shows up with sane
  records, and observation is provably non-perturbing (identical
  cycles, identical emitted IR, identical search decisions, identical
  cache keys);
* trace schema v2: ``pass``/``attribution`` events appear only with
  ``observe=True``, jobs=4 matches jobs=1 bit-identically (modulo
  wall-clock fields), the sanitizer handles nested non-finite floats,
  the writer is a context manager, malformed lines are counted;
* the consumers: Perfetto export is valid strict JSON with matched,
  properly nested B/E pairs, and ``repro report`` golden-renders the
  fixture trace.
"""

import json
import math
import pathlib

import pytest

from repro import obs
from repro.fko import FKO
from repro.ir import format_function
from repro.kernels import get_kernel
from repro.machine import Context
from repro.obs import Collector, export_perfetto, render_report
from repro.search import (TuneConfig, TuningJob, TuningSession,
                          evaluate_params, read_trace, render_trace_summary,
                          summarize_trace)
from repro.search.trace import TRACE_VERSION, TraceWriter
from repro.timing.timer import Timer
from repro import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE = GOLDEN / "obs_trace_fixture.jsonl"
N = 4000
EVALS = 24

PIPELINE_PASSES = {"cfg", "sv", "ur", "lc", "ae", "pf", "wnt",
                   "copy-prop", "peephole", "regalloc"}


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


def _tools(machine):
    return FKO(machine), Timer(machine, Context.OUT_OF_CACHE, N)


# ---------------------------------------------------------------------------
# the collector core

class TestCollector:
    def test_disabled_by_default(self):
        assert obs.active() is None
        obs.count("anything", 3)   # must be a silent no-op

    def test_use_installs_and_restores(self):
        col = Collector()
        with obs.use(col):
            assert obs.active() is col
            obs.count("x", 2)
            obs.count("x")
        assert obs.active() is None
        assert col.counters["x"] == 3

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.use(Collector()):
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_nested_use_restores_outer(self):
        outer, inner = Collector(), Collector()
        with obs.use(outer):
            with obs.use(inner):
                obs.count("k")
            assert obs.active() is outer
        assert inner.counters["k"] == 1
        assert "k" not in outer.counters


# ---------------------------------------------------------------------------
# the instrumented pipeline

class TestPipelineSpans:
    @pytest.fixture(scope="class")
    def observed(self, p4e):
        fko = FKO(p4e)
        spec = get_kernel("ddot")
        col = Collector()
        with obs.use(col):
            compiled = fko.compile(spec.hil, fko.defaults(spec.hil))
        return col, compiled

    def test_every_record_is_a_known_pass(self, observed):
        col, _ = observed
        assert col.passes
        assert {p["pass"] for p in col.passes} <= PIPELINE_PASSES

    def test_records_carry_spans_and_ir_deltas(self, observed):
        col, _ = observed
        for p in col.passes:
            assert p["wall"] >= 0.0
            assert isinstance(p["applied"], bool)
            for k in ("instrs", "blocks", "vregs",
                      "d_instrs", "d_blocks", "d_vregs"):
                assert isinstance(p[k], int)
            assert p["instrs"] > 0 and p["blocks"] > 0

    def test_regalloc_reports_allocation_detail(self, observed):
        col, _ = observed
        ra = [p for p in col.passes if p["pass"] == "regalloc"]
        assert len(ra) == 1
        assert ra[0]["detail"]["ra.allocated"] > 0
        # zero-valued counters are elided from the delta; spill counts
        # therefore appear exactly when the allocator spilled
        assert ra[0]["detail"].get("ra.spilled", 0) >= 0

    def test_unroll_reports_replicated_trips(self, p4e):
        import dataclasses
        fko = FKO(p4e)
        spec = get_kernel("ddot")
        params = dataclasses.replace(fko.defaults(spec.hil), unroll=4)
        col = Collector()
        with obs.use(col):
            fko.compile(spec.hil, params)
        ur = [p for p in col.passes if p["pass"] == "ur"]
        assert ur and ur[0]["applied"]
        assert ur[0]["detail"]["ur.replicated_trips"] == 3
        assert ur[0]["d_instrs"] > 0   # unrolling grows the body


# ---------------------------------------------------------------------------
# observation must not perturb anything

class TestNonPerturbation:
    def test_compiled_ir_is_identical(self, p4e):
        fko = FKO(p4e)
        spec = get_kernel("ddot")
        params = fko.defaults(spec.hil)
        plain = fko.compile(spec.hil, params)
        with obs.use(Collector()):
            observed = fko.compile(spec.hil, params)
        assert format_function(plain.fn) == format_function(observed.fn)

    def test_evaluated_cycles_are_identical(self, p4e):
        fko, timer = _tools(p4e)
        spec = get_kernel("ddot")
        params = fko.defaults(spec.hil)
        c_off, s_off, _ = evaluate_params(fko, timer, spec.hil, params,
                                          spec.flops(N), "t|")
        c_on, s_on, meta = evaluate_params(fko, timer, spec.hil, params,
                                           spec.flops(N), "t|",
                                           observe=True)
        assert (c_off, s_off) == (c_on, s_on)
        assert meta["passes"] and meta["attribution"]

    def test_attribution_decomposes_recorded_cycles(self, p4e):
        fko, timer = _tools(p4e)
        spec = get_kernel("ddot")
        _, _, meta = evaluate_params(fko, timer, spec.hil,
                                     fko.defaults(spec.hil),
                                     spec.flops(N), "t|", observe=True)
        att = meta["attribution"]
        assert att["total"] > 0
        assert att["compute"] + att["memory_stall"] + att["other"] \
            == pytest.approx(att["total"])
        assert att["prefetch_waste"] >= 0

    def test_search_decisions_are_identical(self):
        with TuningSession(_config()) as s:
            off = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        with TuningSession(_config(observe=True)) as s:
            on = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert on.params.key() == off.params.key()
        assert on.search.best_cycles == off.search.best_cycles
        assert on.search.history == off.search.history

    def test_cache_keys_are_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        with TuningSession(_config(observe=True, cache_dir=cache)) as s:
            s.tune("dasum", "p4e", Context.OUT_OF_CACHE, N)
        with TuningSession(_config(observe=False, cache_dir=cache)) as s:
            s.tune("dasum", "p4e", Context.OUT_OF_CACHE, N)
            assert s.stats.evaluations == 0   # warm rerun: every key hits
            assert s.stats.cache_hits > 0


# ---------------------------------------------------------------------------
# trace schema v2

def _strip_walls(events):
    """Drop wall-clock fields (the only nondeterminism between runs)."""
    return [json.dumps({k: v for k, v in e.items()
                        if k not in ("t", "wall")}, sort_keys=True)
            for e in events]


class TestTraceV2:
    def test_version_bumped(self):
        assert TRACE_VERSION == 3

    def test_observe_adds_v2_events_in_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(observe=True, trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        events = read_trace(str(path))
        kinds = [e["event"] for e in events]
        assert "pass" in kinds and "attribution" in kinds
        # every eval is preceded by its pass block and followed by its
        # attribution, params all agreeing
        for i, e in enumerate(events):
            if e["event"] == "eval":
                assert events[i - 1]["event"] == "pass"
                assert events[i - 1]["params"] == e["params"]
                assert events[i + 1]["event"] == "attribution"
                assert events[i + 1]["params"] == e["params"]

    def test_no_observe_means_no_v2_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        kinds = {e["event"] for e in read_trace(str(path))}
        assert not kinds & {"pass", "attribution"}

    def test_candidate_fanout_stream_matches_serial(self, tmp_path):
        serial, par = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        with TuningSession(_config(observe=True, trace=str(serial))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        with TuningSession(_config(observe=True, jobs=4,
                                   trace=str(par))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert _strip_walls(read_trace(str(serial))) \
            == _strip_walls(read_trace(str(par)))

    def test_job_fanout_subsequences_match_serial(self, tmp_path):
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N,
                          max_evals=EVALS) for k in ("ddot", "dasum")]
        serial, par = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        with TuningSession(_config(observe=True, trace=str(serial))) as s:
            assert not s.run(jobs).errors
        with TuningSession(_config(observe=True, jobs=4,
                                   trace=str(par))) as s:
            assert not s.run(jobs).errors

        def per_job(path):
            out = {}
            for e in read_trace(str(path)):
                if e.get("job"):
                    out.setdefault(e["job"], []).append(e)
            return {k: _strip_walls(v) for k, v in out.items()}

        assert per_job(serial) == per_job(par)

    def test_sanitizer_handles_nested_nonfinite(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as w:
            w.emit("eval", cycles=float("inf"),
                   detail={"a": float("nan"),
                           "deep": [1.0, float("-inf"), {"b": math.nan}]},
                   ok=1.5)
        [ev] = read_trace(str(path))
        assert ev["cycles"] is None
        assert ev["detail"]["a"] is None
        assert ev["detail"]["deep"] == [1.0, None, {"b": None}]
        assert ev["ok"] == 1.5

    def test_writer_context_manager_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as w:
            w.emit("x")
            assert w._fh is not None
        assert w._fh is None
        with pytest.raises(RuntimeError):
            with TraceWriter(str(path)) as w:
                raise RuntimeError("boom")
        assert w._fh is None   # closed on the error path too

    def test_session_closes_trace_when_batch_dies(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        session = TuningSession(_config(trace=str(path)))

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(session, "tune", interrupted)
        with pytest.raises(KeyboardInterrupt):
            session.run([TuningJob("ddot", "p4e",
                                   Context.OUT_OF_CACHE, N)])
        assert session._trace._fh is None

    def test_malformed_lines_counted_and_reported(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 1.0, "event": "eval", "wall": 0.1}\n'
                        "{broken\n"
                        "also broken\n"
                        '{"t": 2.0, "event": "batch-end", "wall": 1.0}\n')
        events = read_trace(str(path))
        assert len(events) == 2
        assert events.malformed == 2
        summary = summarize_trace(events)
        assert summary["malformed_lines"] == 2
        assert "2 malformed line(s)" in render_trace_summary(summary)

    def test_clean_trace_reports_zero_malformed(self):
        events = read_trace(str(FIXTURE))
        assert events.malformed == 0
        assert summarize_trace(events)["malformed_lines"] == 0


# ---------------------------------------------------------------------------
# consumer 1: Perfetto / Chrome trace-event export

def _check_spans_balanced(doc):
    """Every B has a matching same-name E on its pid/tid, properly
    nested, timestamps monotonic within each stack."""
    stacks = {}
    for e in doc["traceEvents"]:
        key = (e.get("pid"), e.get("tid"))
        if e.get("ph") == "B":
            stacks.setdefault(key, []).append(e)
        elif e.get("ph") == "E":
            assert stacks.get(key), f"E without open B on {key}"
            opener = stacks[key].pop()
            assert opener["name"] == e["name"]
            assert e["ts"] >= opener["ts"]
    assert not any(stacks.values()), "unclosed B spans"


class TestPerfetto:
    @pytest.fixture(scope="class")
    def doc(self):
        return export_perfetto(read_trace(str(FIXTURE)))

    def test_is_valid_strict_json(self, doc):
        text = json.dumps(doc)          # would raise on inf/nan leftovers
        assert json.loads(text) == doc
        assert doc["displayTimeUnit"] == "ms"

    def test_b_e_pairs_match_and_nest(self, doc):
        _check_spans_balanced(doc)

    def test_tracks_named_per_job(self, doc):
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "engine" in names
        assert "ddot:p4e:out-of-cache:80000" in names

    def test_passes_nest_inside_their_eval(self, doc):
        evs = doc["traceEvents"]
        evals = [(e["ts"], i) for i, e in enumerate(evs)
                 if e.get("ph") == "B" and e.get("cat") == "eval"]
        assert len(evals) == 2
        sv = [e for e in evs if e.get("ph") == "B" and e["name"] == "sv"]
        assert len(sv) == 2
        for (ets, _), b in zip(evals, sv):
            assert b["ts"] >= ets

    def test_instants_and_attribution_survive(self, doc):
        evs = doc["traceEvents"]
        assert any(e.get("ph") == "i" and e["name"] == "cache-hit"
                   for e in evs)
        att = [e for e in evs if e.get("ph") == "B"
               and e.get("cat") == "eval"
               and "attribution" in e.get("args", {})]
        assert len(att) == 2
        assert att[0]["args"]["attribution"]["total"] == 700000.0

    def test_real_observed_trace_exports_cleanly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(observe=True, trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        doc = export_perfetto(read_trace(str(path)))
        json.dumps(doc)
        _check_spans_balanced(doc)
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"job", "eval", "pass"} <= cats


# ---------------------------------------------------------------------------
# consumer 2: the markdown run report

class TestReport:
    def test_golden_render(self):
        rendered = render_report(read_trace(str(FIXTURE)),
                                 title="obs fixture report")
        assert rendered == (GOLDEN / "obs_report_golden.md").read_text()

    def test_report_without_observe_degrades(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        text = render_report(read_trace(str(path)))
        assert "No pass telemetry" in text
        assert "No attribution telemetry" in text
        assert "## Results" in text

    def test_report_flags_malformed_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(FIXTURE.read_text() + "{broken\n")
        text = render_report(read_trace(str(path)))
        assert "WARNING" in text and "1 malformed" in text


# ---------------------------------------------------------------------------
# CLI surface

class TestCli:
    def test_repro_report_renders(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = cli.main(["report", str(FIXTURE), "-o", str(out),
                       "--title", "obs fixture report"])
        assert rc == 0
        assert out.read_text() \
            == (GOLDEN / "obs_report_golden.md").read_text()

    def test_repro_trace_perfetto_export(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = cli.main(["trace", str(FIXTURE), "--perfetto", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _check_spans_balanced(doc)

    def test_tune_observe_flag_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = cli.main(["tune", "ddot", "--max-evals", "12", "--n", str(N),
                       "--trace-out", str(trace), "--observe"])
        assert rc == 0
        kinds = {e["event"] for e in read_trace(str(trace))}
        assert {"pass", "attribution"} <= kinds
