"""Tests for the differential-correctness subsystem (repro.qa).

* the seeded sampler is deterministic and covers the whole grid;
* the shrinker's neighbors are strictly simpler and its result is
  1-minimal (property-based, against synthetic predicates — no
  compiles, so hypothesis can afford many examples);
* a deliberately miscompiling unroll transform is caught by the fuzzer,
  shrunk to a minimal repro, saved as an artifact, and the artifact
  replays to the identical failure while the bug exists — and reports
  "did not reproduce" once it is fixed;
* ``TuneConfig(verify_ir=True, run_tester=True)`` never perturbs the
  search: cycles, chosen parameters and full history are bit-identical
  to a default run, serial and parallel;
* a tester-rejected winner emits the ``best-rejected`` trace event and
  raises instead of handing back a wrong kernel.
"""

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.fko.pipeline as pipeline_mod
import repro.search.engine as engine_mod
from repro.cli import main
from repro.errors import KernelTestFailure
from repro.fko import TransformParams
from repro.fko.unroll import unroll as real_unroll
from repro.ir import Opcode
from repro.machine import Context
from repro.qa import (BASELINE_PARAMS, FuzzFailure, FuzzSample, iter_samples,
                      load_artifact, replay_artifact, run_fuzz, sample_sizes,
                      save_artifact, shrink_failure, simpler_neighbors)
from repro.search import TuneConfig, TuningSession, read_trace

N = 4000
EVALS = 40


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


# ---------------------------------------------------------------------------
# sampler

class TestSampler:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_same_seed_same_stream(self, seed):
        a = [s.key() for s in iter_samples(seed, 12)]
        b = [s.key() for s in iter_samples(seed, 12)]
        assert a == b and len(a) == 12

    def test_different_seeds_differ(self):
        a = [s.key() for s in iter_samples(0, 20)]
        b = [s.key() for s in iter_samples(1, 20)]
        assert a != b

    def test_round_robin_covers_every_cell(self):
        samples = list(iter_samples(0, 40))
        cells = {(s.kernel, s.machine) for s in samples}
        assert len(cells) == 40          # 20 kernels x 2 machines
        machines = {m for _, m in cells}
        assert machines == {"p4e", "opteron"}
        kernels = {k for k, _ in cells}
        assert {"dgemm", "sstencil3", "dsumsq"} <= kernels

    def test_size_pool_hits_the_edges(self):
        sizes = sample_sizes(unroll=4, veclen=2, sv=True)   # step = 8
        for edge in (0, 1, 7, 8, 9, 15, 17):
            assert edge in sizes
        assert all(s >= 0 for s in sizes)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_sample_json_round_trip(self, seed):
        for sample in iter_samples(seed, 6):
            blob = json.dumps(sample.to_dict())
            back = FuzzSample.from_dict(json.loads(blob))
            assert back.key() == sample.key()


# ---------------------------------------------------------------------------
# shrinker

def _complexity(sample):
    """Strictly decreases along every edge ``simpler_neighbors`` yields."""
    p = sample.params
    return (sample.n + int(p.sv) + int(p.wnt) + int(p.block_fetch)
            + (p.unroll - 1) + (p.ae - 1) + int(p.lc) + len(p.prefetch)
            + len(p.ext)
            + int(not p.copy_propagation) + int(not p.peephole)
            + int(not p.cf_cleanup)
            + int(p.register_allocation != "global"))


class TestShrinker:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_neighbors_are_strictly_simpler(self, seed):
        for sample in iter_samples(seed, 4):
            score = _complexity(sample)
            for neighbor in simpler_neighbors(sample):
                assert _complexity(neighbor) < score
                assert neighbor.kernel == sample.kernel
                assert neighbor.machine == sample.machine

    def test_baseline_point_has_fewest_knobs(self):
        sample = FuzzSample(kernel="ddot", machine="p4e", n=0,
                            params=BASELINE_PARAMS.copy())
        assert list(simpler_neighbors(sample)) == []

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20), min_unroll=st.sampled_from([2, 4, 8]),
           min_n=st.integers(1, 40))
    def test_shrink_result_is_one_minimal(self, seed, min_unroll, min_n):
        """Against a synthetic predicate (fails iff unroll >= U and
        N >= M) the greedy shrinker must land exactly on the 1-minimal
        failing sample: every strictly simpler neighbor passes."""
        def synthetic(sample):
            if sample.params.unroll >= min_unroll and sample.n >= min_n:
                return FuzzFailure(sample, "output", "synthetic mismatch")
            return None

        start = next((s for s in iter_samples(seed, 64)
                      if synthetic(s) is not None), None)
        assume(start is not None)
        shrunk = shrink_failure(synthetic(start), check=synthetic)
        assert synthetic(shrunk.sample) is not None
        assert shrunk.shrunk_from.key() == start.key()
        for neighbor in simpler_neighbors(shrunk.sample):
            assert synthetic(neighbor) is None
        # the minimum is known in closed form for this predicate
        assert shrunk.sample.n == min_n
        assert shrunk.sample.params.unroll == min_unroll

    def test_shrink_steps_counted(self):
        def synthetic(sample):
            if sample.params.unroll >= 2:
                return FuzzFailure(sample, "compile", "synthetic")
            return None
        start = FuzzSample(
            kernel="ddot", machine="p4e", n=100,
            params=TransformParams(sv=True, unroll=16, lc=True, ae=4,
                                   wnt=True))
        shrunk = shrink_failure(synthetic(start), check=synthetic)
        assert shrunk.shrink_steps > 0
        assert shrunk.sample.n == 0 and shrunk.sample.params.unroll == 2


# ---------------------------------------------------------------------------
# the real differential checker on a healthy compiler

class TestCleanFuzz:
    def test_small_campaign_is_clean_and_covers_grid(self):
        report = run_fuzz(seed=0, budget=28)
        assert report.ok and report.checked == 28
        assert len(report.coverage) == 28
        assert "no differential failures" in report.describe()

    def test_replay_of_stale_artifact_reports_clean(self, tmp_path):
        sample = FuzzSample(
            kernel="ddot", machine="p4e", n=2,
            params=TransformParams(sv=False, unroll=2, lc=False, ae=1,
                                   wnt=False))
        stale = FuzzFailure(sample, "return", "fabricated: never real")
        path = save_artifact(stale, tmp_path / "stale.json")
        back = load_artifact(path)
        assert back.to_dict() == stale.to_dict()
        result = replay_artifact(path)
        assert result.observed is None and not result.reproduced
        assert "did NOT reproduce" in result.describe()

    def test_fuzz_cli_clean(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--budget", "28"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no differential failures" in out
        assert "28 (kernel, machine) cells" in out


# ---------------------------------------------------------------------------
# an injected miscompile must be caught, shrunk, saved and replayable

def _broken_unroll(fn, factor):
    """Real unroll, then flip the first FP add in the unrolled body —
    the archetypal "transform miscompiles at unroll > 1" bug."""
    real_unroll(fn, factor)
    if factor <= 1:
        return
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.op is Opcode.FADD:
                instr.op = Opcode.FSUB
                return
            if instr.op is Opcode.VADD:
                instr.op = Opcode.VSUB
                return


class TestInjectedMiscompile:
    def test_caught_shrunk_and_replayable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "unroll", _broken_unroll)
        report = run_fuzz(seed=0, budget=8, kernels=("ddot",),
                          machines=("p4e",),
                          artifact_dir=str(tmp_path))
        assert not report.ok and report.raw_failures >= 1
        failure = report.failures[0]
        assert failure.stage == "return"
        # shrunk to the smallest sample that still runs the broken body:
        # one unrolled trip, no other transforms in the way
        assert failure.shrunk_from is not None
        assert failure.sample.params.unroll == 2
        assert not failure.sample.params.sv
        assert failure.sample.n <= 2 * failure.sample.params.unroll
        assert _complexity(failure.sample) < _complexity(failure.shrunk_from)

        # the artifact replays to the *identical* failure while broken...
        assert report.artifacts
        replay = replay_artifact(report.artifacts[0])
        assert replay.reproduced
        assert main(["fuzz", "--replay", report.artifacts[0]]) == 1

        # ...and is clean again once the bug is gone
        monkeypatch.setattr(pipeline_mod, "unroll", real_unroll)
        assert replay_artifact(report.artifacts[0]).observed is None
        assert main(["fuzz", "--replay", report.artifacts[0]]) == 0

    def test_fuzz_cli_exit_code_and_artifacts(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(pipeline_mod, "unroll", _broken_unroll)
        rc = main(["fuzz", "--seed", "0", "--budget", "6",
                   "--kernels", "ddot", "-m", "p4e",
                   "--artifact-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAILURES" in out and "artifact:" in out
        saved = list(tmp_path.glob("fuzz-ddot-p4e-*.json"))
        assert saved
        data = json.loads(saved[0].read_text())
        assert data["schema"] == 1 and data["stage"] in ("return", "output")

    def test_fuzzer_failures_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "unroll", _broken_unroll)
        kw = dict(seed=3, budget=6, kernels=("ddot",), machines=("p4e",))
        a = run_fuzz(**kw)
        b = run_fuzz(**kw)
        assert a.raw_failures == b.raw_failures
        assert [f.sample.key() for f in a.failures] \
            == [f.sample.key() for f in b.failures]
        assert [f.error for f in a.failures] == [f.error for f in b.failures]


# ---------------------------------------------------------------------------
# engine wiring: verification observes, never perturbs

class TestVerifiedTuneEquivalence:
    @pytest.fixture(scope="class")
    def plain(self):
        with TuningSession(_config()) as s:
            return s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_verify_flags_bit_identical(self, plain, jobs):
        cfg = _config(jobs=jobs, verify_ir=True, run_tester=True)
        with TuningSession(cfg) as s:
            audited = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert audited.params.key() == plain.params.key()
        assert audited.search.best_cycles == plain.search.best_cycles
        assert audited.search.history == plain.search.history
        assert audited.timing.cycles == plain.timing.cycles

    def test_rejected_winner_emits_trace_event_and_raises(self, tmp_path,
                                                          monkeypatch):
        def failing_tester(compiled, spec):
            raise KernelTestFailure("injected tester failure")
        monkeypatch.setattr(engine_mod, "test_kernel", failing_tester)
        trace = tmp_path / "trace.jsonl"
        cfg = _config(max_evals=8, run_tester=True, trace=str(trace))
        with pytest.raises(KernelTestFailure, match="injected"):
            with TuningSession(cfg) as s:
                s.tune("ddot", "p4e", Context.OUT_OF_CACHE, 1000)
        rejected = [e for e in read_trace(str(trace))
                    if e["event"] == "best-rejected"]
        assert len(rejected) == 1
        ev = rejected[0]
        assert ev["job"] and ev["params"]
        assert ev["best_cycles"] > 0
        assert "injected tester failure" in ev["error"]
