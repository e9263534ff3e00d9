"""Tests for the ask/tell searcher protocol, the strategy registry,
the versioned serialization schema and the three-verb public facade.

The centerpiece is the golden-equivalence suite: the line search behind
the protocol must produce byte-identical SearchResults to the
pre-protocol implementation, proven against digests recorded before the
refactor (``tests/golden/linesearch_golden.json``) over the full
kernel x machine x context grid.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.errors import SearchError
from repro.fko import FKO, PrefetchParams, TransformParams
from repro.ir import PrefetchHint
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import Context, pentium4e
from repro.search import (SEARCHERS, LineSearch, Searcher, SearchResult,
                          TuneConfig, TunedKernel, TuningSession,
                          build_space, make_searcher, searcher_names,
                          tune_kernel)
from repro.search.evalcache import eval_key
from repro.timing.timer import KernelTiming

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: the non-line strategies (line is covered by the golden suite);
#: ``transfer`` is the surrogate behind the warm-start wrapper
SEEDED = ("random", "genetic", "surrogate", "transfer")


# ---------------------------------------------------------------------------
# golden equivalence: the refactored line search is byte-identical

class TestLineSearchGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(
            (GOLDEN_DIR / "linesearch_golden.json").read_text())

    @pytest.mark.parametrize("machine", ("p4e", "opteron"))
    def test_full_grid_matches_pre_refactor_results(self, golden, machine):
        """Every (kernel, context) point must reproduce the recorded
        best/start cycles bit-for-bit, the same winning parameters, the
        same budget charge and the same history — the proof that moving
        LineSearch behind the ask/tell protocol changed nothing."""
        sizes = {Context(c): n for c, n in golden["sizes"].items()}
        cfg = TuneConfig(run_tester=False, max_evals=golden["max_evals"])
        with TuningSession(cfg) as s:
            for kernel in KERNEL_ORDER:
                for ctx, n in sizes.items():
                    r = s.tune(kernel, machine, ctx, n).search
                    want = golden["grid"][f"{kernel}:{machine}:{ctx.value}:{n}"]
                    got = {
                        "best_cycles": repr(r.best_cycles),
                        "start_cycles": repr(r.start_cycles),
                        "n_evaluations": r.n_evaluations,
                        "best_params_key": repr(r.best_params.key()),
                        "phase_gains": {p: repr(g)
                                        for p, g in r.phase_gains.items()},
                        "history_sha256": hashlib.sha256(
                            repr(r.history).encode()).hexdigest(),
                        "n_history": len(r.history),
                    }
                    assert got == want, f"{kernel}:{machine}:{ctx.value}"


class TestEvalKeyGolden:
    def test_cache_key_unchanged_by_schema_versioning(self):
        """The persistent eval-cache key must stay byte-identical across
        the schema-field addition (it hashes params.key(), never
        to_dict), so warm caches stay warm."""
        golden = json.loads((GOLDEN_DIR / "evalkey_golden.json").read_text())
        p = TransformParams(
            sv=True, unroll=8, ae=4, wnt=True,
            prefetch={"X": PrefetchParams(PrefetchHint.NTA, 512),
                      "Y": PrefetchParams(PrefetchHint.T0, 1024)})
        k = eval_key("LOOP i = 0, N\n", "p4e", Context.OUT_OF_CACHE, 80000,
                     p.key(), "1.2.0")
        assert k == golden["digest"]


class TestOnePointOneKey:
    """A tile move drawn by the GA's or the surrogate's neighbor step
    used to store a ``numpy.str_`` extension name, whose ``repr``
    changed both the eval key and the timer's noise seed: one point,
    two cycle counts."""

    def test_numpy_string_ext_name_is_normalized(self):
        plain = TransformParams().with_ext("tile:k", 16)
        for p in (TransformParams().with_ext(np.str_("tile:k"), 16),
                  TransformParams(ext={np.str_("tile:k"): 16})):
            assert repr(p.key()) == repr(plain.key())
            assert all(type(k) is str for k in p.ext)

    def test_same_tile_point_same_key_and_cycles(self, p4e):
        from repro.search import evaluate_params
        from repro.timing.timer import Timer
        spec = get_kernel("dgemm")
        fko = FKO(p4e)
        timer = Timer(p4e, Context.OUT_OF_CACHE, 512)
        defaults = fko.defaults(spec.hil)
        seen = set()
        for name in ("tile:k", np.str_("tile:k")):
            p = defaults.with_ext(name, 16)
            cycles, status, _ = evaluate_params(
                fko, timer, spec.hil, p, spec.flops(512), "dgemm|")
            key = eval_key(spec.hil, "p4e", Context.OUT_OF_CACHE, 512,
                           p.key(), repro.__version__)
            seen.add((cycles, key))
        assert len(seen) == 1

    def test_every_strategy_asks_plain_str_ext_names(self, monkeypatch):
        import repro.search.engine as engine
        asked = []
        real = engine.evaluate_params

        def spy(fko, timer, hil, params, *args, **kwargs):
            asked.append(params)
            return real(fko, timer, hil, params, *args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_params", spy)
        # exhaustive only sets the declared option lists' own values,
        # and plans dgemm's whole grid whatever the budget (seconds)
        for name in ("line", "random", "genetic", "surrogate"):
            cfg = TuneConfig(strategy=name, max_evals=24, seed=0,
                             run_tester=False)
            with TuningSession(cfg) as s:
                s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, 64)
        assert any(p.ext for p in asked)
        for p in asked:
            assert all(type(k) is str for k in p.ext), p.describe()


# ---------------------------------------------------------------------------
# the registry

class TestRegistry:
    def test_all_strategies_registered(self):
        assert searcher_names() == ["exhaustive", "genetic", "line",
                                    "random", "surrogate"]

    def test_make_searcher_builds_each(self, fko_p4e, p4e, ddot_src):
        a = fko_p4e.analyze(ddot_src)
        sp = build_space(a, p4e)
        start = fko_p4e.defaults(ddot_src)
        for name in searcher_names():
            s = make_searcher(name, sp, start, max_evals=10)
            assert isinstance(s, Searcher) and s.name == name

    def test_unknown_name_lists_valid_ones(self, fko_p4e, p4e, ddot_src):
        a = fko_p4e.analyze(ddot_src)
        sp = build_space(a, p4e)
        with pytest.raises(SearchError) as ei:
            make_searcher("bogus", sp, fko_p4e.defaults(ddot_src))
        msg = str(ei.value)
        assert "bogus" in msg
        for name in searcher_names():
            assert name in msg

    def test_config_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="line"):
            TuneConfig(strategy="hillclimb")

    @pytest.mark.parametrize("name", ("anneal", "transfer",
                                      "transfer:genetic"))
    def test_retired_names_are_a_clean_error(self, name):
        message = (f"unknown search strategy {name!r}; valid strategies: "
                   f"exhaustive, genetic, line, random, surrogate")
        with pytest.raises(ValueError) as ei:
            TuneConfig(strategy=name)
        assert str(ei.value) == message
        from repro.cli import main
        with pytest.raises(SystemExit) as ei:
            main(["tune", "ddot", "--strategy", name])
        assert ei.value.code == f"error: {message}"

    def test_line_is_the_registered_linesearch(self):
        assert SEARCHERS["line"] is LineSearch


class TestConfigValidation:
    def test_negative_min_gain_rejected(self):
        with pytest.raises(ValueError, match="min_gain"):
            TuneConfig(min_gain=-0.01)

    def test_nan_min_gain_rejected(self):
        # NaN fails every comparison, so ``min_gain < 0`` let it through
        # and no candidate could ever displace the incumbent
        with pytest.raises(ValueError, match="min_gain"):
            TuneConfig(min_gain=float("nan"))

    def test_zero_min_gain_allowed(self):
        assert TuneConfig(min_gain=0.0).min_gain == 0.0

    @pytest.mark.parametrize("seed", (-1, 1.5, "7", True))
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TuneConfig(seed=seed)


# ---------------------------------------------------------------------------
# the ask/tell protocol itself

class TestAskTellProtocol:
    @pytest.fixture(scope="class")
    def problem(self):
        p4e = pentium4e()
        fko = FKO(p4e)
        src = get_kernel("ddot").hil
        a = fko.analyze(src)
        return build_space(a, p4e), fko.defaults(src)

    def test_ask_returns_fresh_candidate_batches(self, problem):
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=10, seed=1)
        batch = s.ask()
        assert batch and all(isinstance(p, TransformParams) for p in batch)
        s.tell([(p, 100.0) for p in batch])
        # the told batch is charged (plus any pre-charged follow-up ask)
        assert len(batch) <= s.n_evaluations <= s.max_evals

    def test_tell_length_mismatch_rejected(self, problem):
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=10, seed=1)
        batch = s.ask()
        with pytest.raises(SearchError):
            s.tell([(batch[0], 100.0)] * (len(batch) + 1))

    def test_tell_accepts_bare_cycles(self, problem):
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=6, seed=1)
        while not s.finished:
            s.tell([50.0] * len(s.ask()))
        assert s.result().best_cycles == 50.0

    def test_result_before_finish_raises(self, problem):
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=10, seed=1)
        s.ask()
        with pytest.raises(SearchError):
            s.result()

    def test_ask_after_finish_raises(self, problem):
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=2, seed=1)
        while not s.finished:
            s.tell([100.0] * len(s.ask()))
        with pytest.raises(SearchError):
            s.ask()

    def test_budget_charged_in_ask_order(self, problem):
        """The over-budget tail of an asked batch is charged inf and
        never evaluated — the invariant that makes jobs=N identical."""
        sp, start = problem
        s = make_searcher("random", sp, start, max_evals=3, seed=1)
        seen = []

        def ev(params):
            seen.append(params.key())
            return 100.0

        res = s.run(ev)
        assert res.n_evaluations <= 3
        assert len(seen) <= 3

    def test_exhaustive_stops_planning_at_its_budget(self, monkeypatch):
        """Past the budget the sweep can only replay noted memo hits or
        charge inf, so it ends there: the same history as planning the
        whole dgemm grid (digest recorded from the full sweep), with at
        most one batch ingested past the budget."""
        from repro.service import history_digest
        past = []
        ingest = Searcher._ingest

        def counting(self, raw):
            if self.n_evaluations >= self.max_evals:
                past.append(len(raw))
            return ingest(self, raw)
        monkeypatch.setattr(Searcher, "_ingest", counting)
        cfg = TuneConfig(run_tester=False, strategy="exhaustive",
                         max_evals=24)
        with TuningSession(cfg) as s:
            tk = s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, 64)
        assert history_digest(tk.search) == ("f308e8a5f18ebcf26094a7e3b5cc7e"
                                             "13e69ac548433b29fc59f755232466b46e")
        assert tk.params.describe() == \
            "SV=Y WNT=N UR=8 AE=0 B=nta:256 C=nta:256"
        assert tk.search.n_evaluations == 24
        assert len(past) <= 1


# ---------------------------------------------------------------------------
# determinism: same seed => identical results, serial == parallel

N_OOC = 8000
EVALS = 24


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A result store holding one dasum neighbor for ``transfer``."""
    from repro.search import write_warm_entry
    root = tmp_path_factory.mktemp("warm")
    write_warm_entry(root, kernel="dasum", machine="p4e",
                     context=Context.OUT_OF_CACHE, n=N_OOC,
                     params=TransformParams(unroll=4), cycles=1.0)
    return str(root)


def _tune(strategy, seed=3, jobs=1, kernel="dasum", warm_start=None):
    if strategy == "transfer":
        strategy = "surrogate"
    else:
        warm_start = None
    cfg = TuneConfig(strategy=strategy, seed=seed, jobs=jobs,
                     max_evals=EVALS, run_tester=False,
                     warm_start=warm_start)
    return tune_kernel(get_kernel(kernel), pentium4e(),
                       Context.OUT_OF_CACHE, N_OOC, config=cfg)


class TestStrategyDeterminism:
    @pytest.mark.parametrize("strategy", SEEDED)
    def test_same_seed_identical_result(self, strategy, warm_store):
        a = _tune(strategy, warm_start=warm_store).search.to_dict()
        b = _tune(strategy, warm_start=warm_store).search.to_dict()
        assert a == b   # includes full history, not just the winner

    @pytest.mark.parametrize("strategy", SEEDED)
    def test_different_seed_changes_proposals(self, strategy, warm_store):
        a = _tune(strategy, seed=3, warm_start=warm_store).search
        b = _tune(strategy, seed=4, warm_start=warm_store).search
        assert [k for _, k, _ in a.history] != [k for _, k, _ in b.history]

    @pytest.mark.parametrize("strategy", ("line",) + SEEDED)
    def test_jobs4_bit_identical_to_serial(self, strategy, warm_store):
        serial = _tune(strategy, jobs=1, warm_start=warm_store).search
        parallel = _tune(strategy, jobs=4, warm_start=warm_store).search
        if strategy == "transfer":
            assert any(phase == "warm" for phase, _, _ in serial.history)
        assert serial.to_dict() == parallel.to_dict()
        assert serial == parallel


# ---------------------------------------------------------------------------
# versioned serialization

class TestSchema:
    def test_payloads_carry_schema_1(self):
        tk = _tune("line")
        d = tk.to_dict()
        assert d["schema"] == 1
        assert d["params"]["schema"] == 1
        assert d["timing"]["schema"] == 1
        assert d["search"]["schema"] == 1

    def test_missing_schema_reads_as_1(self):
        tk = _tune("line")
        d = tk.to_dict()
        for payload in (d, d["params"], d["timing"], d["search"]):
            payload.pop("schema")
        again = TunedKernel.from_dict(d)
        assert again.params.key() == tk.params.key()
        assert again.timing.cycles == tk.timing.cycles

    @pytest.mark.parametrize("cls,maker", [
        (TransformParams, lambda: TransformParams().to_dict()),
        (KernelTiming, lambda: KernelTiming(
            1.0, 1.0, 1.0, 8, "p4e", Context.OUT_OF_CACHE).to_dict()),
    ])
    def test_future_schema_rejected(self, cls, maker):
        d = maker()
        d["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            cls.from_dict(d)

    def test_search_result_roundtrip_with_schema(self):
        r = _tune("random").search
        again = SearchResult.from_dict(r.to_dict())
        assert again.to_dict() == r.to_dict()


# ---------------------------------------------------------------------------
# the three-verb facade

class TestFacade:
    def test_exports(self):
        for name in ("tune", "compile", "analyze"):
            assert name in repro.__all__
            assert callable(getattr(repro, name))

    def test_analyze_by_name(self):
        a = repro.analyze("ddot")
        assert list(a.prefetch_arrays) == ["X", "Y"]

    def test_compile_is_fko_defaults(self):
        tk = repro.compile("ddot", "p4e", "out-of-cache", n=N_OOC)
        d = FKO(pentium4e()).defaults(get_kernel("ddot").hil)
        assert tk.params.key() == d.key()
        assert tk.search is None

    def test_tune_with_option_keywords(self):
        tk = repro.tune("dasum", "p4e", Context.OUT_OF_CACHE, n=N_OOC,
                        max_evals=EVALS, run_tester=False,
                        strategy="random", seed=3)
        assert tk.search.n_evaluations <= EVALS

    def test_tune_matches_tune_kernel(self):
        via_facade = repro.tune("dasum", "p4e", n=N_OOC, max_evals=EVALS,
                                run_tester=False)
        direct = _tune("line")
        assert (via_facade.search.to_dict() == direct.search.to_dict())

    def test_config_and_keywords_conflict(self):
        with pytest.raises(TypeError, match="config"):
            repro.tune("ddot", config=TuneConfig(), max_evals=5)
