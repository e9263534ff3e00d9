"""Batched candidate evaluation: bit-identity, sharing, validation.

The batched evaluator's contract is that batching is an evaluation
*throughput* optimization only: prefix-memoized compilation, shared
steady-state walks and grouped dispatch must never change a single
cycle count, history entry or cache key.  These tests pin that contract
from four sides — end-to-end search identity across strategies, jobs
and observation; bitwise timer sharing; compile-cache aliasing safety;
and the grouping/validation plumbing around them.
"""

import dataclasses
import hashlib
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.fko import FKO, PrefetchParams, TransformParams, compile_kernel
from repro.ir import Opcode
from repro.ir.printer import canonical_function_text, format_function
from repro.kernels import REGISTRY, get_kernel
from repro.machine import Context, get_machine
from repro.machine.loopinfo import summarize
from repro.qa import run_fuzz
from repro.qa.sampler import DEFAULT_MACHINES, iter_samples
from repro.search import TuneConfig, TuningSession, build_space, make_searcher
from repro.search.evalcache import eval_key
from repro.service import history_digest
from repro.timing.timer import Timer

STRATEGIES = ("line", "random", "genetic", "surrogate")


def _run(strategy, **cfg_kw):
    """One daxpy/opteron search; returns (best cycles, history digest)."""
    cfg = TuneConfig(strategy=strategy, max_evals=10, seed=7,
                     run_tester=False, **cfg_kw)
    with TuningSession(cfg) as s:
        tuned = s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
    r = tuned.search
    digest = hashlib.sha256(
        json.dumps([[p, list(k), c] for p, k, c in r.history]).encode()
    ).hexdigest()
    return r.best_cycles, digest


# ---------------------------------------------------------------------------
# end-to-end bit-identity: batched == unbatched, everywhere

class TestBatchedBitIdentity:
    """Every (strategy, jobs, batch_size, observe) combination must land
    on the same best cycles and the same evaluation history as the
    unbatched serial reference."""

    @pytest.fixture(scope="class")
    def reference(self):
        return {s: _run(s, jobs=1, batch_size=1) for s in STRATEGIES}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_serial(self, reference, strategy):
        assert _run(strategy, jobs=1, batch_size=6) == reference[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_parallel_observed(self, reference, strategy):
        got = _run(strategy, jobs=2, batch_size=6, observe=True)
        assert got == reference[strategy]

    def test_parallel_unbatched(self, reference):
        assert _run("genetic", jobs=2, batch_size=1) == reference["genetic"]

    def test_batch_stats_populated(self):
        cfg = TuneConfig(strategy="genetic", max_evals=10, seed=7,
                         run_tester=False, batch_size=6)
        with TuningSession(cfg) as s:
            s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
            stats = s.stats
        assert stats.batch_groups > 0
        assert stats.batch_size_total >= stats.batch_groups
        assert stats.batch_prefix_hits + stats.batch_prefix_misses > 0


# ---------------------------------------------------------------------------
# memoized compile and shared walk == the unmemoized pipeline, per candidate

def _cold_compile(fko, hil, params, debug_verify=False):
    """The unmemoized pipeline on exactly what ``FKO.compile`` sees:
    the tiled source's fresh lowering and its analysis."""
    source = FKO._effective_source(hil, params)
    fn, noprefetch = fko.front_end(source)
    return compile_kernel(fn, fko.machine, params, noprefetch=noprefetch,
                          debug_verify=debug_verify,
                          analysis=fko.analyze(source))


def _asked_candidates(monkeypatch, strategy, kernel, machine, n):
    """Every (fko, timer, hil, params) the engine evaluates for one
    serial search, in order."""
    import repro.search.engine as engine
    seen = []
    real = engine.evaluate_params

    def spy(fko, timer, hil, params, *args, **kwargs):
        seen.append((fko, timer, hil, params))
        return real(fko, timer, hil, params, *args, **kwargs)

    monkeypatch.setattr(engine, "evaluate_params", spy)
    cfg = TuneConfig(strategy=strategy, max_evals=10, seed=7,
                     run_tester=False)
    with TuningSession(cfg) as s:
        s.tune(kernel, machine, Context.OUT_OF_CACHE, n)
    return seen


class TestMemoizedEqualsCold:
    """The compile memo and the share-keyed walk memo have no off
    switch, so each is checked against its unmemoized reference on
    every candidate each strategy asks for: ``FKO.compile`` against
    ``compile_kernel`` (IR text, applied transforms, spills) and
    ``Timer.base`` under the share key against a fresh timer's
    unshared walk."""

    @pytest.mark.parametrize("strategy, kernel, machine, n", [
        *((s, "daxpy", "opteron", 80000)
          for s in STRATEGIES + ("exhaustive",)),
        *((s, "dgemm", "p4e", 64) for s in STRATEGIES + ("exhaustive",))])
    def test_every_asked_candidate(self, monkeypatch, strategy, kernel,
                                   machine, n):
        seen = _asked_candidates(monkeypatch, strategy, kernel, machine, n)
        assert len(seen) == 10
        for fko, timer, hil, params in seen:
            assert all(type(k) is str for k in params.ext)
            memo = fko.compile(hil, params)
            cold = _cold_compile(fko, hil, params)
            assert format_function(memo.fn) == format_function(cold.fn)
            assert memo.applied == cold.applied
            assert (getattr(memo.allocation, "n_spilled", None)
                    == getattr(cold.allocation, "n_spilled", None))
            tiles = params.tiles()
            shared = timer.base(summarize(memo.fn),
                                fko.share_key(hil, params),
                                source=hil, tiles=tiles)
            fresh = Timer(timer.machine, timer.context, timer.n).base(
                summarize(cold.fn), None, source=hil, tiles=tiles)
            assert shared == fresh, params.describe()

    # ------------------------------------------------------------------
    # the finished-kernel memo is keyed per prefetch-distance class: a
    # hit from another distance is the cached body with its PREFETCH
    # displacements moved, which must equal a cold compile at the new
    # distance in everything the pipeline produces

    @pytest.mark.parametrize("machine", ["p4e", "opteron"])
    def test_distance_sweep_is_served_by_one_finish_per_kernel(self,
                                                               machine):
        fko = FKO(get_machine(machine))
        compiles = classes = 0
        for name in REGISTRY:
            hil = get_kernel(name).hil
            base = fko.defaults(hil)
            arrays = fko.analyze(hil).prefetch_arrays
            classes += bool(arrays)
            for array in arrays:
                for dist in _SWEEP:
                    params = base.copy(prefetch={
                        **base.prefetch,
                        array: PrefetchParams(base.pf(array).hint, dist)})
                    _assert_equals_cold(fko, hil, params)
                    compiles += 1
        # at FKO defaults every kernel is one distance class
        assert fko.full_hits == compiles - classes

    def test_fuzzed_points_at_shifted_distances(self):
        fkos = {m: FKO(get_machine(m)) for m in DEFAULT_MACHINES}
        shifted = 0
        for sample in iter_samples(seed=11, budget=100):
            fko = fkos[sample.machine]
            hil = get_kernel(sample.kernel).hil
            fko.compile(hil, sample.params, debug_verify=True)
            on = {a: p for a, p in sample.params.prefetch.items()
                  if p.enabled}
            for step in (1, 2, 3, 5):
                params = sample.params.copy(prefetch={
                    **sample.params.prefetch,
                    **{a: PrefetchParams(p.hint, p.dist + 64 * step * (i + 1))
                       for i, (a, p) in enumerate(sorted(on.items()))}})
                _assert_equals_cold(fko, hil, params, debug_verify=True)
                shifted += bool(on)
        assert shifted >= 200
        assert sum(f.full_hits for f in fkos.values()) >= shifted


_SWEEP = (64, 128, 256, 384, 1024, 2048)


def _assert_equals_cold(fko, hil, params, debug_verify=False):
    """``fko.compile`` equals the unmemoized pipeline: canonical IR text
    (raw VReg uids depend on compile history), applied transforms and
    spills."""
    memo = fko.compile(hil, params, debug_verify=debug_verify)
    cold = _cold_compile(fko, hil, params, debug_verify)
    assert (canonical_function_text(memo.fn)
            == canonical_function_text(cold.fn)), params.describe()
    assert memo.applied == cold.applied, params.describe()
    assert (getattr(memo.allocation, "n_spilled", None)
            == getattr(cold.allocation, "n_spilled", None))


# ---------------------------------------------------------------------------
# work ledger: one back-half run per prefetch-distance class

def _distance_class(fko, source, params, debug_verify):
    """The share key with every enabled prefetch at one distance: two
    compiles in the same class differ only in PREFETCH displacements."""
    if params is not None:
        params = params.copy(prefetch={
            a: PrefetchParams(p.hint, 64 if p.enabled else 0)
            for a, p in params.prefetch.items()})
    return fko.share_key(source, params, debug_verify)


class TestFinishCount:
    def test_line_search_finishes_once_per_distance_class(self,
                                                          monkeypatch):
        import repro.fko
        finishes, compiles, classes = [], [], set()
        real_finish, real_compile = repro.fko.finish_kernel, FKO.compile

        def finish(*args, **kwargs):
            finishes.append(1)
            return real_finish(*args, **kwargs)

        def counted_compile(fko, source, params=None, debug_verify=False):
            compiles.append(1)
            classes.add(_distance_class(fko, source, params, debug_verify))
            return real_compile(fko, source, params, debug_verify)

        monkeypatch.setattr(repro.fko, "finish_kernel", finish)
        monkeypatch.setattr(FKO, "compile", counted_compile)
        cfg = TuneConfig(strategy="line", seed=0, jobs=1, run_tester=False)
        with TuningSession(cfg) as s:
            for kernel in ("ddot", "dasum"):
                s.tune(kernel, "p4e", Context.OUT_OF_CACHE, 80000)
        assert len(finishes) == len(classes)
        assert len(compiles) > len(classes)   # and the memo served hits


# ---------------------------------------------------------------------------
# a pool that dies mid-batch: serial fallback, counted once

class _DyingPool:
    """Stands in for a process pool whose workers die mid-batch:
    ``map`` yields one real reply, then raises ``BrokenProcessPool``."""

    def map(self, fn, payloads):
        payloads = list(payloads)
        yield fn(payloads[0])
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=False, cancel_futures=False):
        pass


_BATCH_COUNTERS = ("batch_prefix_hits", "batch_prefix_misses",
                   "batch_walk_hits", "batch_groups", "batch_size_total")


def _tune_with_pool(pool, batch_size):
    cfg = TuneConfig(strategy="genetic", max_evals=10, seed=7,
                     run_tester=False, batch_size=batch_size,
                     jobs=1 if pool is None else 2)
    with TuningSession(cfg, buffer_events=True) as s:
        if pool is not None:
            s._pool = pool
        tuned = s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
        counters = {k: getattr(s.stats, k) for k in _BATCH_COUNTERS}
        return history_digest(tuned.search), counters, s.drain_events()


class TestPoolDeathMidBatch:
    @pytest.mark.parametrize("batch_size", (1, 6))
    def test_fallback_matches_serial_and_counts_once(self, batch_size):
        """The reply that arrived before the pool died is discarded and
        recomputed serially; its reuse counters must not be charged on
        top of the fallback's."""
        want_digest, want_counters, _ = _tune_with_pool(None, batch_size)
        digest, counters, events = _tune_with_pool(_DyingPool(), batch_size)
        assert any(e["event"] == "pool-broken" for e in events)
        assert digest == want_digest
        assert counters == want_counters


# ---------------------------------------------------------------------------
# timer sharing is bitwise

class TestTimerSharing:
    @pytest.fixture(scope="class")
    def candidates(self):
        machine = get_machine("opteron")
        fko = FKO(machine)
        spec = get_kernel("daxpy")
        out = []
        for u in (1, 4, 4):
            params = dataclasses.replace(fko.defaults(spec.hil), unroll=u)
            compiled = fko.compile(spec.hil, params)
            out.append((summarize(compiled.fn), spec.flops(80000),
                        f"{spec.name}|{params.key()}",
                        fko.share_key(spec.hil, params)))
        return machine, out

    def test_peek_base_only_reports_cached_walks(self, candidates):
        machine, cands = candidates
        timer = Timer(machine, Context.OUT_OF_CACHE, 80000)
        summary, _, _, key = cands[0]
        assert timer.peek_base(key) is None      # miss: caller compiles
        assert timer.peek_base(None) is None     # no share key: no reuse
        assert timer.base_misses == 0            # peeking never charges
        walk = timer.base(summary, key)
        assert timer.peek_base(key) is walk      # hit: same walk object
        assert timer.cache_stats() == {"base_hits": 1, "base_misses": 1}


# ---------------------------------------------------------------------------
# compile-cache aliasing: cached IR is never reachable from callers

class TestPrefixCacheAliasing:
    def test_mutating_a_compiled_kernel_cannot_poison_the_cache(self):
        fko = FKO(get_machine("opteron"))
        hil = get_kernel("daxpy").hil
        params = dataclasses.replace(fko.defaults(hil), unroll=4)
        first = fko.compile(hil, params)
        want = canonical_function_text(first.fn)
        # vandalize everything the caller can reach: the kernel IR, the
        # applied-transform record, even a sibling sharing the prefix
        first.fn.blocks[0].instrs.clear()
        first.fn.blocks[-1].instrs.clear()
        first.applied.clear()
        sibling = fko.compile(hil, dataclasses.replace(params, unroll=8))
        sibling.fn.blocks[0].instrs.clear()
        again = fko.compile(hil, params)
        assert canonical_function_text(again.fn) == want
        assert fko.full_hits > 0   # and it *was* served from the cache

    def test_vandalized_rebind_hit_cannot_poison_the_cache(self):
        """A hit from another prefetch distance rewrites PREFETCH
        operands and comments; it must do so on the caller's clone."""
        fko = FKO(get_machine("opteron"))
        hil = get_kernel("daxpy").hil
        base = dataclasses.replace(fko.defaults(hil), unroll=4)

        def at(dist):
            return base.copy(prefetch={a: PrefetchParams(p.hint, dist)
                                       for a, p in base.prefetch.items()})

        for dist in (256, 512):   # the class's one finish, then a rebind
            vandalized = 0
            for block in fko.compile(hil, at(dist)).fn.blocks:
                for instr in block.instrs:
                    if instr.op is Opcode.PREFETCH:
                        instr.srcs = (instr.srcs[0].with_disp(-4096),)
                        instr.comment = "pf vandal+0"
                        vandalized += 1
            assert vandalized
        again = fko.compile(hil, at(1024))
        assert fko.full_hits == 2
        assert (canonical_function_text(again.fn)
                == canonical_function_text(
                    _cold_compile(fko, hil, at(1024)).fn))

    def test_relowered_source_gets_its_own_analysis(self, monkeypatch):
        """An analysis names its function's VRegs, so it must come from
        the same lowering the compile clones.  Evict the module-wide
        front-end cache (as a stream of tiled sources does) after the
        analysis is cached: the compile must still pair them."""
        import repro.fko
        from repro.util import LRUCache
        fko = FKO(get_machine("p4e"))
        hil = get_kernel("ddot").hil
        params = dataclasses.replace(fko.defaults(hil), sv=True, unroll=4,
                                     ae=2)
        want = canonical_function_text(fko.compile(hil, params).fn)
        monkeypatch.setattr(repro.fko, "_FRONT_END_CACHE",
                            LRUCache(maxsize=64))
        fresh = dataclasses.replace(params, unroll=2)   # a prefix miss
        fko.compile(hil, fresh)
        assert canonical_function_text(fko.compile(hil, params).fn) == want

    def test_retune_after_tiled_search_in_one_session(self):
        """A tiled dgemm search churns more sources through the
        module-wide front-end cache than it holds, so ddot is lowered
        again when it is re-tuned in the same session."""
        config = TuneConfig(strategy="surrogate", seed=0, max_evals=8,
                            jobs=1, run_tester=False)
        with TuningSession(config) as session:
            for kernel, machine, n, budget in (
                    ("ddot", "p4e", 4000, 8), ("daxpy", "p4e", 4000, 8),
                    ("dscal", "p4e", 4000, 8), ("dswap", "p4e", 4000, 8),
                    ("dgemm", "opteron", 64, 80),
                    ("ddot", "p4e", 4000, 24)):
                tuned = session.tune(kernel, machine, Context.OUT_OF_CACHE,
                                     n, max_evals=budget)
                assert tuned.search.n_evaluations == budget

    def test_fuzz_with_prefix_cached_compiles(self):
        """The differential fuzzer drives transformed compiles through
        memoized FKO instances — a short campaign must stay clean."""
        report = run_fuzz(seed=11, budget=10, shrink=False)
        assert report.checked == 10
        assert report.ok, [f.describe() for f in report.failures]


# ---------------------------------------------------------------------------
# ask_batch grouping is an order hint, never a semantic change

class TestAskBatchGrouping:
    @pytest.fixture()
    def searcher(self):
        machine = get_machine("p4e")
        fko = FKO(machine)
        hil = get_kernel("ddot").hil
        space = build_space(fko.analyze(hil), machine)
        return make_searcher("random", space, fko.defaults(hil),
                             max_evals=24, seed=3)

    def test_groups_are_a_permutation_of_ask(self, searcher):
        batch = searcher.ask()
        groups = searcher.ask_batch()
        flat = [p for g in groups for p in g]
        assert sorted(p.key() for p in flat) \
            == sorted(p.key() for p in batch)

    def test_group_members_share_the_default_key(self, searcher):
        for group in searcher.ask_batch():
            keys = {(p.sv, p.unroll, p.lc, p.ae) for p in group}
            assert len(keys) == 1

    def test_limit_caps_group_size(self, searcher):
        groups = searcher.ask_batch(limit=2)
        assert groups and all(len(g) <= 2 for g in groups)

    def test_custom_key_controls_grouping(self, searcher):
        groups = searcher.ask_batch(key=lambda p: p.unroll)
        unrolls = [g[0].unroll for g in groups]
        assert len(unrolls) == len(set(unrolls))
        for group in groups:
            assert len({p.unroll for p in group}) == 1

    def test_grouping_does_not_disturb_tell(self, searcher):
        batch = searcher.ask()
        searcher.ask_batch(limit=3)   # a pure query
        searcher.tell([(p, 100.0 + i) for i, p in enumerate(batch)])
        assert searcher.history[-len(batch):]


# ---------------------------------------------------------------------------
# config validation and cache-key stability

class TestConfigAndKeys:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            TuneConfig(batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuneConfig(batch_size=-4)
        assert TuneConfig(batch_size=1).batch_size == 1

    def test_eval_key_is_stable(self):
        """The eval-cache key format is load-bearing: changing it
        silently invalidates every persisted cache.  Pinned digest."""
        key = eval_key("kernel src", "opteron", "out-of-cache", 80000,
                       (("u", 4),), "v1")
        assert key == ("5d79b9f85b78e390c13462615ee2fe0d"
                       "3d35d913bd67b91e97f9d1a3f61133bd")

    def test_eval_key_accepts_context_enum_or_string(self):
        a = eval_key("src", "p4e", Context.OUT_OF_CACHE, 80000, (), "v1")
        b = eval_key("src", "p4e", "out-of-cache", 80000, (), "v1")
        assert a == b

    def test_eval_key_varies_with_params(self):
        a = eval_key("src", "p4e", "out-of-cache", 80000, (("u", 2),), "v1")
        b = eval_key("src", "p4e", "out-of-cache", 80000, (("u", 4),), "v1")
        assert a != b
