"""Tests for the timing model: CPU bounds, memory simulation, and the
qualitative mechanisms the paper's evaluation relies on."""

import pytest

from repro.fko import FKO, PrefetchParams, TransformParams
from repro.ir import PrefetchHint
from repro.kernels import get_kernel
from repro.machine import (Context, LoopTimer, canonical_machine,
                           get_machine, opteron, pentium4e, summarize,
                           time_kernel)
from repro.machine.timing import cpu_cycles_per_trip


def timed(machine, spec_name, params, context=Context.OUT_OF_CACHE,
          n=20000):
    spec = get_kernel(spec_name)
    k = FKO(machine).compile(spec.hil, params)
    summ = summarize(k.fn)
    return time_kernel(summ, machine, context, n)


class TestCpuBound:
    def test_dependence_chain_bound(self, p4e, ddot_src):
        """An un-expanded reduction is latency-bound; AE relieves it."""
        fko = FKO(p4e)
        k1 = fko.compile(ddot_src, TransformParams(sv=True, unroll=8, ae=1))
        k4 = fko.compile(ddot_src, TransformParams(sv=True, unroll=8, ae=4))
        c1 = cpu_cycles_per_trip(summarize(k1.fn).body, p4e)
        c4 = cpu_cycles_per_trip(summarize(k4.fn).body, p4e)
        assert c1 > c4 * 1.5

    def test_unroll_amortizes_overhead(self, p4e, ddot_src):
        fko = FKO(p4e)
        k1 = fko.compile(ddot_src, TransformParams(sv=True, unroll=1))
        k8 = fko.compile(ddot_src, TransformParams(sv=True, unroll=8, ae=4))
        s1, s8 = summarize(k1.fn), summarize(k8.fn)
        per_elem_1 = cpu_cycles_per_trip(s1.body, p4e) / s1.elems_per_trip
        per_elem_8 = cpu_cycles_per_trip(s8.body, p4e) / s8.elems_per_trip
        assert per_elem_8 < per_elem_1

    def test_decode_budget_throttles_huge_bodies(self, p4e, ddot_src):
        fko = FKO(p4e)
        k = fko.compile(ddot_src, TransformParams(sv=True, unroll=64, ae=4))
        s = summarize(k.fn)
        uops = sum(w for _, w in s.body)
        assert uops > p4e.decode_budget  # the body really is huge
        # and per-element cost is no better than a sane unroll
        k8 = fko.compile(ddot_src, TransformParams(sv=True, unroll=8, ae=4))
        s8 = summarize(k8.fn)
        big = cpu_cycles_per_trip(s.body, p4e) / s.elems_per_trip
        sane = cpu_cycles_per_trip(s8.body, p4e) / s8.elems_per_trip
        assert big >= sane * 0.95

    def test_vectorization_improves_cpu_bound(self, p4e, ddot_src):
        fko = FKO(p4e)
        ks = fko.compile(ddot_src, TransformParams(sv=False, unroll=4, ae=4))
        kv = fko.compile(ddot_src, TransformParams(sv=True, unroll=4, ae=4))
        ss, sv = summarize(ks.fn), summarize(kv.fn)
        scal = cpu_cycles_per_trip(ss.body, p4e) / ss.elems_per_trip
        vec = cpu_cycles_per_trip(sv.body, p4e) / sv.elems_per_trip
        assert vec < scal


class TestMemorySide:
    def test_prefetch_distance_hides_latency(self, p4e):
        base = TransformParams(sv=True, unroll=8)
        short = timed(p4e, "dasum", base.with_pf("X", PrefetchHint.NTA, 128))
        good = timed(p4e, "dasum", base.with_pf("X", PrefetchHint.NTA, 1024))
        assert good.cycles < short.cycles * 0.8

    def test_excessive_distance_wastes(self, opt):
        base = TransformParams(sv=True, unroll=8)
        good = timed(opt, "dasum", base.with_pf("X", PrefetchHint.NTA, 1024))
        silly = timed(opt, "dasum",
                      base.with_pf("X", PrefetchHint.NTA, 64 * 512))
        assert silly.cycles > good.cycles

    def test_wnt_helps_streaming_stores_on_p4e(self, p4e):
        nt = timed(p4e, "dcopy", TransformParams(sv=True, unroll=8, wnt=True))
        t = timed(p4e, "dcopy", TransformParams(sv=True, unroll=8, wnt=False))
        assert nt.cycles < t.cycles

    def test_wnt_hurts_read_write_streams_on_opteron(self, opt):
        nt = timed(opt, "dswap", TransformParams(sv=True, unroll=4, wnt=True))
        t = timed(opt, "dswap", TransformParams(sv=True, unroll=4, wnt=False))
        assert nt.cycles > t.cycles * 1.5

    def test_wnt_ok_for_write_only_stream_on_opteron(self, opt):
        nt = timed(opt, "dcopy", TransformParams(sv=True, unroll=4, wnt=True))
        t = timed(opt, "dcopy", TransformParams(sv=True, unroll=4, wnt=False))
        assert nt.cycles <= t.cycles * 1.02

    def test_wnt_bad_in_cache(self, p4e):
        nt = timed(p4e, "dcopy", TransformParams(sv=True, unroll=4, wnt=True),
                   context=Context.IN_L2, n=1024)
        t = timed(p4e, "dcopy", TransformParams(sv=True, unroll=4, wnt=False),
                  context=Context.IN_L2, n=1024)
        assert nt.cycles > t.cycles

    def test_in_cache_faster_than_out_of_cache(self, p4e):
        params = TransformParams(sv=True, unroll=8)
        ic = timed(p4e, "ddot", params, Context.IN_L2, 1024)
        oc = timed(p4e, "ddot", params, Context.OUT_OF_CACHE, 1024 * 8)
        per_elem_ic = ic.cycles / 1024
        per_elem_oc = oc.cycles / (1024 * 8)
        assert per_elem_ic < per_elem_oc

    def test_stats_populated(self, p4e):
        r = timed(p4e, "ddot", TransformParams(sv=True, unroll=4))
        assert r.stats.lines_processed > 0
        assert r.stats.bus_busy_cycles > 0

    def test_swap_more_bus_bound_than_asum(self, p4e):
        """Figure 5(b)'s diagnostic: the in-cache/out-of-cache speedup
        "provides a very good measure of how bus-bound an operation is"
        — swap (2 read + 2 write streams) gains far more from cache
        residency than asum (1 read stream, compute-limited)."""
        from repro.search import TuneConfig, tune_kernel
        def ratio(name):
            spec = get_kernel(name)
            oc = tune_kernel(spec, p4e, Context.OUT_OF_CACHE, 20000,
                             config=TuneConfig(run_tester=False))
            ic = tune_kernel(spec, p4e, Context.IN_L2, 1024,
                             config=TuneConfig(run_tester=False))
            return ic.mflops / oc.mflops
        assert ratio("dswap") > ratio("dasum")

    def test_mflops_conversion(self, p4e):
        r = timed(p4e, "ddot", TransformParams(sv=True), n=10000)
        mf = r.mflops(2 * 10000, p4e.freq_hz)
        assert mf > 0
        secs = r.seconds(p4e.freq_hz)
        assert mf == pytest.approx(2 * 10000 / secs / 1e6)


class TestMachineConfigs:
    def test_get_machine_aliases(self):
        assert get_machine("P4E").name == "P4E"
        assert get_machine("pentium4e").name == "P4E"
        assert get_machine("opteron").name == "Opteron"
        assert get_machine("K8").name == "Opteron"

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("itanium")
        with pytest.raises(KeyError, match="itanium"):
            canonical_machine("itanium")

    @pytest.mark.parametrize("spelling", [
        "p4e", "P4E", "pentium4e", "Pentium-4E", "pentium_4", "opteron",
        "Opteron", "opt", "K8"])
    def test_canonical_machine_matches_the_config_name(self, spelling):
        want = get_machine(spelling).name.lower()
        assert canonical_machine(spelling) == want
        assert canonical_machine(get_machine(spelling)) == want

    def test_paper_platform_parameters(self):
        p4e, opt = pentium4e(), opteron()
        assert p4e.freq_mhz == 2800 and opt.freq_mhz == 1600
        assert opt.mem_latency < p4e.mem_latency      # on-die controller
        assert opt.bus_turnaround < p4e.bus_turnaround
        assert PrefetchHint.W in opt.prefetch_hints   # 3DNow! prefetchw
        assert PrefetchHint.W not in p4e.prefetch_hints
        assert opt.wnt_read_write_penalty > 0
        assert p4e.wnt_read_write_penalty == 0

    def test_exec_classes_complete(self):
        for m in (pentium4e(), opteron()):
            for cls in ("fadd", "fmul", "vadd", "vmul", "ld", "st", "pref",
                        "mov", "iadd", "cmp", "br", "hadd", "vcmp"):
                ec = m.exec_class(cls)
                assert ec.lat >= 1 and ec.rthru > 0 and ec.uops >= 1
