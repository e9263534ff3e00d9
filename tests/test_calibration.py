"""Calibration: the paper's qualitative results must hold on the shipped
machine models (DESIGN.md section 4 "shape targets").

These run the real experiment pipeline at the paper's sizes (N=80000
out of cache, N=1024 in-L2), via one result store, so the whole file
costs one sweep.  Any change to the machine model or the compiler that
breaks a paper-level claim fails here.
"""

import math

import pytest

from repro.experiments.store import METHODS, ResultStore
from repro.experiments.relative import relative_performance
from repro.experiments.fig7 import figure7
from repro.kernels import KERNEL_ORDER
from repro.machine import Context, opteron, pentium4e


@pytest.fixture(scope="module")
def store():
    return ResultStore()


@pytest.fixture(scope="module")
def fig2(store):
    return relative_performance(pentium4e(), Context.OUT_OF_CACHE, store)


@pytest.fixture(scope="module")
def fig3(store):
    return relative_performance(opteron(), Context.OUT_OF_CACHE, store)


@pytest.fixture(scope="module")
def fig4(store):
    return relative_performance(pentium4e(), Context.IN_L2, store)


def idx(res, kernel):
    for i, k in enumerate(res.kernels):
        if k.rstrip("*") == kernel:
            return i
    raise KeyError(kernel)


class TestHeadlineClaims:
    """Section 3.3: 'On all studied architectures and contexts, ifko
    provides the best performance on average, better even than the
    hand-tuned kernels found by ATLAS's own empirical search.'"""

    def test_ifko_best_avg_p4e_ooc(self, fig2):
        assert fig2.best_method_on_average() == "ifko", fig2.avg

    def test_ifko_best_avg_p4e_inl2(self, fig4):
        assert fig4.best_method_on_average() == "ifko", fig4.avg

    def test_ifko_best_vavg_everywhere(self, fig2, fig3, fig4):
        # VAVG (vectorizable routines): ifko on top in all three configs
        for res in (fig2, fig3, fig4):
            best = max(res.vavg, key=res.vavg.get)
            assert best == "ifko", (res.machine, res.context, res.vavg)

    def test_opteron_avg_ifko_vs_atlas_within_iamax(self, fig3):
        """Known deviation (EXPERIMENTS.md): on the simulated Opteron the
        bandwidth ceiling compresses out-of-cache differences, so ATLAS's
        hand-vectorized isamax is the only thing separating the AVG
        columns.  ifko must still be within 4 points of ATLAS and ahead
        of every compiler baseline."""
        assert fig3.avg["ifko"] >= fig3.avg["ATLAS"] - 4.0
        for m in ("gcc+ref", "icc+ref", "icc+prof", "FKO"):
            assert fig3.avg["ifko"] > fig3.avg[m] + 5.0

    def test_ifko_beats_plain_fko_everywhere(self, fig2, fig3, fig4):
        for res in (fig2, fig3, fig4):
            assert res.avg["ifko"] > res.avg["FKO"] + 5.0

    def test_ifko_beats_all_compilers(self, fig2, fig3, fig4):
        for res in (fig2, fig3, fig4):
            for m in ("gcc+ref", "icc+ref", "icc+prof"):
                assert res.avg["ifko"] > res.avg[m], (res.machine, m)


class TestHandTunedWins:
    """Section 3.3's enumerated ifko losses."""

    def test_atlas_wins_isamax_everywhere(self, fig2, fig3, fig4):
        for res in (fig2, fig3, fig4):
            i = idx(res, "isamax")
            assert res.percent["ATLAS"][i] > res.percent["ifko"][i], \
                (res.machine, res.context)

    def test_iamax_loss_is_decisive(self, fig2):
        # "in several individual hand-tuned cases, ifko loses decidedly"
        i = idx(fig2, "isamax")
        assert fig2.percent["ifko"][i] < 85.0

    def test_atlas_wins_dcopy_on_p4e_block_fetch(self, fig2, store):
        i = idx(fig2, "dcopy")
        assert fig2.percent["ATLAS"][i] > fig2.percent["ifko"][i]
        # and the winner really is the hand kernel (starred)
        res = store.get(pentium4e(), Context.OUT_OF_CACHE, "dcopy", "ATLAS")
        assert res.starred

    def test_opteron_scopy_near_tie(self, fig3):
        # "just barely above clock resolution" — a near-tie, not a rout
        i = idx(fig3, "scopy")
        assert abs(fig3.percent["ATLAS"][i] - fig3.percent["ifko"][i]) < 3.0


class TestCompilerBehaviours:
    def test_iccprof_wnt_disaster_on_opteron(self, fig3):
        """'for both swap and axpy, icc+prof is many times slower than
        icc+ref in Figure 3'"""
        for kernel in ("sswap", "dswap", "saxpy", "daxpy"):
            i = idx(fig3, kernel)
            assert fig3.percent["icc+prof"][i] < \
                fig3.percent["icc+ref"][i] * 0.75, kernel

    def test_iccprof_wnt_fine_on_p4e(self, fig2):
        """'non-temporal writes can improve performance anytime the
        operand doesn't need to be retained in the cache on the P4E'"""
        for kernel in ("sswap", "daxpy"):
            i = idx(fig2, kernel)
            assert fig2.percent["icc+prof"][i] >= \
                fig2.percent["icc+ref"][i] * 0.98, kernel

    def test_iccprof_helps_opteron_copy(self, fig3):
        # WNT on a write-only stream is the good case on Opteron
        i = idx(fig3, "dcopy")
        assert fig3.percent["icc+prof"][i] > fig3.percent["icc+ref"][i] * 1.2

    def test_gcc_trails_icc_on_p4e(self, fig2):
        assert fig2.avg["gcc+ref"] < fig2.avg["icc+ref"]


class TestParameterShapes:
    def test_sv_on_for_vectorizable_kernels(self, store):
        # Table 3: SV=Y everywhere except iamax
        for mk in (pentium4e, opteron):
            for k in ("ddot", "sasum", "dcopy", "sswap"):
                res = store.get(mk(), Context.OUT_OF_CACHE, k, "ifko")
                assert res.search.best_params.sv, (mk().name, k)

    def test_wnt_choices_match_table3(self, store):
        p4 = store.get(pentium4e(), Context.OUT_OF_CACHE, "dcopy", "ifko")
        assert p4.search.best_params.wnt
        op_copy = store.get(opteron(), Context.OUT_OF_CACHE, "dcopy", "ifko")
        assert op_copy.search.best_params.wnt        # write-only stream
        op_swap = store.get(opteron(), Context.OUT_OF_CACHE, "dswap", "ifko")
        assert not op_swap.search.best_params.wnt    # read+write stream

    def test_wnt_off_in_cache(self, store):
        for k in ("dcopy", "dswap", "dscal"):
            res = store.get(pentium4e(), Context.IN_L2, k, "ifko")
            assert not res.search.best_params.wnt, k

    def test_prefetch_distances_in_paper_range(self, store):
        # Table 3 distances run 56..2048 bytes
        for mk in (pentium4e, opteron):
            for k in ("dasum", "ddot"):
                res = store.get(mk(), Context.OUT_OF_CACHE, k, "ifko")
                for arr, pf in res.search.best_params.prefetch.items():
                    if pf.enabled:
                        assert 56 <= pf.dist <= 2048, (mk().name, k, arr)


class TestFigure7Shapes:
    def test_pf_dst_is_dominant_gain(self, store):
        """'The prefetch results are of particular interest ... and
        provide the greatest speedup on average.'"""
        f7 = figure7(store, kernels=["ddot", "dasum", "dcopy", "dswap",
                                     "daxpy", "sscal"])
        avg = f7.average_gains()
        others = [avg[p] for p in ("WNT", "PF INS", "UR", "AE")]
        assert avg["PF DST"] > max(others)

    def test_total_average_speedup_near_paper(self, store):
        """Paper: 1.38x on average over ops/archs/contexts."""
        f7 = figure7(store)
        avg = f7.average_gains()
        assert 1.1 < avg["total"] < 2.2

    def test_ae_matters_in_cache_for_reductions(self, store):
        """'accumulator expansion (AE), which on the P4E accounts for an
        impressive 41% of sasum speedup in-cache'"""
        res = store.get(pentium4e(), Context.IN_L2, "sasum", "ifko")
        gains = res.search.phase_speedups()
        assert gains["AE"] > 1.15
        oc = store.get(pentium4e(), Context.OUT_OF_CACHE, "sasum", "ifko")
        assert gains["AE"] > oc.search.phase_speedups()["AE"]


class TestFigure5Shapes:
    def test_asum_is_fastest_routine(self, store):
        """'ASUM, which has only one input vector, and no output vectors,
        is always the fastest routine'"""
        for mk in (pentium4e, opteron):
            vals = {k: store.get(mk(), Context.OUT_OF_CACHE, k, "ifko").mflops
                    for k in KERNEL_ORDER}
            fastest = max(vals, key=vals.get)
            assert fastest in ("sasum", "isamax"), (mk().name, fastest)
            assert vals["sasum"] >= max(
                v for k, v in vals.items()
                if k not in ("sasum", "isamax")), mk().name

    def test_single_precision_not_slower(self, store):
        """'single precision (half the data load for same amount of
        FLOPs) always faster than double'"""
        for base in ("swap", "copy", "dot", "asum", "axpy", "scal"):
            s = store.get(pentium4e(), Context.OUT_OF_CACHE,
                          "s" + base, "ifko").mflops
            d = store.get(pentium4e(), Context.OUT_OF_CACHE,
                          "d" + base, "ifko").mflops
            assert s >= d * 0.99, base

    def test_bus_bound_ops_slowest(self, store):
        vals = {k: store.get(pentium4e(), Context.OUT_OF_CACHE,
                             k, "ifko").mflops for k in KERNEL_ORDER}
        assert vals["dswap"] < vals["ddot"] < vals["dasum"]
