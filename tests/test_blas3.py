"""The Level-3 workload: registry wiring, differential correctness of
the new kernels, blocked-GEMM timing acceptance, and engine-level
determinism for nest kernels."""

from __future__ import annotations

import pytest

from repro.cli import _file_spec
from repro.fko import FKO, TransformParams
from repro.hil.tiling import nest_info
from repro.kernels import ALL_KERNEL_ORDER, KERNEL_ORDER, REGISTRY, get_kernel
from repro.kernels.blas3 import BLAS3_ORDER
from repro.machine import Context
from repro.search import TuneConfig, TuningSession, evaluate_params
from repro.timing.tester import test_kernel as check_kernel
from repro.timing.timer import Timer

#: out-of-cache matrix order for the acceptance runs (3 * 512^2 * 8
#: bytes = 6MB of operands, far beyond either machine's L2)
N_OOC = 512
EVALS = 40


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


# ---------------------------------------------------------------------------
# registry

class TestRegistry:
    def test_table1_order_is_untouched(self):
        assert len(KERNEL_ORDER) == 14
        assert not any(k in KERNEL_ORDER for k in BLAS3_ORDER)

    def test_all_kernels_appends_level3(self):
        assert ALL_KERNEL_ORDER == KERNEL_ORDER + BLAS3_ORDER
        for name in BLAS3_ORDER:
            assert name in REGISTRY

    def test_gemm_spec_shape(self):
        spec = get_kernel("dgemm")
        assert spec.matrix_args == ("A", "B", "C")
        assert spec.reduction_outputs == ("C",)
        assert spec.flops_order == 3
        assert nest_info(spec.hil) is not None
        assert spec.flops(10) == 2 * 10 ** 3


# ---------------------------------------------------------------------------
# differential correctness (default pipeline; transformed points are
# covered by test_tiling and the fuzzer)

class TestCorrectness:
    @pytest.mark.parametrize("name", BLAS3_ORDER)
    def test_default_compile_matches_reference(self, p4e, name):
        spec = get_kernel(name)
        fko = FKO(p4e)
        check_kernel(fko.compile(spec.hil, fko.defaults(spec.hil)), spec)

    def test_vectorized_gemm_matches_reference(self, p4e):
        spec = get_kernel("dgemm")
        compiled = FKO(p4e).compile(
            spec.hil, TransformParams(sv=True, unroll=8),
            debug_verify=True)
        check_kernel(compiled, spec)


# ---------------------------------------------------------------------------
# timing: the paper's Level-3 claim — blocking must matter

class TestBlockedTiming:
    def test_blocked_gemm_beats_unblocked_by_2x(self, p4e):
        spec = get_kernel("dgemm")
        fko = FKO(p4e)
        timer = Timer(p4e, Context.OUT_OF_CACHE, N_OOC)
        base = timer.time(
            fko.compile(spec.hil, TransformParams(sv=False)), spec)
        tiled = TransformParams(sv=True, unroll=8) \
            .with_ext("tile:k", 128).with_ext("tile:j", 128)
        best = timer.time(fko.compile(spec.hil, tiled), spec)
        assert base.cycles / best.cycles >= 2.0

    def test_nest_timing_is_deterministic(self, p4e):
        spec = get_kernel("dgemm")
        compiled = FKO(p4e).compile(
            spec.hil, TransformParams().with_ext("tile:k", 64))
        timer = Timer(p4e, Context.OUT_OF_CACHE, N_OOC)
        a = timer.time(compiled, spec)
        b = Timer(p4e, Context.OUT_OF_CACHE, N_OOC).time(compiled, spec)
        assert a.cycles == b.cycles


# ---------------------------------------------------------------------------
# engine: tuning a nest kernel stays deterministic and attributes TILE

@pytest.fixture(scope="module")
def serial_dgemm():
    with TuningSession(_config()) as s:
        return s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, N_OOC)


class TestEngine:
    def test_line_search_attributes_a_tile_phase(self, serial_dgemm):
        gains = serial_dgemm.search.phase_speedups()
        assert "TILE" in gains
        # blocking dominates out-of-cache GEMM: the TILE phase must
        # carry a real gain, and the winner must actually be tiled
        assert gains["TILE"] > 1.2
        assert serial_dgemm.params.tiles()

    def test_legacy_kernels_report_no_tile_phase(self, p4e):
        with TuningSession(_config()) as s:
            ddot = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, 4000)
        assert "TILE" not in ddot.search.phase_gains

    def test_parallel_matches_serial(self, serial_dgemm):
        with TuningSession(_config(jobs=4)) as s:
            par = s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, N_OOC)
        assert par.params.key() == serial_dgemm.params.key()
        assert par.search.best_cycles == serial_dgemm.search.best_cycles
        assert par.search.history == serial_dgemm.search.history


# ---------------------------------------------------------------------------
# the reported timing is the searched timing: a nest kernel's winner and
# its FKO-defaults baseline are priced by the model the search ranked
# by, whether the kernel comes from the registry or from a user file

def _nest_specs():
    specs = [pytest.param(get_kernel("dgemm"), id="registry-dgemm")]
    for name, elem_size in (("sgemm", 4), ("dgemm", 8)):
        spec = _file_spec(get_kernel(name).hil, f"my{name}", elem_size)
        specs.append(pytest.param(spec, id=f"file-{name}"))
    return specs


@pytest.mark.parametrize("spec", _nest_specs())
def test_reported_equals_searched(p4e, spec):
    ctx, n = Context.OUT_OF_CACHE, 64
    fko, timer = FKO(p4e), Timer(p4e, ctx, n)

    def searched(params):
        cycles, status, _ = evaluate_params(fko, timer, spec.hil, params,
                                            spec.flops(n), f"{spec.name}|")
        assert status == "ok"
        return cycles

    with TuningSession(_config(max_evals=6)) as s:
        tuned = s.tune(spec, p4e, ctx, n)
        default = s.compile_default(spec, p4e, ctx, n)
    assert tuned.timing.cycles == tuned.search.best_cycles
    assert tuned.timing.cycles == searched(tuned.params)
    assert default.timing.cycles == searched(default.compiled.params)
