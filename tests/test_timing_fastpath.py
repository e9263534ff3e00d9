"""Golden equivalence suite for the timing model's steady-state fast path.

The fast path (``LoopTimer(fast=True)``, the default) detects when the
out-of-cache per-line simulation state repeats and replays the recorded
period's cycle deltas instead of re-stepping every line (the in-L2 walk
always steps every line).  The replay performs
the same float additions in the same order as the full walk, so the
contract is *exact*: ``fast=True`` and ``fast=False`` must agree to the
bit on every kernel, machine, context and transform setting — not
approximately, bit-for-bit.  These tests enforce that contract; if they
fail, the eval cache (keyed without a fast/slow discriminator) would be
silently corrupted.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fko import FKO, PrefetchParams, TransformParams
from repro.ir import PrefetchHint
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import Context, LoopTimer, summarize

# The bench/equivalence N: large enough that the out-of-cache walk has a
# long steady region (the acceptance criterion's N).
N_LARGE = 80000
N_SMALL = 1000


def _params_grid(spec):
    """A representative UR/PF/AE slice of the transform space."""
    arrs = list(spec.vector_args)
    grid = [
        TransformParams(),
        TransformParams(sv=True, unroll=4, ae=2),
        TransformParams(sv=True, unroll=8, ae=4),
        TransformParams(sv=False, unroll=2, lc=False),
    ]
    if arrs:
        pf = {a: PrefetchParams(PrefetchHint.NTA, 512) for a in arrs}
        grid.append(TransformParams(sv=True, unroll=8, ae=4, prefetch=pf))
        pf0 = {arrs[0]: PrefetchParams(PrefetchHint.T0, 1024)}
        grid.append(TransformParams(sv=True, unroll=4, prefetch=pf0))
    if spec.output_args:
        grid.append(TransformParams(sv=True, unroll=4, wnt=True))
    return grid


def _both(mach, context, summary, n):
    fast = LoopTimer(mach, context, fast=True).time(summary, n)
    slow = LoopTimer(mach, context, fast=False).time(summary, n)
    return fast, slow


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
@pytest.mark.parametrize("machine", ["p4e", "opt"])
@pytest.mark.parametrize("context", [Context.OUT_OF_CACHE, Context.IN_L2])
def test_fast_equals_full_walk(kernel, machine, context, request):
    """Exact cycle equality, every kernel x machine x context x params."""
    mach = request.getfixturevalue(machine)
    spec = get_kernel(kernel)
    fko = FKO(mach)
    for params in _params_grid(spec):
        summary = summarize(fko.compile(spec.hil, params).fn)
        for n in (N_SMALL, N_LARGE):
            fast, slow = _both(mach, context, summary, n)
            assert fast.cycles == slow.cycles, (
                f"{kernel}/{mach.name}/{context.value}/n={n}/{params.key()}:"
                f" fast={fast.cycles!r} slow={slow.cycles!r}")
            # the replay must also reproduce the walk's event counters
            assert fast.stats.demand_misses == slow.stats.demand_misses
            assert fast.stats.hw_prefetches == slow.stats.hw_prefetches
            assert fast.stats.prefetch_issued == slow.stats.prefetch_issued
            # the steady-state replay is out-of-cache only
            if context is Context.IN_L2:
                assert fast.stats.lines_extrapolated == 0


@pytest.mark.parametrize("machine", ["p4e", "opt"])
def test_extrapolation_actually_fires_at_large_n(machine, request):
    """At N=80000 out-of-cache the steady state must be found — the
    speedup claim rests on most lines being replayed, not stepped."""
    mach = request.getfixturevalue(machine)
    spec = get_kernel("ddot")
    summary = summarize(
        FKO(mach).compile(spec.hil,
                          TransformParams(sv=True, unroll=8, ae=4)).fn)
    res = LoopTimer(mach, Context.OUT_OF_CACHE, fast=True).time(
        summary, N_LARGE)
    assert res.stats.lines_extrapolated > 0
    assert res.stats.steady_period > 0
    # the overwhelming majority of lines must come from the replay
    assert res.stats.lines_extrapolated > res.stats.lines_processed * 0.8


def test_slow_path_reports_no_extrapolation(p4e):
    spec = get_kernel("ddot")
    summary = summarize(FKO(p4e).compile(spec.hil).fn)
    res = LoopTimer(p4e, Context.OUT_OF_CACHE, fast=False).time(
        summary, N_LARGE)
    assert res.stats.lines_extrapolated == 0
    assert res.stats.steady_period == 0


def test_timer_fast_flag_passthrough(p4e):
    """Timer(fast=...) must reach the underlying LoopTimer."""
    from repro.timing.timer import Timer
    t_fast = Timer(p4e, Context.OUT_OF_CACHE, N_LARGE)
    t_slow = Timer(p4e, Context.OUT_OF_CACHE, N_LARGE, fast=False)
    assert t_fast._loop_timer.fast is True
    assert t_slow._loop_timer.fast is False
    spec = get_kernel("dasum")
    k = FKO(p4e).compile(spec.hil, TransformParams(sv=True, unroll=4))
    tf = t_fast.time(k, spec)
    ts = t_slow.time(k, spec)
    assert tf.cycles == ts.cycles
    assert tf.raw.stats.lines_extrapolated > 0
    assert ts.raw.stats.lines_extrapolated == 0


# ---------------------------------------------------------------------------
# randomized sweep: hypothesis drives TransformParams through corners the
# hand-written grid misses (odd unrolls, mixed hints, wnt interplay)

_HINTS = st.sampled_from([None, PrefetchHint.NTA, PrefetchHint.T0,
                          PrefetchHint.T1])


@st.composite
def _random_params(draw):
    pf = {}
    for arr in ("X", "Y"):
        hint = draw(_HINTS)
        if hint is not None:
            dist = draw(st.integers(min_value=1, max_value=32)) * 64
            pf[arr] = PrefetchParams(hint, dist)
    return TransformParams(
        sv=draw(st.booleans()),
        unroll=draw(st.integers(min_value=1, max_value=16)),
        lc=draw(st.booleans()),
        ae=draw(st.integers(min_value=1, max_value=4)),
        prefetch=pf,
        wnt=draw(st.booleans()),
        block_fetch=draw(st.booleans()),
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=_random_params(),
       kernel=st.sampled_from(["daxpy", "dcopy", "ddot", "dscal"]),
       n=st.integers(min_value=1, max_value=6000))
def test_fast_equals_full_walk_randomized(params, kernel, n):
    from repro.machine import opteron, pentium4e
    spec = get_kernel(kernel)
    for mach in (pentium4e(), opteron()):
        summary = summarize(FKO(mach).compile(spec.hil, params).fn)
        for context in (Context.OUT_OF_CACHE, Context.IN_L2):
            fast, slow = _both(mach, context, summary, n)
            assert fast.cycles == slow.cycles, (
                f"{kernel}/{mach.name}/{context.value}/n={n}: "
                f"fast={fast.cycles!r} slow={slow.cycles!r}")
