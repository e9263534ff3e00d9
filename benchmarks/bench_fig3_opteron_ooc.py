"""Figure 3 — relative speedups on the simulated Opteron, out of cache,
including the icc+prof blind-WNT collapse on swap/axpy."""

from repro.experiments.relative import relative_performance
from repro.machine import Context, opteron


def test_figure3(benchmark, store):
    res = benchmark.pedantic(
        lambda: relative_performance(opteron(), Context.OUT_OF_CACHE, store),
        rounds=1, iterations=1)

    # "icc+prof is many times slower than icc+ref" for swap and axpy
    for kernel in ("sswap", "dswap", "saxpy", "daxpy"):
        i = next(j for j, k in enumerate(res.kernels)
                 if k.rstrip("*") == kernel)
        assert res.percent["icc+prof"][i] < res.percent["icc+ref"][i]
    # ifko tops the vectorizable average
    assert max(res.vavg, key=res.vavg.get) == "ifko"
