"""Figure 5 — (a) absolute ifko MFLOPS per routine out of cache on both
machines; (b) P4E in-L2 speedup over out-of-cache (bus-boundedness)."""

from repro.experiments.fig5 import figure5
from repro.kernels import KERNEL_ORDER


def test_figure5(benchmark, store):
    res = benchmark.pedantic(lambda: figure5(store), rounds=1, iterations=1)

    vals = dict(zip(res.kernels, res.ooc_mflops["P4E"]))
    # "ASUM ... is always the fastest routine" (among the f32 kernels,
    # isamax shares its stream profile)
    assert vals["sasum"] >= max(v for k, v in vals.items()
                                if k not in ("sasum", "isamax"))
    # "single precision ... always faster than double"
    for base in ("swap", "scal", "copy", "axpy", "dot", "asum"):
        assert vals["s" + base] >= vals["d" + base] * 0.99
    # 5(b): the most bus-bound op gains the most from cache residency
    ratios = dict(zip(res.kernels, res.incache_speedup))
    assert ratios["dswap"] > ratios["dasum"]
