"""Figure 2 — relative speedups of all six tuning methodologies on the
simulated P4E, out of cache (the paper's headline comparison)."""

from repro.experiments.relative import relative_performance
from repro.machine import Context, pentium4e


def test_figure2(benchmark, store):
    res = benchmark.pedantic(
        lambda: relative_performance(pentium4e(), Context.OUT_OF_CACHE,
                                     store),
        rounds=1, iterations=1)

    # the paper's headline: ifko best on average, ATLAS second
    assert res.best_method_on_average() == "ifko"
    assert res.avg["ATLAS"] > res.avg["icc+prof"]
    # every percent column tops out at 100
    assert max(max(res.percent[m]) for m in res.percent) <= 100.0 + 1e-9
