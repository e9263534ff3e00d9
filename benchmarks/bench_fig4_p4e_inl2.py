"""Figure 4 — relative speedups on the simulated P4E with operands
resident in L2 (N=1024), where computational tuning (UR/AE) dominates."""

from repro.experiments.relative import relative_performance
from repro.machine import Context, pentium4e


def test_figure4(benchmark, store):
    res = benchmark.pedantic(
        lambda: relative_performance(pentium4e(), Context.IN_L2, store),
        rounds=1, iterations=1)

    assert res.best_method_on_average() == "ifko"
    # in-cache the gap to plain FKO stays real (AE/UR tuning)
    assert res.avg["ifko"] > res.avg["FKO"]
