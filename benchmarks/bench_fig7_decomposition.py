"""Figure 7 — the per-parameter decomposition of ifko's speedup over
statically-tuned FKO, averaged over kernels, machines and contexts.

Paper average: [WNT, PF DST, PF INS, UR, AE] = [2, 26, 3, 2, 5]%,
total 1.38x.  The reproduction checks the *shape*: PF DST dominates,
each term is a modest positive, total lands in the same regime.
"""

from repro.experiments.fig7 import figure7


def test_figure7(benchmark, store):
    res = benchmark.pedantic(lambda: figure7(store), rounds=1, iterations=1)

    avg = res.average_gains()
    # prefetch-distance tuning is the dominant contributor
    assert avg["PF DST"] > max(avg["WNT"], avg["PF INS"], avg["UR"],
                               avg["AE"])
    # no phase is (on average) harmful
    for phase in ("WNT", "PF DST", "PF INS", "UR", "AE"):
        assert avg[phase] >= 0.999, (phase, avg[phase])
    # overall 'empirically-tuned kernels run ~1.4x faster than static'
    assert 1.1 < avg["total"] < 2.2
