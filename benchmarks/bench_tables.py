"""Benchmarks regenerating the paper's tables.

* Table 1 — BLAS summary (static; render speed only).
* Table 2 — platform/compiler info (static).
* Table 3 — the empirically selected transformation parameters for all
  14 kernels x 3 (machine, context) configurations.  This is the big
  one: it runs 42 complete ifko searches (memoized in the shared store).
"""

from repro.experiments import table1, table2
from repro.experiments.table3 import table3


def test_table1(benchmark):
    text = benchmark(table1.render)
    assert "iamax" in text


def test_table2(benchmark):
    text = benchmark(table2.render)
    assert "P4E" in text and "Opteron" in text


def test_table3(benchmark, store):
    result = benchmark.pedantic(lambda: table3(store),
                                rounds=1, iterations=1)
    # every kernel row present, with the three config column groups
    assert len(result.rows) == 14
    assert len(result.headers) == 1 + 3 * 4
