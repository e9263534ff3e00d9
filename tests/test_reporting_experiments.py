"""Tests for reporting helpers and experiment harness plumbing."""

import pytest

from repro.experiments import table1, table2
from repro.experiments.store import METHODS, ResultStore
from repro.machine import Context, pentium4e
from repro.timing.timer import paper_n
from repro.reporting import bar_chart, format_table, percent_of_best


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [["x", 1.25], ["yy", 10.5]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "bbb" in lines[2]
        assert "10.5" in lines[-1]

    def test_format_table_float_format(self):
        out = format_table(["v"], [[3.14159]], floatfmt="{:.3f}")
        assert "3.142" in out

    def test_bar_chart_scales_to_max(self):
        out = bar_chart(["k"], {"m": [50.0]}, width=10, vmax=100.0)
        assert "#####" in out and "######" not in out.replace("#####", "", 1)

    def test_bar_chart_multiple_series(self):
        out = bar_chart(["k1", "k2"], {"a": [1, 2], "b": [2, 4]})
        assert out.count("|") == 8  # 2 labels x 2 series x 2 pipes

    def test_percent_of_best(self):
        rows = {"m1": [10.0, 40.0], "m2": [20.0, 20.0]}
        pct = percent_of_best(rows)
        assert pct["m1"] == [50.0, 100.0]
        assert pct["m2"] == [100.0, 50.0]


class TestStaticHarnesses:
    def test_table1_shape(self):
        rows = table1.rows()
        assert len(rows) == 7
        text = table1.render()
        assert "iamax" in text and "2N" in text

    def test_table2_mentions_both_platforms(self):
        text = table2.render()
        assert "P4E" in text and "Opteron" in text
        assert "-xP" in text and "-xW" in text


class TestStore:
    def test_paper_sizes(self):
        assert ResultStore().sizes == {ctx: paper_n(ctx) for ctx in Context}
        quick = ResultStore(quick=True).sizes
        assert quick[Context.OUT_OF_CACHE] < paper_n(Context.OUT_OF_CACHE)
        assert quick[Context.IN_L2] == paper_n(Context.IN_L2)

    def test_environment_sets_nothing(self, monkeypatch, tmp_path):
        """The three arguments are the whole spec of a store: no
        environment variable resizes it, fans it out, persists it,
        swaps its searcher or routes it through a daemon."""
        for knob, value in (("FULL", ""), ("JOBS", "4"),
                            ("CACHE_DIR", str(tmp_path)),
                            ("STRATEGY", "random"), ("SEED", "3"),
                            ("SERVE_URL", "http://127.0.0.1:9")):
            monkeypatch.setenv("REPRO_" + knob, value)
        store = ResultStore()
        assert store.sizes == {ctx: paper_n(ctx) for ctx in Context}
        assert store.jobs == 1 and store.session.config.jobs == 1
        assert store.cache_dir is None and store.rows is None
        assert store.session.config.cache_dir is None
        assert store.session.config.strategy == "line"
        assert store.session.config.seed == 0
        assert list(tmp_path.iterdir()) == []

    def test_memoization(self):
        store = ResultStore()
        m = pentium4e()
        a = store.get(m, Context.IN_L2, "ddot", "FKO")
        b = store.get(m, Context.IN_L2, "ddot", "FKO")
        assert a is b

    def test_row_covers_all_methods(self):
        store = ResultStore()
        row = store.row(pentium4e(), Context.IN_L2, "sscal")
        assert set(row) == set(METHODS)
        assert all(r.mflops > 0 for r in row.values())

    def test_unknown_method_rejected(self):
        store = ResultStore()
        with pytest.raises(KeyError):
            store.get(pentium4e(), Context.IN_L2, "ddot", "clang")

    def test_atlas_result_carries_star(self):
        store = ResultStore()
        res = store.get(pentium4e(), Context.IN_L2, "isamax", "ATLAS")
        assert res.display_kernel == "isamax*"


class TestRelativeRender:
    def test_render_contains_table_and_chart(self):
        from repro.experiments.relative import relative_performance
        store = ResultStore()
        res = relative_performance(pentium4e(), Context.IN_L2, store,
                                   kernels=["sscal", "isamax"])
        text = res.render("Test figure")
        assert "Test figure" in text
        assert "AVG" in text and "VAVG" in text
        assert "|" in text  # bar chart present

    def test_percent_of_best_is_100_somewhere(self):
        from repro.experiments.relative import relative_performance
        store = ResultStore()
        res = relative_performance(pentium4e(), Context.IN_L2, store,
                                   kernels=["ddot"])
        best = max(res.percent[m][0] for m in METHODS)
        assert best == pytest.approx(100.0)
