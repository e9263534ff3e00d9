"""Tests for the experiment store's optional disk persistence."""

import json
import os

import pytest

import repro.experiments.store as store_mod
from repro.experiments.store import ResultStore
from repro.machine import Context, pentium4e
from repro.service import history_digest


class TestDiskCache:
    def test_writes_and_reloads(self, tmp_path):
        s1 = ResultStore(cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        files = list((tmp_path / "rows").glob("*/*.json"))
        assert len(files) == 1
        s2 = ResultStore(cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        assert r2.mflops == r1.mflops
        assert r2.cycles == r1.cycles

    def test_version_and_size_change_the_record(self, tmp_path,
                                                monkeypatch):
        def records():
            return set((tmp_path / "rows").glob("*/*.json"))

        def row(store):
            store.get(pentium4e(), Context.IN_L2, "sscal", "gcc+ref")
            return records()

        seen = row(ResultStore(cache_dir=str(tmp_path)))
        assert len(seen) == 1
        # the same spec again: the same record
        assert row(ResultStore(cache_dir=str(tmp_path))) == seen
        # another N, another code version: a new record each, never an
        # alias of the first
        other_n = ResultStore(cache_dir=str(tmp_path))
        other_n.sizes[Context.IN_L2] = 2048
        assert len(row(other_n)) == 2
        monkeypatch.setattr(store_mod, "__version__", "0.0.0-other")
        assert len(row(ResultStore(cache_dir=str(tmp_path)))) == 3

    def test_ifko_reloads_with_its_search(self, tmp_path):
        """ifko rows persist their full SearchResult, so a second store
        on the same directory reloads the row, search history and all,
        without running a single evaluation."""
        s1 = ResultStore(cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "sscal", "ifko")
        assert r1.search is not None
        s2 = ResultStore(cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "sscal", "ifko")
        # a recompute would run the search, or hit the eval cache
        # under evals/
        assert s2.session.stats.evaluations + s2.session.stats.cache_hits == 0
        assert history_digest(r2.search) == history_digest(r1.search)

    @pytest.mark.parametrize("bad", ["{}", "[1, 2]"])
    def test_malformed_row_is_recomputed(self, tmp_path, bad):
        # a record that parses as JSON but has the wrong shape used to
        # raise out of get() (KeyError / AttributeError)
        args = (pentium4e(), Context.IN_L2, "sscal", "gcc+ref")
        good = ResultStore(cache_dir=str(tmp_path)).get(*args)
        (row,) = tmp_path.rglob("*.json")
        row.write_text(bad)
        again = ResultStore(cache_dir=str(tmp_path)).get(*args)
        assert again == good
        assert json.loads(row.read_text())["cycles"] == good.cycles

    def test_unwritable_cache_dir_leaves_cache_cold(self, tmp_path,
                                                    monkeypatch):
        # the row used to be written with a plain write_text, outside
        # the atomic temp-file-and-rename path every other store uses:
        # a refused write must not abort the run, must not land a row
        # and must not leave a temp file behind
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        args = (pentium4e(), Context.IN_L2, "sscal", "gcc+ref")
        r = ResultStore(cache_dir=str(tmp_path)).get(*args)
        assert r.mflops > 0
        assert list(tmp_path.rglob("*.json")) == []
        assert list(tmp_path.rglob(".tmp-*")) == []
        monkeypatch.undo()
        assert ResultStore(cache_dir=str(tmp_path)).get(*args) == r
        assert len(list(tmp_path.rglob("*.json"))) == 1

    def test_no_cache_dir_means_memory_only(self):
        s = ResultStore(cache_dir=None)
        assert s.cache_dir is None
        r = s.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        assert r.mflops > 0

    def test_starred_flag_round_trips(self, tmp_path):
        s1 = ResultStore(cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "isamax", "ATLAS")
        assert r1.starred
        s2 = ResultStore(cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "isamax", "ATLAS")
        assert r2.starred and r2.display_kernel == "isamax*"


class TestModifiedMachine:
    """A config that keeps a registry name is its own machine: neither
    the in-memory rows nor the disk rows may answer it with the
    registry machine's result."""

    @staticmethod
    def _slow():
        import dataclasses
        p4e = pentium4e()
        return dataclasses.replace(p4e, bus_bpc=p4e.bus_bpc / 4)

    ARGS = (Context.OUT_OF_CACHE, "ddot", "FKO")

    def test_memory_rows_keep_it_apart(self):
        fresh = ResultStore().get(self._slow(), *self.ARGS)
        store = ResultStore()
        registry = store.get(pentium4e(), *self.ARGS)
        assert store.get(self._slow(), *self.ARGS).cycles == fresh.cycles
        assert fresh.cycles != registry.cycles

    def test_disk_rows_keep_it_apart(self, tmp_path):
        fresh = ResultStore().get(self._slow(), *self.ARGS)
        ResultStore(cache_dir=str(tmp_path)).get(
            pentium4e(), *self.ARGS)
        again = ResultStore(cache_dir=str(tmp_path))
        assert again.get(self._slow(), *self.ARGS).cycles == fresh.cycles
        assert len(list((tmp_path / "rows").glob("*/*.json"))) == 2
