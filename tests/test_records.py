"""One robustness matrix over every store that persists JSON.

The eval cache, the serve result store, the experiment rows, the
warm-start entries and the batch checkpoint all read and write through
``repro.records``.  Each test below is one row of the matrix and runs
against all five views, through each view's own key function and
validation:

* a record round-trips;
* an absent record is a miss;
* a truncated, non-JSON or wrong-shape record is a miss, never raised;
* a record written by another code version is a miss;
* a write the disk refuses raises nothing (the store stays cold) and
  leaves no temp file — except the offline warm-entry builder, which
  fails loudly;
* two processes writing the same record concurrently leave a record
  that parses.

The tests after the matrix pin the one key helper the keyed stores
share, and check that records keyed before it read as misses.
"""

import multiprocessing
import os
import sys
import tempfile

import pytest

import repro
from repro.experiments.store import MethodResult, ResultStore
from repro.fko import TransformParams
from repro.machine import Context
from repro.records import (RecordStore, canonical_digest, read_json,
                           write_json)
from repro.search import (EvalCache, TuneConfig, TuningSession, eval_key,
                          load_entries, write_warm_entry)
from repro.search import engine as engine_mod
from repro.service import ServeResultStore, TuneRequest, TuneResponse

N = 4000
WRITES = 1000     # per process, in the concurrent-writer row


class EvalView:
    """Evaluation digest -> cycles."""

    loud = False

    def _key(self):
        return eval_key("hil", "p4e", Context.OUT_OF_CACHE, N, ("k",),
                        engine_mod.__version__)

    def write(self, root):
        EvalCache(root).put(self._key(), 7.0, meta={"kernel": "ddot"})
        return 7.0

    def read(self, root):
        return EvalCache(root).get(self._key())


def _request():
    return TuneRequest(kernel="ddot", machine="p4e",
                       context=Context.OUT_OF_CACHE, n=N, test=False)


class ServeView:
    """Request digest -> TuneResponse."""

    loud = False

    def write(self, root):
        digest = _request().digest()
        response = TuneResponse(digest=digest, job_id="j-1",
                                status="done", stats={"evaluations": 3})
        ServeResultStore(root).put(digest, response)
        return response.to_dict()

    def read(self, root):
        response = ServeResultStore(root).get(_request().digest())
        return response.to_dict() if response is not None else None


class RowsView:
    """(version, machine, context, N, kernel, method, strategy, seed)
    -> MethodResult."""

    loud = False
    KEY = ("p4e", Context.IN_L2, "sscal", "gcc+ref")
    ROW = MethodResult("gcc+ref", "sscal", 1234.5, 678.0, label="-O2")

    def write(self, root):
        ResultStore(cache_dir=str(root))._save_disk(self.KEY, self.ROW)
        return self.ROW

    def read(self, root):
        return ResultStore(cache_dir=str(root))._load_disk(self.KEY)


class WarmView:
    """The warm-start entry of one problem, found by the directory
    scan under the current code version's request digest."""

    loud = True

    def write(self, root):
        write_warm_entry(root, kernel="ddot", machine="p4e",
                         context=Context.OUT_OF_CACHE, n=N,
                         params=TransformParams(), cycles=7.0)
        return ("ddot", "p4e", N, TransformParams().key(), 7.0)

    def read(self, root):
        name = f"{_request().digest()}.json"
        for e in load_entries(root):
            if e.source == name:
                return (e.kernel, e.machine, e.n, e.params.key(), e.cycles)
        return None


class CheckpointView:
    """One batch-checkpoint file: job key -> completed result."""

    loud = False
    COMPLETED = {"ddot:p4e:out-of-cache:4000": {"kernel": "ddot"}}

    def _session(self, root):
        return TuningSession(TuneConfig(resume=str(root / "batch.json"),
                                        run_tester=False))

    def write(self, root):
        self._session(root)._save_checkpoint(self.COMPLETED)
        return self.COMPLETED

    def read(self, root):
        return self._session(root)._load_checkpoint() or None


VIEWS = {"eval": EvalView(), "serve": ServeView(), "rows": RowsView(),
         "warm": WarmView(), "checkpoint": CheckpointView()}


@pytest.fixture(params=sorted(VIEWS))
def view(request):
    return VIEWS[request.param]


def _record_files(root):
    return sorted(root.rglob("*.json"))


def _temp_files(root):
    return sorted(root.rglob(".tmp-*"))


def _bump_version(monkeypatch):
    """Every module's view of the code version becomes another one."""
    current = repro.__version__
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "__version__", None) == current):
            monkeypatch.setattr(module, "__version__", "0.0.0-other")


def test_round_trip(view, tmp_path):
    expected = view.write(tmp_path)
    assert len(_record_files(tmp_path)) == 1
    assert view.read(tmp_path) == expected


def test_absent_is_miss(view, tmp_path):
    assert view.read(tmp_path) is None


def _truncate(path):
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


DAMAGE = {
    "truncated": _truncate,
    "empty": lambda p: p.write_bytes(b""),
    "non-json": lambda p: p.write_bytes(b"\x00\xff{not json"),
    "list": lambda p: p.write_text("[1, 2]"),
    "null": lambda p: p.write_text("null"),
    "empty-object": lambda p: p.write_text("{}"),
    # every field any view reads, present with the wrong type
    "wrong-types": lambda p: p.write_text(
        '{"version": "%s", "completed": [1], "cycles": [], '
        '"method": [], "kernel": [], "mflops": [], "digest": [], '
        '"result": [], "schema": []}' % repro.__version__),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_record_is_miss(view, tmp_path, damage):
    view.write(tmp_path)
    for path in _record_files(tmp_path):
        DAMAGE[damage](path)
    assert view.read(tmp_path) is None


def test_other_version_is_miss(view, tmp_path, monkeypatch):
    view.write(tmp_path)
    _bump_version(monkeypatch)
    assert view.read(tmp_path) is None


def _refuse(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fault", ["os.replace", "tempfile.mkstemp"])
def test_refused_write(view, tmp_path, monkeypatch, fault):
    module, name = fault.split(".")
    monkeypatch.setattr({"os": os, "tempfile": tempfile}[module], name,
                        _refuse)
    if view.loud:
        with pytest.raises(OSError):
            view.write(tmp_path)
    else:
        view.write(tmp_path)
    monkeypatch.undo()
    assert _temp_files(tmp_path) == []
    assert view.read(tmp_path) is None


def _hammer(view, root, start):
    start.wait(timeout=60)
    for _ in range(WRITES):
        view.write(root)     # an exception exits the process non-zero


def test_concurrent_writers(view, tmp_path):
    expected = view.write(tmp_path)
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(2)       # both writers start their loops together
    procs = [ctx.Process(target=_hammer, args=(view, tmp_path, start))
             for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    hung = [p for p in procs if p.is_alive()]
    for p in hung:
        p.kill()
    assert not hung
    assert [p.exitcode for p in procs] == [0, 0]
    assert view.read(tmp_path) == expected
    assert len(_record_files(tmp_path)) == 1
    assert _temp_files(tmp_path) == []


# ---------------------------------------------------------------------------
# the record module itself

class TestRecordStore:
    def test_layout_is_digest_sharded(self, tmp_path):
        store = RecordStore(tmp_path)
        assert store.put("ab" * 32, {"x": 1})
        assert (tmp_path / "ab" / f"{'ab' * 32}.json").is_file()
        assert store.get("ab" * 32) == {"x": 1}
        assert len(store) == 1

    def test_records_are_sorted_and_skip_unreadable(self, tmp_path):
        store = RecordStore(tmp_path)
        for digest in ("cc" * 32, "aa" * 32, "bb" * 32):
            store.put(digest, {"d": digest})
        store.path("bb" * 32).write_text("{torn")
        assert [data["d"] for _, data in store.records()] == ["aa" * 32,
                                                              "cc" * 32]

    def test_missing_root_reads_empty_and_is_not_created(self, tmp_path):
        store = RecordStore(tmp_path / "absent")
        assert store.get("ab" * 32) is None
        assert list(store.records()) == [] and len(store) == 0
        assert not (tmp_path / "absent").exists()

    def test_write_under_a_file_returns_false(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert write_json(blocker / "x.json", {"a": 1}) is False
        assert read_json(blocker / "x.json") is None

    def test_read_json_of_a_directory_is_none(self, tmp_path):
        assert read_json(tmp_path) is None


# ---------------------------------------------------------------------------
# one key helper for the three keyed stores, and records keyed before it

#: the modules whose key functions name stored records
KEYED = ("repro.search.evalcache", "repro.service.schema",
         "repro.experiments.store")


def test_canonical_digest_is_sha256_of_sorted_json():
    import hashlib
    want = hashlib.sha256(b'{"a": [1, 2], "b": "x"}').hexdigest()
    assert canonical_digest({"b": "x", "a": (1, 2)}) == want


def test_every_store_keys_through_the_helper(monkeypatch):
    """The eval cache, the serve store and the experiment rows hash
    nothing themselves: each key is the helper's answer for the spec."""
    import importlib
    import inspect
    specs = []

    def fake(obj):
        specs.append(obj)
        return f"key-{len(specs)}"

    for name in KEYED:
        module = importlib.import_module(name)
        assert module.canonical_digest is canonical_digest
        assert "hashlib" not in inspect.getsource(module)
        monkeypatch.setattr(module, "canonical_digest", fake)
    version = repro.__version__
    assert eval_key("hil", "p4e", Context.OUT_OF_CACHE, N, ("k",),
                    version) == "key-1"
    assert _request().digest() == "key-2"
    assert ResultStore()._row_key(RowsView.KEY) == "key-3"
    assert specs == [
        {"hil": "hil", "machine": "p4e", "context": "out-of-cache",
         "n": N, "params": ("k",), "v": version},
        {"v": version, **_request().canonical()},
        [version, "p4e", Context.IN_L2.value, 1024, "sscal", "gcc+ref",
         "line", 0]]


def _old_eval_key(hil, machine, context, n, params_key, version):
    """The eval key before the shared helper: SHA-256 over a repr."""
    import hashlib
    hil_hash = hashlib.sha256(hil.encode()).hexdigest()
    blob = repr((hil_hash, machine, context.value, int(n), params_key,
                 version))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_old_format_eval_cache_reads_as_counted_misses(tmp_path,
                                                        monkeypatch):
    cfg = TuneConfig(max_evals=6, run_tester=False,
                     cache_dir=str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "eval_key",
                  lambda hil, machine, ctx, n, key, version: _old_eval_key(
                      hil, "P4E", ctx, n, key, "1.1.0"))
        with TuningSession(cfg) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
    assert len(EvalCache(str(tmp_path))) == 6
    with TuningSession(cfg) as s:
        s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert (s.stats.cache_hits, s.stats.evaluations) == (0, 6)
    assert len(EvalCache(str(tmp_path))) == 12


def test_old_serve_record_lists_and_seeds_warm_start(tmp_path):
    """A record stored under the pre-helper request digest, whose
    request still carries ``fast_timing``: listed, a warm-start seed,
    and a plain miss for the same request today."""
    import hashlib
    import json
    from repro.search import lookup_warm_start
    from repro.service.jobs import JobManager
    request = TuneRequest(kernel="ddot", n=1000, budget=3, test=False)
    with JobManager(TuneConfig(run_tester=False),
                    results_dir=str(tmp_path)) as manager:
        manager.run_inline(request)
    (path,) = _record_files(tmp_path)
    record = read_json(path)
    old_request = {**request.canonical(), "fast_timing": True}
    old = hashlib.sha256(json.dumps({"v": "1.1.0", **old_request},
                                    sort_keys=True).encode()).hexdigest()
    path.unlink()
    store = ServeResultStore(tmp_path)
    store.put(old, TuneResponse.from_dict({**record, "digest": old}))
    write_json(store.path(old), {**read_json(store.path(old)),
                                 "request": {"schema": 1, **old_request}})
    assert TuneRequest.from_dict(read_json(store.path(old))["request"]) \
        == request
    with JobManager(TuneConfig(run_tester=False),
                    results_dir=str(tmp_path)) as manager:
        assert [r["digest"] for r in manager.results()] == [old]
        job, how = manager.submit(request)
        assert how == "new"
    params, nearest = lookup_warm_start(tmp_path, "ddot", "p4e",
                                        "out-of-cache", 1000)
    assert [p.key() for p in params] == [
        TransformParams.from_dict(record["result"]["params"]).key()]
    assert nearest == "ddot:p4e:out-of-cache:1000"
