"""One FKO and one Timer per machine: the engine's tool cache identifies
a machine by its whole config, and the experiment store compiles and
times all six methods of a row on the session's pair."""

from __future__ import annotations

import dataclasses

import pytest

import repro.fko
import repro.timing.timer
from repro.atlas import atlas_search
from repro.experiments.store import METHODS, ResultStore
from repro.kernels import get_kernel
from repro.machine import Context, get_machine
from repro.refcomp import Gcc
from repro.search import TuneConfig, TuningSession

OOC = Context.OUT_OF_CACHE
N = 80000

#: the ddot / P4E / out-of-cache row of Figure 2, as recorded before
#: the methods shared their tools
DDOT_P4E_OOC = {"gcc+ref": 1117311.6652677378, "icc+ref": 558082.903686111,
                "icc+prof": 558584.0204313429, "ATLAS": 558103.3151894907,
                "FKO": 838256.2444044146, "ifko": 558176.2317189573}
#: ddot on a P4E with a quarter of its bus bandwidth, FKO defaults
SLOW_BUS_FKO = 2226867.6819635327


@pytest.fixture(scope="module")
def slow_bus():
    p4e = get_machine("p4e")
    return dataclasses.replace(p4e, bus_bpc=p4e.bus_bpc / 4)


def _config(**kw):
    return TuneConfig(run_tester=False, **kw)


def test_modified_machine_is_not_its_registry_namesake(slow_bus):
    """A config that reuses a registry name gets its own tools: timed
    after the registry P4E in one session, it reads as in a fresh one."""
    with TuningSession(_config()) as session:
        session.compile_default("ddot", "p4e", OOC, N)
        after = session.compile_default("ddot", slow_bus, OOC, N)
    with TuningSession(_config()) as session:
        fresh = session.compile_default("ddot", slow_bus, OOC, N)
    assert after.timing.cycles == fresh.timing.cycles == SLOW_BUS_FKO


def test_pool_workers_time_the_given_machine(slow_bus):
    """The pool payload carries the config, not just its name, so
    within-sweep fan-out keeps jobs=1 == jobs=N for a custom machine."""
    best = {}
    for jobs in (1, 2):
        with TuningSession(_config(jobs=jobs, max_evals=12,
                                   batch_size=4)) as session:
            best[jobs] = session.tune("ddot", slow_bus, OOC, N) \
                .search.best_cycles
    assert best[1] == best[2] == SLOW_BUS_FKO


def test_one_row_builds_one_fko_and_one_timer(monkeypatch):
    built = {"fko": 0, "timer": 0}

    def counting(cls, key):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", __init__)
    counting(repro.fko.FKO, "fko")
    counting(repro.timing.timer.Timer, "timer")

    store = ResultStore(quick=False, jobs=1)
    row = store.row(get_machine("p4e"), OOC, "ddot")
    assert {m: row[m].cycles for m in METHODS} == DDOT_P4E_OOC
    assert built == {"fko": 1, "timer": 1}


def test_standalone_callers_need_no_tools(p4e):
    spec = get_kernel("ddot")
    assert Gcc().build(spec, p4e, OOC, N).timing.cycles \
        == DDOT_P4E_OOC["gcc+ref"]
    assert atlas_search(spec, p4e, OOC, N, run_tester=False).timing.cycles \
        == DDOT_P4E_OOC["ATLAS"]
