"""The collector: hierarchical spans and monotonic counters.

One :class:`Collector` records everything one observed unit of work
(typically a single compile+time evaluation) produced:

* **pass records** — the FKO pipeline opens a :class:`PassSpan` around
  every transform pass it executes; the span captures wall time,
  applied/no-op status, the IR deltas the pass caused (instruction
  count, basic blocks, virtual-register pressure) and any detail
  counters the transform bumped while it ran;
* **counters** — monotonic named counts (``obs.count("spill_loads", n)``
  from inside a transform); counter *deltas* over a pass are folded
  into that pass's record, so each transform's fine-grained numbers
  land next to its wall time.

Instrumented code never holds a collector; it asks :func:`active` for
the installed one and does nothing when there is none.  That makes the
whole subsystem inert when disabled: the per-pass cost is one module
global read and a ``None`` check, and no snapshotting, timing or
allocation happens.  Installation is explicit and scoped::

    with obs.use(Collector()) as col:
        compiled = fko.compile(hil, params)
    col.passes   # -> one record per executed pipeline pass

Nothing here is thread-local by design: the engine observes inside
worker *processes* (or the serial parent), never from two threads of
one interpreter, and a plain module global keeps the disabled-mode
check as cheap as Python allows.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from .irstats import IRSnapshot, ir_snapshot

_ACTIVE: Optional["Collector"] = None

_NO_IR = IRSnapshot(0, 0, 0)


def active() -> Optional["Collector"]:
    """The installed collector, or None when observation is disabled."""
    return _ACTIVE


@contextmanager
def use(collector: "Collector"):
    """Install ``collector`` for the duration of the block (re-entrant:
    the previous collector, if any, is restored on exit)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = prev


def count(name: str, by: int = 1) -> None:
    """Bump a monotonic counter on the active collector (no-op when
    observation is disabled — this is the one-liner transforms use)."""
    col = _ACTIVE
    if col is not None:
        col.counters[name] = col.counters.get(name, 0) + by


class Collector:
    """Accumulates one observed unit of work.  See the module docstring."""

    __slots__ = ("passes", "counters")

    def __init__(self):
        self.passes: List[Dict] = []
        self.counters: Dict[str, float] = {}

    # -- counters -------------------------------------------------------
    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    # -- pass spans -----------------------------------------------------
    def pass_span(self, name: str, fn=None) -> "PassSpan":
        """Open a span around one transform pass over ``fn``.  Passing
        ``fn=None`` records a span with zero IR stats — for work that
        happens before any IR exists (e.g. source-level tiling)."""
        return PassSpan(self, name, fn)


class PassSpan:
    """Context manager recording one transform pass.

    Captures wall time, the IR stats delta (instructions, blocks, vreg
    pressure) and the detail-counter delta accumulated while the pass
    ran.  ``applied`` defaults to True; the pipeline overrides it for
    passes that report a no-op.
    """

    __slots__ = ("col", "name", "fn", "applied",
                 "_before", "_counters0", "_t0")

    def __init__(self, col: Collector, name: str, fn):
        self.col = col
        self.name = name
        self.fn = fn
        self.applied = True

    def __enter__(self) -> "PassSpan":
        self._before = _NO_IR if self.fn is None else ir_snapshot(self.fn)
        self._counters0 = dict(self.col.counters)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = perf_counter() - self._t0
        after = _NO_IR if self.fn is None else ir_snapshot(self.fn)
        before = self._before
        base = self._counters0
        detail = {k: v - base.get(k, 0)
                  for k, v in self.col.counters.items()
                  if v != base.get(k, 0)}
        self.col.passes.append({
            "pass": self.name,
            "wall": wall,
            "applied": bool(self.applied) and exc_type is None,
            "instrs": after.instrs,
            "blocks": after.blocks,
            "vregs": after.vregs,
            "d_instrs": after.instrs - before.instrs,
            "d_blocks": after.blocks - before.blocks,
            "d_vregs": after.vregs - before.vregs,
            "detail": detail,
        })
        return False
