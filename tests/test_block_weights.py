"""Loop-body block weights: the dominator computation in
``loopinfo._block_weights`` against the simple-path enumeration it
replaced, kept here as the reference.

The reference walks every simple path body-entry -> latch depth first,
weights 1.0 exactly the blocks on all of them, and gives up after 4096
pops (one pop per simple-path prefix), weighting every block 1.0.  The
new code must reproduce both answers bit for bit: the weights of every
body, and which bodies trip that guard."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.fko import FKO, TransformParams
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import loopinfo, opteron, pentium4e

RARE = 0.01


def _reference(fn, body_names: List[str], latch: str,
               rare_weight: float) -> Tuple[Dict[str, float], bool]:
    """The enumeration, as it stood: ``(weights, guard tripped)``."""
    entry = body_names[0]
    members = set(body_names) | {latch}
    always: Optional[set] = None
    stack: List[Tuple[str, frozenset]] = [(entry, frozenset([entry]))]
    guard = 0
    tripped = False
    while stack:
        guard += 1
        if guard > 4096:
            always = set(body_names)
            tripped = True
            break
        cur, path = stack.pop()
        if cur == latch:
            always = set(path) if always is None else (always & set(path))
            continue
        for s in fn.successors(fn.block(cur)):
            if s in members and s not in path:
                stack.append((s, path | {s}))
    if always is None:
        always = set(body_names)
    return ({name: 1.0 if name in always else rare_weight
             for name in body_names}, tripped)


def _grid():
    """Every Table-1 kernel on both machines over an SV x UR x AE x WNT
    slice, plus the iamax unrolls on either side of the guard (unroll 9
    has 2,556 path prefixes, unroll 10 has 5,116)."""
    for mach in (pentium4e(), opteron()):
        fko = FKO(mach)
        for kernel in KERNEL_ORDER:
            unrolls = (1, 2, 4, 8, 16, 32)
            if get_kernel(kernel).base == "amax":
                unrolls += (9, 10)
            for sv, ur, ae, wnt in itertools.product(
                    (False, True), unrolls, (1, 4), (False, True)):
                params = TransformParams(sv=sv, unroll=ur, ae=ae, wnt=wnt)
                yield (f"{mach.name}/{kernel}/{params.describe()}",
                       fko.compile(get_kernel(kernel).hil, params).fn)


def test_dominator_weights_equal_enumeration_on_compile_grid():
    bodies = trips = 0
    for label, fn in _grid():
        loop = fn.loop
        want, tripped = _reference(fn, loop.body, loop.latch, RARE)
        got = loopinfo._block_weights(fn, loop.body, loop.latch, RARE)
        assert got == want, label
        bodies += 1
        trips += tripped
    # the grid must exercise both sides of the guard
    assert bodies == 1408
    assert trips == 96


# ---------------------------------------------------------------------------
# hand-built bodies: the exact guard boundary, and cycles

class _CFG:
    """Just enough of ``Function`` for both implementations."""

    def __init__(self, edges: Dict[str, List[str]]):
        self.edges = edges

    def successor_map(self) -> Dict[str, List[str]]:
        return {name: list(succs) for name, succs in self.edges.items()}

    def block(self, name: str) -> str:
        return name

    def successors(self, name: str) -> List[str]:
        return list(self.edges[name])


def _diamonds(n_diamonds: int, tail: int,
              dead_ends: int) -> Tuple[_CFG, List[str]]:
    """``n_diamonds`` if/else diamonds in a row, then a straight tail of
    ``tail`` blocks, then the latch (whose back edge goes to the
    entry); the entry also branches to ``dead_ends`` blocks that never
    reach the latch.  Returns the CFG and the body's block names."""
    edges: Dict[str, List[str]] = {}
    body = ["d0"]
    for i in range(n_diamonds):
        edges[f"d{i}"] = [f"a{i}", f"b{i}"]
        edges[f"a{i}"] = [f"d{i + 1}"]
        edges[f"b{i}"] = [f"d{i + 1}"]
        body += [f"a{i}", f"b{i}", f"d{i + 1}"]
    last = f"d{n_diamonds}"
    for j in range(tail):
        edges[last] = [f"t{j}"]
        last = f"t{j}"
        body.append(last)
    edges[last] = ["latch"]
    for k in range(dead_ends):
        edges["d0"].append(f"x{k}")
        edges[f"x{k}"] = []
        body.append(f"x{k}")
    edges["latch"] = ["d0", "exit"]
    edges["exit"] = []
    return _CFG(edges), body


def test_guard_boundary_is_exact():
    """Nine diamonds, a tail of three and the latch have 4,093 path
    prefixes; each dead end off the entry adds one, so the guard's
    4,096 pops are reached at three dead ends and exceeded at four."""
    for dead_ends in range(2, 6):
        cfg, body = _diamonds(9, 3, dead_ends)
        want, tripped = _reference(cfg, body, "latch", RARE)
        assert tripped == (dead_ends >= 4)
        assert loopinfo._block_weights(cfg, body, "latch", RARE) == want
        if not tripped:
            # diamond arms and dead ends are rare, joins and tail are not
            assert want["a3"] == want["x0"] == RARE
            assert want["d7"] == want["t2"] == 1.0


def test_unreachable_latch_weights_everything():
    cfg = _CFG({"e": ["x"], "x": [], "latch": ["e"]})
    want, _ = _reference(cfg, ["e", "x"], "latch", RARE)
    assert want == {"e": 1.0, "x": 1.0}
    assert loopinfo._block_weights(cfg, ["e", "x"], "latch", RARE) == want


def test_internal_cycle_weights_everything():
    """A body with an internal loop (c1 <-> c2) is no streaming loop:
    every block is weighted 1.0, as on a guard trip.  (The enumeration
    would have weighted the cycle's side block as rare.)"""
    cfg = _CFG({"e": ["c1"], "c1": ["c2", "latch"], "c2": ["c1", "s"],
                "s": ["c1"], "latch": ["e"]})
    body = ["e", "c1", "c2", "s"]
    assert loopinfo._block_weights(cfg, body, "latch", RARE) == {
        name: 1.0 for name in body}
    assert _reference(cfg, body, "latch", RARE)[0]["s"] == RARE


def test_latch_as_entry():
    cfg = _CFG({"latch": ["latch"], "x": ["latch"]})
    want, _ = _reference(cfg, ["latch", "x"], "latch", RARE)
    assert loopinfo._block_weights(cfg, ["latch", "x"], "latch",
                                   RARE) == want == {"latch": 1.0,
                                                     "x": RARE}
