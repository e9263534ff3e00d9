"""Extract a timing-model summary from a compiled kernel.

The timing model does not interpret instructions one by one over 80 000
elements (the functional interpreter does that, on small N, for the
*tester*).  Instead it consumes a :class:`LoopSummary`: the steady-state
loop body instruction mix (with per-block execution weights for bodies
with internal control flow), the per-trip stream behaviour of every
array, and the prefetch schedule.  This mirrors how one reasons about
streaming kernels on real hardware — per-iteration issue/port/dependence
bounds plus per-line memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import MachineError
from ..ir import Function, Instruction, Mem, Opcode, PrefetchHint, VReg
from ..ir.operands import is_reg


@dataclass
class StreamInfo:
    """Per-array stream behaviour within one loop trip."""

    array: str
    elem_size: int
    elems_per_trip: int
    reads: bool = False
    writes: bool = False
    nontemporal: bool = False
    prefetch_hint: Optional[PrefetchHint] = None
    prefetch_dist: int = 0        # bytes ahead of the current pointer
    n_prefetches: int = 0         # prefetch instructions per trip

    @property
    def bytes_per_trip(self) -> int:
        return self.elem_size * self.elems_per_trip


@dataclass
class LoopSummary:
    fn: Function
    elems_per_trip: int                       # source elements per trip
    body: List[Tuple[Instruction, float]]     # (instr, execution weight)
    streams: Dict[str, StreamInfo]
    prologue_uop_estimate: int
    cleanup: List[Tuple[Instruction, float]] = field(default_factory=list)
    rare_weight: float = 0.01
    # block-fetch style hand optimizations batch the bus traffic more
    # deeply than the machine's default write buffers (AMD's "block
    # prefetch" technique, section 3.3 / [14])
    write_batch_override: Optional[int] = None
    # per-machine memo for the resolved cycles-per-trip bounds (owned by
    # repro.machine.timing; a summary's body never changes once built)
    _cpi_cache: Dict[Tuple[str, str], float] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def has_loop(self) -> bool:
        return self.elems_per_trip > 0


#: a body with more path prefixes from its entry than this is weighted
#: as if every block ran on every trip (``_block_weights``)
_PATH_PREFIX_CAP = 4096


def _block_weights(fn: Function, body_names: List[str], latch: str,
                   rare_weight: float) -> Dict[str, float]:
    """Weight 1.0 for blocks on *every* path body-entry -> latch, a small
    weight for conditionally-executed blocks (e.g. iamax's NEWMAX, which
    fires O(log N) times on random data).

    The body is taken without the latch's out-edges (so without the back
    edge) and restricted to the body blocks plus the latch, which makes
    it a DAG.  One pass in topological order then gives both answers:
    a block is on every entry -> latch path iff it dominates the latch,
    and the number of path prefixes from the entry (capped) says whether
    the body is too branchy to weight: above ``_PATH_PREFIX_CAP``
    prefixes, every block is weighted 1.0.  So is a body the latch is
    unreachable in, and a body with an internal cycle, which is no
    streaming loop the timing model prices."""
    if not body_names:
        return {}
    entry = body_names[0]
    members = set(body_names) | {latch}
    succ_map = fn.successor_map()
    succs = {name: ([] if name == latch else
                    [s for s in succ_map.get(name, ()) if s in members])
             for name in members}

    # Kahn's algorithm over the blocks reachable from the entry
    reach = {entry}
    work = [entry]
    while work:
        for s in succs[work.pop()]:
            if s not in reach:
                reach.add(s)
                work.append(s)
    preds: Dict[str, List[str]] = {name: [] for name in reach}
    for name in reach:
        for s in succs[name]:
            preds[s].append(name)
    indeg = {name: len(preds[name]) for name in reach}
    order: List[str] = []
    ready = [entry] if indeg[entry] == 0 else []
    while ready:
        name = ready.pop()
        order.append(name)
        for s in succs[name]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)

    always = set(body_names)
    if len(order) == len(reach) and latch in reach:
        # dominators and capped path-prefix counts, in one forward pass
        dom: Dict[str, frozenset] = {}
        paths: Dict[str, int] = dict.fromkeys(order, 0)
        paths[entry] = 1
        prefixes = 0
        for name in order:
            ps = preds[name]
            dom[name] = (frozenset.intersection(*(dom[p] for p in ps))
                         if ps else frozenset()) | {name}
            prefixes = min(prefixes + paths[name], _PATH_PREFIX_CAP + 1)
            for s in succs[name]:
                paths[s] = min(paths[s] + paths[name], _PATH_PREFIX_CAP + 1)
        if prefixes <= _PATH_PREFIX_CAP:
            always = dom[latch]

    return {name: 1.0 if name in always else rare_weight
            for name in body_names}


def summarize(fn: Function, rare_weight: float = 0.01) -> LoopSummary:
    """Build the timing summary for a compiled kernel function.

    The summary is memoized on the function object: compiled functions
    are never structurally mutated afterwards, and every consumer of a
    candidate (timer, store, diagnostics) wants the same summary."""
    memo = getattr(fn, "_summary_memo", None)
    if memo is not None and memo[0] == rare_weight:
        return memo[1]
    summary = _summarize(fn, rare_weight)
    try:
        fn._summary_memo = (rare_weight, summary)
    except AttributeError:
        pass
    return summary


def _summarize(fn: Function, rare_weight: float) -> LoopSummary:
    loop = fn.loop
    if loop is None:
        return LoopSummary(fn, 0, [], {},
                           prologue_uop_estimate=fn.n_instructions())

    blocks = {blk.name: blk for blk in fn.blocks}
    weights = _block_weights(fn, loop.body, loop.latch, rare_weight)
    body: List[Tuple[Instruction, float]] = []
    # header + latch execute once per trip
    if loop.header in blocks and loop.header not in loop.body:
        body.extend((instr, 1.0) for instr in blocks[loop.header].instrs)
    for name in loop.body:
        w = weights.get(name, 1.0)
        body.extend((instr, w) for instr in blocks[name].instrs)
    body.extend((instr, 1.0) for instr in blocks[loop.latch].instrs)

    # streams
    epi = loop.elems_per_iter * abs(loop.step)
    streams: Dict[str, StreamInfo] = {}

    def stream(arr: str, esize: int) -> StreamInfo:
        if arr not in streams:
            inc = loop.ptr_incs.get(arr, 1)
            streams[arr] = StreamInfo(arr, esize, max(1, abs(inc)) * epi)
        return streams[arr]

    def scalar_size(dtype) -> int:
        # a vector access moves several scalar elements; streams count
        # *source* elements so elems_per_trip stays in scalar units
        return dtype.elem.size if hasattr(dtype, "elem") else dtype.size

    for instr, w in body:
        if w < 0.5:
            continue
        mem = instr.mem
        if mem is None or mem.array is None:
            continue
        if instr.op is Opcode.PREFETCH:
            s = stream(mem.array, scalar_size(mem.dtype))
            s.n_prefetches += 1
            s.prefetch_hint = instr.hint
            if s.prefetch_dist == 0 or mem.disp < s.prefetch_dist:
                s.prefetch_dist = mem.disp
            continue
        s = stream(mem.array, scalar_size(mem.dtype))
        if instr.is_store:
            s.writes = True
            if instr.is_nontemporal:
                s.nontemporal = True
        else:
            s.reads = True

    # prologue: everything before the loop preheader, roughly
    pro = 0
    loop_blocks = set(loop.body) | {loop.header, loop.latch}
    for blk in fn.blocks:
        if blk.name not in loop_blocks:
            pro += len(blk.instrs)

    # cleanup loop (remainder iterations), tagged by the transforms
    cleanup: List[Tuple[Instruction, float]] = [
        (instr, 1.0)
        for name in getattr(loop, "cleanup_body", []) or []
        if name in blocks for instr in blocks[name].instrs]

    summary = LoopSummary(fn, epi, body, streams,
                          prologue_uop_estimate=pro, cleanup=cleanup,
                          rare_weight=rare_weight)
    if getattr(loop, "block_fetch", False):
        summary.write_batch_override = 16
    return summary
