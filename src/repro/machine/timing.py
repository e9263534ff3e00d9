"""Cycle-approximate timing model for streaming loop kernels.

Two coupled components:

1. **Steady-state CPU bound** (:func:`cpu_cycles_per_trip`): the loop
   body's cycles per trip is the max of
   - the front-end issue bound (uops / issue width, throttled when the
     body exceeds the machine's decode budget — the P4E trace cache
     effect that caps useful unrolling),
   - per-execution-unit throughput bounds (loads, stores, FP add, FP
     mul, integer, branch),
   - the loop-carried dependence bound: floating point accumulators
     form ``adds_per_trip x latency`` recurrence chains, divided across
     the accumulators that accumulator expansion (AE) created.

2. **Line-granular memory simulation** (:class:`LoopTimer`): walks the
   arrays' cache lines through a model of L1/L2, a finite-bandwidth
   memory bus with read/write turnaround penalties, a hardware stream
   prefetcher, and software prefetch that is **dropped when the bus is
   busy** (section 2.2.3: "many architectures discard prefetches when
   they are issued while the bus is busy").  Non-temporal stores follow
   the per-machine policies of :mod:`repro.machine.config`.

The per-line walk is phrased in a *relative* time frame: each line is a
pure step function of the relative machine state (ready-window offsets,
bus backlog, hardware-prefetch streak, page phase) that returns the
cycle delta the line cost.  Out of cache the loop streams over
homogeneous lines, so that state reaches an exactly periodic orbit
after a short warmup; the timer detects the period by hashing the
relative state at page-phase-0 lines, and **replays** the logged deltas
of one period for the rest of the array (:func:`_replay_sum`) —
performing bit-identical float additions, so the fast path equals the
full walk exactly (``fast=False`` forces the full walk).  In L2 every
line is walked: at N=1024 the orbit is rarely reached before the array
ends, so probing cost more than it saved (see DESIGN.md section 9).

The result is ``cycles`` for one kernel invocation; the timer layer
converts to seconds/MFLOPS.  Absolute numbers are model numbers — the
reproduction targets *relative* behaviour (see DESIGN.md section 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir import Instruction, Mem, Opcode, PrefetchHint
from ..ir.operands import is_reg
from .config import MachineConfig, get_machine
from .loopinfo import LoopSummary, StreamInfo

#: stop looking for a steady state after this many distinct state
#: signatures (bounds probe memory; the walk then continues plain)
_PROBE_CAP = 2048
#: arrays shorter than this are walked in full — nothing to extrapolate
_FAST_MIN_LINES = 16


def _replay_sum(init: float, deltas: List[float], full: int) -> float:
    """``init + d0 + d1 + ...`` over ``full`` repetitions of ``deltas``,
    summed strictly left to right — the identical float additions, in
    the identical order, a per-line replay loop would perform — but
    vectorized through ``np.cumsum`` (whose accumulation is sequential,
    unlike ``np.add.reduce``'s pairwise tree).  Bit-identity between the
    fast path and the full walk rests on this."""
    arr = np.empty(len(deltas) * full + 1)
    arr[0] = init
    arr[1:] = np.tile(deltas, full)
    return float(np.cumsum(arr)[-1])


class Context(enum.Enum):
    """Operand residency context (the paper times both)."""

    OUT_OF_CACHE = "out-of-cache"   # N = 80000, cold caches
    IN_L2 = "in-L2-cache"           # N = 1024, operands resident in L2

    def __str__(self) -> str:
        return self.value


def parse_context(value) -> Context:
    """Canonicalize a context spelling: a :class:`Context`, its value
    ("out-of-cache", "in-L2-cache", any case) or a short form ("oc",
    "ic", "in-l2", ...).  Every layer that accepts a context spells it
    through here."""
    if isinstance(value, Context):
        return value
    v = str(value).lower()
    if v in ("oc", "ooc", "out", "out-of-cache"):
        return Context.OUT_OF_CACHE
    if v in ("ic", "inl2", "in-l2", "in-cache", "in-l2-cache"):
        return Context.IN_L2
    raise ValueError(f"unknown context {value!r}")


@dataclass
class TimingStats:
    cpu_cycles: float = 0.0
    stall_cycles: float = 0.0
    bus_busy_cycles: float = 0.0
    prefetch_issued: int = 0
    prefetch_dropped: int = 0
    prefetch_wasted: int = 0
    demand_misses: int = 0
    hw_prefetches: int = 0
    lines_processed: int = 0
    #: lines whose deltas were replayed from the detected out-of-cache
    #: steady-state period instead of stepped (0 = full walk; always 0
    #: in L2, which walks every line)
    lines_extrapolated: int = 0
    #: length (in lines) of the detected out-of-cache period
    steady_period: int = 0


@dataclass
class TimingResult:
    cycles: float
    machine: str
    context: Context
    n: int
    stats: TimingStats = field(default_factory=TimingStats)

    def seconds(self, freq_hz: float) -> float:
        return self.cycles / freq_hz

    def mflops(self, flops: float, freq_hz: float) -> float:
        secs = self.seconds(freq_hz)
        return flops / secs / 1e6 if secs > 0 else 0.0

    def attribution(self, mach: Optional[MachineConfig] = None) -> Dict:
        """Where the cycles went — the per-evaluation decomposition the
        simulator already computes internally, surfaced as plain data
        (the reproduction's Figure-7 analogue, at eval grain).

        * ``compute`` — the steady-state CPU bound (``cpi x trips``);
        * ``memory_stall`` — cycles the walk stalled waiting on lines;
        * ``prefetch_waste`` — bus cycles burned fetching lines that
          were evicted before use (``wasted lines x line transfer``;
          their downstream re-fetch stalls are part of
          ``memory_stall``, so the two overlap by design);
        * ``other`` — prologue, scalar-cleanup remainder and write
          drain, i.e. ``total - compute - memory_stall`` clamped at 0.

        Derived purely from already-recorded :class:`TimingStats` —
        calling this can never perturb a measurement."""
        if mach is None:
            mach = get_machine(self.machine)
        s = self.stats
        line = mach.l1.line
        if self.context is Context.OUT_OF_CACHE:
            read_dur = line / mach.bus_bpc
        else:
            read_dur = line / mach.l2.fill_bpc
        other = self.cycles - s.cpu_cycles - s.stall_cycles
        return {"total": self.cycles,
                "compute": s.cpu_cycles,
                "memory_stall": s.stall_cycles,
                "prefetch_waste": s.prefetch_wasted * read_dur,
                "other": other if other > 0.0 else 0.0,
                "bus_busy": s.bus_busy_cycles,
                "prefetch_issued": s.prefetch_issued,
                "prefetch_dropped": s.prefetch_dropped,
                "prefetch_wasted": s.prefetch_wasted,
                "demand_misses": s.demand_misses,
                "hw_prefetches": s.hw_prefetches,
                "lines": s.lines_processed,
                "lines_extrapolated": s.lines_extrapolated,
                "steady_period": s.steady_period}


# ---------------------------------------------------------------------------
# CPU-side steady state

_FP_CHAIN_OPS = (Opcode.FADD, Opcode.FSUB, Opcode.VADD, Opcode.VSUB,
                 Opcode.FMAX, Opcode.VMAX)
_PTR_CHAIN_OPS = (Opcode.ADD, Opcode.SUB)


def _resolve_body(body: List[Tuple[Instruction, float]],
                  mach: MachineConfig) -> List[Tuple]:
    """Pre-resolve each instruction's timing/exec class dispatch into a
    plain tuple so the cycles-per-trip reduction below is lookup-free."""
    resolved = []
    for instr, w in body:
        ec = mach.exec_class(instr.timing_class)
        mem_operand = (not instr.is_load and not instr.is_store
                       and instr.op is not Opcode.PREFETCH
                       and any(isinstance(s, Mem) for s in instr.srcs))
        n_uops = ec.uops + (1 if mem_operand else 0)
        # accumulator chains: dst register also appears in srcs
        chained = instr.dst is not None and any(
            is_reg(s) and s == instr.dst for s in instr.srcs)
        fp_dst = instr.dst if (chained and instr.op in _FP_CHAIN_OPS) else None
        ptr_dst = instr.dst if (chained and instr.op in _PTR_CHAIN_OPS) else None
        resolved.append((w, n_uops, ec.unit, ec.rthru, ec.lat,
                         mem_operand, fp_dst, ptr_dst))
    return resolved


def _cpi_from_resolved(resolved: List[Tuple], mach: MachineConfig) -> float:
    uops = 0.0
    unit_cycles: Dict[str, float] = {}
    chain_cycles: Dict[object, float] = {}
    ptr_chain: Dict[object, float] = {}
    ld_rthru = mach.exec_class("ld").rthru

    for w, n_uops, unit, rthru, lat, mem_operand, fp_dst, ptr_dst in resolved:
        uops += w * n_uops
        if unit != "any":
            unit_cycles[unit] = unit_cycles.get(unit, 0.0) + w * rthru
        if mem_operand:
            # the folded load occupies the load unit too
            unit_cycles["load"] = unit_cycles.get("load", 0.0) + w * ld_rthru
        if fp_dst is not None:
            chain_cycles[fp_dst] = chain_cycles.get(fp_dst, 0.0) + w * lat
        if ptr_dst is not None:
            ptr_chain[ptr_dst] = ptr_chain.get(ptr_dst, 0.0) + w * lat

    width = mach.issue_width if uops <= mach.decode_budget else mach.decode_width
    issue_bound = uops / width
    unit_bound = max(unit_cycles.values(), default=0.0)
    dep_bound = max(list(chain_cycles.values()) + list(ptr_chain.values()),
                    default=0.0)
    return max(1.0, issue_bound, unit_bound, dep_bound)


def cpu_cycles_per_trip(body: List[Tuple[Instruction, float]],
                        mach: MachineConfig) -> float:
    """Cycles one loop trip needs, ignoring cache misses (L1-hit world)."""
    return _cpi_from_resolved(_resolve_body(body, mach), mach)


def _summary_cpi(summary: LoopSummary, body: List[Tuple[Instruction, float]],
                 tag: str, mach: MachineConfig) -> float:
    """Per-(summary, machine) memo over :func:`cpu_cycles_per_trip` — one
    candidate's summary is timed repeatedly (repeat sampling, fast/slow
    comparisons), but its body never changes."""
    cache = summary._cpi_cache
    key = (mach.name, tag)
    cpi = cache.get(key)
    if cpi is None:
        cpi = _cpi_from_resolved(_resolve_body(body, mach), mach)
        cache[key] = cpi
    return cpi


def prologue_cycles(summary: LoopSummary, mach: MachineConfig) -> float:
    """Rough once-per-call cost of code outside the tuned loop."""
    return 10.0 + summary.prologue_uop_estimate / mach.issue_width * 2.0


# ---------------------------------------------------------------------------
# memory-side simulation

class _Stream:
    """Per-stream mutable state for the line walk, pre-resolved from the
    machine config so the step function does no attribute dispatch."""

    __slots__ = ("ready", "dist_lines", "l2_only", "cap_ok", "pf_on",
                 "hw_streak", "reads", "writes", "nontemporal")

    def __init__(self, info: StreamInfo, line: int, mach: MachineConfig):
        self.ready: Dict[int, float] = {}
        hint = info.prefetch_hint
        self.pf_on = hint is not None and info.prefetch_dist > 0
        self.dist_lines = max(1, info.prefetch_dist // line)
        self.l2_only = (hint in mach.prefetch_l2_only) if hint else False
        cap = mach.prefetch_capacity.get(hint, 1 << 30) if hint else 0
        self.cap_ok = info.prefetch_dist <= cap
        self.hw_streak = 0
        self.reads = info.reads
        self.writes = info.writes
        self.nontemporal = info.nontemporal


def _shift_ready(states: List[_Stream], by: int) -> None:
    """Advance every pending line index by ``by`` (an exact integer
    shift: values — relative arrival times — are untouched)."""
    for st in states:
        if st.ready:
            st.ready = {k + by: v for k, v in st.ready.items()}


class LoopTimer:
    """Times one kernel invocation of N elements on a machine/context.

    :meth:`time` computes what both contexts share (the CPU bound per
    line, the line count, one :class:`_Stream` per touched array) and
    hands it to the context's walk.  ``fast=True`` (the default) enables
    the out-of-cache steady-state replay: once the relative per-line
    state repeats exactly, the logged deltas of one period are replayed
    instead of re-simulated, with the *same float additions in the same
    order* as the full walk, so the result is bit-identical.
    ``fast=False`` forces the full walk (used by the equivalence suite
    and the benchmark's divergence gate).  The in-L2 walk never
    replays, so ``fast`` does not change its work.
    """

    def __init__(self, mach: MachineConfig, context: Context,
                 fast: bool = True):
        self.mach = mach
        self.context = context
        self.fast = fast

    # ------------------------------------------------------------------
    def time(self, summary: LoopSummary, n: int) -> TimingResult:
        mach = self.mach
        stats = TimingStats()
        if not summary.has_loop or n <= 0:
            cycles = prologue_cycles(summary, mach)
            return TimingResult(cycles, mach.name, self.context, n, stats)

        epi = summary.elems_per_trip
        trips = n // epi
        remainder = n - trips * epi
        cpi = _summary_cpi(summary, summary.body, "body", mach)
        stats.cpu_cycles = cpi * trips

        cycles = prologue_cycles(summary, mach)
        streams = [s for s in summary.streams.values()
                   if s.reads or s.writes]
        if trips > 0 and not streams:
            cycles += cpi * trips
        elif trips > 0:
            line = mach.l1.line
            elems_per_line = max(1, line // max(s.elem_size
                                                for s in streams))
            n_lines = (trips * epi + elems_per_line - 1) // elems_per_line
            cpu_per_line = cpi * elems_per_line / epi
            states = [_Stream(s, line, mach) for s in streams]
            simulate = (self._simulate_ooc
                        if self.context is Context.OUT_OF_CACHE
                        else self._simulate_inl2)
            cycles += simulate(summary, states, n_lines, cpu_per_line, stats)

        # remainder elements run through the scalar cleanup loop
        if remainder > 0:
            if summary.cleanup:
                ccpi = _summary_cpi(summary, summary.cleanup, "cleanup", mach)
            else:
                ccpi = cpi / max(1, epi)
            cycles += remainder * max(1.0, ccpi)

        return TimingResult(cycles, mach.name, self.context, n, stats)

    # ------------------------------------------------------------------
    def _simulate_ooc(self, summary: LoopSummary, states: List[_Stream],
                      n_lines: int, cpu_per_line: float,
                      stats: TimingStats) -> float:
        """Out-of-cache: line-granular walk against the memory bus, with
        the steady-state replay when ``fast``."""
        mach = self.mach
        line = mach.l1.line

        # pre-resolved constants: the step below must be a pure function
        # of the relative state, so everything invariant is hoisted
        bpc = mach.bus_bpc
        write_batch = max(
            1, summary.write_batch_override or mach.write_batch_lines)
        turnaround = mach.bus_turnaround
        read_dur = line / bpc
        wb_dur = (line * mach.writeback_factor) / bpc \
            + 2.0 * turnaround / write_batch
        wnt_dur = (line * mach.wnt_write_combine_factor) / bpc \
            + 2.0 * turnaround / write_batch
        mem_lat = mach.mem_latency
        l2_hop = mach.l2.latency * 0.5
        hw_slack = mach.mem_latency * 0.4
        # software prefetches are dropped when the memory request queue
        # is pathologically saturated.  On a 100%-utilized bus the backlog
        # saw-tooths up to ~2-3x the memory latency in steady state, so
        # the threshold sits well above that: the bandwidth floor — not
        # the drop rule — is what limits prefetch on bus-bound kernels.
        pf_slack = mach.mem_latency * 6.0
        drop_busy = mach.prefetch_drop_when_busy
        lpp = max(1, mach.hw_prefetch_page // line)
        hw_ahead = mach.hw_prefetch_ahead
        hw_trigger = mach.hw_prefetch_trigger
        sb_slack = mach.store_buffer_slack
        wnt_rw_pen = mach.wnt_read_write_penalty

        pf_states = [st for st in states if st.pf_on]
        rd_states = [st for st in states if st.reads]
        wr_states = [st for st in states if st.writes]

        def step(k: int, free: float):
            """Walk one cache line.  ``free`` is the bus free time
            relative to line start; everything time-like is relative, so
            the returned deltas depend only on (relative state, page
            phase) — the property the extrapolation relies on."""
            t = cpu_per_line
            stall = 0.0
            busy = 0.0
            pf_iss = pf_drop = pf_waste = demand = hw = 0

            # --- software prefetch issue (one new line per stream/step)
            for st in pf_states:
                tgt = k + st.dist_lines
                ready = st.ready
                if tgt >= n_lines or tgt in ready:
                    continue
                if drop_busy and free > t + pf_slack:
                    pf_drop += 1
                    continue
                start = free if free > t else t
                end = start + read_dur
                free = end
                busy += read_dur
                lat = t + mem_lat
                pf_iss += 1
                if st.cap_ok:
                    ready[tgt] = end if end > lat else lat
                else:
                    # fetched but evicted before use: pure waste
                    pf_waste += 1
                # the prefetch's own miss stream trains the hardware
                # prefetcher, which runs ahead of it within the page
                stop = tgt + hw_ahead + 1
                page_end = tgt - tgt % lpp + lpp
                if stop > page_end:
                    stop = page_end
                for t2 in range(tgt + 1, stop):
                    if t2 < n_lines and t2 not in ready \
                            and free - t < hw_slack:
                        start = free if free > t else t
                        e2 = start + read_dur
                        free = e2
                        busy += read_dur
                        lat = t + mem_lat
                        ready[t2] = e2 if e2 > lat else lat
                        hw += 1

            # --- demand reads
            for st in rd_states:
                ready = st.ready
                r = ready.pop(k, None)
                if r is not None:
                    if r > t:
                        stall += r - t
                        t = r
                    if st.l2_only:
                        t += l2_hop  # line parked in L2; pay the hop
                else:
                    # the streak only ever gates on >= trigger, so cap
                    # it there: bounded state is what lets the walk
                    # reach an exactly repeating signature
                    if st.hw_streak < hw_trigger:
                        st.hw_streak += 1
                    start = free if free > t else t
                    end = start + read_dur
                    free = end
                    busy += read_dur
                    lat = t + mem_lat
                    arrive = end if end > lat else lat
                    demand += 1
                    stall += arrive - t
                    t = arrive
                # hardware stream prefetcher: once a stream locks, it keeps
                # a running window of `hw_prefetch_ahead` lines in flight,
                # topped up as lines are consumed
                if st.hw_streak >= hw_trigger:
                    stop = k + hw_ahead + 1
                    page_end = k - k % lpp + lpp
                    if stop > page_end:
                        stop = page_end  # HW prefetch stops at the page
                    for t2 in range(k + 1, stop):
                        if t2 < n_lines and t2 not in ready:
                            # low-priority: tolerate a modest backlog but
                            # back off when the bus is saturated
                            if free - t < hw_slack:
                                start = free if free > t else t
                                e2 = start + read_dur
                                free = e2
                                busy += read_dur
                                lat = t + mem_lat
                                ready[t2] = e2 if e2 > lat else lat
                                hw += 1

            # --- stores
            for st in wr_states:
                if st.nontemporal:
                    start = free if free > t else t
                    free = start + wnt_dur
                    busy += wnt_dur
                    if st.reads and wnt_rw_pen:
                        t += wnt_rw_pen
                        stall += wnt_rw_pen
                else:
                    if not st.reads and st.ready.pop(k, None) is None:
                        # read-for-ownership fetch (store-buffer hidden,
                        # but it consumes the bus)
                        start = free if free > t else t
                        free = start + read_dur
                        busy += read_dur
                        demand += 1
                    # dirty writeback when the line retires
                    start = free if free > t else t
                    free = start + wb_dur
                    busy += wb_dur
                # stores stall only when the bus backlog exceeds the
                # store buffer's tolerance
                backlog = free - t
                if backlog > sb_slack:
                    s = backlog - sb_slack
                    stall += s
                    t += s

            # retire the line: drop spent window entries (only future
            # lines are ever probed) and rebase pending arrivals to the
            # next line's start so the state stays relative
            for st in states:
                ready = st.ready
                ready.pop(k, None)
                if ready:
                    for kk in ready:
                        ready[kk] -= t
            return t, free - t, stall, busy, pf_iss, pf_drop, pf_waste, \
                demand, hw

        def signature(k: int, free: float):
            parts: List = [k % lpp, free]
            for st in states:
                parts.append(st.hw_streak)
                ready = st.ready
                parts.append(tuple(sorted(
                    (kk - k, v) for kk, v in ready.items())) if ready else ())
            return tuple(parts)

        now = 0.0
        free = 0.0
        stall_total = 0.0
        busy_total = 0.0
        c_iss = c_drop = c_waste = c_dem = c_hw = 0

        # boundary margin: beyond steady_end a step may see the end of
        # the array (tgt >= n_lines), so only states observed before it
        # are eligible for period detection/extrapolation
        max_dist = max((st.dist_lines for st in pf_states), default=0)
        steady_end = n_lines - (max_dist + hw_ahead + 1)
        probing = self.fast and n_lines >= _FAST_MIN_LINES and steady_end > 1
        seen: Dict[Tuple, int] = {}

        probe_log: List[Tuple] = []   # per-line step results while probing

        k = 0
        while k < n_lines:
            # Probe only page-phase-0 lines: the signature embeds
            # ``k % lpp``, so equal signatures imply a period that is a
            # multiple of lpp — sampling one phase finds the same
            # periodicity at a fraction of the signature cost.  On a
            # match, the last ``period`` probe steps ARE one steady
            # period (step is a pure function of the relative state, and
            # the state at ``prev`` equals the state here), so their
            # logged deltas replay directly — no re-walk needed.  The
            # replay performs the same float additions, in the same
            # order, the full walk would, so totals stay bit-identical.
            if probing and k < steady_end and not k % lpp:
                sig = signature(k, free)
                prev = seen.get(sig)
                if prev is None:
                    if len(seen) < _PROBE_CAP:
                        seen[sig] = k
                    else:
                        probing = False
                        probe_log = []
                else:
                    period = k - prev
                    probing = False
                    full = (steady_end - k) // period
                    if full > 0:
                        rows = probe_log[prev:k]
                        rep = full * period
                        now = _replay_sum(now, [r[0] for r in rows], full)
                        stall_total = _replay_sum(
                            stall_total, [r[1] for r in rows], full)
                        busy_total = _replay_sum(
                            busy_total, [r[2] for r in rows], full)
                        c_iss += sum(r[3] for r in rows) * full
                        c_drop += sum(r[4] for r in rows) * full
                        c_waste += sum(r[5] for r in rows) * full
                        c_dem += sum(r[6] for r in rows) * full
                        c_hw += sum(r[7] for r in rows) * full
                        _shift_ready(states, rep)
                        k += rep
                        stats.lines_extrapolated = rep
                        stats.steady_period = period
                    probe_log = []
                    continue
            d, free, s, b, a1, a2, a3, a4, a5 = step(k, free)
            now += d
            stall_total += s
            busy_total += b
            c_iss += a1; c_drop += a2; c_waste += a3
            c_dem += a4; c_hw += a5
            if probing:
                probe_log.append((d, s, b, a1, a2, a3, a4, a5))
            k += 1

        stats.stall_cycles += stall_total
        stats.prefetch_issued += c_iss
        stats.prefetch_dropped += c_drop
        stats.prefetch_wasted += c_waste
        stats.demand_misses += c_dem
        stats.hw_prefetches += c_hw
        stats.lines_processed = n_lines
        stats.bus_busy_cycles = busy_total
        # drain outstanding writes
        free_abs = now + free
        return max(now, free_abs * 0.98)

    # ------------------------------------------------------------------
    def _simulate_inl2(self, summary: LoopSummary, states: List[_Stream],
                       n_lines: int, cpu_per_line: float,
                       stats: TimingStats) -> float:
        """In-L2 context: operands resident in L2; the 'memory' is the
        L1<->L2 path, unless non-temporal stores force main-memory
        traffic (which is why WNT is a bad idea in cache).  Every line
        is walked: at in-L2 sizes a steady state is rarely found before
        the array ends, and probing for one cost more than the replay
        saved (DESIGN.md section 9)."""
        mach = self.mach
        line = mach.l1.line
        # L1<->L2 fill path and the (write-batch 4) memory bus that
        # non-temporal stores are forced onto
        l2_read_dur = line / mach.l2.fill_bpc
        l2_write_dur = (line * 0.5) / mach.l2.fill_bpc
        mem_wnt_dur = (line * mach.wnt_write_combine_factor) / mach.bus_bpc \
            + 2.0 * mach.bus_turnaround / 4
        # out-of-order execution overlaps roughly half of an L2 hit's
        # latency with the independent work of the same line's elements
        l2_lat = float(mach.l2.latency) * 0.5
        sb_slack = mach.store_buffer_slack
        wnt_rw_pen = mach.wnt_read_write_penalty

        now = 0.0
        l2_free = 0.0
        mem_free = 0.0
        stall_total = 0.0
        busy_total = 0.0
        c_iss = c_dem = 0
        for k in range(n_lines):
            t = cpu_per_line
            stall = 0.0
            l2_busy = 0.0
            mem_busy = 0.0
            for st in states:
                # software prefetch moves the line L2 -> L1 early
                if st.pf_on:
                    tgt = k + st.dist_lines
                    if tgt < n_lines and tgt not in st.ready \
                            and not l2_free > t:
                        start = l2_free if l2_free > t else t
                        end = start + l2_read_dur
                        l2_free = end
                        l2_busy += l2_read_dur
                        c_iss += 1
                        if not st.l2_only:
                            lat = t + l2_lat
                            st.ready[tgt] = end if end > lat else lat
                if st.reads:
                    r = st.ready.pop(k, None)
                    if r is not None and r <= t:
                        pass  # L1 hit, already costed in cpi
                    elif r is not None:
                        stall += r - t
                        t = r
                    else:
                        start = l2_free if l2_free > t else t
                        end = start + l2_read_dur
                        l2_free = end
                        l2_busy += l2_read_dur
                        lat = t + l2_lat
                        arrive = end if end > lat else lat
                        stall += arrive - t
                        t = arrive
                        c_dem += 1
                if st.writes:
                    if st.nontemporal:
                        # forced to memory: slow bus + WC behaviour
                        start = mem_free if mem_free > t else t
                        mem_free = start + mem_wnt_dur
                        mem_busy += mem_wnt_dur
                        if st.reads and wnt_rw_pen:
                            t += wnt_rw_pen
                            stall += wnt_rw_pen
                        backlog = mem_free - t
                        if backlog > sb_slack:
                            s = backlog - sb_slack
                            t += s
                            stall += s
                    else:
                        start = l2_free if l2_free > t else t
                        l2_free = start + l2_write_dur
                        l2_busy += l2_write_dur
            # retire the line and rebase to the next line's start: the
            # same relative frame (hence the same float operations) as
            # the out-of-cache walk
            for st in states:
                ready = st.ready
                ready.pop(k, None)
                if ready:
                    for kk in ready:
                        ready[kk] -= t
            now += t
            l2_free -= t
            mem_free -= t
            stall_total += stall
            busy_total += l2_busy + mem_busy

        stats.stall_cycles += stall_total
        stats.prefetch_issued += c_iss
        stats.demand_misses += c_dem
        stats.lines_processed = n_lines
        stats.bus_busy_cycles = busy_total
        mem_abs = now + mem_free
        l2_abs = now + l2_free
        return max(now, mem_abs * 0.98, l2_abs * 0.9)


def time_kernel(summary: LoopSummary, mach: MachineConfig,
                context: Context, n: int, fast: bool = True) -> TimingResult:
    """Convenience wrapper: one invocation of the timing model."""
    return LoopTimer(mach, context, fast=fast).time(summary, n)
