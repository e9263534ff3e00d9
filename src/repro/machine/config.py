"""Simulated machine configurations.

This module is the substitution for the paper's physical testbeds (a
2.8 GHz Pentium 4E and a 1.6 GHz Opteron — its Table 2).  Each
:class:`MachineConfig` bundles the microarchitectural parameters the
timing model consumes.  The parameter values are drawn from public
documentation of the two microarchitectures (NetBurst/Prescott and K8)
at the granularity the model needs; they are *representative*, not
vendor-exact — see DESIGN.md section 3 for why relative behaviour is
what matters here.

The mechanisms the paper's evaluation turns on are all visible here:

* long FP latencies and a deep bus penalty on the P4E (more bus-bound);
* the Opteron's on-die memory controller (short memory latency, small
  bus turnaround) leaving more headroom for prefetch tuning;
* non-temporal-store policies that differ exactly the way section 3.3
  describes (P4E: helps whenever the operand is not retained; Opteron:
  hurts unless the array is write-only);
* 8 architectural GP and 8 XMM registers (spill pressure at high unroll);
* a front-end uop budget that makes very large unrolled bodies decode-
  bound (the trace cache on P4E).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..ir.instructions import PrefetchHint
from ..records import canonical_digest


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size: int            # bytes
    line: int            # bytes
    assoc: int
    latency: int         # load-to-use cycles on a hit in this level
    fill_bpc: float      # bytes/cycle this level can deliver to the core


@dataclass(frozen=True)
class ExecClass:
    """Cost of one timing class: latency, reciprocal throughput on its
    execution unit, uop count, and the unit it executes on."""

    lat: int
    rthru: float
    uops: int
    unit: str


@dataclass(frozen=True)
class MachineConfig:
    name: str
    freq_mhz: int
    issue_width: int            # uops sustained per cycle from the front end
    decode_budget: int          # body uops before the front end throttles
    decode_width: float         # sustained uops/cycle beyond the budget
    classes: Dict[str, ExecClass]
    n_gp_regs: int              # allocatable GP registers (esp reserved)
    n_xmm_regs: int             # shared scalar-FP / vector register file
    l1: CacheConfig = CacheConfig(16 * 1024, 64, 8, 4, 8.0)
    l2: CacheConfig = CacheConfig(1024 * 1024, 64, 8, 18, 4.0)
    mem_latency: int = 300      # cycles, full miss to memory
    bus_bpc: float = 2.3        # bytes/cycle of memory bus bandwidth
    bus_turnaround: int = 20    # cycles lost when the bus flips read<->write
    write_batch_lines: int = 4  # write-buffer batching: turnaround cost is
                                # amortized over this many buffered lines
    writeback_factor: float = 1.0   # dirty-writeback inefficiency multiplier
    # non-temporal store policy
    wnt_saves_writeback: bool = True
    wnt_write_combine_factor: float = 1.0  # bus cost multiplier for WNT lines
    wnt_read_write_penalty: int = 0        # cycles/line if the WNT stream is
                                           # also read (Opteron WC-flush pain)
    # software prefetch
    prefetch_hints: Tuple[PrefetchHint, ...] = (
        PrefetchHint.NTA, PrefetchHint.T0, PrefetchHint.T1)
    prefetch_capacity: Dict[PrefetchHint, int] = field(default_factory=dict)
    #   ^ per-stream useful lookahead in bytes before prefetched lines are
    #     evicted ahead of use (destination-structure capacity)
    prefetch_drop_when_busy: bool = True
    prefetch_l2_only: Tuple[PrefetchHint, ...] = ()
    #   ^ hints that install only into L2 (demand still pays the L2 hop)
    # hardware stream prefetcher
    hw_prefetch_ahead: int = 1      # lines fetched ahead once a stream locks
    hw_prefetch_trigger: int = 2    # sequential misses needed to lock
    hw_prefetch_page: int = 4096    # HW prefetch never crosses page bounds
                                    # (software prefetch does — its edge)
    prefetchable_line: int = 64     # line size of the first prefetchable
                                    # cache (FKO's default distance = 2x this)
    branch_mispredict: int = 20
    store_buffer_slack: int = 400   # cycles of bus backlog stores tolerate

    @property
    def freq_hz(self) -> float:
        return self.freq_mhz * 1e6

    def exec_class(self, timing_class: str) -> ExecClass:
        return self.classes[timing_class]

    def uops_of(self, timing_class: str, mem_operand: bool = False) -> int:
        base = self.classes[timing_class].uops
        return base + (1 if mem_operand else 0)


def _classes(scalar_fp_lat: Dict[str, int], **overrides) -> Dict[str, ExecClass]:
    """Helper assembling the default class table, then applying overrides."""
    table = {
        # class: (lat, rthru, uops, unit)
        "mov":   ExecClass(1, 0.33, 1, "any"),
        "ld":    ExecClass(scalar_fp_lat["ld"], 1.0, 1, "load"),
        "vld":   ExecClass(scalar_fp_lat["ld"], 1.0, 1, "load"),
        "vldu":  ExecClass(scalar_fp_lat["ld"] + 2, 2.0, 2, "load"),
        "st":    ExecClass(1, 1.0, 1, "store"),
        "vst":   ExecClass(1, 1.0, 1, "store"),
        "vstu":  ExecClass(1, 2.0, 2, "store"),
        "stnt":  ExecClass(1, 1.0, 1, "store"),
        "vstnt": ExecClass(1, 1.0, 1, "store"),
        "iadd":  ExecClass(1, 0.5, 1, "int"),
        "imul":  ExecClass(scalar_fp_lat.get("imul", 5), 1.0, 1, "int"),
        "cmp":   ExecClass(1, 0.5, 1, "int"),
        "fadd":  ExecClass(scalar_fp_lat["fadd"], 1.0, 1, "fadd"),
        "fmul":  ExecClass(scalar_fp_lat["fmul"], 1.0, 1, "fmul"),
        "fdiv":  ExecClass(scalar_fp_lat.get("fdiv", 30), 30.0, 1, "fmul"),
        "fabs":  ExecClass(2, 1.0, 1, "fadd"),
        "fcmp":  ExecClass(3, 1.0, 1, "fadd"),
        "fmax":  ExecClass(scalar_fp_lat.get("fmax", 4), 1.0, 1, "fadd"),
        "vadd":  ExecClass(scalar_fp_lat["fadd"], 2.0, 1, "fadd"),
        "vmul":  ExecClass(scalar_fp_lat["fmul"], 2.0, 1, "fmul"),
        "vabs":  ExecClass(2, 1.0, 1, "fadd"),
        "vmax":  ExecClass(scalar_fp_lat.get("fmax", 4), 2.0, 1, "fadd"),
        "vcmp":  ExecClass(3, 2.0, 1, "fadd"),
        "vlogic": ExecClass(2, 1.0, 1, "fadd"),
        "hadd":  ExecClass(6, 2.0, 2, "fadd"),
        "bcast": ExecClass(4, 2.0, 2, "fadd"),
        "br":    ExecClass(1, 1.0, 1, "branch"),
        "jmp":   ExecClass(1, 1.0, 1, "branch"),
        "ret":   ExecClass(1, 1.0, 1, "branch"),
        "pref":  ExecClass(1, 1.0, 1, "load"),
    }
    table.update(overrides)
    return table


@functools.cache
def pentium4e() -> MachineConfig:
    """2.8 GHz Pentium 4E (Prescott, NetBurst).

    Long FP pipelines (addsd 5 / mulsd 7), 16 KB L1D, 1 MB L2, 800 MHz
    FSB (~6.4 GB/s => ~2.3 B/cycle at 2.8 GHz), ~140 ns memory latency
    (~390 cycles), trace-cache front end.  Full-width 128-bit SSE
    datapath: one uop per packed op at half throughput.
    """
    lat = {"fadd": 5, "fmul": 7, "ld": 4, "imul": 10, "fdiv": 38, "fmax": 4}
    return MachineConfig(
        name="P4E",
        freq_mhz=2800,
        issue_width=3,
        decode_budget=180,
        decode_width=1.5,
        classes=_classes(
            lat,
            # P4's scalar FP throughput is one op per 2 cycles; packed ops
            # are also 1/2cy, so SIMD doubles (f64) / quadruples (f32)
            # per-element FP throughput.
            fadd=ExecClass(5, 2.0, 1, "fadd"),
            fmul=ExecClass(7, 2.0, 1, "fmul"),
            vadd=ExecClass(5, 2.0, 1, "fadd"),
            vmul=ExecClass(7, 2.0, 1, "fmul"),
            fabs=ExecClass(2, 1.0, 1, "fadd"),
            vabs=ExecClass(2, 1.0, 1, "fadd"),
            fmax=ExecClass(4, 2.0, 1, "fadd"),
            vmax=ExecClass(4, 2.0, 1, "fadd"),
            # packed compare/logic run on the fast MMX/ALU path
            vcmp=ExecClass(3, 1.0, 1, "fadd"),
        ),
        n_gp_regs=7,
        n_xmm_regs=8,
        l1=CacheConfig(16 * 1024, 64, 8, 4, 8.0),
        l2=CacheConfig(1024 * 1024, 64, 8, 18, 12.0),
        mem_latency=390,
        bus_bpc=2.3,
        bus_turnaround=28,
        write_batch_lines=4,
        writeback_factor=1.30,   # FSB writebacks interfere with demand reads
        wnt_saves_writeback=True,
        wnt_write_combine_factor=1.0,
        wnt_read_write_penalty=0,
        prefetch_hints=(PrefetchHint.NTA, PrefetchHint.T0, PrefetchHint.T1),
        prefetch_capacity={
            PrefetchHint.NTA: 8192,   # installs into one way of L2
            PrefetchHint.T0: 4096,    # limited by the 16 KB L1
            PrefetchHint.T1: 8192,
        },
        prefetch_l2_only=(PrefetchHint.NTA, PrefetchHint.T1),
        hw_prefetch_ahead=4,
        hw_prefetch_trigger=2,
        prefetchable_line=128,   # sectored L2 lines
        branch_mispredict=30,
    )


@functools.cache
def opteron() -> MachineConfig:
    """1.6 GHz Opteron (K8).

    Shorter FP latencies (4/4), 64 KB L1D, on-die memory controller
    (~80 ns => ~130 cycles, small read/write turnaround), dual-channel
    DDR (~5.3 GB/s => ~3.3 B/cycle at 1.6 GHz).  The 64-bit FP datapath
    splits 128-bit SSE ops into two uops.
    """
    lat = {"fadd": 4, "fmul": 4, "ld": 3, "imul": 4, "fdiv": 20, "fmax": 3}
    return MachineConfig(
        name="Opteron",
        freq_mhz=1600,
        issue_width=3,
        decode_budget=256,   # no trace cache; steady 3/cycle decode
        decode_width=2.2,
        classes=_classes(
            lat,
            # K8: packed SSE ops crack into 2 uops on the 64-bit datapath
            vadd=ExecClass(4, 2.0, 2, "fadd"),
            vmul=ExecClass(4, 2.0, 2, "fmul"),
            vabs=ExecClass(2, 2.0, 2, "fadd"),
            vmax=ExecClass(3, 2.0, 2, "fadd"),
            vcmp=ExecClass(3, 2.0, 2, "fadd"),
            vlogic=ExecClass(2, 2.0, 2, "fadd"),
            vld=ExecClass(3, 1.0, 2, "load"),
            vst=ExecClass(1, 2.0, 2, "store"),
            vstnt=ExecClass(1, 2.0, 2, "store"),
            # two AGU/load pipes for 64-bit loads
            ld=ExecClass(3, 0.5, 1, "load"),
        ),
        n_gp_regs=7,
        n_xmm_regs=8,
        l1=CacheConfig(64 * 1024, 64, 2, 3, 16.0),
        l2=CacheConfig(1024 * 1024, 64, 16, 12, 8.0),
        mem_latency=130,
        bus_bpc=3.3,
        bus_turnaround=6,        # on-die memory controller
        write_batch_lines=8,
        writeback_factor=1.0,
        wnt_saves_writeback=True,
        wnt_write_combine_factor=1.0,
        wnt_read_write_penalty=200,  # WC-buffer flushes when the stream
                                     # is also being read (section 3.3:
                                     # icc+prof "many times slower")
        prefetch_hints=(PrefetchHint.NTA, PrefetchHint.T0,
                        PrefetchHint.T1, PrefetchHint.W),
        prefetch_capacity={
            PrefetchHint.NTA: 6144,
            PrefetchHint.T0: 8192,   # big L1 tolerates deep lookahead
            PrefetchHint.T1: 8192,
            PrefetchHint.W: 6144,
        },
        prefetch_l2_only=(PrefetchHint.T1,),
        hw_prefetch_ahead=1,
        hw_prefetch_trigger=2,
        branch_mispredict=11,
    )


#: cached factories: each frozen registry config is built once and
#: shared, so telling it from a modified copy is an identity check
_MACHINES = {"p4e": pentium4e, "opteron": opteron}

#: every accepted spelling (lowercased, '-' and '_' dropped) -> its
#: canonical name, a key of ``_MACHINES``
_ALIASES = {"p4e": "p4e", "pentium4e": "p4e", "pentium4": "p4e",
            "opteron": "opteron", "opt": "opteron", "k8": "opteron"}


def canonical_machine(name: Union[str, MachineConfig]) -> str:
    """The canonical spelling ('p4e' or 'opteron') of a machine name,
    alias or :class:`MachineConfig`, without building a config.  Job
    keys, wire requests, result-store rows and warm-start lookups all
    canonicalize through this, so one machine has one spelling."""
    spelled = str(getattr(name, "name", name))
    key = spelled.lower().replace("-", "").replace("_", "")
    try:
        return _ALIASES[key]
    except KeyError:
        raise KeyError(f"unknown machine {spelled!r}; known: p4e, "
                       f"opteron") from None


def machine_ident(machine: MachineConfig) -> str:
    """The identity stored keys give a machine config: its bare
    canonical name when it equals that registry machine, else
    ``<name>:<digest of the config's repr>``, so a modified config
    never reads the registry machine's records (and only a registry
    machine's identity has no ``:``)."""
    try:
        name = canonical_machine(machine)
        registry = get_machine(name)
    except KeyError:
        name, registry = machine.name.lower(), None
    # the registry's own object, the common case, needs no field compare
    if registry is machine or registry == machine:
        return name
    return f"{name}:{canonical_digest(repr(machine))}"


def get_machine(name: str) -> MachineConfig:
    """Look up a machine config by name ('p4e' or 'opteron')."""
    return _MACHINES[canonical_machine(name)]()
