"""Simulated x86 machines — the substitution for the paper's testbeds.

* :mod:`repro.machine.config`    — P4E / Opteron parameter sets
* :mod:`repro.machine.registers` — architectural register files
* :mod:`repro.machine.loopinfo`  — kernel summaries for the timing model
* :mod:`repro.machine.timing`    — cycle-approximate loop timing
* :mod:`repro.machine.memory` / :mod:`repro.machine.interp` — functional
  execution for correctness testing
"""

from .config import CacheConfig, ExecClass, MachineConfig, \
    canonical_machine, get_machine, machine_ident, opteron, pentium4e
from .registers import GP_NAMES, SP, XMM_NAMES, gp_regs, xmm_regs
from .loopinfo import LoopSummary, StreamInfo, summarize
from .timing import (Context, LoopTimer, TimingResult, TimingStats,
                     cpu_cycles_per_trip, parse_context, time_kernel)
from .memory import MemoryImage
from .interp import Interpreter, RunResult, run_function

__all__ = [
    "CacheConfig", "ExecClass", "MachineConfig", "canonical_machine",
    "get_machine", "machine_ident", "opteron", "pentium4e",
    "GP_NAMES", "SP", "XMM_NAMES", "gp_regs", "xmm_regs",
    "LoopSummary", "StreamInfo", "summarize",
    "Context", "LoopTimer", "TimingResult", "TimingStats",
    "cpu_cycles_per_trip", "parse_context", "time_kernel",
    "MemoryImage", "Interpreter", "RunResult", "run_function",
]
