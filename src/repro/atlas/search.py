"""ATLAS's empirical kernel selection.

"ATLAS: The best kernel found by ATLAS's empirical search, installed
with both icc and gcc." (section 3.3)

ATLAS's search is the simplest possible: time every candidate
implementation, keep the fastest, verify it.  The interesting content
lives in the candidate library (:mod:`repro.atlas.variants`), just as
in real ATLAS the interesting content is the hand-written kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import KernelTestFailure
from ..fko import FKO
from ..ir import Function
from ..kernels.blas1 import KernelSpec
from ..machine.config import MachineConfig
from ..machine.loopinfo import summarize
from ..machine.timing import Context
from ..timing.timer import KernelTiming, Timer
from ..timing.tester import test_function
from .variants import Candidate, Variant, variants_for


@dataclass
class AtlasResult:
    spec: KernelSpec
    machine: MachineConfig
    context: Context
    n: int
    best_label: str
    is_assembly: bool
    fn: Function
    timing: KernelTiming
    n_candidates: int
    all_timings: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def mflops(self) -> float:
        return self.timing.mflops

    @property
    def display_name(self) -> str:
        """Paper convention: all-assembly winners are starred (dcopy*)."""
        return self.spec.name + ("*" if self.is_assembly else "")


def atlas_search(spec: KernelSpec, machine: MachineConfig, context: Context,
                 n: int, run_tester: bool = True, *,
                 fko: Optional[FKO] = None,
                 timer: Optional[Timer] = None) -> AtlasResult:
    """Time every candidate of the variant library and keep the fastest.
    ``fko`` and ``timer`` (for ``machine``, and ``context``/``n``) let a
    caller share its compile caches and walk memo with the search; a
    fresh pair is built when they are omitted."""
    if timer is None:
        timer = Timer(machine, context, n)
    best: Optional[Tuple[float, Candidate, Function, KernelTiming]] = None
    all_timings: List[Tuple[str, float]] = []
    count = 0
    for variant in variants_for(spec, machine, context, fko=fko):
        for cand in variant.candidates:
            fn = cand.build()
            summary = summarize(fn)
            if getattr(fn.loop, "block_fetch", False):
                # AMD block-fetch scheduling: reads and writes move in
                # large blocks, amortizing bus turnarounds further
                summary.write_batch_override = 16
            timing = timer.time_summary(summary, spec.flops(n),
                                        ident=f"{spec.name}|{cand.label}")
            count += 1
            all_timings.append((cand.label, timing.cycles))
            if best is None or timing.cycles < best[0]:
                best = (timing.cycles, cand, fn, timing)
    assert best is not None, "no candidates built"

    _, cand, fn, timing = best
    if run_tester:
        test_function(fn, spec)
    return AtlasResult(spec=spec, machine=machine, context=context, n=n,
                       best_label=cand.label, is_assembly=cand.is_assembly,
                       fn=fn, timing=timing, n_candidates=count,
                       all_timings=sorted(all_timings, key=lambda t: t[1]))
