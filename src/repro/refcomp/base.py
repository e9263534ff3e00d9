"""Modeled native compilers.

The paper's baselines compile the ANSI C reference implementation with
gcc and icc (Table 2 lists the exact flags).  We model each native
compiler as a *fixed, model-driven parameter policy* over the same
back end: the compiler looks at the kernel once and decides — from
heuristics, not measurements — which transformations to apply.  This is
precisely the contrast the paper draws: "heuristics and architectural
assumptions are replaced with empirical probes".

Each policy captures the documented behaviour of its compiler:

* **gcc 3.x** (``-O3 -funroll-all-loops``): no auto-vectorization, no
  software prefetch, moderate unrolling.
* **icc 8.0** (``-xP/-xW -O3``): auto-vectorizes — but only loops in
  canonical ``for(i=0;i<N;i++)`` form (section 3.2: "icc will not
  vectorize either [ATLAS] form, regardless of what is in the loop");
  inserts software prefetch at a fixed model distance tuned for Intel
  hardware; never uses non-temporal stores without profile data.
* **icc 8.0 + profiling**: additionally "detects that the loop is long
  enough for cache retention not to be an issue, and blindly applies
  WNT" — good on the P4E, disastrous for read-write streams on the
  Opteron (section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..fko import FKO, TransformParams
from ..fko.analysis import KernelAnalysis
from ..fko.params import PrefetchParams
from ..fko.pipeline import CompiledKernel
from ..ir import PrefetchHint
from ..kernels.blas1 import KernelSpec
from ..machine.config import MachineConfig
from ..machine.timing import Context
from ..timing.timer import KernelTiming, Timer


@dataclass
class ReferenceBuild:
    """A reference implementation compiled by a modeled native compiler."""

    compiler: str
    spec: KernelSpec
    compiled: CompiledKernel
    timing: KernelTiming

    @property
    def mflops(self) -> float:
        return self.timing.mflops


class ModeledCompiler:
    """Base: subclasses implement the parameter policy."""

    name = "cc"

    def flags(self, machine: MachineConfig) -> str:
        return "-O2"

    def decide(self, spec: KernelSpec, analysis: KernelAnalysis,
               machine: MachineConfig, context: Context,
               n: int) -> TransformParams:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def compile(self, spec: KernelSpec, machine: MachineConfig,
                context: Context, n: int,
                modified_source: bool = True, *,
                fko: Optional[FKO] = None) -> CompiledKernel:
        """Compile the reference implementation of ``spec``.

        ``modified_source`` mirrors the paper's methodology: the ATLAS
        reference loops were rewritten into canonical form so icc would
        vectorize them.  Pass False to compile the original
        ``for(i=N; i; i--)`` form (used by the loop-form ablation).
        ``fko`` (for ``machine``) shares a caller's compile caches; a
        fresh one is built when it is omitted.
        """
        if fko is None:
            fko = FKO(machine)
        analysis = fko.analyze(spec.hil)
        params = self.decide(spec, analysis, machine, context, n)
        if not modified_source and spec.loop_form == "downcount":
            # the original source form defeats icc's vectorizer
            params = params.copy(sv=False)
        return fko.compile(spec.hil, params)

    def build(self, spec: KernelSpec, machine: MachineConfig,
              context: Context, n: int,
              modified_source: bool = True, *,
              fko: Optional[FKO] = None,
              timer: Optional[Timer] = None) -> ReferenceBuild:
        """Compile and time the reference build; ``fko`` and ``timer``
        as in :meth:`compile` and :func:`repro.atlas.atlas_search`."""
        compiled = self.compile(spec, machine, context, n, modified_source,
                                fko=fko)
        if timer is None:
            timer = Timer(machine, context, n)
        timing = timer.time(compiled, spec)
        return ReferenceBuild(self.name, spec, compiled, timing)
