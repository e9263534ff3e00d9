"""repro — a reproduction of "Tuning High Performance Kernels through
Empirical Compilation" (Whaley & Whalley, ICPP 2005).

The package implements the paper's complete system, in Python:

* **HIL** (:mod:`repro.hil`) — the kernel input language;
* **FKO** (:mod:`repro.fko`) — the specialized backend compiler with
  the paper's fundamental (SV, UR, LC, AE, PF, WNT) and repeatable
  (copy propagation, peephole, register allocation, control-flow
  cleanup) transformations;
* **ifko** (:mod:`repro.search`) — the iterative/empirical driver:
  analysis-seeded modified line search over the transform space;
* **machines** (:mod:`repro.machine`) — cycle-approximate simulations
  of the paper's Pentium 4E and Opteron testbeds (the one substitution,
  see DESIGN.md), plus a functional interpreter for correctness;
* **baselines** (:mod:`repro.refcomp`, :mod:`repro.atlas`) — modeled
  gcc/icc/icc+prof and the ATLAS hand-tuned kernel search;
* **experiments** (:mod:`repro.experiments`) — regenerate every table
  and figure of the paper's evaluation;
* **service** (:mod:`repro.service` + :mod:`repro.client`) — tuning as
  a service: the ``repro serve`` daemon (async job queue, request
  dedup, persistent results) and the local/HTTP client facade.

Quick start::

    from repro import pentium4e, tune_kernel, Context, get_kernel

    spec = get_kernel("ddot")
    tuned = tune_kernel(spec, pentium4e(), Context.OUT_OF_CACHE, 80000)
    print(tuned.mflops, tuned.params.describe())
"""

# defined before the subpackage imports so that submodules (the search
# engine's cache keys, the experiment store's filenames) can do
# ``from .. import __version__`` without an import-order trap
__version__ = "1.2.0"

from .errors import (HILError, HILSemanticError, HILSyntaxError, IRError,
                     IRVerifyError, KernelTestFailure, MachineError,
                     RegisterPressureError, ReproError, SearchError,
                     SimulationFault, TransformError)
from .fko import (FKO, CompiledKernel, KernelAnalysis, PrefetchParams,
                  TransformParams, compile_kernel, fko_defaults)
from .hil import compile_hil
from .kernels import KERNEL_ORDER, KernelSpec, all_kernels, get_kernel
from .machine import (Context, MachineConfig, get_machine, opteron,
                      parse_context, pentium4e, run_function, summarize,
                      time_kernel)
from . import obs
from .search import (BatchResult, LineSearch, Searcher, SearchResult,
                     TuneConfig, TunedKernel, TuningJob, TuningSession,
                     build_space, compile_default, make_searcher,
                     registry_jobs, searcher_names, tune_kernel)
from .timing import Timer, test_kernel
from .timing.timer import default_n, paper_n
from .service import TuneRequest, TuneResponse, history_digest
from .client import (LocalClient, ServeClient, ServiceError, TuneClient,
                     make_client)


# ---------------------------------------------------------------------------
# the three-verb public API: repro.tune / repro.compile / repro.analyze.
# Thin coercing fronts over the full drivers — kernels, machines and
# contexts may be given by name (any ``parse_context`` spelling), and N
# defaults to ``default_n`` for the kernel and context.

def _coerce(kernel, machine, context, n):
    spec = get_kernel(kernel) if isinstance(kernel, str) else kernel
    mach = get_machine(machine) if isinstance(machine, str) else machine
    ctx = parse_context(context)
    return spec, mach, ctx, n if n is not None else default_n(spec, ctx)


def tune(kernel, machine="p4e", context=Context.OUT_OF_CACHE,
         n=None, config=None, **options) -> TunedKernel:
    """Empirically tune one kernel (ifko: analysis -> search -> best).

    ``kernel``/``machine``/``context`` accept registry names ("ddot",
    "p4e", "out-of-cache" or "oc") or the full objects; ``n`` defaults
    to ``default_n(kernel, context)``.  Keyword ``options`` are
    :class:`TuneConfig` fields (``strategy="genetic"``, ``seed=3``,
    ``max_evals=100``, ...); pass ``config=TuneConfig(...)`` instead to
    reuse a prepared configuration (the two are mutually exclusive).
    """
    if config is not None and options:
        raise TypeError("pass either config= or TuneConfig field "
                        "keywords, not both")
    cfg = config if config is not None else TuneConfig(**options)
    return tune_kernel(*_coerce(kernel, machine, context, n), config=cfg)


def compile(kernel, machine="p4e", context=Context.OUT_OF_CACHE,  # noqa: A001
            n=None, config=None) -> TunedKernel:
    """Compile one kernel with FKO's static defaults (no search) and
    time it — the "FKO" baseline :func:`tune` is measured against."""
    return compile_default(*_coerce(kernel, machine, context, n),
                           config=config)


def analyze(kernel, machine="p4e") -> KernelAnalysis:
    """FKO's kernel analysis — the feedback that seeds the search."""
    spec = get_kernel(kernel) if isinstance(kernel, str) else kernel
    mach = get_machine(machine) if isinstance(machine, str) else machine
    return FKO(mach).analyze(spec.hil)

__all__ = [
    # errors
    "HILError", "HILSemanticError", "HILSyntaxError", "IRError",
    "IRVerifyError", "KernelTestFailure", "MachineError",
    "RegisterPressureError", "ReproError", "SearchError",
    "SimulationFault", "TransformError",
    # compiler
    "FKO", "CompiledKernel", "KernelAnalysis", "PrefetchParams",
    "TransformParams", "compile_kernel", "fko_defaults", "compile_hil",
    # kernels
    "KERNEL_ORDER", "KernelSpec", "all_kernels", "get_kernel",
    # machines
    "Context", "MachineConfig", "get_machine", "opteron", "pentium4e",
    "run_function", "summarize", "time_kernel",
    # search
    "BatchResult", "LineSearch", "Searcher", "SearchResult", "TuneConfig",
    "TunedKernel", "TuningJob", "TuningSession", "build_space",
    "compile_default", "make_searcher", "registry_jobs", "searcher_names",
    "tune_kernel",
    # timing
    "Timer", "paper_n", "test_kernel",
    # observability
    "obs",
    # service + client (tuning-as-a-service)
    "TuneRequest", "TuneResponse", "history_digest", "TuneClient",
    "LocalClient", "ServeClient", "ServiceError", "make_client",
    # the three-verb facade
    "tune", "compile", "analyze",
    "__version__",
]
