"""Shared result store for the experiment harnesses.

Figures 2-4 need every (kernel x method) timing, Table 3 and Figure 7
need the ifko search results, Figure 5 needs ifko timings across both
contexts — all for the same configurations.  The store computes each
result once per process and memoizes it.

The store's three arguments are the whole declaration of how the suite
runs; it reads no environment.  Problem sizes are the paper's
(:func:`repro.timing.timer.paper_n`: N=80000 out of cache, N=1024
in-L2).  ``quick=True`` shrinks the out-of-cache N to 20000, which only
the benchmark's smoke run uses.  All tuning runs through one
:class:`repro.search.TuningSession` with the line search, so the
figures share the engine's evaluation cache and fan out across
``jobs`` worker processes.

``cache_dir`` additionally persists results to disk as JSON, the way
an ATLAS install records its search results: a second run of the
experiment suite reloads instead of re-tuning.  Rows are
:class:`repro.records.RecordStore` records under ``rows/``, each keyed
by the :func:`~repro.records.canonical_digest` of (package version,
machine identity, context, N, kernel, method, strategy, seed), so a row
is never reused across code changes or for a modified machine config.
A damaged row is a miss and is recomputed; a row the disk refuses
leaves the cache cold.  Since ``SearchResult`` round-trips through
JSON, ifko rows reload complete with their search detail; the engine's
per-evaluation cache lives in an ``evals/`` subdirectory of the same
tree.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..atlas import atlas_search
from ..kernels import KERNEL_ORDER, get_kernel
from ..machine import Context, machine_ident
from ..machine.config import MachineConfig
from ..records import RecordStore, canonical_digest
from ..refcomp import ALL_COMPILERS
from ..search import SearchResult, TuneConfig, TuningSession
from ..timing.timer import paper_n

#: column order of the paper's figures
METHODS = ("gcc+ref", "icc+ref", "icc+prof", "ATLAS", "FKO", "ifko")


@dataclass
class MethodResult:
    method: str
    kernel: str
    mflops: float
    cycles: float
    label: str = ""              # params / winning variant description
    starred: bool = False        # ATLAS picked an all-assembly kernel
    search: Optional[SearchResult] = None

    @property
    def display_kernel(self) -> str:
        return self.kernel + ("*" if self.starred else "")


class ResultStore:
    """Memoized (machine, context, kernel, method) -> MethodResult."""

    def __init__(self, quick: bool = False, cache_dir: Optional[str] = None,
                 jobs: int = 1):
        self.quick = quick
        self.sizes = {ctx: paper_n(ctx) for ctx in Context}
        if quick:
            self.sizes[Context.OUT_OF_CACHE] = 20000
        self._cache: Dict[Tuple[str, Context, str, str], MethodResult] = {}
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.rows = (RecordStore(self.cache_dir / "rows")
                     if self.cache_dir is not None else None)
        self.jobs = jobs
        eval_cache = (str(self.cache_dir / "evals")
                      if self.cache_dir is not None else None)
        self.session = TuningSession(TuneConfig(
            jobs=jobs, cache_dir=eval_cache, run_tester=False))

    # ------------------------------------------------------------------
    # optional JSON persistence (search results round-trip through
    # SearchResult.to_dict, so ifko rows reload with full detail)
    def _row_key(self, key) -> str:
        """The digest of everything that produced the row."""
        ident, ctx, kernel, method = key
        config = self.session.config
        return canonical_digest([__version__, ident, ctx.value,
                                 self.n_for(ctx), kernel, method,
                                 config.strategy, config.seed])

    def _load_disk(self, key) -> Optional[MethodResult]:
        if self.rows is None:
            return None
        data = self.rows.get(self._row_key(key))
        try:
            search = data.get("search")
            return MethodResult(
                method=data["method"], kernel=data["kernel"],
                mflops=float(data["mflops"]), cycles=float(data["cycles"]),
                label=data.get("label", ""),
                starred=data.get("starred", False),
                search=SearchResult.from_dict(search) if search else None)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def _save_disk(self, key, result: MethodResult) -> None:
        if self.rows is None:
            return
        self.rows.put(self._row_key(key), {
            "method": result.method, "kernel": result.kernel,
            "mflops": result.mflops, "cycles": result.cycles,
            "label": result.label, "starred": result.starred,
            "search": result.search.to_dict() if result.search else None})

    # ------------------------------------------------------------------
    def n_for(self, context: Context) -> int:
        return self.sizes[context]

    def get(self, machine: MachineConfig, context: Context, kernel: str,
            method: str) -> MethodResult:
        # every spelling of one machine shares one row, a modified
        # config gets its own, and a registry machine's disk tags agree
        # with service digests and warm-start lookups
        key = (machine_ident(machine), context, kernel, method)
        if key not in self._cache:
            disk = self._load_disk(key)
            if disk is not None:
                self._cache[key] = disk
            else:
                result = self._compute(machine, context, kernel, method)
                self._cache[key] = result
                self._save_disk(key, result)
        return self._cache[key]

    def row(self, machine: MachineConfig, context: Context,
            kernel: str) -> Dict[str, MethodResult]:
        return {m: self.get(machine, context, kernel, m) for m in METHODS}

    def matrix(self, machine: MachineConfig, context: Context,
               kernels: Optional[List[str]] = None
               ) -> Dict[str, Dict[str, MethodResult]]:
        kernels = kernels or list(KERNEL_ORDER)
        return {k: self.row(machine, context, k) for k in kernels}

    # ------------------------------------------------------------------
    def _compute(self, machine: MachineConfig, context: Context,
                 kernel: str, method: str) -> MethodResult:
        spec = get_kernel(kernel)
        n = self.n_for(context)
        # every method compiles and times on the session's pair, so the
        # six methods of a row, and the rows of one machine, share one
        # FKO's compile caches and one Timer's walk memo
        fko, timer = self.session.tools(machine, context, n)
        if method in ("gcc+ref", "icc+ref", "icc+prof"):
            cname = {"gcc+ref": "gcc", "icc+ref": "icc",
                     "icc+prof": "icc+prof"}[method]
            comp = next(c for c in ALL_COMPILERS if c.name == cname)
            build = comp.build(spec, machine, context, n, fko=fko,
                               timer=timer)
            return MethodResult(method, kernel, build.mflops,
                                build.timing.cycles,
                                label=comp.flags(machine))
        if method == "ATLAS":
            res = atlas_search(spec, machine, context, n, run_tester=False,
                               fko=fko, timer=timer)
            return MethodResult(method, kernel, res.mflops,
                                res.timing.cycles, label=res.best_label,
                                starred=res.is_assembly)
        if method == "FKO":
            tk = self.session.compile_default(spec, machine, context, n)
            return MethodResult(method, kernel, tk.mflops, tk.timing.cycles,
                                label=tk.params.describe())
        if method == "ifko":
            tk = self.session.tune(spec, machine, context, n)
            return MethodResult(method, kernel, tk.mflops, tk.timing.cycles,
                                label=tk.params.describe(), search=tk.search)
        raise KeyError(f"unknown method {method!r}")


#: one store shared by all harnesses in a process
_GLOBAL: Optional[ResultStore] = None


def global_store(jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None) -> ResultStore:
    global _GLOBAL
    if (_GLOBAL is None
            or (jobs is not None and _GLOBAL.jobs != jobs)
            or (cache_dir is not None
                and _GLOBAL.cache_dir != pathlib.Path(cache_dir))):
        _GLOBAL = ResultStore(cache_dir=cache_dir,
                              jobs=1 if jobs is None else jobs)
    return _GLOBAL
