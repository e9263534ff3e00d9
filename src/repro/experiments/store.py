"""Shared result store for the experiment harnesses.

Figures 2-4 need every (kernel x method) timing, Table 3 and Figure 7
need the ifko search results, Figure 5 needs ifko timings across both
contexts — all for the same configurations.  The store computes each
result once per process and memoizes it.

All tuning runs through one :class:`repro.search.TuningSession`, so the
figures share the engine's persistent evaluation cache, can fan out
across worker processes (``jobs`` argument or ``REPRO_JOBS``), can be
traced (``trace`` argument), and can swap the global-search strategy
(``strategy``/``seed`` arguments or ``REPRO_STRATEGY``/``REPRO_SEED``)
to regenerate the figures under an alternative searcher.

Problem sizes default to the paper's (N=80000 out of cache, N=1024
in-L2).  ``quick=True`` shrinks the out-of-cache N (same physics, fewer
simulated lines) so the full suite runs fast under pytest; the
benchmark harness uses the paper sizes.

Setting ``REPRO_CACHE_DIR`` (or passing ``cache_dir``) additionally
persists results to disk as JSON, the way an ATLAS install records its
search results: a second run of the experiment suite reloads instead of
re-tuning.  Rows are :class:`repro.records.RecordStore` records under
``rows/``, each keyed by the :func:`~repro.records.canonical_digest` of
(package version, machine identity, context, N, kernel, method,
strategy, seed), so a row is never reused across code changes, for
another search or for a modified machine config.  A damaged row is a miss
and is recomputed; a row the disk refuses leaves the cache cold.
Since ``SearchResult`` round-trips through JSON, ifko rows reload
complete with their search detail; the engine's per-evaluation cache
lives in an ``evals/`` subdirectory of the same tree.

Setting ``REPRO_SERVE_URL`` (or passing ``serve_url``) routes the ifko
rows through a running ``repro serve`` daemon instead of the in-process
session: many experiment processes then share one engine, one
evaluation cache and the daemon's persistent result store — with
bit-identical answers, since the engine is deterministic.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..atlas import atlas_search
from ..kernels import KERNEL_ORDER, get_kernel
from ..machine import Context, machine_ident
from ..machine.config import MachineConfig
from ..records import RecordStore, canonical_digest
from ..refcomp import ALL_COMPILERS
from ..search import SearchResult, TuneConfig, TunedKernel, TuningSession

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


def paper_sizes(quick: bool = False) -> Dict[Context, int]:
    ooc = 20000 if quick else 80000
    return {Context.OUT_OF_CACHE: ooc, Context.IN_L2: 1024}


class ResultStore:
    """Memoized (machine, context, kernel, method) -> MethodResult."""

    def __init__(self, quick: Optional[bool] = None,
                 cache_dir: Optional[str] = None,
                 jobs: Optional[int] = None,
                 trace: Optional[str] = None,
                 strategy: Optional[str] = None,
                 seed: Optional[int] = None,
                 serve_url: Optional[str] = None):
        if quick is None:
            quick = os.environ.get("REPRO_FULL", "") == ""
        self.quick = quick
        self.sizes = paper_sizes(quick)
        self._cache: Dict[Tuple[str, Context, str, str], MethodResult] = {}
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.rows = (RecordStore(self.cache_dir / "rows")
                     if self.cache_dir is not None else None)
        if jobs is None:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or 1)
        self.jobs = jobs
        if strategy is None:
            strategy = os.environ.get("REPRO_STRATEGY", "") or "line"
        self.strategy = strategy
        if seed is None:
            seed = int(os.environ.get("REPRO_SEED", "0") or 0)
        self.seed = seed
        if serve_url is None:
            serve_url = os.environ.get("REPRO_SERVE_URL") or None
        self.serve_url = serve_url
        self._serve_client = None
        eval_cache = (str(self.cache_dir / "evals")
                      if self.cache_dir is not None else None)
        self.session = TuningSession(TuneConfig(
            jobs=jobs, cache_dir=eval_cache, trace=trace, run_tester=False,
            strategy=strategy, seed=seed))

    # ------------------------------------------------------------------
    # optional JSON persistence (search results round-trip through
    # SearchResult.to_dict, so ifko rows reload with full detail)
    def _row_key(self, key) -> str:
        """The digest of everything that produced the row."""
        ident, ctx, kernel, method = key
        return canonical_digest([__version__, ident, ctx.value,
                                 self.n_for(ctx), kernel, method,
                                 self.strategy, self.seed])

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
            tk = self._tune_ifko(spec, machine, context, n)
            return MethodResult(method, kernel, tk.mflops, tk.timing.cycles,
                                label=tk.params.describe(), search=tk.search)
        raise KeyError(f"unknown method {method!r}")

    def _tune_ifko(self, spec, machine: MachineConfig, context: Context,
                   n: int) -> TunedKernel:
        """The ifko rows optionally route through a running ``repro
        serve`` daemon (``serve_url`` argument or ``REPRO_SERVE_URL``):
        many experiment processes then share one engine, one evaluation
        cache and the daemon's result store.  FKO is deterministic, so
        the winner recompiled from the daemon's response is
        bit-identical to an in-process tune."""
        if self.serve_url:
            if ":" in machine_ident(machine):
                raise ValueError(
                    f"the serve wire names machines by registry name, but "
                    f"this {machine.name!r} config differs from the "
                    f"registry machine; tune it without serve_url")
            if self._serve_client is None:
                from ..client import ServeClient
                self._serve_client = ServeClient(self.serve_url)
            from ..service import TuneRequest
            request = TuneRequest.from_config(spec.name, machine, context, n,
                                              self.session.config)
            return self._serve_client.tune(request).tuned()
        return self.session.tune(spec, machine, context, n)


#: one store shared by all harnesses in a process
_GLOBAL: Optional[ResultStore] = None


def global_store(quick: Optional[bool] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None) -> ResultStore:
    global _GLOBAL
    if (_GLOBAL is None
            or (quick is not None and _GLOBAL.quick != quick)
            or (jobs is not None and _GLOBAL.jobs != jobs)
            or (cache_dir is not None
                and _GLOBAL.cache_dir != pathlib.Path(cache_dir))):
        _GLOBAL = ResultStore(quick, cache_dir=cache_dir, jobs=jobs)
    return _GLOBAL
