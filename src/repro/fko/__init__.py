"""FKO — the Floating point Kernel Optimizer (the compiler half of ifko).

"The heart of this project is an optimizing compiler called FKO, which
has been specialized for empirical optimization of floating point
kernels." (section 2.2)

Typical use::

    from repro.fko import FKO
    from repro.machine import pentium4e

    fko = FKO(pentium4e())
    analysis = fko.analyze(hil_source)       # feeds the search
    kernel = fko.compile(hil_source, params) # one point in the space
"""

from __future__ import annotations

from typing import Optional, Set, Tuple, Union

from ..hil import compile_hil
from ..hil.lower import lower
from ..hil.parser import parse
from ..hil.semantic import check
from ..hil.tiling import tiled_source
from ..ir import Function
from ..machine.config import MachineConfig
from ..obs.core import active as _obs_active
from ..util import LRUCache
from .analysis import KernelAnalysis, analyze
from .params import PrefetchParams, TransformParams, fko_defaults
from .pipeline import (CompiledKernel, compile_kernel, compile_prefix,
                       finish_kernel, prefix_key)
from .clonefn import clone_function
from .prefetch import rebind_prefetches

__all__ = ["FKO", "KernelAnalysis", "analyze", "PrefetchParams",
           "TransformParams", "fko_defaults", "CompiledKernel",
           "compile_kernel", "compile_prefix", "finish_kernel",
           "prefix_key", "clone_function"]

#: parse -> check -> lower results keyed by source text (the front end
#: is machine-independent; the per-machine analysis of each lowered
#: function lives on each FKO instance).  Shared module-wide: the search
#: recompiles the same handful of kernel sources hundreds of times.
_FRONT_END_CACHE = LRUCache(maxsize=64)


def _front_end_cached(source: str) -> Tuple[Function, frozenset]:
    hit = _FRONT_END_CACHE.get(source)
    if hit is None:
        checked = check(parse(source))
        hit = (lower(checked), frozenset(checked.noprefetch))
        _FRONT_END_CACHE.put(source, hit)
    return hit


class FKO:
    """Front door: parses HIL (or takes IR), analyzes, and compiles.

    Front-end products and per-kernel analyses are cached: the lowered
    :class:`Function` for a source string is built once (module-wide)
    and :func:`compile_kernel` receives it to clone, while each instance
    keeps the function it analyzed and that analysis as one entry per
    source.  An analysis names its function's VRegs (accumulators), so
    the two must never come from different lowerings: when the
    module-wide cache evicts a source and lowers it again, the fresh
    function carries fresh VRegs, and only the instance's own pair is
    safe to compile.  Sharing is safe because the pipeline never mutates
    its input function and an analysis references only clone-shared
    value objects.
    """

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        #: source -> (lowered Function, noprefetch set, its analysis)
        self._source_cache = LRUCache(maxsize=64)
        #: post-AE IR snapshots keyed by (source, effective early params);
        #: entries are (Function, applied) and are cloned on every fork,
        #: so cached IR is never reachable from a caller
        self._snapshots = LRUCache(maxsize=32)
        #: finished CompiledKernels keyed by the complete effective
        #: parameter tuple less each array's prefetch distance (one
        #: entry per distance class); entries are (kernel, {array: dist
        #: it was compiled at}) and a hit rebinds the PREFETCH
        #: displacements to the caller's distances
        self._full_cache = LRUCache(maxsize=256)
        # reuse counters (read by the search engine / benchmarks)
        self.prefix_hits = 0      # forked from a post-AE snapshot
        self.prefix_misses = 0    # ran the full pipeline
        self.full_hits = 0       # whole-pipeline hits (subset of reuse)

    # ------------------------------------------------------------------
    def front_end(self, source: Union[str, Function]):
        """HIL source -> (Function, noprefetch mark-up set).

        Returns a private clone of the cached lowered function, so
        callers may mutate it freely."""
        if isinstance(source, Function):
            return source, set()
        fn, noprefetch = _front_end_cached(source)
        return clone_function(fn), set(noprefetch)

    def _source(self, source: str
                ) -> Tuple[Function, frozenset, KernelAnalysis]:
        """The lowered function of ``source``, its noprefetch set and
        this machine's analysis of that very function, cached as one
        entry so they are evicted together."""
        entry = self._source_cache.get(source)
        if entry is None:
            fn, noprefetch = _front_end_cached(source)
            entry = (fn, noprefetch, self._analyze_fn(fn, noprefetch))
            self._source_cache.put(source, entry)
        return entry

    def _analyze_fn(self, fn: Function, noprefetch) -> KernelAnalysis:
        from .controlflow import cleanup_cfg
        work = clone_function(fn)
        cleanup_cfg(work)
        return analyze(work, self.machine, set(noprefetch))

    def analyze(self, source: Union[str, Function]) -> KernelAnalysis:
        if isinstance(source, Function):
            return self._analyze_fn(source, ())
        return self._source(source)[2]

    def _full_key(self, source: str, params: TransformParams,
                  analysis: KernelAnalysis, debug_verify: bool):
        """Complete effective-parameter identity: the prefix key plus
        everything :func:`finish_kernel` reads from ``params``, all
        post-legality — two requests with the same full key run the
        exact same pass sequence on the same IR."""
        pf = tuple(sorted((a, p.hint.value, p.dist)
                          for a, p in params.prefetch.items()
                          if p.enabled and a in analysis.prefetch_arrays))
        wnt = bool(params.wnt and analysis.output_arrays)
        bf = bool(params.block_fetch and (analysis.output_arrays
                                          or analysis.input_arrays))
        return (source, prefix_key(params, analysis, debug_verify),
                pf, wnt, bf, params.copy_propagation, params.peephole,
                params.cf_cleanup, params.register_allocation)

    @staticmethod
    def _effective_source(source: str,
                          params: Optional[TransformParams]) -> str:
        """Apply the nest-level tiling pass: ``tile:<ivar>`` extension
        parameters rewrite the HIL source *before* the inner-loop
        pipeline sees it.  Identity (the same string object) when no
        tiles are requested or the source has no tileable nest, so
        every downstream cache key — front-end, prefix, full, share —
        is byte-stable for legacy parameters."""
        if params is None:
            return source
        tiles = params.tiles()
        return tiled_source(source, tiles) if tiles else source

    def compile(self, source: Union[str, Function],
                params: Optional[TransformParams] = None,
                debug_verify: bool = False) -> CompiledKernel:
        if isinstance(source, Function):
            return compile_kernel(source, self.machine, params,
                                  noprefetch=set(),
                                  debug_verify=debug_verify)
        source = self._effective_source(source, params)
        fn, noprefetch, analysis = self._source(source)
        # Memoized compilation is bypassed while an obs collector is
        # active: a cache hit would skip the per-pass spans a trace of
        # this eval is expected to carry, making observed traces depend
        # on eval order.  Observed compiles always run the full pipeline.
        if _obs_active() is not None:
            return compile_kernel(fn, self.machine, params,
                                  noprefetch=set(noprefetch),
                                  debug_verify=debug_verify,
                                  analysis=analysis)
        if params is None:
            params = self.defaults(source)

        # the distance class: PF runs before every pass that could see
        # a displacement, so kernels that differ only in prefetch
        # distance are one body with different PREFETCH displacements
        fkey = self._full_key(source, params, analysis, debug_verify)
        ckey = fkey[:2] + (tuple(e[:2] for e in fkey[2]),) + fkey[3:]
        dists = {a: dist for a, _, dist in fkey[2]}
        hit = self._full_cache.get(ckey)
        if hit is not None:
            # whole-pipeline reuse, cloned so no caller ever holds (or
            # can mutate) cache-owned IR, then moved to these distances
            kernel, at = hit
            fn = clone_function(kernel.fn)
            if dists != at:
                rebind_prefetches(fn, at, dists)
            self.full_hits += 1
            self.prefix_hits += 1
            return CompiledKernel(fn=fn, params=params,
                                  analysis=kernel.analysis,
                                  machine=self.machine,
                                  applied=dict(kernel.applied),
                                  allocation=kernel.allocation)

        pkey = (source, prefix_key(params, analysis, debug_verify))
        snap = self._snapshots.get(pkey)
        if snap is None:
            self.prefix_misses += 1
            work, analysis, params, applied = compile_prefix(
                fn, self.machine, params, set(noprefetch), debug_verify,
                analysis)
            self._snapshots.put(pkey, (clone_function(work), dict(applied)))
            compiled = finish_kernel(work, self.machine, params, analysis,
                                     applied, debug_verify)
        else:
            self.prefix_hits += 1
            snap_fn, snap_applied = snap
            compiled = finish_kernel(clone_function(snap_fn), self.machine,
                                     params, analysis, dict(snap_applied),
                                     debug_verify)
        # the cache owns a private clone; the caller gets the original
        self._full_cache.put(ckey, (CompiledKernel(
            fn=clone_function(compiled.fn), params=compiled.params,
            analysis=compiled.analysis, machine=compiled.machine,
            applied=dict(compiled.applied), allocation=compiled.allocation),
            dists))
        return compiled

    def share_key(self, source: Union[str, Function],
                  params: Optional[TransformParams] = None,
                  debug_verify: bool = False):
        """The complete effective-parameter identity of a compile —
        what :meth:`compile` keys its whole-pipeline cache on.  Two
        requests with equal share keys produce bit-identical kernels,
        so downstream consumers (the engine's shared-walk timing) may
        treat their derived results as interchangeable.  ``None`` for
        raw :class:`Function` sources — callers then never share."""
        if isinstance(source, Function):
            return None
        source = self._effective_source(source, params)
        analysis = self.analyze(source)
        if params is None:
            params = self.defaults(source)
        return self._full_key(source, params, analysis, debug_verify)

    def cache_stats(self) -> dict:
        """Reuse counters for the batched-evaluation path."""
        return {"prefix_hits": self.prefix_hits,
                "prefix_misses": self.prefix_misses,
                "full_hits": self.full_hits}

    def defaults(self, source: Union[str, Function]) -> TransformParams:
        """FKO's static default parameters for this kernel (section 2.3)."""
        a = self.analyze(source)
        veclen = a.veclen if a.vectorizable else 1
        return fko_defaults(self.machine.prefetchable_line, a.elem.size,
                            veclen, tuple(a.prefetch_arrays))
