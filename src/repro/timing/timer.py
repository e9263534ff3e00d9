"""Kernel timer, mirroring the paper's methodology (section 3.2).

"We enabled ATLAS's assembly-coded walltimer that accesses hardware
performance counters in order to get cycle-accurate results.  Since
walltime is prone to outside interference, each timing was repeated six
times (on an unloaded machine), and the minimum was taken."

The simulated machine is deterministic, so to keep the methodology
honest (and the min-of-6 protocol meaningful) the timer injects a small
deterministic pseudo-noise — multiplicative, ~0.3% — seeded from the
kernel identity.  The *minimum* over repetitions is reported, exactly
like the paper.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

import numpy as np

from ..fko.pipeline import CompiledKernel
from ..hil.tiling import nest_info
from ..util import LRUCache, check_schema
from ..kernels import REGISTRY
from ..kernels.blas1 import KernelSpec
from ..machine.blocking import nest_cycles
from ..machine.config import MachineConfig
from ..machine.loopinfo import LoopSummary, summarize
from ..machine.timing import Context, LoopTimer, TimingResult, parse_context


@dataclass
class KernelTiming:
    """Result of timing one kernel configuration."""

    cycles: float                     # min over repetitions
    seconds: float
    mflops: float
    n: int
    machine: str
    context: Context
    samples: List[float] = field(default_factory=list)
    raw: Optional[TimingResult] = None

    def __repr__(self) -> str:
        return (f"<{self.machine}/{self.context.value} N={self.n}: "
                f"{self.cycles:.0f} cy, {self.mflops:.1f} MFLOPS>")

    # -- JSON round-trip (worker results, result store) -----------------
    # ``raw`` (the per-level TimingResult breakdown) is derived data and
    # is not serialized; a reloaded timing carries ``raw=None``.
    def to_dict(self) -> dict:
        return {"schema": 1,
                "cycles": self.cycles, "seconds": self.seconds,
                "mflops": self.mflops, "n": self.n, "machine": self.machine,
                "context": self.context.value,
                "samples": [float(s) for s in self.samples]}

    @staticmethod
    def from_dict(data: dict) -> "KernelTiming":
        check_schema(data, "KernelTiming")
        return KernelTiming(cycles=float(data["cycles"]),
                            seconds=float(data["seconds"]),
                            mflops=float(data["mflops"]),
                            n=int(data["n"]), machine=data["machine"],
                            context=Context(data["context"]),
                            samples=[float(s) for s in
                                     data.get("samples", [])])


class Timer:
    def __init__(self, machine: MachineConfig, context: Context,
                 n: int, repeats: int = 6, noise: float = 0.003):
        self.machine = machine
        self.context = context
        self.n = n
        self.repeats = repeats
        self.noise = noise
        self._loop_timer = LoopTimer(machine, context)
        #: base (pre-noise) walk results keyed by a caller-supplied share
        #: key.  A share key asserts "this summary's content is identical
        #: to every other summary passed under the same key" — the engine
        #: uses FKO's complete effective-parameter key, which determines
        #: the compiled IR (and hence the summary) bit for bit.  Base
        #: timings are pure functions of (summary, source, tiles,
        #: machine, context, n), so serving a cached one is
        #: bit-identical to re-timing.
        self._base_cache = LRUCache(maxsize=256)
        self.base_hits = 0
        self.base_misses = 0

    # -- the two halves of one timing ----------------------------------
    def base(self, summary: LoopSummary,
             share_key: Optional[Hashable] = None, *,
             source: Optional[str] = None,
             tiles: Optional[Dict[str, int]] = None) -> TimingResult:
        """The deterministic timing (no noise), memoized under
        ``share_key`` (see ``_base_cache``).  The one place the timing
        model is chosen: when ``source`` (the kernel's HIL) is a full
        loop nest (:func:`nest_info`), the tuned loop is its innermost
        level and the per-line walk cannot cover the O(N^3) traffic, so
        the capacity-miss model of :mod:`repro.machine.blocking` prices
        it under ``tiles``; everything else gets the per-line walk.  A
        share key pins the tiled source, so tiles are part of its
        identity."""
        if share_key is not None:
            hit = self._base_cache.get(share_key)
            if hit is not None:
                self.base_hits += 1
                return hit
            self.base_misses += 1
        nest = nest_info(source) if isinstance(source, str) else None
        if nest is not None:
            result = nest_cycles(summary, nest, tiles or {}, self.machine,
                                 self.context, self.n)
        else:
            result = self._loop_timer.time(summary, self.n)
        if share_key is not None:
            self._base_cache.put(share_key, result)
        return result

    def peek_base(self, share_key: Optional[Hashable]) -> \
            Optional[TimingResult]:
        """The memoized walk for ``share_key``, or None.  Lets callers
        skip producing the summary entirely when the walk is already
        cached — under a share key, an identical summary is guaranteed,
        so the skipped work could not have changed the result."""
        if share_key is None:
            return None
        hit = self._base_cache.get(share_key)
        if hit is not None:
            self.base_hits += 1
        return hit

    def finish(self, base: TimingResult, flops: float,
               ident: str = "") -> KernelTiming:
        """Apply the identity-seeded measurement noise and the paper's
        min-of-``repeats`` protocol to a base walk.  The draws are one
        vectorized ``normal(0, noise, repeats)`` call — bitwise equal to
        ``repeats`` sequential scalar draws from the same generator."""
        seed = zlib.crc32(
            f"{ident}|{self.machine.name}|{self.context.value}|{self.n}"
            .encode()) & 0xFFFFFFFF
        rng = np.random.default_rng(seed)
        draws = rng.normal(0, self.noise, self.repeats)
        samples = [float(c)
                   for c in base.cycles * (1.0 + np.abs(draws))]
        cycles = min(samples)
        seconds = cycles / self.machine.freq_hz
        mflops = (flops / seconds / 1e6) if seconds > 0 else 0.0
        return KernelTiming(cycles=cycles, seconds=seconds, mflops=mflops,
                            n=self.n, machine=self.machine.name,
                            context=self.context, samples=samples, raw=base)

    # -- public timing API ---------------------------------------------
    def time_summary(self, summary: LoopSummary, flops: float,
                     ident: str = "",
                     share_key: Optional[Hashable] = None) -> KernelTiming:
        return self.finish(self.base(summary, share_key), flops, ident)

    def time(self, compiled: CompiledKernel, spec: KernelSpec) -> KernelTiming:
        """Time one compiled kernel of ``spec`` with the model its
        search ranked it by (:meth:`base` decides from ``spec.hil``)."""
        base = self.base(summarize(compiled.fn), source=spec.hil,
                         tiles=compiled.params.tiles())
        return self.finish(base, spec.flops(self.n),
                           ident=f"{spec.name}|{compiled.params.key()}")

    def cache_stats(self) -> dict:
        """Walk-reuse counters for the batched-evaluation path."""
        return {"base_hits": self.base_hits, "base_misses": self.base_misses}


def paper_n(context: Context) -> int:
    """The paper's problem sizes: N=80000 out of cache, N=1024 in-L2."""
    return 80000 if context is Context.OUT_OF_CACHE else 1024


def default_n(kernel, context) -> int:
    """The problem size of an unsized problem: ``kernel`` is a registry
    name or a :class:`KernelSpec`, ``context`` any spelling
    :func:`parse_context` accepts.  Vector kernels use the paper's N;
    cubic nest kernels scale as N^1.5 in memory, so their defaults are
    matrix orders: 512 puts the working set well out of cache, 160
    keeps all three operands resident in a 1MB L2
    (3 * 160^2 * 8 bytes = 600KB)."""
    ctx = parse_context(context)
    spec = REGISTRY.get(kernel) if isinstance(kernel, str) else kernel
    if spec is not None and spec.flops_order >= 3:
        return 512 if ctx is Context.OUT_OF_CACHE else 160
    return paper_n(ctx)
