"""The modified line search (section 2.3).

"In a pure line search, the N_T-D problem is split into N_T separate
1-D searches, where the starting points in the space correspond to the
initial search parameter selection (in our case, FKO defaults). ...
because we understand many of the interactions between optimizations,
we are able to relax the strict 1-D searches to account for
interdependencies (eg., when two transformations are known to strongly
interact, do a restricted 2-D search)."

Sweep plan (each phase keeps the best-so-far as the new base; a move
requires a *strict* improvement, so plateaus resolve to the earliest —
usually smallest/simplest — value):

1. SV on/off (defaults to on when legal; almost always stays on).
2. WNT on/off.
3. Per prefetchable array: distance sweep at the default instruction
   (the "PF DST" gain of Figure 7), then instruction-flavor sweep at
   the best distance ("PF INS") — the restricted 2-D search for the
   known PF interaction.
4. Unroll sweep ("UR").
5. Accumulator-expansion sweep ("AE"), then a restricted 2-D
   refinement over (UR, AE) neighborhoods — the paper's example of a
   strongly interacting pair.

The per-phase best cycles are recorded so Figure 7's speedup
decomposition can be regenerated.

:class:`LineSearch` is the first registered strategy behind the ask/tell
:class:`~repro.search.strategies.Searcher` protocol; its sweep plan —
and therefore its evaluation order, budget charging and results — is
unchanged from the pre-protocol implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir import PrefetchHint
from ..fko.params import TransformParams
from ..util import check_schema
from .space import dim_get, dim_set
from .strategies import (BatchEvaluator, Evaluator, Plan, Searcher,
                         register_searcher)

#: phase names in Figure 7's legend order (BF is this reproduction's
#: extension: the block-fetch transform the paper lists as planned)
PHASES = ("SV", "WNT", "PF DST", "PF INS", "UR", "AE", "BF")


@dataclass
class SearchResult:
    best_params: TransformParams
    best_cycles: float
    start_cycles: float
    n_evaluations: int
    phase_gains: Dict[str, float] = field(default_factory=dict)
    history: List[Tuple[str, Tuple, float]] = field(default_factory=list)

    @property
    def speedup_over_start(self) -> float:
        if self.best_cycles == self.start_cycles:
            return 1.0   # covers inf == inf (every evaluation failed)
        return self.start_cycles / self.best_cycles if self.best_cycles else 1.0

    def phase_speedups(self) -> Dict[str, float]:
        """Multiplicative gain attributed to each tuning phase (the
        Figure 7 decomposition); the product equals the total speedup.
        Only the line search attributes gains; other strategies report
        an empty ``phase_gains`` (every phase shows as 1.0).  Phases
        beyond the paper's legend (the TILE phase of nest kernels) pass
        through after the fixed seven, so the decomposition stays
        complete for every kernel."""
        out = {p: self.phase_gains.get(p, 1.0) for p in PHASES}
        for p, g in self.phase_gains.items():
            if p not in out:
                out[p] = g
        return out

    # -- JSON round-trip (worker results, result store) -----------------
    def to_dict(self) -> Dict:
        return {"schema": 1,
                "best_params": self.best_params.to_dict(),
                "best_cycles": self.best_cycles,
                "start_cycles": self.start_cycles,
                "n_evaluations": self.n_evaluations,
                "phase_gains": dict(self.phase_gains),
                "history": [[phase, _jsonable(key), cycles]
                            for phase, key, cycles in self.history]}

    @staticmethod
    def from_dict(data: Dict) -> "SearchResult":
        check_schema(data, "SearchResult")
        return SearchResult(
            best_params=TransformParams.from_dict(data["best_params"]),
            best_cycles=float(data["best_cycles"]),
            start_cycles=float(data["start_cycles"]),
            n_evaluations=int(data["n_evaluations"]),
            phase_gains={p: float(g)
                         for p, g in data.get("phase_gains", {}).items()},
            history=[(phase, _tupled(key), float(cycles))
                     for phase, key, cycles in data.get("history", [])])


def _jsonable(obj):
    """Nested params-key tuple -> nested JSON list."""
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    return obj


def _tupled(obj):
    """Inverse of :func:`_jsonable`."""
    if isinstance(obj, list):
        return tuple(_tupled(x) for x in obj)
    return obj


@register_searcher
class LineSearch(Searcher):
    """The paper's modified line search as an ask/tell strategy.

    The plan proposes each phase's candidate list as one batch — the
    engine fans uncached candidates across its worker pool — and keeps
    the best-so-far as the new base, moving only on strict improvement
    beyond ``min_gain``.  ``seed`` is accepted for protocol uniformity
    but unused: the sweep is fully deterministic by construction.
    """

    name = "line"

    def _plan(self) -> Plan:
        sp = self.space
        gains = {p: 1.0 for p in PHASES}
        self.phase_gains = gains

        self.phase = "start"
        base = self.start
        (best,) = yield [base]
        self.start_cycles = best
        self.best_params, self.best_cycles = base, best

        def attributed(phase: str, cands) -> Plan:
            """Try each candidate; move only on strict improvement;
            credit the phase with the multiplicative gain."""
            nonlocal base, best
            self.phase = phase
            before = best
            cands = list(cands)
            cycles = yield cands
            best_params = base
            for params, c in zip(cands, cycles):
                if c < best * (1.0 - self.min_gain):
                    best, best_params = c, params
            base = best_params
            if best > 0:
                gains[phase] *= before / best
            self.best_params, self.best_cycles = base, best

        # --- SV
        if len(sp.sv_options) > 1:
            yield from attributed("SV", [base.copy(sv=v)
                                         for v in sp.sv_options
                                         if v != base.sv])

        # --- WNT (with its known PF interaction: a non-temporal store
        # needs no read-for-ownership, so the best WNT configuration may
        # also drop the output array's prefetch — try the combo)
        def wnt_candidates(cur: TransformParams):
            cands = []
            for v in sp.wnt_options:
                if v == cur.wnt:
                    continue
                cands.append(cur.copy(wnt=v))
                if v:
                    nopf = cur.copy(wnt=True)
                    for arr in self.output_arrays:
                        if arr in sp.prefetch_arrays:
                            nopf = nopf.with_pf(arr, None, 0)
                    cands.append(nopf)
            return cands

        if len(sp.wnt_options) > 1:
            yield from attributed("WNT", wnt_candidates(base))

        # --- TILE (nest kernels only): cache-blocking sizes dominate
        # the memory behavior every later phase tunes against, so they
        # are fixed early — one 1-D sweep per blocked loop variable,
        # then a restricted 2-D neighborhood refinement for the known
        # tile-tile interaction (the blocks share the L2).
        tile_dims = sp.tile_dims
        if tile_dims:
            gains["TILE"] = 1.0
            for d in tile_dims:
                yield from attributed(
                    "TILE", [dim_set(base, d.name, v)
                             for v in d.options
                             if v != dim_get(base, d.name)])
            if len(tile_dims) > 1:
                axes = [_neighbors(list(d.options),
                                   dim_get(base, d.name))
                        for d in tile_dims]
                combos = []
                cur = tuple(dim_get(base, d.name) for d in tile_dims)
                for combo in itertools.product(*axes):
                    if combo == cur:
                        continue
                    c = base
                    for d, v in zip(tile_dims, combo):
                        c = dim_set(c, d.name, v)
                    combos.append(c)
                yield from attributed("TILE", combos)

        # --- PF distance.  The streams advance in lockstep, so array
        # distances interact strongly: sweep one distance applied to
        # *all* prefetched arrays first (a restricted N-D search), then
        # refine per array.
        def pf_dist_candidates(cur: TransformParams):
            cands = []
            prefetched = [a for a in sp.prefetch_arrays
                          if cur.pf(a).enabled]
            if len(prefetched) > 1:
                for d in sp.dist_options:
                    if d == 0:
                        continue
                    c = cur
                    for arr in prefetched:
                        hint = cur.pf(arr).hint or PrefetchHint.NTA
                        c = c.with_pf(arr, hint, d)
                    if c.key() != cur.key():
                        cands.append(c)
            return cands

        yield from attributed("PF DST", pf_dist_candidates(base))
        for arr in sp.prefetch_arrays:
            hint = base.pf(arr).hint or PrefetchHint.NTA
            yield from attributed(
                "PF DST", [base.with_pf(arr, hint if d > 0 else None, d)
                           for d in sp.dist_options
                           if d != base.pf(arr).dist])

        # --- PF instruction flavor at the chosen distance
        for arr in sp.prefetch_arrays:
            cur = base.pf(arr)
            if not cur.enabled:
                continue
            yield from attributed("PF INS", [base.with_pf(arr, h, cur.dist)
                                             for h in sp.hint_options
                                             if h is not cur.hint])

        # --- UR
        yield from attributed("UR", [base.copy(unroll=u)
                                     for u in sp.unroll_options
                                     if u != base.unroll])

        # --- AE, then the restricted (UR, AE) 2-D refinement
        if len(sp.ae_options) > 1:
            yield from attributed("AE", [base.copy(ae=a)
                                         for a in sp.ae_options
                                         if a != base.ae])
            urs = _neighbors(sp.unroll_options, base.unroll)
            aes = _neighbors(sp.ae_options, base.ae)
            yield from attributed("AE", [base.copy(unroll=u, ae=a)
                                         for u in urs for a in aes
                                         if (u, a) != (base.unroll, base.ae)])

        # --- BF (extension): block-fetch scheduling
        if len(sp.block_fetch_options) > 1:
            yield from attributed("BF", [base.copy(block_fetch=v)
                                         for v in sp.block_fetch_options
                                         if v != base.block_fetch])

        # --- revisit round: transforms whose payoff only appears once
        # the prefetch distances stopped the latency stalls (e.g. WNT's
        # bus saving on a now-bandwidth-bound loop)
        if len(sp.wnt_options) > 1:
            yield from attributed("WNT", wnt_candidates(base))
        for arr in sp.prefetch_arrays:
            hint = base.pf(arr).hint or PrefetchHint.NTA
            yield from attributed(
                "PF DST", [base.with_pf(arr, hint if d > 0 else None, d)
                           for d in sp.dist_options
                           if d != base.pf(arr).dist])
        for d in tile_dims:
            yield from attributed(
                "TILE", [dim_set(base, d.name, v)
                         for v in _neighbors(list(d.options),
                                             dim_get(base, d.name))
                         if v != dim_get(base, d.name)])
        yield from attributed("UR", [base.copy(unroll=u)
                                     for u in sp.unroll_options
                                     if u != base.unroll])


def _neighbors(options: List, value, radius: int = 1) -> List:
    if value not in options:
        return [value]
    i = options.index(value)
    lo = max(0, i - radius)
    hi = min(len(options), i + radius + 1)
    return list(options[lo:hi])
