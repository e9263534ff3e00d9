"""Pluggable global-search strategies — the ask/tell ``Searcher`` protocol.

The paper names its own search as the weakest link: "There are several
ways of performing this search, including simulated annealing and
genetic algorithms.  We currently use a much simpler technique, a
modified line search" (section 2.3), and lists more sophisticated
searches as future work.  This module is that extension point: every
global search is a :class:`Searcher` — an object that *asks* for a
batch of candidate :class:`~repro.fko.params.TransformParams` and is
*told* their cycle counts — registered under a short name so drivers
pick a strategy by string (``TuneConfig(strategy="genetic")``).

The protocol::

    searcher = make_searcher("genetic", space=space, start=start,
                             max_evals=200, seed=7)
    while not searcher.finished:
        batch = searcher.ask()          # candidates needing cycles
        cycles = evaluate_batch(batch)  # caller: serial, pooled, cached...
        searcher.tell(list(zip(batch, cycles)))
    result = searcher.result()          # a SearchResult

Why ask/tell?  Because it splits *what to try next* (strategy logic,
pure and seeded) from *how evaluations happen* (the engine's worker
pool, persistent cache and trace).  The base class owns the budget
bookkeeping exactly as the line search always did: candidates are
deduplicated against an in-memory memo, charged to ``max_evals`` in
ask-order, and recorded to ``history`` in ask-order — regardless of
who computes the cycle counts or in what order they finish.  That is
the invariant that makes every strategy deterministic under a fixed
seed and bit-identical between ``jobs=1`` and ``jobs=N``: parallelism
only changes who fills in the numbers, never which candidates are
charged or how the strategy reduces them.

Strategies are implemented as *plan coroutines*: :meth:`Searcher._plan`
is a generator that yields raw candidate batches and receives their
cycles (cached values are resolved internally and never re-asked), so
strategy code reads like the straight-line algorithm it is.
"""

from __future__ import annotations

import itertools
import math
from typing import (Callable, Dict, Generator, Hashable, List, Optional,
                    Sequence, Tuple, Type)

import numpy as np

from ..errors import SearchError
from ..fko.params import PrefetchParams, TransformParams
from ..ir import PrefetchHint
from .space import Dimension, SearchSpace, dim_get, dim_set

Evaluator = Callable[[TransformParams], float]   # -> cycles (lower = better)
#: optional vectorized evaluator: a whole candidate list at once (the
#: engine fans these across its worker pool); must return cycles in the
#: same order as its input
BatchEvaluator = Callable[[List[TransformParams]], List[float]]

#: what a plan yields (candidates) and receives (their cycles)
Plan = Generator[List[TransformParams], List[float], None]


class Searcher:
    """Base class of all search strategies: budget accounting, memo
    cache, history and the ask/tell state machine.  Subclasses override
    :meth:`_plan` (and :attr:`name` for the registry)."""

    #: registry name (subclasses set it; see :func:`register_searcher`)
    name = "?"

    def __init__(self, space: SearchSpace, start: TransformParams,
                 max_evals: int = 400, min_gain: float = 0.005,
                 seed: int = 0, output_arrays: Sequence[str] = ()):
        if max_evals <= 0:
            raise SearchError("max_evals must be positive")
        if min_gain < 0:
            raise SearchError(f"min_gain must be >= 0, got {min_gain}")
        self.space = space
        self.start = start
        self.max_evals = max_evals
        # a move requires improvement beyond timing noise, so plateaus
        # and noise-level ties resolve to the incumbent (FKO defaults)
        self.min_gain = min_gain
        self.seed = seed
        self.output_arrays = list(output_arrays)

        self.n_evaluations = 0
        self.history: List[Tuple[str, Tuple, float]] = []
        #: label of the strategy step currently evaluating (trace
        #: observers and ``history`` read this)
        self.phase = "start"
        #: completed ask/tell exchanges (a "round"; the GA's generation)
        self.rounds = 0
        self.best_params = start
        self.best_cycles = float("inf")
        self.start_cycles = float("inf")
        self.phase_gains: Dict[str, float] = {}

        self._memo: Dict[Tuple, float] = {}
        self._finished = False
        self._raw: List[TransformParams] = []
        self._out: List[Optional[float]] = []
        self._fresh: List[Tuple[int, TransformParams, Tuple]] = []
        self._gen = self._plan()
        self._advance(None)

    # -- the protocol ---------------------------------------------------
    def ask(self) -> List[TransformParams]:
        """The next batch of candidates needing evaluation, in the order
        they were charged to the budget.  Never empty while not
        :attr:`finished`; cached and over-budget candidates are resolved
        internally and never re-asked."""
        if self._finished:
            raise SearchError(f"{self.name} search already finished")
        return [params for _, params, _ in self._fresh]

    def ask_batch(self, limit: int = 0,
                  key: Optional[Callable[[TransformParams], Hashable]]
                  = None) -> List[List[TransformParams]]:
        """The current :meth:`ask` batch, partitioned into evaluation
        groups: candidates with equal ``key(params)`` land in the same
        group (groups ordered by each key's first occurrence, members
        in ask order), and every group holds at most ``limit``
        candidates (0 = uncapped).  The default key is the fixed-order
        pipeline's early-transform prefix, so a group shares compile
        work up to the post-AE snapshot.

        This is purely an evaluation-*order* hint for batched
        evaluators: the flattened groups are a permutation of
        :meth:`ask`, budget charging stays in ask order, and
        :meth:`tell` still expects results in ask order — so grouping
        can never change a search decision."""
        batch = self.ask()
        if key is None:
            def key(p: TransformParams) -> Hashable:
                return (p.sv, p.unroll, p.lc, p.ae)
        buckets: Dict[Hashable, List[TransformParams]] = {}
        for params in batch:            # dict preserves first-occurrence
            buckets.setdefault(key(params), []).append(params)
        groups: List[List[TransformParams]] = []
        for members in buckets.values():
            if limit and limit > 0:
                groups.extend(members[i:i + limit]
                              for i in range(0, len(members), limit))
            else:
                groups.append(members)
        return groups

    def tell(self, results: Sequence[Tuple[TransformParams, float]]) -> None:
        """Report cycles for the batch from :meth:`ask`, same order.
        Accepts ``(params, cycles)`` pairs (or bare cycle floats)."""
        if self._finished:
            raise SearchError(f"{self.name} search already finished")
        if len(results) != len(self._fresh):
            raise SearchError(
                f"tell() got {len(results)} results for a batch of "
                f"{len(self._fresh)} candidates")
        for (i, _, key), item in zip(self._fresh, results):
            cycles = float(item[1] if isinstance(item, (tuple, list))
                           else item)
            self._memo[key] = cycles
            self.history.append((self.phase, key, cycles))
            self._out[i] = cycles
        self.rounds += 1
        self._advance(self._resolved())

    @property
    def finished(self) -> bool:
        return self._finished

    def result(self) -> "SearchResult":
        from .linesearch import SearchResult
        if not self._finished:
            raise SearchError(
                f"{self.name} search still in progress "
                f"({self.n_evaluations}/{self.max_evals} evaluations)")
        return SearchResult(best_params=self.best_params,
                            best_cycles=self.best_cycles,
                            start_cycles=self.start_cycles,
                            n_evaluations=self.n_evaluations,
                            phase_gains=dict(self.phase_gains),
                            history=self.history)

    # -- convenience driver (serial callers, tests, examples) -----------
    def run(self, evaluate: Evaluator,
            evaluate_many: Optional[BatchEvaluator] = None
            ) -> "SearchResult":
        """Drive ask/tell to completion against a plain evaluator.
        ``evaluate_many`` (when given) receives every multi-candidate
        batch — the engine points it at its worker pool."""
        while not self._finished:
            batch = self.ask()
            if evaluate_many is not None and len(batch) > 1:
                cycles = evaluate_many(batch)
            else:
                cycles = [evaluate(p) for p in batch]
            self.tell(list(zip(batch, cycles)))
        return self.result()

    # -- plan plumbing --------------------------------------------------
    def _plan(self) -> Plan:
        raise NotImplementedError

    def _advance(self, cycles: Optional[List[float]]) -> None:
        """Feed the last batch's cycles to the plan, then pull batches
        until one needs fresh evaluations (or the plan ends).  Batches
        fully resolved by the memo/budget are answered immediately."""
        while True:
            try:
                raw = self._gen.send(cycles)
            except StopIteration:
                self._finished = True
                self._raw, self._out, self._fresh = [], [], []
                return
            cycles = self._ingest(raw)
            if cycles is None:      # fresh work pending: caller's turn
                return

    def _ingest(self, raw: List[TransformParams]) -> Optional[List[float]]:
        """Bookkeeping identical to one-at-a-time evaluation: memo
        lookups, budget charged in candidate order, duplicates folded.
        Returns the full cycle list when nothing fresh is needed."""
        out: List[Optional[float]] = [None] * len(raw)
        fresh: List[Tuple[int, TransformParams, Tuple]] = []
        batch_pos: Dict[Tuple, int] = {}   # key -> position of first use
        for i, params in enumerate(raw):
            key = params.key()
            if key in self._memo:
                out[i] = self._memo[key]
            elif key in batch_pos:
                continue                   # duplicate: filled in below
            elif self.n_evaluations >= self.max_evals:
                out[i] = float("inf")
            else:
                self.n_evaluations += 1
                batch_pos[key] = i
                fresh.append((i, params, key))
        self._raw, self._out, self._fresh = raw, out, fresh
        if fresh:
            return None
        return self._resolved()

    def _resolved(self) -> List[float]:
        for i, params in enumerate(self._raw):
            if self._out[i] is None:       # duplicate within the batch
                self._out[i] = self._memo.get(params.key(), float("inf"))
        return self._out

    def _note(self, params: TransformParams, cycles: float) -> None:
        """Track the global best (strict improvement keeps the earliest
        winner, so ties resolve deterministically)."""
        if cycles < self.best_cycles:
            self.best_cycles, self.best_params = cycles, params


# ---------------------------------------------------------------------------
# the registry

#: name -> Searcher subclass.  Populated by :func:`register_searcher`;
#: ``repro.search`` imports every strategy module, so the registry is
#: complete whenever the package is imported.
SEARCHERS: Dict[str, Type[Searcher]] = {}


def register_searcher(cls: Type[Searcher]) -> Type[Searcher]:
    """Class decorator: make ``cls`` available to ``make_searcher`` (and
    therefore to ``TuneConfig.strategy`` and ``repro tune --strategy``)
    under ``cls.name``."""
    if not cls.name or cls.name == "?":
        raise ValueError(f"{cls.__name__} needs a registry name")
    SEARCHERS[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    # the line search lives in its own module; importing it here (not at
    # module top, which would be circular) completes the registry even
    # when this module is imported directly
    from . import linesearch   # noqa: F401


def searcher_names() -> List[str]:
    """Registered strategy names, sorted."""
    _ensure_registered()
    return sorted(SEARCHERS)


def make_searcher(name: str, space: SearchSpace, start: TransformParams,
                  **kwargs) -> Searcher:
    """Instantiate a registered strategy by name."""
    _ensure_registered()
    if name not in SEARCHERS:
        raise SearchError(
            f"unknown search strategy {name!r}; valid strategies: "
            f"{', '.join(sorted(SEARCHERS))}")
    return SEARCHERS[name](space, start, **kwargs)


# ---------------------------------------------------------------------------
# shared space geometry (seeded candidate generation + neighbor moves)

def _random_point(space: SearchSpace, rng: np.random.Generator,
                  ) -> TransformParams:
    """One uniform point: the space's generic dimension walk with one
    seeded index draw per legal dimension.  New dimensions (tile
    sizes) are declared after the legacy ones, so the draw stream over
    a legacy space is unchanged.  ``rng.integers(k)`` consumes the
    generator exactly as ``rng.choice`` over k options does, without
    converting the options to an array on every call."""
    return space.draw(
        lambda dim: dim.options[int(rng.integers(len(dim.options)))])


def _move_list(space: SearchSpace) -> List[str]:
    """The neighbor-move vocabulary, read from the option lists behind
    the dimension list without building it (legacy precedence
    preserved: unroll/ae first, then the toggles, then per-array
    prefetch moves, then tile moves in declared order)."""
    moves = ["unroll", "ae"]
    for name, options in (("sv", space.sv_options),
                          ("wnt", space.wnt_options)):
        if len(options) > 1:
            moves.append(name)
    for arr in space.prefetch_arrays:
        moves.append(f"dist:{arr}")
        moves.append(f"hint:{arr}")
        # prefetch fully on/off as its own move: stepping a distance
        # down to 0 one option at a time almost never survives a walk,
        # but "off" is often the winning value (WNT'd outputs)
        moves.append(f"pftoggle:{arr}")
    for ivar, options in space.tile_options.items():
        if len(options) > 1:
            moves.append(f"tile:{ivar}")
    return moves


def _neighbor(space: SearchSpace, rng: np.random.Generator,
              params: TransformParams,
              coarse: bool = False) -> TransformParams:
    """One random single-coordinate move on the option grids (the
    GA's mutation, the surrogate's candidate pool).  Fine moves take
    the same +/-1 steps the line search's restricted 2-D refinements
    walk; ``coarse`` moves redraw the chosen coordinate uniformly — a
    Gibbs step that crosses deceptive valleys (e.g. a prefetch distance
    whose only good value is "off") in one proposal."""
    moves = _move_list(space)
    move = moves[int(rng.integers(len(moves)))]

    def step(options, value):
        options = list(options)
        if coarse:
            return options[int(rng.integers(len(options)))]
        i = options.index(value) if value in options else 0
        j = min(len(options) - 1,
                max(0, i + (-1, 1)[int(rng.integers(2))]))
        return options[j]

    if move == "sv":
        return params.copy(sv=not params.sv)
    if move == "wnt":
        return params.copy(wnt=not params.wnt)
    if move == "unroll":
        return params.copy(unroll=step(space.unroll_options, params.unroll))
    if move == "ae":
        return params.copy(ae=step(space.ae_options, params.ae))
    if move.startswith("tile:"):
        options = space.tile_options[move[len("tile:"):]]
        return dim_set(params, move, step(options, dim_get(params, move)))
    kind, arr = move.split(":")
    pf = params.pf(arr)
    if kind == "pftoggle":
        if pf.enabled:
            return params.with_pf(arr, None, 0)
        return params.with_pf(arr, PrefetchHint.NTA, space.line * 2)
    if kind == "dist":
        d = step(space.dist_options, pf.dist)
        h = (pf.hint or PrefetchHint.NTA) if d > 0 else None
        return params.with_pf(arr, h, d)
    hints = list(space.hint_options)
    h = hints[int(rng.integers(len(hints)))]
    d = pf.dist if pf.dist > 0 else space.line * 2
    return params.with_pf(arr, h, d)


# ---------------------------------------------------------------------------
# strategies

@register_searcher
class RandomSearch(Searcher):
    """Uniform random sampling of the space — the geometry-only
    baseline every smarter strategy has to beat."""

    name = "random"
    #: candidates asked per round (parallel fan-out grain; the answer is
    #: identical for any batch size, only wall time changes)
    batch = 8

    def _plan(self) -> Plan:
        rng = np.random.default_rng(self.seed)
        self.phase = "start"
        (c0,) = yield [self.start]
        self.start_cycles = c0
        self._note(self.start, c0)
        self.phase = "random"
        attempts = 0
        while (self.n_evaluations < self.max_evals
               and attempts < self.max_evals * 20):
            k = min(self.batch, self.max_evals - self.n_evaluations)
            cands = [_random_point(self.space, rng) for _ in range(k)]
            attempts += k
            cycles = yield cands
            for params, c in zip(cands, cycles):
                self._note(params, c)


@register_searcher
class GeneticSearch(Searcher):
    """A small generational GA (the other named alternative):
    elitist selection, uniform crossover over the parameter
    coordinates, single-coordinate mutation, plus a steady trickle of
    random immigrants (``immigrants`` per generation).

    Initialization is seeded sampling: the first generation spends
    ``explore`` of the budget on uniform points drawn from a dedicated
    rng whose stream is *identical* to :class:`RandomSearch`'s under
    the same seed (immigrants continue that same stream), so the
    population's coverage of the space is a strict prefix of what
    random sampling would have evaluated — the crossover/mutation tail
    only has to improve on it.  GA operator draws come from a second
    rng so they never desynchronize the mirror stream.  Each generation
    is one ask() batch, so its individuals evaluate concurrently under
    ``jobs=N``."""

    name = "genetic"

    def __init__(self, space: SearchSpace, start: TransformParams,
                 population: int = 12, elite: int = 3,
                 mutation: float = 0.35, immigrants: int = 3,
                 explore: float = 0.5, **kwargs):
        if population < 2:
            raise SearchError(f"population must be >= 2, got {population}")
        self.population = population
        self.elite = elite
        self.mutation = mutation
        self.immigrants = immigrants
        self.explore = explore
        super().__init__(space, start, **kwargs)

    def _crossover(self, rng: np.random.Generator, a: TransformParams,
                   b: TransformParams) -> TransformParams:
        """Uniform crossover over the space's interaction groups: one
        inheritance draw per group (a prefetch distance travels with
        its hint; a tile size is its own gene).  Generic over the
        dimension list, with unsampled groups (block fetch) left at
        their defaults exactly as before."""
        child = TransformParams()
        for dims in self.space.groups():
            if not all(d.sampled for d in dims):
                continue
            src = a if rng.random() < 0.5 else b
            if dims[0].group.startswith("pf:"):
                arr = dims[0].group[len("pf:"):]
                child.prefetch[arr] = src.pf(arr)
                continue
            for dim in dims:
                child = dim_set(child, dim.name, dim_get(src, dim.name))
        return child

    def _plan(self) -> Plan:
        # random search's exact point stream (gen0 + immigrants) ...
        mirror = np.random.default_rng(self.seed)
        # ... kept separate from GA operator draws so crossover and
        # mutation never desynchronize it
        rng = np.random.default_rng([self.seed, 1])
        # generation 0: the seed point plus the explore share of the
        # budget in seeded uniform samples
        self.phase = "gen0"
        n0 = min(self.max_evals,
                 max(self.population, int(self.max_evals * self.explore)))
        gen0 = [self.start] + [_random_point(self.space, mirror)
                               for _ in range(n0 - 1)]
        cycles = yield gen0
        self.start_cycles = cycles[0]
        pop = list(zip(cycles, gen0))
        for c, p in pop:
            self._note(p, c)

        self.phase = "ga"
        dry = 0
        for _gen in range(self.max_evals):
            if self.n_evaluations >= self.max_evals:
                break
            pop.sort(key=lambda t: t[0])
            pop = pop[:self.population]     # working set: the fittest
            parents = pop[:max(self.elite, 2)]
            n_children = self.population - len(parents)
            n_fresh = min(self.immigrants, n_children)
            if dry:
                # last generation added nothing new (memo hits only):
                # spend it all on exploration instead of re-breeding
                n_fresh = n_children
            children = [self._crossover(rng, parents[int(rng.integers(
                len(parents)))][1], parents[int(rng.integers(
                    len(parents)))][1])
                for _ in range(n_children - n_fresh)]
            children = [(_neighbor(self.space, rng, ch)
                         if rng.random() < self.mutation else ch)
                        for ch in children]
            children += [_random_point(self.space, mirror)
                         for _ in range(n_fresh)]
            before = self.n_evaluations
            cycles = yield children
            for p, c in zip(children, cycles):
                self._note(p, c)
            pop = parents + list(zip(cycles, children))
            if self.n_evaluations == before:
                dry += 1          # every child was already in the memo
                if dry >= 4:
                    break         # space (or budget) genuinely exhausted
            else:
                dry = 0


@register_searcher
class ExhaustiveSearch(Searcher):
    """Full cross-product sweep, restricted to a *shared* prefetch
    distance/hint across arrays to keep it tractable.  The gold
    standard the cheap searches are judged against in the ablations."""

    name = "exhaustive"
    batch = 16

    def _plan(self) -> Plan:
        sp = self.space
        self.phase = "start"
        (c0,) = yield [self.start]
        self.start_cycles = c0
        self._note(self.start, c0)
        self.phase = "grid"
        # the sweep axes, generically from the dimension list: the core
        # transforms in their legacy nesting order, then tile sizes
        # (inner to keep legacy candidate order unchanged when there
        # are none), then the shared prefetch pair innermost
        by_name = {d.name: d for d in sp.dimensions}
        grid_dims: List[Dimension] = [by_name[n]
                                      for n in ("sv", "wnt", "unroll", "ae")]
        grid_dims += sp.tile_dims
        pf_options: List[Tuple[Optional[PrefetchHint], int]] = [(None, 0)]
        pf_options += [(h, d) for d in sp.dist_options if d > 0
                       for h in sp.hint_options]
        chunk: List[TransformParams] = []

        def flush():
            batch = list(chunk)
            del chunk[:]
            cycles = yield batch
            for params, c in zip(batch, cycles):
                self._note(params, c)

        for combo in itertools.product(*(d.options for d in grid_dims)):
            point = TransformParams()
            for dim, value in zip(grid_dims, combo):
                point = dim_set(point, dim.name, value)
            for hint, dist in pf_options:
                p = point.copy()
                for arr in sp.prefetch_arrays:
                    p.prefetch[arr] = PrefetchParams(hint, dist)
                chunk.append(p)
                if len(chunk) >= self.batch:
                    yield from flush()
        if chunk:
            yield from flush()


# ---------------------------------------------------------------------------
# the surrogate model: bagged CART regression trees (random-forest-lite,
# numpy + stdlib only) over SearchSpace.encode feature vectors

class _RegressionTree:
    """A depth-bounded CART regression tree with deterministic splits:
    features are scanned in index order, thresholds in ascending order,
    and a split must *strictly* beat the incumbent to displace it — no
    tie is ever resolved by hash or insertion order, so two processes
    fitting the same data grow the identical tree."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature = -1
        self.threshold = 0.0
        self.left: Optional["_RegressionTree"] = None
        self.right: Optional["_RegressionTree"] = None
        self.value = value

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every row of ``X`` (m x F): each node routes
        its index subset left (``x[feature] <= threshold``) or right."""
        out = np.empty(len(X))
        stack = [(self, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.feature < 0:
                out[idx] = node.value
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out


def _fit_tree(X: np.ndarray, y: np.ndarray, depth: int,
              min_leaf: int = 2) -> _RegressionTree:
    """Grow a tree on ``X`` (n x F) against ``y`` by recursive SSE
    splits at midpoints between adjacent distinct feature values, with
    at least ``min_leaf`` rows on each side.

    Each node's split search is one pass of array operations.  A stable
    sort of every column puts the rows left of each candidate threshold
    first, so prefix sums ``S`` of the centred targets score every
    (feature, threshold) pair at once: a split with ``k`` rows on the
    left has SSE equal to the total sum of squares minus
    ``S**2 * n / (k * (n - k))``.  That is exact algebra, but it rounds
    differently from the direct formula (``y[mask]`` in original row
    order, minus its mean, squared and summed), so it only shortlists:
    every candidate within ``1e-9 * y @ y`` of the best is re-scored
    with the direct formula, in feature order then ascending threshold,
    and kept only when strictly better than the incumbent.  The band is
    orders of magnitude wider than either formula's rounding error, so
    the split kept — ties included, as when two features induce one
    partition — is exactly the one a direct scan of every candidate
    keeps."""
    n = len(y)
    node = _RegressionTree(float(y.sum() / n))     # == np.mean(y)
    if depth <= 0 or n < 2 * min_leaf or y.max() == y.min():
        return node
    cols = np.arange(X.shape[1])
    order = np.argsort(X, axis=0, kind="stable")
    xs = X[order, cols]
    lo, hi = xs[:-1], xs[1:]
    distinct = lo < hi                 # one threshold per value pair
    thresh = (lo + hi) / 2.0
    # the threshold after sorted row k - 1 sends the first k sorted rows
    # left; the between-sides sum of squares ranks every such split
    k = np.arange(1, n)[:, None]
    s = np.cumsum((y - node.value)[order], axis=0)[:-1]
    gain = np.where(distinct & (k >= min_leaf) & (n - k >= min_leaf),
                    s * s * (n / (k * (n - k))), -np.inf)
    up = distinct & (thresh == hi)
    if up.any():
        # a midpoint that rounds up onto hi (adjacent floats) also sends
        # hi's run of equal values left: the partition of the run's last
        # row, or no split at all when the run ends the column
        run_last = np.minimum.accumulate(np.where(
            np.concatenate([distinct, np.ones_like(distinct[:1])]),
            np.arange(n)[:, None], n - 1)[::-1], axis=0)[::-1]
        padded = np.concatenate([gain, np.full_like(gain[:1], -np.inf)])
        gain = np.where(up, padded[run_last[1:], cols], gain)
    top = gain.max()
    if top == -np.inf:
        return node
    band = top - 1e-9 * float(y @ y) - np.finfo(float).tiny
    js, ks = np.nonzero((gain >= band).T)            # scan order
    masks = X[:, js] <= thresh[ks, js]
    # equal partitions score equal, so only the first in scan order can
    # be kept: score each distinct one once, and none when only one
    firsts: Dict[bytes, int] = {}
    for c in range(len(js)):
        firsts.setdefault(masks[:, c].tobytes(), c)
    candidates = list(firsts.values())
    best = candidates[0]
    if len(candidates) > 1:
        best_sse = math.inf
        for c in candidates:
            yl, yr = y[masks[:, c]], y[~masks[:, c]]
            sse = float(((yl - yl.mean()) ** 2).sum()
                        + ((yr - yr.mean()) ** 2).sum())
            if sse < best_sse:
                best_sse, best = sse, c
    mask = masks[:, best]
    j = int(js[best])
    node.feature, node.threshold = j, float(thresh[ks[best], j])
    node.left = _fit_tree(X[mask], y[mask], depth - 1, min_leaf)
    node.right = _fit_tree(X[~mask], y[~mask], depth - 1, min_leaf)
    return node


class _Forest:
    """``bag`` trees, each fit on a seeded bootstrap resample of the
    observations.  The mean over trees is the prediction; the spread
    over trees is the uncertainty expected improvement consumes."""

    def __init__(self, trees: List[_RegressionTree]):
        self.trees = trees

    @classmethod
    def fit(cls, X: List[List[float]], y: List[float], bag: int,
            depth: int, rng: np.random.Generator) -> "_Forest":
        Xa = np.asarray(X, dtype=float)
        ya = np.asarray(y, dtype=float)
        n = len(ya)
        return cls([_fit_tree(Xa[idx], ya[idx], depth)
                    for idx in (rng.integers(0, n, n) for _ in range(bag))])

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (mean, std) over the trees for ``X`` (m x F).  The
        reductions run along the contiguous tree axis of an (m x bag)
        matrix, which rounds exactly like ``np.mean``/``np.std`` over
        one row's predictions."""
        P = np.stack([t.predict(X) for t in self.trees], axis=1)
        return P.mean(axis=1), P.std(axis=1)


def _expected_improvement(mu: float, sigma: float, best: float) -> float:
    """EI for minimization: how much below ``best`` the model expects a
    point to land, integrating over its predictive uncertainty."""
    if sigma < 1e-12:
        return max(best - mu, 0.0)
    z = (best - mu) / sigma
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return sigma * (z * cdf + pdf)


@register_searcher
class SurrogateSearch(Searcher):
    """Model-based search (ROADMAP item 1): fit a cheap bagged-tree
    surrogate on the evaluations seen so far and ask the candidates
    with the highest *expected improvement*.

    Structure mirrors :class:`GeneticSearch`'s budget split: the
    ``explore`` share of the budget draws random search's *identical*
    seeded point stream (the mirror rng), giving the model unbiased
    training data whose coverage is a strict prefix of what uniform
    sampling would have evaluated.  Each model round then fits a forest
    of ``bag`` CART trees on ``SearchSpace.encode`` features against
    log-cycles, scores a seeded candidate pool (coarse/fine neighbors
    of the incumbent plus uniform draws, all from a second rng so the
    mirror stream never desynchronizes) by expected improvement, and
    asks the top picks — topped up with ``immigrants`` more points
    continuing the mirror stream, so the model can never starve the
    baseline coverage the never-lose-to-random invariant depends on.

    Batch order inside a round (EI picks first, immigrants last) is a
    pure evaluation hint: the base class charges budget in ask order
    and ``ask_batch`` prefix grouping applies unchanged.

    The default split is deliberately conservative (``explore=0.8``):
    the simulated machines are noise-free, so a long mirror prefix
    plus a few high-EI picks empirically wins-or-ties uniform random
    on every benchmark grid point, which the strategy race hard-gates
    (``benchmarks/bench_strategies.py``)."""

    name = "surrogate"
    batch = 8

    def __init__(self, space: SearchSpace, start: TransformParams,
                 bag: int = 8, depth: int = 5, explore: float = 0.8,
                 immigrants: int = 2, pool: int = 128, **kwargs):
        if bag < 1:
            raise SearchError(f"bag must be >= 1, got {bag}")
        self.bag = bag
        self.depth = depth
        self.explore = explore
        self.immigrants = immigrants
        self.pool = pool
        super().__init__(space, start, **kwargs)

    def _plan(self) -> Plan:
        # random search's exact point stream (exploration + immigrants)
        mirror = np.random.default_rng(self.seed)
        # ... kept apart from model draws (bootstraps, candidate pool)
        # so fitting never desynchronizes it
        rng = np.random.default_rng([self.seed, 1])
        obs_x: List[List[float]] = []
        obs_y: List[float] = []        # log-cycles

        def observe(params: TransformParams, c: float) -> None:
            self._note(params, c)
            if math.isfinite(c) and c > 0:
                obs_x.append(self.space.encode(params))
                obs_y.append(math.log(c))

        self.phase = "start"
        (c0,) = yield [self.start]
        self.start_cycles = c0
        observe(self.start, c0)

        self.phase = "explore"
        n_explore = max(1, int(self.max_evals * self.explore))
        drawn = 0
        while drawn < n_explore and self.n_evaluations < self.max_evals:
            k = min(self.batch, n_explore - drawn)
            cands = [_random_point(self.space, mirror) for _ in range(k)]
            drawn += k
            cycles = yield cands
            for params, c in zip(cands, cycles):
                observe(params, c)

        self.phase = "model"
        dry = 0
        for _round in range(self.max_evals):
            if self.n_evaluations >= self.max_evals:
                break
            k = min(self.batch, self.max_evals - self.n_evaluations)
            n_fresh = min(self.immigrants, k)
            if dry:
                # the last round added nothing new (memo hits only):
                # spend this one entirely on exploration
                n_fresh = k
            picks: List[TransformParams] = []
            if k > n_fresh and len(obs_y) >= 4 \
                    and math.isfinite(self.best_cycles):
                pool = [_neighbor(self.space, rng, self.best_params,
                                  coarse=bool(rng.random() < 0.5))
                        for _ in range(self.pool // 2)]
                pool += [_random_point(self.space, rng)
                         for _ in range(self.pool - len(pool))]
                model = _Forest.fit(obs_x, obs_y, self.bag, self.depth,
                                    rng)
                best_log = math.log(self.best_cycles)
                fresh: List[Tuple[int, TransformParams]] = []
                seen = set()
                for i, p in enumerate(pool):
                    key = p.key()
                    if key in self._memo or key in seen:
                        continue
                    seen.add(key)
                    fresh.append((i, p))
                scored = []
                if fresh:
                    mu, sigma = model.predict(np.array(
                        [self.space.encode(p) for _, p in fresh]))
                    scored = [(-_expected_improvement(float(m), float(sd),
                                                      best_log), i, p)
                              for (i, p), m, sd in zip(fresh, mu, sigma)]
                # ties (equal EI) resolve by pool position, so the
                # ranking is a total order independent of dict/set state
                scored.sort(key=lambda t: (t[0], t[1]))
                picks = [p for _, _, p in scored[:k - n_fresh]]
            cands = picks + [_random_point(self.space, mirror)
                             for _ in range(k - len(picks))]
            before = self.n_evaluations
            cycles = yield cands
            for params, c in zip(cands, cycles):
                observe(params, c)
            if self.n_evaluations == before:
                dry += 1
                if dry >= 4:
                    break       # space (or budget) genuinely exhausted
            else:
                dry = 0


class TransferSearch(Searcher):
    """Transfer-aware wrapper: seed a registered strategy with the best
    known parameters of the nearest previously-tuned problem.  It is
    not itself registered: the engine builds it around
    ``TuneConfig.strategy`` exactly when ``TuneConfig.warm_start``
    names a result store.

    ``warm`` carries parameter points recovered from that store (the
    engine resolves them via
    :func:`repro.search.warmstart.lookup_warm_start`).  Each is
    *projected* onto this kernel's space — off-grid coordinates snap to
    the start point's values — evaluated right after the start point,
    and then the ``inner`` strategy runs on the remaining budget from
    the best point seen so far.  The wrapper shares the outer
    memo and budget: candidates the inner strategy re-asks are answered
    from the memo without re-charging, and the outer budget is charged
    exactly once per distinct candidate, in ask order — so the standing
    jobs=1 vs jobs=N bit-identity holds unchanged.

    With an empty ``warm`` list (no store, or an empty one) the search
    degenerates to exactly the inner strategy under the same seed."""

    name = "transfer"

    def __init__(self, space: SearchSpace, start: TransformParams,
                 inner: str, warm: Sequence[TransformParams] = (),
                 warm_source: str = "", **kwargs):
        self.inner_name = inner
        self.warm = list(warm)
        self.warm_source = warm_source
        super().__init__(space, start, **kwargs)

    def _plan(self) -> Plan:
        self.phase = "start"
        (c0,) = yield [self.start]
        self.start_cycles = c0
        self._note(self.start, c0)

        # warm candidates: neighbor bests projected legally into this
        # space, deduplicated, evaluated before any strategy draws
        seen = {self.start.key()}
        warm: List[TransformParams] = []
        for p in self.warm:
            q = self.space.project(p, fallback=self.start)
            if q.key() not in seen:
                seen.add(q.key())
                warm.append(q)
        if warm:
            self.phase = "warm"
            cycles = yield warm
            for params, c in zip(warm, cycles):
                self._note(params, c)

        remaining = self.max_evals - self.n_evaluations
        if remaining <= 0:
            return
        inner_start = (self.best_params
                       if math.isfinite(self.best_cycles) else self.start)
        # the inner strategy re-evaluates its start point, which the
        # outer memo already holds: grant it that one extra charge so
        # the *outer* budget (which never re-charges a memo hit, and
        # hard-caps at max_evals regardless) is spent in full
        inner = make_searcher(
            self.inner_name, self.space, inner_start,
            max_evals=remaining + 1, min_gain=self.min_gain,
            seed=self.seed, output_arrays=self.output_arrays)
        while not inner.finished:
            batch = inner.ask()
            self.phase = inner.phase
            cycles = yield batch
            inner.tell(list(zip(batch, cycles)))
            for params, c in zip(batch, cycles):
                self._note(params, c)
