"""Tuning configuration — the one options object for ifko runs, and
the one declaration of every search and engine knob.

Everything that shapes *how* a search runs is a :class:`TuneConfig`
field (the problem itself — kernel, machine, context, N — stays
positional), and the drivers take ``config=TuneConfig(...)``.  Each
field carries its one-line help in ``metadata["help"]``, and the
surfaces derive from the fields instead of restating them:

* the CLI (:mod:`repro.cli`) generates the engine flags of ``tune``,
  ``tune-all`` and ``serve`` from them — names, defaults, types and
  help;
* the wire request (:class:`repro.service.TuneRequest`) mirrors the
  search-shaping fields; :meth:`~repro.service.TuneRequest.to_config`
  and :meth:`~repro.service.TuneRequest.from_config` convert, and the
  rest are the daemon's engine-side knobs
  (:data:`repro.service.schema.ENGINE_KNOBS`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:   # only type hints; avoids import cycles
    from ..fko.params import TransformParams
    from .space import SearchSpace


def _knob(default, help: str):
    return field(default=default, metadata={"help": help})


@dataclass
class TuneConfig:
    """Everything that shapes one ifko search except the problem itself
    (kernel, machine, context, N stay as positional arguments)."""

    max_evals: int = _knob(400, "evaluation budget of the search")
    space: Optional["SearchSpace"] = _knob(
        None, "explicit search space (default: built from FKO's analysis)")
    #: a rejected winner is never returned: the engine emits a
    #: ``best-rejected`` trace event and raises KernelTestFailure
    run_tester: bool = _knob(
        True, "verify the winning kernel against the NumPy reference")
    start: Optional["TransformParams"] = _knob(
        None, "starting point (default: FKO's static defaults)")
    #: 1 never creates a pool
    jobs: int = _knob(1, "worker processes (1 = serial)")
    #: content-addressed, shared across runs and processes
    cache_dir: Optional[str] = _knob(
        None, "persistent evaluation cache directory")
    trace: Optional[str] = _knob(
        None, "append a JSONL search trace (one event per evaluation, "
              "phase move and cache hit) to this file")
    timeout: Optional[float] = _knob(
        None, "wall-clock seconds allowed per evaluation")
    resume: Optional[str] = _knob(
        None, "checkpoint completed jobs to this file and skip them "
              "when re-run")
    #: the paper lists BF as planned, so it is off by default
    enable_block_fetch: bool = _knob(
        False, "make the BF extension searchable")
    min_gain: float = _knob(
        0.005, "fraction a candidate must win by to displace the "
               "incumbent")
    strategy: str = _knob(
        "line", "global-search strategy: a repro.search.searcher_names() "
                "entry (line = the paper's modified line search, random, "
                "anneal, genetic, surrogate, ...) or transfer:<name>")
    #: the line search ignores it: its sweep is deterministic
    seed: int = _knob(0, "random seed of the strategy")
    #: the escape hatch the equivalence suite exercises
    fast_timing: bool = _knob(
        True, "out-of-cache steady-state extrapolation in the timing "
              "model (bit-identical to the full walk, just faster)")
    #: schema v2 ``pass`` / ``attribution`` events.  Observation never
    #: perturbs results: cycles, cache keys and search decisions are
    #: bit-identical with it on or off
    observe: bool = _knob(
        False, "record pass-level compile spans and cycle attribution "
               "into the trace (non-perturbing)")
    #: the pipeline's ``debug_verify``; verification only observes, and
    #: a violation raises instead
    verify_ir: bool = _knob(
        False, "run the IR verifier at every pass boundary of every "
               "evaluation's compile (non-perturbing)")
    #: purely an evaluation-order/transport choice: one worker payload
    #: per group under ``jobs > 1``, and cycles, cache keys, traces and
    #: search decisions are bit-identical for every value
    batch_size: int = _knob(
        1, "evaluate candidates in prefix-sharing groups of at most "
           "this many (1 = per-candidate dispatch)")
    #: bit-identical by construction; off forces every evaluation
    #: through the full pipeline and its own walk — the escape hatch
    #: the equivalence suite exercises
    prefix_cache: bool = _knob(
        True, "prefix-memoized compilation and shared-walk timing "
              "(bit-identical, just faster)")
    #: an operational knob like ``cache_dir`` — never part of a
    #: request's wire identity
    warm_start: Optional[str] = _knob(
        None, "warm-start from this `repro serve` result store: the "
              "strategy is wrapped in the transfer layer and seeded with "
              "the best params of the nearest previously-tuned problem")

    def __post_init__(self) -> None:
        if self.max_evals <= 0:
            raise ValueError(f"max_evals must be positive, "
                             f"got {self.max_evals}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, "
                             f"got {self.timeout}")
        # a negative min_gain would make every candidate "win" (each
        # move only needs to beat best * (1 - min_gain) > best), so the
        # search would thrash between equivalent points
        if self.min_gain < 0:
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        from .strategies import searcher_names, valid_strategy
        if not valid_strategy(self.strategy):
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; valid "
                f"strategies: {', '.join(searcher_names())} "
                f"(or transfer:<strategy>)")

    def replace(self, **changes) -> "TuneConfig":
        return dataclasses.replace(self, **changes)

    def to_public_dict(self) -> dict:
        """The JSON-safe field subset — what the service daemon reports
        under ``GET /v1/stats``.  ``space`` and ``start`` are live
        objects (not wire data), so they are reported only by presence."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in ("space", "start"):
                out[f.name] = None if value is None else "<set>"
            else:
                out[f.name] = value
        return out
