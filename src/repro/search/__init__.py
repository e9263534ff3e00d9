"""Iterative search drivers — the empirical half of ifko (section 2.3).

:mod:`~repro.search.strategies` defines the seeded ask/tell
:class:`Searcher` protocol and the name-based strategy registry;
:mod:`~repro.search.linesearch` is the paper's modified line search
(the first registered strategy); :mod:`~repro.search.engine` is the
batch engine that runs many searches (and many candidate evaluations)
in parallel behind the :class:`TuningSession` API, with a persistent
evaluation cache (:mod:`~repro.search.evalcache`), which also resumes
a rerun batch, and JSONL search traces (:mod:`~repro.search.trace`).
"""

from .space import (DEFAULT_AES, DEFAULT_DIST_LINES, DEFAULT_UNROLLS,
                    SearchSpace, build_space)
from .strategies import (SEARCHERS, BatchEvaluator, Evaluator,
                         ExhaustiveSearch, GeneticSearch, RandomSearch,
                         Searcher, SurrogateSearch, TransferSearch,
                         make_searcher, register_searcher, searcher_names)
from .warmstart import (WarmEntry, load_entries, lookup_warm_start,
                        write_warm_entry)
from .linesearch import PHASES, LineSearch, SearchResult
from .config import TuneConfig
from .drivers import TunedKernel, compile_default, tune_kernel
from .engine import (BatchResult, EngineStats, TuningJob, TuningSession,
                     evaluate_params, registry_jobs)
from .evalcache import EvalCache, eval_key
from .trace import (TRACE_VERSION, TraceEvents, TraceStream,
                    TraceWriter, read_trace, render_trace_summary,
                    summarize_trace)

__all__ = ["DEFAULT_AES", "DEFAULT_DIST_LINES", "DEFAULT_UNROLLS",
           "SearchSpace", "build_space", "SEARCHERS", "Searcher",
           "make_searcher", "register_searcher", "searcher_names",
           "ExhaustiveSearch", "GeneticSearch",
           "RandomSearch", "SurrogateSearch", "TransferSearch",
           "WarmEntry", "load_entries", "lookup_warm_start",
           "write_warm_entry", "PHASES", "BatchEvaluator",
           "Evaluator", "LineSearch", "SearchResult", "TuneConfig",
           "TunedKernel", "compile_default", "tune_kernel",
           "BatchResult", "EngineStats", "TuningJob", "TuningSession",
           "evaluate_params", "registry_jobs", "EvalCache", "eval_key",
           "TRACE_VERSION", "TraceEvents", "TraceWriter",
           "read_trace", "render_trace_summary", "TraceStream",
           "summarize_trace"]
