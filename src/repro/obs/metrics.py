"""Process-wide metrics: histograms recorded, counters and gauges read.

This is the second observability layer, above :mod:`repro.obs.core`'s
per-evaluation collector.  A :class:`Collector` answers "what happened
inside *this* compile+time evaluation"; the metrics served at
``GET /v1/metrics`` answer "what is this *process* doing over time" —
evals/sec, cache hit rates, queue depth, per-pass wall-time
distributions — the numbers a serving fleet scrapes and alerts on.

Each fact has one writer.  Counters and gauges already have an owner
that counts them — the session's
:class:`~repro.search.engine.EngineStats`, the daemon's job manager,
its queue and in-flight map — so they are never pushed here: the
scraper reads them from their owners at scrape time and hands them to
:func:`render_prometheus` / :func:`snapshot`.  The registry records
only the distributions that have no other home: eval, batch-group,
pass and tiling wall times (:func:`observe`).

Recording follows the collector's inert-when-disabled contract: a
single module global ``_ENABLED`` gates :func:`observe`, so with
metrics off an instrumentation point costs one global read and a
boolean check (the same CI bench guard that holds the collector to
≤ 3% of eval throughput also covers the enabled registry).

Scope is **per process**.  The engine observes eval wall times and
group sizes parent-side, whichever process computed the outcome; pass
and tiling histograms are fed from inside whatever process runs the
compile, so under ``jobs>1`` a forked worker's compiles land in that
worker's registry and a daemon scrape sees only the compiles its own
process ran.

Derived series are passed as ``{name: value}`` for an unlabeled series
or ``{name: (label, {label_value: value})}`` for a one-label family.
Export formats: :func:`render_prometheus` emits the Prometheus text
exposition format (``GET /v1/metrics`` on the daemon), and
:func:`snapshot` returns a plain-JSON dict (``repro metrics --json``).
Nothing here needs anything outside the stdlib.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "MetricsRegistry", "enable", "disable", "enabled", "registry",
    "reset", "observe", "render_prometheus", "snapshot",
]

_ENABLED: bool = False

# Default histogram buckets: wall times from 10us to 10s, roughly
# log-spaced.  Pass pipelines live in the 0.1ms..50ms band; whole
# evals and daemon jobs in the 1ms..10s band — one ladder covers both.
_DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0000316, 0.0001, 0.000316, 0.001, 0.00316,
    0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]

#: a derived family: a value, or (label name, {label value: value})
Derived = Union[float, Tuple[str, Mapping[str, float]]]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series(derived: Optional[Mapping[str, Derived]]
            ) -> Dict[str, Dict[_LabelKey, float]]:
    """Derived families in the registry's ``{name: {label key: value}}``
    shape."""
    out: Dict[str, Dict[_LabelKey, float]] = {}
    for name, value in (derived or {}).items():
        if isinstance(value, tuple):
            label, values = value
            out[name] = {((label, str(k)),): v for k, v in values.items()}
        else:
            out[name] = {(): value}
    return out


class _Histogram:
    """One labeled histogram series: cumulative buckets + sum + count."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)   # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Holds every histogram recorded by this process, and renders
    them beside the counters and gauges a scraper derives from their
    owners.

    Help strings registered via :meth:`describe` become ``# HELP``
    lines in the Prometheus rendering; undescribed metrics still
    render (with a generic help line).
    """

    __slots__ = ("histograms", "help")

    def __init__(self):
        self.histograms: Dict[str, Dict[_LabelKey, _Histogram]] = {}
        self.help: Dict[str, str] = {}

    # -- recording ------------------------------------------------------
    def describe(self, name: str, help_text: str) -> None:
        self.help[name] = help_text

    def observe(self, name: str, value: float,
                buckets: Optional[Tuple[float, ...]] = None,
                **labels: str) -> None:
        series = self.histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = _Histogram(buckets or _DEFAULT_BUCKETS)
        hist.observe(value)

    # -- export ---------------------------------------------------------
    def snapshot(self, counters: Optional[Mapping[str, Derived]] = None,
                 gauges: Optional[Mapping[str, Derived]] = None) -> Dict:
        """A plain-JSON view of every series (labels as a dict)."""
        def expand(series):
            return [{"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())]

        return {
            "counters": {n: expand(s)
                         for n, s in sorted(_series(counters).items())},
            "gauges": {n: expand(s)
                       for n, s in sorted(_series(gauges).items())},
            "histograms": {
                n: [{"labels": dict(key),
                     "sum": h.sum, "count": h.count,
                     "buckets": [{"le": le, "n": c} for le, c in
                                 zip(list(h.bounds) + ["+Inf"],
                                     _cumulative(h.buckets))]}
                    for key, h in sorted(s.items())]
                for n, s in sorted(self.histograms.items())
            },
        }

    def render_prometheus(
            self, counters: Optional[Mapping[str, Derived]] = None,
            gauges: Optional[Mapping[str, Derived]] = None) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        out: List[str] = []

        def emit_head(name: str, kind: str) -> None:
            help_text = self.help.get(
                name, f"repro metric {name}").replace("\\", "\\\\")
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {kind}")

        for kind, derived in (("counter", counters), ("gauge", gauges)):
            for name, series in sorted(_series(derived).items()):
                emit_head(name, kind)
                for key, value in sorted(series.items()):
                    out.append(f"{name}{_fmt_labels(key)} "
                               f"{_fmt_value(value)}")
        for name, series in sorted(self.histograms.items()):
            emit_head(name, "histogram")
            for key, hist in sorted(series.items()):
                cum = _cumulative(hist.buckets)
                for le, count in zip(list(hist.bounds) + ["+Inf"], cum):
                    le_s = "+Inf" if le == "+Inf" else _fmt_value(le)
                    lk = key + (("le", le_s),)
                    out.append(f"{name}_bucket{_fmt_labels(lk)} {count}")
                out.append(f"{name}_sum{_fmt_labels(key)} "
                           f"{_fmt_value(hist.sum)}")
                out.append(f"{name}_count{_fmt_labels(key)} {hist.count}")
        return "\n".join(out) + ("\n" if out else "")


def _cumulative(buckets: Iterable[int]) -> List[int]:
    total, out = 0, []
    for b in buckets:
        total += b
        out.append(total)
    return out


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _fmt_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    parts = []
    for k, v in key:
        escaped = str(v).replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n")
        parts.append(f'{k}="{escaped}"')
    return "{" + ",".join(parts) + "}"


# -- module-level facade -------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (always available; recording into it
    directly bypasses the enabled gate — use :func:`observe`)."""
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    """Turn on histogram recording for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop every recorded series (tests; help strings survive)."""
    _REGISTRY.histograms.clear()


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation; free when metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.observe(name, value, **labels)


def render_prometheus(counters: Optional[Mapping[str, Derived]] = None,
                      gauges: Optional[Mapping[str, Derived]] = None
                      ) -> str:
    return _REGISTRY.render_prometheus(counters, gauges)


def snapshot(counters: Optional[Mapping[str, Derived]] = None,
             gauges: Optional[Mapping[str, Derived]] = None) -> Dict:
    return _REGISTRY.snapshot(counters, gauges)


# Help strings for everything ``/v1/metrics`` serves, registered up
# front so the first scrape already carries them.
for _name, _help in (
    ("repro_evaluations_total",
     "Engine evaluations recorded, by outcome status"),
    ("repro_eval_cache_hits_total",
     "Evaluations answered from the persistent eval cache"),
    ("repro_eval_path_total",
     "Timing path taken per evaluation (fast extrapolated vs slow full)"),
    ("repro_eval_wall_seconds",
     "Wall time per engine evaluation round-trip"),
    ("repro_evals_per_sec",
     "Evaluation throughput of the newest finished daemon job"),
    ("repro_batch_groups_total",
     "Prefix-sharing evaluation groups dispatched"),
    ("repro_batch_group_size",
     "Candidates per prefix-sharing evaluation group"),
    ("repro_batch_prefix_hits_total",
     "Batched compiles answered by the prefix-memoized IR cache"),
    ("repro_batch_prefix_misses_total",
     "Batched compiles that ran the full pass prefix"),
    ("repro_batch_walk_hits_total",
     "Batched timings answered by a shared steady-state walk"),
    ("repro_pass_wall_seconds",
     "Wall time per FKO pipeline pass, labeled by pass name "
     "(compiles in this process only; pool workers keep their own)"),
    ("repro_tile_wall_seconds",
     "Wall time in the HIL tiling layer (nest discovery / apply; "
     "this process only, pool workers keep their own)"),
    ("repro_requests_total",
     "Daemon tune submissions, by disposition (new/coalesced/cached)"),
    ("repro_client_requests_total",
     "Daemon tune submissions, by client id"),
    ("repro_queue_depth",
     "Jobs waiting in the daemon's fair queue"),
    ("repro_inflight",
     "Distinct requests currently executing or queued (dedup table)"),
    ("repro_budget_remaining_evals",
     "Evaluations left in the daemon's global budget (-1 = unlimited)"),
    ("repro_jobs_completed_total", "Daemon jobs finished successfully"),
    ("repro_jobs_errored_total", "Daemon jobs finished with an error"),
    ("repro_compiles_total", "Daemon one-shot /v1/compile requests"),
):
    _REGISTRY.describe(_name, _help)
del _name, _help
