"""repro.obs — the end-to-end instrumentation subsystem.

The paper sells ifko on *explainability*: section 2.2.2's analysis
phase and Figure 7's transform-by-transform decomposition show exactly
where each cycle went.  This package gives the reproduction the same
depth of introspection across every layer:

* the **FKO pipeline** records a span per transform pass (wall time,
  applied/no-op status, IR deltas, per-transform detail counters) on
  the active :class:`Collector`;
* the **timing model** surfaces its internal cycle accounting as a
  per-evaluation attribution (compute vs memory-stall vs
  prefetch-waste — see ``TimingResult.attribution``);
* the **search engine** folds both into trace schema v2 (``pass`` and
  ``attribution`` events, enabled with ``TuneConfig(observe=True)`` /
  ``--observe``);
* two consumers read the trace back: :func:`export_perfetto` renders a
  whole tuning batch as a Chrome-trace-event/Perfetto span timeline,
  and :func:`render_report` generates the markdown run report behind
  ``repro report``.

Everything is **inert when disabled**: no collector installed means
instrumentation points cost one module-global read and a ``None``
check (guarded in CI to ≤ 3% of eval throughput), and enabling it is
provably non-perturbing — cycle counts, eval-cache keys and searcher
decisions are bit-identical either way (``tests/test_obs.py``).
"""

from . import metrics
from .core import Collector, PassSpan, active, count, use
from .curves import (aggregate_curves, collect_curves, curves_document,
                     render_curves_markdown)
from .irstats import IRSnapshot, ir_snapshot
from .metrics import MetricsRegistry
from .perfdiff import diff_metrics, load_artifact, render_diff
from .perfetto import export_perfetto, write_perfetto
from .report import render_report

__all__ = ["Collector", "PassSpan", "active", "count", "use",
           "IRSnapshot", "ir_snapshot", "export_perfetto",
           "write_perfetto", "render_report", "metrics",
           "MetricsRegistry", "collect_curves", "aggregate_curves",
           "curves_document", "render_curves_markdown", "diff_metrics",
           "render_diff", "load_artifact"]
