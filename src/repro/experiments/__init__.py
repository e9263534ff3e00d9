"""Experiment harnesses — one per paper table/figure (DESIGN.md section 4).

* :mod:`repro.experiments.table1`   — Table 1 (BLAS summary)
* :mod:`repro.experiments.table2`   — Table 2 (platforms/compilers)
* :mod:`repro.experiments.relative` — Figures 2, 3, 4 (relative speedups)
* :mod:`repro.experiments.fig5`     — Figure 5 (absolute MFLOPS + in-cache)
* :mod:`repro.experiments.table3`   — Table 3 (selected parameters)
* :mod:`repro.experiments.fig7`     — Figure 7 (per-parameter gains)
* :mod:`repro.experiments.store`    — shared memoized result store

Run everything: ``python -m repro.experiments``.
"""

from .store import METHODS, MethodResult, ResultStore, global_store
from .relative import (RelativeResult, figure2, figure3, figure4,
                       relative_performance, render_figure)
from .fig5 import Figure5, figure5
from .fig7 import Figure7, figure7
from .table3 import Table3, table3
from . import table1, table2

__all__ = ["METHODS", "MethodResult", "ResultStore", "global_store",
           "RelativeResult", "figure2", "figure3", "figure4",
           "relative_performance", "render_figure", "Figure5", "figure5",
           "Figure7", "figure7", "Table3", "table3", "table1", "table2"]
