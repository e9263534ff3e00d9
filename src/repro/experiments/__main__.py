"""Run every experiment harness and print the paper's tables/figures.

Usage (the same flags as ``python -m repro experiments``)::

    python -m repro.experiments                # everything, paper sizes
    python -m repro.experiments fig2 table3    # a subset
    python -m repro.experiments --jobs 4 --cache-dir .repro-cache

``--jobs`` fans the tuning runs across worker processes and
``--cache-dir`` persists both the per-figure result rows (``rows/``)
and the engine's per-evaluation cache (``evals/``), so a rerun reloads
instead of re-tuning.
"""

from __future__ import annotations

import sys
import time

from . import fig5, fig7, relative, table1, table2
from .table3 import table3 as make_table3
from .store import global_store

ALL = ("table1", "table2", "fig2", "fig3", "fig4", "fig5", "table3", "fig7")


def main(which=(), jobs=None, cache_dir=None) -> int:
    """Render the experiments named in ``which`` (default: all)."""
    wanted = set(a.lower() for a in which) or set(ALL)
    unknown = wanted - set(ALL)
    if unknown:
        raise SystemExit(f"error: unknown experiment(s): "
                         f"{', '.join(sorted(unknown))}; "
                         f"valid: {', '.join(ALL)}")
    try:
        store = global_store(jobs=jobs, cache_dir=cache_dir)
    except ValueError as exc:   # an invalid engine knob, e.g. jobs=0
        raise SystemExit(f"error: {exc}")
    t0 = time.time()
    print(f"# repro experiment suite "
          f"({'quick' if store.quick else 'paper'} sizes)\n")
    if "table1" in wanted:
        print(table1.render(), "\n")
    if "table2" in wanted:
        print(table2.render(), "\n")
    for w, num in (("fig2", 2), ("fig3", 3), ("fig4", 4)):
        if w in wanted:
            print(relative.render_figure(num, store), "\n")
    if "fig5" in wanted:
        print(fig5.figure5(store).render(), "\n")
    if "table3" in wanted:
        print(make_table3(store).render(), "\n")
    if "fig7" in wanted:
        print(fig7.figure7(store).render(), "\n")
    print(f"# done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    from ..cli import main as cli_main
    raise SystemExit(cli_main(["experiments", *sys.argv[1:]]))
