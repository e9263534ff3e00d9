"""Warm-start lookup: nearest-neighbor retrieval over a result store.

The transfer searcher (``TuneConfig.warm_start``) seeds a search with
the best known parameters of the nearest previously-tuned problem.  This module
is the retrieval half: it reads a ``repro serve`` result-store
directory (one JSON file per answered request — the layout
:class:`repro.service.jobs.ServeResultStore` writes), recovers each
entry's (kernel, machine, context, n, best params), and ranks entries
by a deterministic lexicographic distance to the query problem.

Canonicalization is the load-bearing part.  Stored results spell their
machine however the writer did (``TunedKernel.to_dict`` records the
config's canonical-case name, e.g. ``"P4E"``; the wire schema
lowercases to ``"p4e"``) and their context as either the enum value or
a CLI short form.  Every spelling is folded through the *same* path the
wire schema uses — ``canonical_machine`` and
``parse_context`` — on both the stored and the query side, and a
missing problem size takes ``default_n``.  Without that, a
result served by the daemon is invisible to an in-process warm-start of
the identical problem (the satellite bugfix this module's regression
tests pin).

The neighbor metric is lexicographic, most-significant first: same
kernel, then same kernel family (``dasum``/``sasum`` share a base),
then same machine, then same context, then the ``|log2|`` ratio of
problem sizes — tie-broken by recorded cycles and finally by file name,
so the ranking is a total order and the lookup is deterministic across
processes and filesystems.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fko.params import TransformParams
from ..kernels import REGISTRY
from ..machine import canonical_machine, parse_context
from ..records import RecordStore
from ..timing.timer import default_n
from .config import TuneConfig
from .engine import job_key

__all__ = ["WarmEntry", "load_entries", "lookup_warm_start",
           "write_warm_entry"]


@dataclass(frozen=True)
class WarmEntry:
    """One stored tuning result, canonicalized for neighbor ranking."""

    kernel: str
    base: str                  # kernel family (precision-independent)
    machine: str               # canonical lowercase (wire spelling)
    context: str               # Context value string
    n: int
    params: TransformParams
    cycles: float
    source: str                # file name (deterministic tiebreak)


def _kernel_base(kernel: str) -> str:
    """The precision-independent kernel family, from the registry when
    the kernel is known (``dasum`` and ``sasum`` -> ``asum``)."""
    spec = REGISTRY.get(kernel)
    if spec is not None:
        return spec.base
    return kernel


# -- reading a store ----------------------------------------------------

def _parse_entry(data: Dict, source: str) -> Optional[WarmEntry]:
    """One stored record -> a :class:`WarmEntry`, or None for anything
    unusable (wrong shape, failed request, undecodable params).  Both
    the :class:`TuneResponse` envelope and a bare ``TunedKernel`` dict
    are accepted."""
    result = data.get("result") if isinstance(data.get("result"), dict) \
        else data
    kernel = result.get("kernel")
    params = result.get("params") or result.get("best_params")
    if not isinstance(kernel, str) or not isinstance(params, dict):
        return None
    cycles = float("inf")
    search = result.get("search")
    if isinstance(search, dict) \
            and isinstance(search.get("best_cycles"), (int, float)):
        cycles = float(search["best_cycles"])
    elif isinstance(result.get("timing"), dict) \
            and isinstance(result["timing"].get("cycles"), (int, float)):
        cycles = float(result["timing"]["cycles"])
    context = result.get("context", "out-of-cache")
    try:
        return WarmEntry(
            kernel=kernel,
            base=_kernel_base(kernel),
            machine=canonical_machine(result.get("machine", "p4e")),
            context=parse_context(context).value,
            n=int(result.get("n") or default_n(kernel, context)),
            params=TransformParams.from_dict(params),
            cycles=cycles,
            source=source)
    except (KeyError, ValueError, TypeError):
        return None


def load_entries(root) -> List[WarmEntry]:
    """Every parseable entry under ``root`` (a serve result-store
    directory), in deterministic (sorted-path) order.  A missing or
    empty directory is an empty list, never an error — warm-starting is
    always best-effort."""
    entries = (_parse_entry(data, path.name)
               for path, data in RecordStore(root).records())
    return [entry for entry in entries if entry is not None]


# -- the neighbor metric ------------------------------------------------

def _rank_key(entry: WarmEntry, kernel: str, base: str, machine: str,
              context: str, n: int) -> Tuple:
    return (entry.kernel != kernel,
            entry.base != base,
            entry.machine != machine,
            entry.context != context,
            abs(math.log2(entry.n / n)) if entry.n > 0 and n > 0 else 0.0,
            entry.cycles,
            entry.source)


def lookup_warm_start(root, kernel: str, machine, context,
                      n: Optional[int] = None, k: int = 2
                      ) -> Tuple[List[TransformParams], str]:
    """The ``k`` best warm-start candidates for (kernel, machine,
    context, n) from the store at ``root``, nearest problem first, plus
    a human-readable tag of the nearest neighbor (for the trace).
    Candidates are deduplicated by parameter key; an empty or missing
    store yields ``([], "")``."""
    entries = load_entries(root)
    if not entries:
        return [], ""
    machine = canonical_machine(machine)
    context = parse_context(context).value
    n = int(n or default_n(kernel, context))
    base = _kernel_base(kernel)
    ranked = sorted(entries,
                    key=lambda e: _rank_key(e, kernel, base, machine,
                                            context, n))
    picks: List[TransformParams] = []
    seen = set()
    for entry in ranked:
        key = entry.params.key()
        if key in seen:
            continue
        seen.add(key)
        picks.append(entry.params)
        if len(picks) >= max(1, k):
            break
    nearest = ranked[0]
    return picks, job_key(nearest.kernel, nearest.machine, nearest.context,
                          nearest.n)


# -- writing entries (benchmarks, tests, offline store builders) --------

def write_warm_entry(root, kernel: str, machine, context, n,
                     params: TransformParams, cycles: float,
                     extra: Optional[Dict] = None) -> pathlib.Path:
    """Record one tuned result as a serve result-store record keyed by
    the canonical request digest, so benchmarks and tests can build
    warm stores without running a daemon.  Returns the written path;
    raises :class:`OSError` when the disk refuses the write."""
    from ..service.schema import TuneRequest
    request = TuneRequest.from_config(kernel, machine, context, n,
                                      TuneConfig(run_tester=False))
    digest = request.digest()
    entry = {"schema": 1, "digest": digest, "job_id": "",
             "status": "done",
             "result": {"schema": 1, "kernel": kernel,
                        "machine": getattr(machine, "name", machine),
                        "context": getattr(context, "value",
                                           str(context)),
                        "n": request.n,
                        "params": params.to_dict(),
                        "search": {"best_cycles": float(cycles)}}}
    if extra:
        entry["result"].update(extra)
    store = RecordStore(root)
    if not store.put(digest, entry):
        raise OSError(f"cannot write warm entry {digest} under {root}")
    return store.path(digest)
