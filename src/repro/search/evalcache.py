"""Persistent, content-addressed cache of kernel evaluations.

Every ifko evaluation is a pure function of (kernel source, machine,
context, problem size, transform parameters, code version): the
simulated machines are deterministic and the timer's pseudo-noise is
seeded from the same identity.  That makes evaluations perfectly
cacheable *across runs and processes* — the way an ATLAS install
records its search so a reinstall does not re-time the world.

Each entry is one :class:`repro.records.RecordStore` record named by
:func:`eval_key`, the :func:`~repro.records.canonical_digest` of the
kernel source, machine identity, context, n, ``params.key()`` and
``__version__``.  Including ``__version__`` in the key means stale
entries are never reused across code changes — they are simply never
looked up again.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..records import RecordStore, canonical_digest


def eval_key(hil: str, machine: str, context, n: int,
             params_key: Tuple, version: str) -> str:
    """SHA-256 digest naming one evaluation.

    ``machine`` is :func:`repro.machine.machine_ident` of the config;
    ``context`` may be a :class:`repro.machine.Context` or its string
    value; ``params_key`` is ``TransformParams.key()`` (nested tuples
    of primitives, which JSON spells as lists).
    """
    return canonical_digest({"hil": hil, "machine": machine,
                             "context": getattr(context, "value",
                                                str(context)),
                             "n": int(n), "params": params_key,
                             "v": version})


class EvalCache(RecordStore):
    """Disk dictionary: evaluation digest -> cycle count."""

    def get(self, digest: str) -> Optional[float]:
        """Cycles for ``digest``, or None (damaged entries count as
        misses and are recomputed, never raised).  Non-finite cycle
        counts are corrupt by definition — a NaN/inf served as a hit
        would poison every search that touches the entry — so they too
        count as misses and are recomputed."""
        try:
            cycles = float(super().get(digest)["cycles"])
        except (KeyError, TypeError, ValueError):
            return None
        return cycles if math.isfinite(cycles) else None

    def put(self, digest: str, cycles: float,
            meta: Optional[Dict] = None) -> bool:
        """Record an evaluation; False if the disk refused it (the
        cache is then merely cold).  Non-finite cycle counts are
        refused outright: failed evaluations (``inf``) are not
        measurements, and persisting one would poison searches across
        runs."""
        if not math.isfinite(cycles):
            return False
        data = dict(meta or {})
        data["cycles"] = float(cycles)
        return super().put(digest, data)
