"""Persistent, content-addressed cache of kernel evaluations.

Every ifko evaluation is a pure function of (kernel source, machine,
context, problem size, transform parameters, code version): the
simulated machines are deterministic and the timer's pseudo-noise is
seeded from the same identity.  That makes evaluations perfectly
cacheable *across runs and processes* — the way an ATLAS install
records its search so a reinstall does not re-time the world.

Each entry is one :class:`repro.records.RecordStore` record named by
:func:`eval_key`, the SHA-256 of ``(hil_hash, machine, context, n,
params.key(), __version__)``.  Including ``__version__`` in the key
means stale entries are never reused across code changes — they are
simply never looked up again.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Tuple

from ..machine import get_machine
from ..machine.config import MachineConfig
from ..records import RecordStore


def machine_ident(machine: MachineConfig) -> str:
    """The machine part of an :func:`eval_key`: the config's name when
    it equals the registry machine of that name, else the name plus the
    SHA-256 of the config's ``repr``, so a modified config never reads
    the registry machine's entries."""
    try:
        if get_machine(machine.name) == machine:
            return machine.name
    except KeyError:
        pass
    digest = hashlib.sha256(repr(machine).encode()).hexdigest()
    return f"{machine.name}:{digest}"


def eval_key(hil: str, machine_name: str, context, n: int,
             params_key: Tuple, version: str) -> str:
    """SHA-256 digest naming one evaluation.

    ``context`` may be a :class:`repro.machine.Context` or its string
    value; ``params_key`` is ``TransformParams.key()`` (a nested tuple
    of primitives, so its ``repr`` is stable).
    """
    hil_hash = hashlib.sha256(hil.encode()).hexdigest()
    ctx = getattr(context, "value", str(context))
    blob = repr((hil_hash, machine_name, ctx, int(n), params_key, version))
    return hashlib.sha256(blob.encode()).hexdigest()


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
