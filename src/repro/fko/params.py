"""Transform parameters — the optimization space the search explores.

These are the empirically tuned knobs of section 2.2.3/2.3:

* ``sv``      — SIMD vectorization on/off (default on when legal);
* ``unroll``  — loop unrolling factor N_u (applied after SV, so the
  computational unrolling is N_u x veclen);
* ``lc``      — optimize loop control (always beneficial; kept as a knob
  for ablation studies);
* ``ae``      — accumulator expansion: number of accumulators (1 = off;
  the paper reports this as the ":AE" half of "UR:AE");
* ``prefetch``— per-array (instruction type, distance-in-bytes); a
  distance of 0 means no prefetch of that array;
* ``wnt``     — non-temporal writes on the output array(s).

``TransformParams.key()`` gives a hashable identity for caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..ir import PrefetchHint
from ..util import check_schema


@dataclass(frozen=True)
class PrefetchParams:
    """Prefetch setting for one array: instruction flavor + distance.

    ``dist`` is in bytes ahead of the current pointer (Table 3's "DST"
    column).  ``hint=None`` or ``dist=0`` disables prefetch ("none:0").
    """

    hint: Optional[PrefetchHint] = None
    dist: int = 0

    @property
    def enabled(self) -> bool:
        return self.hint is not None and self.dist > 0

    def __str__(self) -> str:
        if not self.enabled:
            return "none:0"
        return f"{self.hint.value}:{self.dist}"

    @staticmethod
    def none() -> "PrefetchParams":
        return PrefetchParams(None, 0)


@dataclass
class TransformParams:
    sv: bool = True
    unroll: int = 1
    lc: bool = True
    ae: int = 1
    prefetch: Dict[str, PrefetchParams] = field(default_factory=dict)
    wnt: bool = False
    # Block fetch (AMD's block-prefetch technique, the paper's [14]):
    # reads and writes move in large blocks to minimize bus turnarounds.
    # The paper lists it as planned FKO work; here it is implemented and
    # searchable when the space enables it.
    block_fetch: bool = False
    # repeatable-pass switches (for ablations; all on in normal use)
    copy_propagation: bool = True
    peephole: bool = True
    cf_cleanup: bool = True
    register_allocation: str = "global"   # 'global' | 'local' | 'off'
    # Namespaced extension point for transforms layered above the inner
    # pipeline (the Level-3 tiling pass stores ``tile:<ivar> -> size``
    # here).  An absent/zero entry means "off"; an empty ``ext`` keeps
    # ``key()``/``to_dict()`` byte-identical to the pre-extension
    # schema, so eval-cache digests and wire payloads of existing
    # kernels never move.
    ext: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.unroll < 1:
            raise ValueError(f"unroll must be >= 1, got {self.unroll}")
        if self.ae < 1:
            raise ValueError(f"ae must be >= 1, got {self.ae}")
        if self.register_allocation not in ("global", "local", "off"):
            raise ValueError(
                f"unknown register allocator {self.register_allocation!r}")
        # drop disabled entries so "no extension" has one spelling, and
        # cast names to str: a numpy string would change key()'s repr
        if self.ext:
            self.ext = {str(k): int(v) for k, v in self.ext.items()
                        if int(v)}
        for k, v in self.ext.items():
            if v < 0:
                raise ValueError(f"extension {k!r} must be >= 0, got {v}")

    def pf(self, array: str) -> PrefetchParams:
        return self.prefetch.get(array, PrefetchParams.none())

    def tiles(self) -> Dict[str, int]:
        """Tile sizes by loop variable (the ``tile:`` extension slice)."""
        return {k.split(":", 1)[1]: v for k, v in self.ext.items()
                if k.startswith("tile:") and v > 0}

    def key(self) -> Tuple:
        """Hashable identity (used as a cache key by the search)."""
        pf = tuple(sorted((a, p.hint.value if p.hint else "", p.dist)
                          for a, p in self.prefetch.items()))
        base = (self.sv, self.unroll, self.lc, self.ae, pf, self.wnt,
                self.block_fetch, self.copy_propagation, self.peephole,
                self.cf_cleanup, self.register_allocation)
        if self.ext:   # appended only when present: legacy keys stable
            base += (tuple(sorted(self.ext.items())),)
        return base

    def copy(self, **changes) -> "TransformParams":
        """A modified copy (prefetch dict is copied, not shared)."""
        new = TransformParams(
            sv=self.sv, unroll=self.unroll, lc=self.lc, ae=self.ae,
            prefetch=dict(self.prefetch), wnt=self.wnt,
            block_fetch=self.block_fetch,
            copy_propagation=self.copy_propagation, peephole=self.peephole,
            cf_cleanup=self.cf_cleanup,
            register_allocation=self.register_allocation,
            ext=dict(self.ext))
        for k, v in changes.items():
            if not hasattr(new, k):
                raise AttributeError(f"unknown parameter {k!r}")
            setattr(new, k, v)
        if changes:
            new.__post_init__()   # re-normalize (e.g. a replaced ext)
        return new

    def with_ext(self, name: str, value: int) -> "TransformParams":
        """A copy with one extension entry set (0 removes it)."""
        new = self.copy()
        if int(value):
            new.ext[str(name)] = int(value)
        else:
            new.ext.pop(name, None)
        return new

    def with_pf(self, array: str, hint: Optional[PrefetchHint],
                dist: int) -> "TransformParams":
        new = self.copy()
        new.prefetch[array] = PrefetchParams(hint, dist)
        return new

    def describe(self) -> str:
        """Table-3-style one-line description."""
        pf = " ".join(f"{a}={p}" for a, p in sorted(self.prefetch.items()))
        tiles = self.tiles()
        tile_s = ("TILE=" + ",".join(f"{iv}:{t}"
                                     for iv, t in sorted(tiles.items()))
                  if tiles else "")
        return (f"SV={'Y' if self.sv else 'N'} WNT={'Y' if self.wnt else 'N'} "
                f"UR={self.unroll} AE={self.ae if self.ae > 1 else 0}"
                + (" BF=Y" if self.block_fetch else "")
                + (f" {tile_s}" if tile_s else "")
                + (f" {pf}" if pf else ""))

    # -- JSON round-trip (evaluation cache, result store, traces) -------
    def to_dict(self) -> Dict:
        out = {
            "schema": 1,
            "sv": self.sv, "unroll": self.unroll, "lc": self.lc,
            "ae": self.ae, "wnt": self.wnt, "block_fetch": self.block_fetch,
            "copy_propagation": self.copy_propagation,
            "peephole": self.peephole, "cf_cleanup": self.cf_cleanup,
            "register_allocation": self.register_allocation,
            "prefetch": {a: [p.hint.value if p.hint else None, p.dist]
                         for a, p in sorted(self.prefetch.items())},
        }
        if self.ext:   # emitted only when present: legacy payloads stable
            out["ext"] = {k: int(v) for k, v in sorted(self.ext.items())}
        return out

    @staticmethod
    def from_dict(data: Dict) -> "TransformParams":
        check_schema(data, "TransformParams")
        prefetch = {
            arr: PrefetchParams(PrefetchHint(hint) if hint else None,
                                int(dist))
            for arr, (hint, dist) in data.get("prefetch", {}).items()}
        return TransformParams(
            sv=bool(data.get("sv", True)),
            unroll=int(data.get("unroll", 1)),
            lc=bool(data.get("lc", True)),
            ae=int(data.get("ae", 1)),
            prefetch=prefetch,
            wnt=bool(data.get("wnt", False)),
            block_fetch=bool(data.get("block_fetch", False)),
            copy_propagation=bool(data.get("copy_propagation", True)),
            peephole=bool(data.get("peephole", True)),
            cf_cleanup=bool(data.get("cf_cleanup", True)),
            register_allocation=data.get("register_allocation", "global"),
            ext={k: int(v) for k, v in data.get("ext", {}).items()})


def fko_defaults(line_size: int, elem_size: int, veclen: int,
                 prefetch_arrays: Tuple[str, ...]) -> TransformParams:
    """FKO's default (un-searched) parameter values, per section 2.3:

    "SV=Yes, WNT=No, PF(type,dist)=(prefetchnta, 2*L), UR=L_e, AE=No"

    where L is the line size of the first prefetchable cache and L_e the
    number of elements of the type in such a line (a SIMD vector counts
    as one element when SV applies — the caller passes ``veclen``).
    """
    le = max(1, line_size // (elem_size * max(1, veclen)))
    params = TransformParams(sv=True, unroll=le, lc=True, ae=1, wnt=False)
    for arr in prefetch_arrays:
        params.prefetch[arr] = PrefetchParams(PrefetchHint.NTA, 2 * line_size)
    return params
