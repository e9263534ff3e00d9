"""The ATLAS kernel variant library.

"ATLAS empirically searches a series of implementations, which were
laboriously written and hand-tuned using mixtures of assembly and ANSI
C, and contain a multitude of both high and low-level optimizations"
(section 3.3).

Each kernel gets a list of :class:`Variant` entries:

* ``c-ref``      — the plain ANSI C kernel as a native compiler builds it
  (ATLAS installs with both gcc and icc and keeps the better);
* ``c-pf``       — the common ATLAS case: C code with inline-assembly
  prefetch, hand-unrolled, over a small hand-chosen parameter grid;
* ``asm``        — all-assembly kernels: SIMD vectorized with good
  register blocking, prefetch and (where the author chose) WNT;
* ``asm-*``      — the special hand techniques: vectorized iamax,
  block-fetch dcopy, dual-indexed copy.

The grids are deliberately coarse — a human wrote a handful of
candidate implementations, not a compiler sweep.  That is exactly why
ifko's finer empirical search usually edges ATLAS out on average while
the special hand techniques still win their kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from ..fko import FKO, TransformParams
from ..fko.params import PrefetchParams
from ..ir import Function, PrefetchHint
from ..kernels.blas1 import KernelSpec
from ..machine.config import MachineConfig
from ..machine.timing import Context
from . import handtuned


@dataclass
class Candidate:
    """One concrete implementation ATLAS's search will time."""

    label: str
    build: Callable[[], Function]     # -> executable IR
    is_assembly: bool = False


@dataclass
class Variant:
    name: str
    candidates: List[Candidate] = field(default_factory=list)


def _fko_candidate(spec: KernelSpec, fko: FKO, label: str,
                   params: TransformParams,
                   is_assembly: bool = False) -> Candidate:
    def build() -> Function:
        return fko.compile(spec.hil, params).fn
    return Candidate(label=label, build=build, is_assembly=is_assembly)


# The hand kernels predate both evaluation machines: their parameter
# grids reflect the platforms they were written on (shorter prefetch
# distances, modest unrolling).  ATLAS's search can only select among
# them — it cannot retune distances finely, which is exactly where
# ifko's in-compiler search gains its average win (section 3.3).
_PF_GRID = (128, 256, 512)
_UR_GRID = (4, 8)


def variants_for(spec: KernelSpec, machine: MachineConfig,
                 context: Context, *,
                 fko: Optional[FKO] = None) -> List[Variant]:
    """The candidate library for ``spec`` on ``machine``.  The C and
    assembly candidates compile through ``fko`` (an ``FKO(machine)``
    when omitted); the library does not depend on ``context``, so one
    FKO serves a kernel's candidates in both contexts."""
    if fko is None:
        fko = FKO(machine)
    out: List[Variant] = []

    # ---- plain C reference (gcc-ish and icc-ish builds)
    cref = Variant("c-ref")
    cref.candidates.append(_fko_candidate(
        spec, fko, "c-ref/gcc",
        TransformParams(sv=False, unroll=4)))
    cref.candidates.append(_fko_candidate(
        spec, fko, "c-ref/icc",
        TransformParams(sv=True, unroll=2)))
    out.append(cref)

    # ---- C with inline prefetch assembly, hand-picked grids
    cpf = Variant("c-pf")
    for ur in _UR_GRID:
        for dist in _PF_GRID:
            params = TransformParams(sv=True, unroll=ur)
            for arr in spec.vector_args:
                params.prefetch[arr] = PrefetchParams(PrefetchHint.NTA, dist)
            cpf.candidates.append(_fko_candidate(
                spec, fko, f"c-pf/ur{ur}/d{dist}", params))
    out.append(cpf)

    # ---- all-assembly variants.  Historically these were written for
    # Intel machines; the K8 was too new to have dedicated hand kernels,
    # so the Opteron install selects among the C variants and the
    # portable special techniques only.
    asm = Variant("asm")
    wnt_opts = ((False, True) if spec.output_args else (False,)) \
        if machine.name != "Opteron" else ()
    for wnt in wnt_opts:
        for dist in (128, 256):
            for ae in ((1, 2) if spec.returns == "float" else (1,)):
                params = TransformParams(sv=True, unroll=4, ae=ae, wnt=wnt)
                for arr in spec.vector_args:
                    params.prefetch[arr] = PrefetchParams(
                        PrefetchHint.NTA, dist)
                asm.candidates.append(_fko_candidate(
                    spec, fko,
                    f"asm/wnt{int(wnt)}/d{dist}/ae{ae}", params,
                    is_assembly=True))
    out.append(asm)

    # ---- the special hand techniques
    if spec.base == "amax":
        special = Variant("asm-simd")
        # the iamax kernels were hand-retuned per platform (they are
        # the paper's flagship hand-tuning win); their grid is not dated
        for ur in (1, 2, 4):
            for dist in (512, 1024, 1536):
                special.candidates.append(Candidate(
                    label=f"asm-simd/u{ur}/d{dist}",
                    build=lambda u=ur, d=dist: handtuned.build_vector_iamax(
                        spec, PrefetchHint.NTA, d, unroll=u),
                    is_assembly=True))
        out.append(special)

    if spec.base == "copy":
        special = Variant("asm-hand")
        for nt in (False, True):
            for dist in (512, 1024):
                # dual-indexed CISC addressing; on the P4E the double
                # precision version also uses AMD-style block fetch
                special.candidates.append(Candidate(
                    label=f"asm-hand/nt{int(nt)}/d{dist}",
                    build=lambda nt=nt, d=dist: handtuned.build_dual_indexed_copy(
                        spec, unroll=4, nontemporal=nt,
                        prefetch=PrefetchHint.NTA, prefetch_dist=d,
                        block_fetch=(machine.name == "P4E"
                                     and spec.precision == "d")),
                    is_assembly=True))
        out.append(special)

    return out
