"""The Level-3 workload: blocked GEMM plus a small stencil/reduction
family.

The paper closes by claiming ifko is "already capable of improving even
Level 3 BLAS performance"; this module supplies the kernels that
exercise that claim.  ``gemm`` is written as a square row-major loop
nest (``C += A B`` in the axpy-style j-inner formulation) whose
innermost loop carries the ``@TUNE`` mark-up — the inner-loop pipeline
tunes the microkernel while the Level-3 tiling pass
(:mod:`repro.hil.tiling`) blocks the surrounding nest, searched through
the ``tile:<ivar>`` extension dimensions.

``stencil3`` (a 3-point sum) and ``sumsq`` (sum of squares) round out
the family with an elementwise neighbour-access kernel and one more
reduction: cheap single-loop shapes that widen the fuzzer's coverage of
multi-offset reads and squared accumulation.

All three register in the main :data:`~repro.kernels.blas1.REGISTRY`
(via :mod:`repro.kernels`), so the engine, the service, the tester and
the fuzzer drive them exactly like the Level-1 kernels.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .blas1 import EXTRA_REFERENCES, KernelSpec, _mk

# C += A * B, row-major square N x N.  The j-inner (axpy) formulation
# keeps the innermost loop a unit-stride stream over B and C with A
# invariant — vectorizable by the existing SV pass — and the k loop
# accumulates into C elements (a reduction per element, hence
# ``reduction_outputs=('C',)``).  The nest is the shape
# ``hil.tiling.find_nest`` accepts, so the search space grows
# ``tile:i / tile:k / tile:j`` dimensions on machines with caches.
_GEMM = """
ROUTINE {P}gemm(N: int, A: ptr {T}, B: ptr {T}, C: ptr {T});
{T} a;
{T} b;
{T} c;
LOOP i = 0, N
LOOP_BODY
    LOOP k = 0, N
    LOOP_BODY
        a = A[0];
        @TUNE
        LOOP j = 0, N
        LOOP_BODY
            b = B[0];
            c = C[0];
            c = c + a * b;
            C[0] = c;
            B += 1;
            C += 1;
        LOOP_END
        A += 1;
        C -= N;
    LOOP_END
    C += N;
    B -= N * N;
LOOP_END
"""

# Y[i] = X[i] + X[i+1] + X[i+2] for i < N-2 — multi-offset reads from
# one advancing pointer, bitwise-reproducible elementwise output.
_STENCIL3 = """
ROUTINE {P}stencil3(N: int, X: ptr {T}, Y: ptr {T});
{T} x0;
{T} x1;
{T} x2;
{T} s;
int m = N - 2;
@TUNE
LOOP i = 0, m
LOOP_BODY
    x0 = X[0];
    x1 = X[1];
    x2 = X[2];
    s = x0 + x1;
    s = s + x2;
    Y[0] = s;
    X += 1;
    Y += 1;
LOOP_END
"""

# sum of squares — one more reduction shape (squared accumuland) for
# the AE/SV reassociation paths.
_SUMSQ = """
ROUTINE {P}sumsq(N: int, X: ptr {T}) RETURNS {T};
{T} ss = 0.0;
{T} x;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    x = x * x;
    ss += x;
    X += 1;
LOOP_END
RETURN ss;
"""

#: interpreter-friendly sizes for the cubic kernels (a 13^3 nest is
#: ~4.4k interpreted multiply-adds; DEFAULT_SIZES' 257 would be ~34M)
GEMM_TEST_SIZES = (0, 1, 2, 3, 5, 8, 13)


def _build() -> List[KernelSpec]:
    specs: List[KernelSpec] = []
    for p in ("s", "d"):
        specs.append(_mk("gemm", _GEMM, p,
                         vector_args=(), matrix_args=("A", "B", "C"),
                         output_args=("C",), reduction_outputs=("C",),
                         flops_per_elem=2, flops_order=3,
                         test_sizes=GEMM_TEST_SIZES, loop_form="downcount"))
        specs.append(_mk("stencil3", _STENCIL3, p,
                         vector_args=("X", "Y"), output_args=("Y",),
                         flops_per_elem=2, loop_form="downcount"))
        specs.append(_mk("sumsq", _SUMSQ, p, vector_args=("X",),
                         output_args=(), returns="float",
                         flops_per_elem=2, loop_form="downcount"))
    return specs


BLAS3_REGISTRY: Dict[str, KernelSpec] = {s.name: s for s in _build()}

#: presentation/fuzz order of the Level-3 family, appended after the
#: paper's KERNEL_ORDER (which stays exactly the Table 1 fourteen)
BLAS3_ORDER = ["sgemm", "dgemm", "sstencil3", "dstencil3",
               "ssumsq", "dsumsq"]


# ---------------------------------------------------------------------------
# NumPy references (registered into blas1.reference's dispatch)


def _ref_gemm(spec: KernelSpec, arrays, scalars):
    c = arrays["C"]
    n = int(round(len(c) ** 0.5)) if len(c) else 0
    if n * n != len(c):        # padded degenerate allocation (N=0)
        return None
    if n:
        a = arrays["A"][:n * n].reshape(n, n).astype(np.float64)
        b = arrays["B"][:n * n].reshape(n, n).astype(np.float64)
        acc = c.reshape(n, n).astype(np.float64) + a @ b
        c[:] = acc.astype(spec.dtype).ravel()
    return None


def _ref_stencil3(spec: KernelSpec, arrays, scalars):
    x, y = arrays["X"], arrays["Y"]
    m = len(x) - 2
    if m > 0:
        # round exactly like the kernel: (x0 + x1) + x2 per element
        y[:m] = ((x[:m] + x[1:m + 1]) + x[2:m + 2]).astype(spec.dtype)
    return None


def _ref_sumsq(spec: KernelSpec, arrays, scalars):
    x = arrays["X"].astype(np.float64)
    return float(np.sum(x * x))


EXTRA_REFERENCES["gemm"] = _ref_gemm
EXTRA_REFERENCES["stencil3"] = _ref_stencil3
EXTRA_REFERENCES["sumsq"] = _ref_sumsq

__all__ = ["BLAS3_ORDER", "BLAS3_REGISTRY", "GEMM_TEST_SIZES"]
