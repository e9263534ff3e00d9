"""The surveyed Level 1 BLAS kernels (paper Table 1).

Each kernel carries:

* its HIL source (the "direct translations of these routines from ANSI
  C to our HIL" of section 3.2.1, including the paper's special iamax
  formulation from Figure 6(b));
* a NumPy reference implementation for the tester;
* the FLOP convention from Table 1 (copy/swap "do no floating point
  computation", so the paper assigns N FLOPs to make MFLOPS comparable);
* which arguments are vectors and scalars, and which vectors are
  outputs;
* the *loop form* of the corresponding ANSI C reference code.  ATLAS's
  C sources are written ``for(i=N; i; i--)`` — a form icc refuses to
  vectorize (section 3.2: "icc will not vectorize either form,
  regardless of what is in the loop"); the paper's authors rewrote them
  as ``for(i=0; i < N; i++)``.  The modeled icc keys on this flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """One BLAS routine at one precision."""

    name: str                 # e.g. 'ddot'
    base: str                 # e.g. 'dot'
    precision: str            # 's' | 'd'
    hil: str
    vector_args: Tuple[str, ...]
    output_args: Tuple[str, ...]      # vectors written
    #: output vectors whose elements are each fed by a reduction (e.g. a
    #: gemv-style dot per element) — the tester allows these an
    #: association-tolerant bound scaled by the real reduction length,
    #: where plain element-wise outputs must match bitwise
    reduction_outputs: Tuple[str, ...] = ()
    scalar_args: Tuple[str, ...] = ()
    returns: Optional[str] = None     # 'float' | 'int' | None
    flops_per_elem: int = 1           # Table 1 FLOPs column / N
    loop_form: str = "canonical"      # 'canonical' | 'downcount'
    #: arguments that are N x N matrices (flattened row-major, n*n
    #: elements) rather than length-N vectors — the Level-3 kernels
    matrix_args: Tuple[str, ...] = ()
    #: FLOPs scale as flops_per_elem * n**flops_order (3 for GEMM)
    flops_order: int = 1
    #: tester size override; None = the tester's DEFAULT_SIZES (cubic
    #: kernels need small sizes to keep interpreter runs bounded)
    test_sizes: Optional[Tuple[int, ...]] = None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "s" else np.float64)

    @property
    def ctype(self) -> str:
        return "float" if self.precision == "s" else "double"

    def flops(self, n: int) -> int:
        return self.flops_per_elem * n ** self.flops_order

    def arg_elems(self, name: str, n: int) -> int:
        """Element count of one array argument at problem size ``n``."""
        return n * n if name in self.matrix_args else n

    @property
    def array_args(self) -> Tuple[str, ...]:
        return self.vector_args + self.matrix_args


# ---------------------------------------------------------------------------
# HIL templates; {T} is the precision type

_SWAP = """
ROUTINE {P}swap(N: int, X: ptr {T}, Y: ptr {T});
{T} tmp;
{T} ty;
@TUNE
LOOP i = 0, N
LOOP_BODY
    tmp = X[0];
    ty = Y[0];
    Y[0] = tmp;
    X[0] = ty;
    X += 1;
    Y += 1;
LOOP_END
"""

_SCAL = """
ROUTINE {P}scal(N: int, alpha: {T}, X: ptr {T});
{T} x;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    x = x * alpha;
    X[0] = x;
    X += 1;
LOOP_END
"""

_COPY = """
ROUTINE {P}copy(N: int, X: ptr {T}, Y: ptr {T});
{T} x;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    Y[0] = x;
    X += 1;
    Y += 1;
LOOP_END
"""

_AXPY = """
ROUTINE {P}axpy(N: int, alpha: {T}, X: ptr {T}, Y: ptr {T});
{T} x;
{T} y;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    y = Y[0];
    y = y + alpha * x;
    Y[0] = y;
    X += 1;
    Y += 1;
LOOP_END
"""

_DOT = """
ROUTINE {P}dot(N: int, X: ptr {T}, Y: ptr {T}) RETURNS {T};
{T} dot = 0.0;
{T} x;
{T} y;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += 1;
    Y += 1;
LOOP_END
RETURN dot;
"""

_ASUM = """
ROUTINE {P}asum(N: int, X: ptr {T}) RETURNS {T};
{T} sum = 0.0;
{T} x;
@TUNE
LOOP i = 0, N
LOOP_BODY
    x = X[0];
    x = ABS x;
    sum += x;
    X += 1;
LOOP_END
RETURN sum;
"""

# Figure 6(b): "absent code positioning transformations, the most
# efficient way to implement the operation"
_IAMAX = """
ROUTINE i{P}amax(N: int, X: ptr {T}) RETURNS int;
{T} amax;
{T} x;
int imax = 0;
amax = X[0];
amax = ABS amax;
@TUNE
LOOP i = N, 0, -1
LOOP_BODY
    x = X[0];
    x = ABS x;
    IF (x > amax) GOTO NEWMAX;
ENDOFLOOP:
    X += 1;
LOOP_END
RETURN imax;
NEWMAX:
    amax = x;
    imax = N - i;
    GOTO ENDOFLOOP;
"""


def _mk(base: str, template: str, precision: str, **kw) -> KernelSpec:
    t = "float" if precision == "s" else "double"
    name = kw.pop("name", precision + base)
    return KernelSpec(
        name=name, base=base, precision=precision,
        hil=template.format(T=t, P=precision), **kw)


def _build_registry() -> Dict[str, KernelSpec]:
    specs: List[KernelSpec] = []
    for p in ("s", "d"):
        specs.append(_mk("swap", _SWAP, p, vector_args=("X", "Y"),
                         output_args=("X", "Y"), flops_per_elem=1,
                         loop_form="downcount"))
        specs.append(_mk("scal", _SCAL, p, vector_args=("X",),
                         output_args=("X",), scalar_args=("alpha",),
                         flops_per_elem=1, loop_form="downcount"))
        specs.append(_mk("copy", _COPY, p, vector_args=("X", "Y"),
                         output_args=("Y",), flops_per_elem=1,
                         loop_form="downcount"))
        specs.append(_mk("axpy", _AXPY, p, vector_args=("X", "Y"),
                         output_args=("Y",), scalar_args=("alpha",),
                         flops_per_elem=2, loop_form="downcount"))
        specs.append(_mk("dot", _DOT, p, vector_args=("X", "Y"),
                         output_args=(), returns="float", flops_per_elem=2,
                         loop_form="downcount"))
        specs.append(_mk("asum", _ASUM, p, vector_args=("X",),
                         output_args=(), returns="float", flops_per_elem=2,
                         loop_form="downcount"))
        specs.append(_mk("amax", _IAMAX, p, name=f"i{p}amax",
                         vector_args=("X",), output_args=(),
                         returns="int", flops_per_elem=2,
                         loop_form="downcount"))
    return {s.name: s for s in specs}


REGISTRY: Dict[str, KernelSpec] = _build_registry()

#: paper ordering: the most commonly used Level 1 BLAS (Table 1 / figures)
KERNEL_ORDER = ["sswap", "dswap", "sscal", "dscal", "scopy", "dcopy",
                "saxpy", "daxpy", "sdot", "ddot", "sasum", "dasum",
                "isamax", "idamax"]


def get_kernel(name: str) -> KernelSpec:
    return REGISTRY[name]


def all_kernels() -> List[KernelSpec]:
    return [REGISTRY[n] for n in KERNEL_ORDER]


# ---------------------------------------------------------------------------
# NumPy references (the tester's oracle)

def reference(spec: KernelSpec, arrays: Dict[str, np.ndarray],
              scalars: Dict[str, float]):
    """Run the reference semantics; mutates ``arrays`` like the kernel.

    Returns the scalar result for dot/asum/iamax, else None.
    """
    dt = spec.dtype
    if spec.base == "swap":
        x, y = arrays["X"], arrays["Y"]
        tmp = x.copy()
        x[:] = y
        y[:] = tmp
        return None
    if spec.base == "scal":
        arrays["X"][:] = (arrays["X"] * dt.type(scalars["alpha"])).astype(dt)
        return None
    if spec.base == "copy":
        arrays["Y"][:] = arrays["X"]
        return None
    if spec.base == "axpy":
        arrays["Y"][:] = (arrays["Y"]
                          + dt.type(scalars["alpha"]) * arrays["X"]).astype(dt)
        return None
    if spec.base == "dot":
        # sequential-rounding reference happens in the tester with a
        # tolerance; the fast path is fine as an oracle
        return float(np.dot(arrays["X"].astype(np.float64),
                            arrays["Y"].astype(np.float64)))
    if spec.base == "asum":
        return float(np.sum(np.abs(arrays["X"].astype(np.float64))))
    if spec.base == "amax":
        if len(arrays["X"]) == 0:
            return 0
        return int(np.argmax(np.abs(arrays["X"])))
    extra = EXTRA_REFERENCES.get(spec.base)
    if extra is not None:
        return extra(spec, arrays, scalars)
    raise KeyError(spec.base)


#: extension point for kernel families defined outside this module
#: (kernels/blas3.py registers gemm/stencil3/sumsq here), keyed by
#: ``KernelSpec.base`` — keeps ``reference`` the single oracle entry
#: point the tester and the differential fuzzer import
EXTRA_REFERENCES: Dict[str, Callable] = {}
