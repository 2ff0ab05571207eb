"""Registry of the sparse and dense matrix primitives GRANII reasons about.

Every primitive the association rules can emit is described here once:
its name, whether it is a sparse or dense primitive (Figure 2's runtime
split is computed from this), and an analytic operation count used both by
the complexity tables (Figure 3) and as the workload measure the hardware
timing model scales.

A :class:`KernelCall` is the *symbolic* form of one primitive invocation —
enough shape/sparsity metadata to cost it without executing it.  Lowered
plans (``repro.core.codegen``) carry lists of KernelCalls alongside the
executable closures.

This module also owns the **wrappable dispatch seam**: plan execution
routes every concrete primitive invocation through
:func:`dispatch_kernel`, which threads the call through any registered
wrappers.  Wrappers see ``(primitive_name, next_call, tag)`` and may
observe, perturb, or replace the invocation — the fault-injection
framework (:mod:`repro.faults`) and the guarded runtime's
instrumentation both attach here, with zero overhead when no wrapper is
installed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping

from .spmm import PRICED_STRATEGIES

__all__ = [
    "Primitive",
    "KernelCall",
    "PRIMITIVES",
    "get_primitive",
    "dispatch_kernel",
    "kernel_wrapper",
    "push_kernel_wrapper",
    "remove_kernel_wrapper",
    "transient_bytes",
]


@dataclass(frozen=True)
class Primitive:
    """Static description of one matrix primitive."""

    name: str
    kind: str  # "sparse" or "dense"
    flops: Callable[[Mapping[str, float]], float]
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("sparse", "dense"):
            raise ValueError("kind must be 'sparse' or 'dense'")


def _f(expr: Callable[[Mapping[str, float]], float]) -> Callable:
    return expr


PRIMITIVES: Dict[str, Primitive] = {
    "gemm": Primitive(
        "gemm", "dense",
        _f(lambda s: 2.0 * s["m"] * s["k"] * s["n"]),
        "dense (m×k)·(k×n) matrix multiplication",
    ),
    "spmm": Primitive(
        "spmm", "sparse",
        _f(lambda s: 2.0 * s["nnz"] * s["k"]),
        "weighted sparse·dense multiplication, O(E·K)",
    ),
    "spmm_unweighted": Primitive(
        "spmm_unweighted", "sparse",
        _f(lambda s: 1.0 * s["nnz"] * s["k"]),
        "pattern-only sparse·dense multiplication (no edge-value multiply)",
    ),
    "sddmm": Primitive(
        "sddmm", "sparse",
        _f(lambda s: 2.0 * s["nnz"] * s["k"]),
        "sampled dense-dense multiplication, O(E·K)",
    ),
    "sddmm_diag": Primitive(
        "sddmm_diag", "sparse",
        _f(lambda s: 2.0 * s["nnz"]),
        "diag·sparse·diag scaling on the pattern, O(E)",
    ),
    "gsddmm_attn": Primitive(
        "gsddmm_attn", "sparse",
        _f(lambda s: 2.0 * s["nnz"]),
        "per-edge attention logits from endpoint scores, O(E)",
    ),
    "edge_softmax": Primitive(
        "edge_softmax", "sparse",
        _f(lambda s: 4.0 * s["nnz"]),
        "softmax over each destination's incident edges, O(E)",
    ),
    "row_broadcast": Primitive(
        "row_broadcast", "dense",
        _f(lambda s: 1.0 * s["m"] * s["k"]),
        "per-row scalar times dense matrix, O(N·K)",
    ),
    "elementwise": Primitive(
        "elementwise", "dense",
        _f(lambda s: 1.0 * s["m"] * s["k"]),
        "element-wise dense op (add/relu/...), O(N·K)",
    ),
    "degree_indptr": Primitive(
        "degree_indptr", "sparse",
        _f(lambda s: 1.0 * s["m"]),
        "degrees from the CSR row pointer, O(N)",
    ),
    "degree_binning": Primitive(
        "degree_binning", "sparse",
        _f(lambda s: 1.0 * s["nnz"]),
        "degrees by scattering edges into bins, O(E) with atomics",
    ),
    "spgemm": Primitive(
        "spgemm", "sparse",
        # intermediate products: one multiply-add per (i,k)x(k,j) meeting
        _f(lambda s: 2.0 * s["nnz"] * (s["nnz_rhs"] / max(s["m"], 1.0))),
        "sparse x sparse multiplication (setup-only extension kernel)",
    ),
    "fused_attn_spmm": Primitive(
        "fused_attn_spmm", "sparse",
        _f(lambda s: 6.0 * s["nnz"] + 2.0 * s["nnz"] * s["k"]),
        "fused attention-scoring + edge-softmax + aggregation, one pass",
    ),
    "diag_mul": Primitive(
        "diag_mul", "dense",
        _f(lambda s: 1.0 * s["m"]),
        "product of two diagonal matrices (vector multiply), O(N)",
    ),
    "spadd_diag": Primitive(
        "spadd_diag", "sparse",
        _f(lambda s: 1.0 * s["nnz"] + s["m"]),
        "sparse matrix plus diagonal (pattern union), O(E + N)",
    ),
}


# one cost primitive per priced strategy row, same O(E·K) work as spmm
PRIMITIVES.update(
    (name, Primitive(name, "sparse", PRIMITIVES["spmm"].flops, row.description))
    for name, row in PRICED_STRATEGIES.items()
)


def get_primitive(name: str) -> Primitive:
    try:
        return PRIMITIVES[name]
    except KeyError:
        raise KeyError(
            f"unknown primitive {name!r}; choices: {sorted(PRIMITIVES)}"
        ) from None


# ----------------------------------------------------------------------
# Transient-memory model
# ----------------------------------------------------------------------
# Per-call scratch footprint beyond inputs and the output, in bytes.
# Plans only ever aggregate over the sum family, whose compiled row fold
# (kernels.segment.fold_rows) accumulates straight into the output: a
# weighted SpMM allocates nothing, a pattern-only one folds with the
# matrix's memoised all-ones weight vector.  SDDMM still materialises
# per-edge operands; the fused attention kernel streams and notably
# does not (part of fusion's appeal).  Used by plan peak-memory
# estimates and the execution memory budget.
_TRANSIENT_BYTES: Dict[str, Callable[[Mapping[str, float]], float]] = {
    "spmm_unweighted": lambda s: 8.0 * s["nnz"],
    "sddmm": lambda s: 8.0 * s["nnz"] * s.get("k", 1),
    "gsddmm_attn": lambda s: 16.0 * s["nnz"],
    "edge_softmax": lambda s: 16.0 * s["nnz"],
    "fused_attn_spmm": lambda s: 24.0 * s["nnz"],
}
_TRANSIENT_BYTES.update(
    (name, row.transient_bytes)
    for name, row in PRICED_STRATEGIES.items() if row.transient_bytes
)


def transient_bytes(primitive: str, shape: Mapping[str, float]) -> float:
    """Estimated per-call scratch bytes of one primitive invocation."""
    fn = _TRANSIENT_BYTES.get(primitive)
    return float(fn(shape)) if fn is not None else 0.0


# ----------------------------------------------------------------------
# Wrappable dispatch
# ----------------------------------------------------------------------
# Wrapper signature: (primitive_name, next_call, tag) -> value, where
# next_call is a zero-argument callable running the rest of the chain.
KernelWrapper = Callable[[str, Callable[[], object], str], object]

_KERNEL_WRAPPERS: List[KernelWrapper] = []

# Thread-local wrappers: installed by one thread, seen only by dispatches
# on that thread, and chained *outside* the global wrappers.  The serving
# runtime uses this scope for request-confined behaviour — a per-request
# fault plan must not leak onto requests other worker threads are
# executing concurrently.
_TLS = threading.local()


def _thread_wrappers(create: bool = False):
    wrappers = getattr(_TLS, "wrappers", None)
    if wrappers is None and create:
        wrappers = _TLS.wrappers = []
    return wrappers


def push_kernel_wrapper(
    wrapper: KernelWrapper, thread_local: bool = False
) -> None:
    """Install a dispatch wrapper; the most recently pushed runs outermost.

    With ``thread_local=True`` the wrapper only wraps dispatches made
    from the calling thread, outside any globally installed wrappers.
    """
    if thread_local:
        _thread_wrappers(create=True).append(wrapper)
    else:
        _KERNEL_WRAPPERS.append(wrapper)


def remove_kernel_wrapper(
    wrapper: KernelWrapper, thread_local: bool = False
) -> None:
    """Remove a previously pushed wrapper (no-op if absent)."""
    wrappers = _thread_wrappers() if thread_local else _KERNEL_WRAPPERS
    try:
        if wrappers is not None:
            wrappers.remove(wrapper)
    except ValueError:
        pass


@contextmanager
def kernel_wrapper(
    wrapper: KernelWrapper, thread_local: bool = False
) -> Iterator[None]:
    """Scoped :func:`push_kernel_wrapper` / :func:`remove_kernel_wrapper`."""
    push_kernel_wrapper(wrapper, thread_local=thread_local)
    try:
        yield
    finally:
        remove_kernel_wrapper(wrapper, thread_local=thread_local)


def dispatch_kernel(
    primitive: str, call: Callable[[], object], tag: str = ""
) -> object:
    """Run one concrete primitive invocation through the wrapper chain.

    With no wrappers installed this is a plain function call; plan
    execution funnels every step through here so faults and
    instrumentation can interpose without touching kernel code.
    """
    local = _thread_wrappers()
    if not _KERNEL_WRAPPERS and not local:
        return call()
    chained = call
    for wrapper in _KERNEL_WRAPPERS:
        chained = (
            lambda w=wrapper, nxt=chained: w(primitive, nxt, tag)
        )
    for wrapper in local or ():
        chained = (
            lambda w=wrapper, nxt=chained: w(primitive, nxt, tag)
        )
    return chained()


@dataclass(frozen=True)
class KernelCall:
    """One symbolic invocation of a primitive.

    ``shape`` carries whatever size metadata the primitive's flop/timing
    functions need: ``m``/``k``/``n`` for dense shapes, ``nnz`` and
    ``density`` for the sparse operand, ``weighted`` as 0/1.
    """

    primitive: str
    shape: Mapping[str, float] = field(default_factory=dict)
    tag: str = ""

    def __post_init__(self) -> None:
        get_primitive(self.primitive)  # validate eagerly

    @property
    def kind(self) -> str:
        return get_primitive(self.primitive).kind

    @property
    def flops(self) -> float:
        return float(get_primitive(self.primitive).flops(self.shape))

    def describe(self) -> str:
        dims = ", ".join(f"{k}={int(v)}" for k, v in sorted(self.shape.items()))
        return f"{self.primitive}({dims})"
