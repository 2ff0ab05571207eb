"""Fused straight-line execution of a compiled plan segment (codegen v2).

The interpreter executes a selected plan one step at a time through
``dispatch_kernel``, materialising every intermediate: a GCN layer's
``relu(D' · (A · (D' · (X · W))))`` tail costs three full ``(N, K)``
round-trips through memory *after* the aggregation itself.  This module
provides the fused alternative: :func:`gspmm_fused` streams the whole
SpMM + row-broadcast + element-wise chain through **one pass over the
CSR row blocks**, applying the pre-aggregation scale ahead of the edge
gather and the post-aggregation epilogues to each output row-span while
it is still cache-resident.  No intermediate ``(N, K)``
materialisations, no per-step dispatch.

Which steps may legally fuse is proven statically by
:func:`repro.analysis.planlint.fusion_legality` (single-consumer SSA
chains, alias/in-place-hazard facts, workspace-lifetime balance);
:func:`repro.core.codegen.compile_plan` consults that verdict and lowers
a promoted plan to a schedule of ordinary steps plus
``FusedSegment`` entries that land here.

Determinism
-----------
``gspmm_fused`` is **bitwise equal** to running the same chain
step-by-step through ``row_segment`` (or ``blocked``) kernels, for any
``block_nnz``:

- the pre-scale is materialised once per *node* into arena scratch as
  ``d[:, None] * x`` — every edge then gathers ``d[src] * x[src]``,
  element-for-element the same IEEE products the interpreter's
  ``row_broadcast`` step produces, paying the multiply once per node
  instead of once per edge;
- each span is reduced by the very loop ``blocked`` runs
  (:func:`repro.kernels.blocked.fold_spans`): the compiled
  :func:`~repro.kernels.segment.fold_rows` for the sum family, a message
  tile through ``segment_reduce`` for ``max``/``min`` and the other ⊗.
  Either way a row's result depends on that row's edges alone, never on
  the span it arrives in (the invariant ``tests/test_determinism.py``
  pins);
- epilogues (mean finalisation, output row scaling, unary
  non-linearities) are element-wise, so applying them per row-span is
  bit-identical to applying them to the full output afterwards.

All scratch is drawn from a :class:`~repro.kernels.workspace.WorkspaceArena`
and released on the exception edge with ``drop_buffers()`` — the same
leak contract the guard's fallback ladder relies on when it demotes a
compiled plan to ``blocked``.  The ``alloc-in-compiled`` lint rule
enforces that this module allocates scratch only through the arena.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..sparse import CSRMatrix
from .blocked import fold_spans, row_block_spans
from .dense import elu, leaky_relu, relu, sigmoid
from .semiring import Semiring, get_semiring
from .workspace import WorkspaceArena

__all__ = ["FUSABLE_NONLINEARS", "gspmm_fused"]

# unary element-wise steps the fused epilogue can replay bit-identically
# to the interpreter's _apply_nonlinear (numpy mode)
FUSABLE_NONLINEARS = ("relu", "leaky_relu", "elu", "sigmoid")

_NONLINEAR_FNS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "sigmoid": sigmoid,
}


def _apply_epilogues(
    view: np.ndarray,
    r0: int,
    r1: int,
    epilogues: Sequence[Tuple[str, object]],
) -> None:
    """Apply the post-aggregation chain to one output row-span in place.

    ``("scale", d)`` replays ``row_broadcast(d, ·)`` on rows [r0, r1);
    ``("nonlinear", name)`` replays the named unary non-linearity.  Both
    are element-wise, so per-span application is bitwise identical to the
    interpreter's whole-array steps.
    """
    for kind, payload in epilogues:
        if kind == "scale":
            np.multiply(payload[r0:r1, None], view, out=view)
        elif kind == "nonlinear":
            # the dense function the interpreter calls, written in place
            _NONLINEAR_FNS[payload](view, out=view)
        else:
            raise ValueError(f"unknown epilogue kind {kind!r}")


def gspmm_fused(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    block_nnz: Optional[int] = None,
    workspace: Optional[WorkspaceArena] = None,
    pre_scale: Optional[np.ndarray] = None,
    epilogues: Sequence[Tuple[str, object]] = (),
) -> np.ndarray:
    """One-pass fused g-SpMM with optional pre-scale and epilogue chain.

    With no ``pre_scale``/``epilogues`` this is a streaming drop-in for
    ``gspmm_row_blocks`` (and is what the bare ``spmm_fused`` strategy
    runs).  With them, it executes a whole compiled plan segment::

        epilogues(fold_rows(edge ⊗ (pre_scale ⊙ x[cols])))

    in one pass over the CSR row blocks:

    - ``pre_scale``: per-source-node vector (the fused form of a
      preceding ``row_broadcast``), materialised once into arena scratch
      before the tile loop — one multiply per node, not per edge;
      requires a semiring whose ⊗ reads the dense operand.
    - ``epilogues``: ordered ``("scale", d)`` / ``("nonlinear", name)``
      entries applied to each output row-span right after its reduction
      (and after mean finalisation), while the span is cache-hot.

    Scratch comes from ``workspace`` (a private arena when omitted) and
    is released via ``drop_buffers()`` if any tile raises, so a guard
    demotion never inherits a poisoned arena.
    """
    if semiring is None:
        semiring = get_semiring()
    if pre_scale is not None:
        if not semiring.binary.uses_rhs:
            raise ValueError(
                f"pre-scale fusion needs a semiring that reads the dense "
                f"operand; {semiring.name!r} ignores it"
            )
        pre_scale = np.asarray(pre_scale, dtype=np.float64).reshape(-1)
        if pre_scale.shape[0] != adj.shape[1]:
            raise ValueError(
                f"pre-scale length {pre_scale.shape[0]} does not match "
                f"source-node count {adj.shape[1]}"
            )
    for kind, payload in epilogues:
        if kind == "scale":
            if np.asarray(payload).shape != (adj.shape[0],):
                raise ValueError(
                    "epilogue scale vector must have one entry per output row"
                )
        elif kind == "nonlinear":
            if payload not in _NONLINEAR_FNS:
                raise ValueError(f"unknown epilogue nonlinearity {payload!r}")
        else:
            raise ValueError(f"unknown epilogue kind {kind!r}")
    return fold_spans(
        adj, x, semiring, row_block_spans(adj.indptr, block_nnz),
        workspace=workspace,
        pre_scale=pre_scale,
        epilogue=partial(_apply_epilogues, epilogues=epilogues) if epilogues else None,
    )
