"""Row folds over CSR row boundaries: the seam every SpMM strategy shares.

Every row-wise reduction of an SpMM goes through one of two functions
here (the edge softmax's 1-D sums and maxes, which no strategy touches,
are in :mod:`repro.kernels.softmax`), so all execution strategies
(``row_segment`` and ``blocked``) share one accumulation
order and stay mutually bitwise-identical no matter how a caller
partitions the rows into spans: the result for a row is a pure function
of that row's edges, never of the span it arrives in.

:func:`fold_rows` — the compiled fold
    For the sum family (``sum``/``mean`` × ``mul``/``copy_rhs``, see
    :func:`folds_compiled`) the weighted row sum is SciPy's compiled
    CSR×dense kernel (``csr_matvecs``) run on ``indptr[r0:r1+1]`` views:
    per row, ``acc = 0; acc += a_e * x[col_e]`` left to right in CSR edge
    order.  No ``(nnz, k)`` message array, no tile, no sort, no index
    copy; the kernel releases the GIL, so thread-parallel spans overlap.
    This is the substrate's stand-in for the paper's vendor SpMM
    (cuSPARSE / CPU MKL).  The kernel is loaded from SciPy's compiled
    ``scipy/sparse/_sparsetools`` extension file directly (the plain
    import is the fallback when the file is not found): ``scipy.sparse``'s
    package ``__init__`` would pull in SciPy's array-API layer and over a
    third of ``import repro``'s time with it, for one C function.
    :mod:`repro.kernels.softmax` takes ``csr_matvecs`` from here, and
    :func:`repro.kernels.sddmm.sddmm_diag_scale` the extension's
    in-place row and column scalings.

:func:`segment_reduce` — the NumPy lockstep fold
    ``max``/``min`` and the other ⊗ operators have no compiled
    counterpart and reduce a materialised message array.  The
    implementation is *not* ``ufunc.reduceat``: ``reduceat`` pays a
    per-segment dispatch that dominates wall-clock on real graphs (mean
    degree ~16 means hundreds of thousands of tiny reductions), and its
    internal accumulation order is an implementation detail that varies
    with operand width.  Instead:

    - segments longer than ``_FOLD_BIG`` edges reduce with one
      ``ufunc.reduce`` call each (few such segments; each call is a long
      vectorised reduction);
    - the many short segments reduce *lockstep*: segments are ranked by
      length so the still-active ones always form a prefix, and one
      vectorised ``ufunc`` call per edge-position folds the s-th edge of
      every active segment at once — a left-to-right sequential fold per
      segment, in CSR edge order.

    Empty segments yield the identity (``reduceat`` instead returns the
    element *at* the boundary, one of the reasons this wrapper exists).

A semiring takes exactly one of the two folds under every strategy —
there is no fallback from one to the other — so the folds never need to
agree bitwise with each other (they do to ~1e-12 relative; a row of
more than ``_FOLD_BIG`` edges at ``k = 1`` sums pairwise in NumPy).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from ..sparse import CSRMatrix
from .semiring import Semiring
from .workspace import step_buffer

__all__ = ["fold_rows", "folds_compiled", "result_buffer", "segment_reduce"]

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparsetools_spec():
    """The spec of SciPy's compiled ``_sparsetools`` extension, found on
    disk without importing ``scipy`` or ``scipy.sparse``; ``None`` when the
    file is not where this SciPy keeps it."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy_spec.origin), "sparse"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    return finder.find_spec(_SPARSETOOLS)


def _load_sparsetools():
    """SciPy's compiled ``_sparsetools`` extension, without SciPy's
    package imports.

    The extension needs only NumPy's C API, so it is loaded straight
    from its file; the plain import is the fallback when the file is not
    found.  A single-phase extension registers itself in ``sys.modules``
    as it loads; it is unregistered again so that a later ``import
    scipy.sparse`` loads it the usual way, bound on its package, and gets
    the same function objects from the interpreter's extension cache."""
    module = sys.modules.get(_SPARSETOOLS)
    if module is None:
        spec = _sparsetools_spec()
        if spec is None:
            import scipy.sparse._sparsetools as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(_SPARSETOOLS, None)
    return module


_sparsetools = _load_sparsetools()
csr_matvecs = _sparsetools.csr_matvecs
# in place, ``Ax[e] *= X[row]`` / ``Ax[e] *= X[col]`` per stored entry
# (:func:`repro.kernels.sddmm.sddmm_diag_scale`)
csr_scale_rows = _sparsetools.csr_scale_rows
csr_scale_columns = _sparsetools.csr_scale_columns

# Segments longer than this use one ufunc.reduce call; at or below it they
# join the lockstep fold.  The split is keyed on segment length alone, so
# a segment reduces identically regardless of which caller or span it
# arrives in.
_FOLD_BIG = 128


def folds_compiled(semiring: Semiring) -> bool:
    """Whether ``semiring`` reduces through :func:`fold_rows`."""
    return semiring.reduce.name in ("sum", "mean") and semiring.binary.name in (
        "mul",
        "copy_rhs",
    )


def result_buffer(nrows: int, k: int) -> np.ndarray:
    """The uninitialised ``(nrows, k)`` float64 buffer a strategy folds its
    spans into and returns: every row is written by exactly one fold.  It
    comes from the calling thread's step pool — the arena owns per-tile
    scratch only, never a result — so the buffer is one no caller of an
    earlier SpMM still holds."""
    return step_buffer((nrows, k))


def fold_rows(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Semiring,
    r0: int,
    r1: int,
    out: np.ndarray,
) -> None:
    """Write ``out[r0:r1] = Σ_e a_e · x[col_e]`` over rows ``[r0, r1)``.

    ``semiring`` must satisfy :func:`folds_compiled`; ``copy_rhs`` (and an
    unweighted ``adj``) folds with implicit unit weights, and ``mean``'s
    division by the degree is left to the caller, as with
    :func:`segment_reduce`.  ``x`` is the C-contiguous float64
    ``(adj.ncols, k)`` operand and ``out`` a C-contiguous float64
    ``(adj.nrows, k)`` result buffer; rows outside the span are not
    touched, so disjoint spans may be folded from different threads.
    """
    if not folds_compiled(semiring):
        raise ValueError(f"semiring {semiring.name!r} has no compiled fold")
    k = x.shape[1]
    # the compiled kernel reads raw buffers: a non-contiguous or mistyped
    # array would be silently copied and the result written to the copy
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("fold_rows needs C-contiguous x and out")
    if x.dtype != np.float64 or out.dtype != np.float64:
        raise ValueError("fold_rows needs float64 x and out")
    if x.shape[0] != adj.shape[1] or out.shape != (adj.shape[0], k):
        raise ValueError(
            f"fold_rows shape mismatch: adj {adj.shape}, x {x.shape}, "
            f"out {out.shape}"
        )
    if semiring.binary.name == "mul":
        weights = adj.effective_values()
    else:
        weights = adj.unit_values()
    span = out[r0:r1]
    span[...] = 0.0
    csr_matvecs(
        r1 - r0,
        adj.shape[1],
        k,
        adj.indptr[r0 : r1 + 1],
        adj.indices,
        weights,
        x.reshape(-1),
        span.reshape(-1),
    )


def segment_reduce(
    values: np.ndarray,
    indptr: np.ndarray,
    ufunc,
    identity: float,
) -> np.ndarray:
    """Reduce ``values`` within each ``[indptr[i], indptr[i+1])`` segment.

    Works for 1-D ``values`` (per-edge scalars) and 2-D ``values`` (per-edge
    feature rows); reduction is along axis 0.  Empty segments yield
    ``identity``.
    """
    n = indptr.shape[0] - 1
    out_shape = (n,) + values.shape[1:]
    out = np.full(out_shape, identity, dtype=np.float64)
    lengths = np.diff(indptr)
    # rank segments by length (desc, stable) so the segments still active
    # at fold step s are exactly the prefix [0, count(length > s))
    order = np.argsort(-lengths, kind="stable")
    ordered_len = lengths[order]
    ordered_start = np.asarray(indptr[:-1])[order]
    neg_len = -ordered_len
    nonempty = int(np.searchsorted(neg_len, 0, side="left"))
    if nonempty == 0:
        return out
    nbig = int(np.searchsorted(neg_len, -_FOLD_BIG, side="left"))
    for i in range(nbig):
        s0 = int(ordered_start[i])
        out[order[i]] = ufunc.reduce(values[s0 : s0 + int(ordered_len[i])], axis=0)
    if nonempty > nbig:
        # seed with each segment's first edge, then fold edge s into every
        # segment that still has one — sequential per segment, vectorised
        # across segments
        acc = values[ordered_start[nbig:nonempty]]
        s = 1
        while True:
            active = int(np.searchsorted(neg_len, -s, side="left"))
            if active <= nbig:
                break
            ufunc(
                acc[: active - nbig],
                values[ordered_start[nbig:active] + s],
                out=acc[: active - nbig],
            )
            s += 1
        out[order[nbig:nonempty]] = acc
    return out
