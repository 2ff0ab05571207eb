"""Compressed Sparse Row matrices.

This module implements the sparse-matrix substrate that the rest of the
reproduction builds on.  GRANII's primitives (g-SpMM, g-SDDMM) consume the
adjacency matrix of the input graph in CSR form; the matrix IR additionally
distinguishes *weighted* sparse matrices (values per non-zero), *unweighted*
ones (structure only, every stored entry is an implicit 1) and *diagonal*
matrices (Table I of the paper).

The container is NumPy-backed and holds plain ``indptr``/``indices``/
``values`` arrays — no ``scipy.sparse`` matrix objects — so the kernel layer
can hand those buffers to whichever routine suits the semiring: SciPy's
compiled CSR×dense row fold for the sum family
(:func:`repro.kernels.segment.fold_rows`), NumPy folds for the rest.
Conversions to and from ``scipy.sparse`` serve the optional SpGEMM and
tests' cross-checks.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Optional, Tuple

import numpy as np

from .. import config
from ..errors import GraniiInputError

__all__ = ["CSRMatrix", "DiagonalMatrix"]


class CSRMatrix:
    """A sparse matrix in CSR format.

    Parameters
    ----------
    indptr:
        Row pointer array of length ``nrows + 1``.
    indices:
        Column indices, sorted within each row.
    values:
        Per-nonzero values, or ``None`` for an unweighted (pattern-only)
        matrix whose stored entries are all implicitly ``1.0``.
    shape:
        ``(nrows, ncols)``.
    """

    __slots__ = ("indptr", "indices", "values", "shape", "_aux", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: Optional[np.ndarray],
        shape: Tuple[int, int],
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraniiInputError("indptr and indices must be 1-D arrays")
        if len(shape) != 2:
            raise GraniiInputError("shape must be a (nrows, ncols) pair")
        nrows, ncols = int(shape[0]), int(shape[1])
        if indptr.shape[0] != nrows + 1:
            raise GraniiInputError(
                f"indptr has length {indptr.shape[0]}, expected {nrows + 1}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise GraniiInputError(
                f"indptr must start at 0 and end at nnz={indices.shape[0]}; "
                f"got indptr[0]={int(indptr[0])}, indptr[-1]={int(indptr[-1])}"
            )
        # O(N)/O(E) structural checks; a negative or >= ncols column
        # index would otherwise wrap around silently in every kernel's
        # fancy-indexing.  Skippable for trusted, hot construction paths
        # via REPRO_SKIP_VALIDATION=1.
        if not config.skip_validation():
            if np.any(np.diff(indptr) < 0):
                bad = int(np.argmax(np.diff(indptr) < 0))
                raise GraniiInputError(
                    f"indptr must be non-decreasing; it drops at row {bad} "
                    f"({int(indptr[bad])} -> {int(indptr[bad + 1])})"
                )
            if indices.size:
                lo, hi = int(indices.min()), int(indices.max())
                if lo < 0 or hi >= ncols:
                    offender = lo if lo < 0 else hi
                    raise GraniiInputError(
                        f"column index {offender} out of range for a matrix "
                        f"with {ncols} columns; NumPy indexing would wrap "
                        f"negative indices around silently"
                    )
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != indices.shape:
                raise GraniiInputError(
                    f"values has shape {values.shape}, expected "
                    f"{indices.shape} to align with the nonzero pattern"
                )
        self._set(indptr, indices, values, (nrows, ncols))

    def _set(self, indptr, indices, values, shape) -> None:
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self.shape = shape
        # memoised auxiliary structures (row ids, degrees, transpose, ...).
        # The pattern is immutable after construction, so these never need
        # invalidation; they turn the O(E) setup the kernels used to pay on
        # *every* call into a one-time cost per matrix.
        self._aux: dict = {}

    @classmethod
    def _on_validated_pattern(
        cls, indptr, indices, values, shape
    ) -> "CSRMatrix":
        """Wrap int64 pattern arrays that an earlier construction validated.

        ``with_values`` and ``transpose`` derive matrices from a pattern
        that already passed ``__init__``'s O(E) structural checks;
        re-running them per derived matrix is pure overhead on the GAT
        path.  ``values`` is the only new input and is checked here.
        """
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != indices.shape:
                raise ValueError("values must align with the nonzero pattern")
        self = object.__new__(cls)
        self._set(indptr, indices, values, shape)
        return self

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (0 for an empty matrix)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def is_weighted(self) -> bool:
        return self.values is not None

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries per row (memoised; treat as read-only)."""
        deg = self._aux.get("row_degrees")
        if deg is None:
            deg = np.diff(self.indptr)
            self._aux["row_degrees"] = deg
        return deg

    def col_degrees(self) -> np.ndarray:
        """Number of stored entries per column (memoised; treat as read-only)."""
        deg = self._aux.get("col_degrees")
        if deg is None:
            deg = np.bincount(self.indices, minlength=self.shape[1]).astype(
                np.int64
            )
            self._aux["col_degrees"] = deg
        return deg

    def row_ids(self) -> np.ndarray:
        """Expanded row index per stored entry (COO row array).

        Memoised on the instance; treat the result as read-only.
        """
        rows = self._aux.get("row_ids")
        if rows is None:
            rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), self.row_degrees()
            )
            self._aux["row_ids"] = rows
        return rows

    def pattern_sha1(self):
        """SHA-1 state over ``indptr`` then ``indices`` (memoised).

        ``.copy()`` it before appending: the stored state is what every
        later structure token of this pattern starts from.
        """
        digest = self._aux.get("pattern_sha1")
        if digest is None:
            digest = hashlib.sha1()
            digest.update(np.ascontiguousarray(self.indptr))
            digest.update(np.ascontiguousarray(self.indices))
            self._aux["pattern_sha1"] = digest
        return digest

    def effective_values(self) -> np.ndarray:
        """Values array, materialising implicit ones for unweighted matrices.

        For weighted matrices this is the live ``values`` array (as
        before); for unweighted ones the all-ones array is memoised, so
        repeated kernel calls stop paying an O(E) allocation.  Treat the
        result as read-only in both cases.
        """
        if self.values is not None:
            return self.values
        return self.unit_values()

    def unit_values(self) -> np.ndarray:
        """All-ones per-nonzero weights of the pattern (memoised, read-only).

        What an unweighted matrix's stored entries stand for, and what a
        ``copy_rhs`` aggregation folds with on any matrix.
        """
        ones = self._aux.get("unit_values")
        if ones is None:
            ones = np.ones(self.nnz, dtype=np.float64)
            self._aux["unit_values"] = ones
        return ones

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: Optional[np.ndarray],
        shape: Tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build a CSR matrix from COO triplets.

        Duplicate coordinates are summed when ``sum_duplicates`` is true
        (for unweighted input, duplicates are simply collapsed).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        nrows, ncols = int(shape[0]), int(shape[1])
        if not config.skip_validation():
            if rows.size and (rows.min() < 0 or rows.max() >= nrows):
                bad = int(rows.min()) if rows.min() < 0 else int(rows.max())
                raise GraniiInputError(
                    f"row index {bad} out of range for {nrows} rows"
                )
            if cols.size and (cols.min() < 0 or cols.max() >= ncols):
                bad = int(cols.min()) if cols.min() < 0 else int(cols.max())
                raise GraniiInputError(
                    f"column index {bad} out of range for {ncols} columns"
                )
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        vals = None if values is None else np.asarray(values, np.float64)[order]
        if sum_duplicates and rows.size:
            keys = rows * np.int64(ncols) + cols
            uniq_mask = np.empty(rows.shape, dtype=bool)
            uniq_mask[0] = True
            np.not_equal(keys[1:], keys[:-1], out=uniq_mask[1:])
            if not uniq_mask.all():
                group_ids = np.cumsum(uniq_mask) - 1
                rows = rows[uniq_mask]
                cols = cols[uniq_mask]
                if vals is not None:
                    vals = np.bincount(group_ids, weights=vals)
        # bincount returns the platform intp (int32 on 32-bit builds);
        # pin to int64 so nnz near/above 2**31 cannot wrap in the cumsum
        counts = np.bincount(rows, minlength=nrows).astype(np.int64, copy=False)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, cols, vals, (nrows, ncols))

    @classmethod
    def from_dense(cls, dense: np.ndarray, keep_explicit_zeros: bool = False) -> "CSRMatrix":
        """Build a weighted CSR matrix from a dense array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        if keep_explicit_zeros:
            rows, cols = np.indices(dense.shape)
            rows, cols = rows.ravel(), cols.ravel()
        else:
            rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def eye(cls, n: int, values: Optional[np.ndarray] = None) -> "CSRMatrix":
        """Identity-pattern matrix; optionally with per-diagonal values."""
        idx = np.arange(n, dtype=np.int64)
        indptr = np.arange(n + 1, dtype=np.int64)
        vals = None if values is None else np.asarray(values, np.float64).copy()
        return cls(indptr, idx, vals, (n, n))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.effective_values()
        return out

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (rows, cols, values) with implicit ones materialised."""
        return self.row_ids(), self.indices.copy(), self.effective_values().copy()

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix``: the operand form of
        :func:`repro.kernels.spgemm.spgemm` (run only under
        ``compile_model(spgemm=True)``) and of tests' cross-checks.
        ``scipy.sparse`` is imported on the first call, not with
        ``repro``."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.effective_values(), self.indices, self.indptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        mat = mat.tocsr()
        return cls(
            mat.indptr.astype(np.int64),
            mat.indices.astype(np.int64),
            np.asarray(mat.data, dtype=np.float64),
            mat.shape,
        )

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def with_values(self, values: Optional[np.ndarray]) -> "CSRMatrix":
        """Same pattern with new per-nonzero values (or None for unweighted)."""
        result = CSRMatrix._on_validated_pattern(
            self.indptr, self.indices, values, self.shape
        )
        # the pattern is shared, so pattern-derived auxiliaries carry over
        # ("inspection" is core.features.inspect_graph's memo)
        for key in (
            "row_degrees", "col_degrees", "row_ids", "unit_values",
            "pattern_sha1", "inspection", "columns_in_range",
            "columns_increase", "nnz_with_self_loops", "loop_slots",
        ):
            if key in self._aux:
                result._aux[key] = self._aux[key]
        # ... and so is the transpose plan's holder, filled or not: whichever
        # matrix on this pattern transposes first sorts for all of them
        result._aux["transpose_plan"] = self._aux.setdefault("transpose_plan", [])
        return result

    def unweighted(self) -> "CSRMatrix":
        """Drop values, keeping only the sparsity pattern."""
        return self.with_values(None)

    def _transpose_plan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pattern's transpose recipe: (permutation, indptr, column ids).

        Values play no part in it, so it is computed (one O(E log E) sort)
        at most once per *pattern*: ``with_values`` hands the holder on.
        """
        holder = self._aux.setdefault("transpose_plan", [])
        if not holder:
            rows, cols = self.row_ids(), self.indices
            perm = np.lexsort((rows, cols))
            indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
            np.cumsum(self.col_degrees(), out=indptr[1:])
            holder.append((perm, indptr, rows[perm]))
        return holder[0]

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, again in CSR form (i.e. CSC of self).

        Memoised: the autograd backward pass transposes the adjacency on
        every iteration.  The sort lives in the pattern's transpose plan,
        so transposing a re-weighted matrix (``with_values(v).transpose()``,
        once per GAT layer per step) is a single ``values[perm]`` gather.

        ``A`` holds ``A.T`` strongly and ``A.T`` links back weakly, making
        ``A.T.T is A`` while ``A`` is alive without an ``A ⇄ A.T``
        reference cycle — per-step weighted matrices die by refcount
        instead of piling up until a full GC pass.
        """
        cached = self._aux.get("transpose")
        if cached is not None:
            return cached
        link = self._aux.get("transpose_of")
        origin = link() if link is not None else None
        if origin is not None:
            return origin
        perm, indptr, indices = self._transpose_plan()
        result = CSRMatrix._on_validated_pattern(
            indptr,
            indices,
            None if self.values is None else self.values[perm],
            (self.shape[1], self.shape[0]),
        )
        self._aux["transpose"] = result
        result._aux["transpose_of"] = weakref.ref(self)
        return result

    def add_self_loops(self) -> "CSRMatrix":
        """Return A + I on the pattern (paper's Ã); existing loops are kept once.

        For weighted matrices the inserted loop entries get value 1.0 added.
        O(E) and sort-free on a pattern whose columns increase strictly
        within each row (what ``from_coo`` and every generator produce);
        that check is the pattern's memoised :meth:`_columns_increase`.
        """
        if self.shape[0] != self.shape[1]:
            raise ValueError("self loops require a square matrix")
        if self._columns_increase():
            return self._insert_diagonal()
        return self._merge_diagonal()

    def nnz_with_self_loops(self) -> int:
        """``add_self_loops().nnz``, without building A + I (memoised).

        On a canonical pattern a row stores its loop at most once, so the
        count is nnz plus one per row with no stored loop.  Any other
        pattern is merged as :meth:`add_self_loops` merges it.
        """
        count = self._aux.get("nnz_with_self_loops")
        if count is None:
            if self.shape[0] != self.shape[1]:
                raise ValueError("self loops require a square matrix")
            if self._columns_increase():
                _, missing = self._loop_slots()
                count = self.nnz + int(np.count_nonzero(missing))
            else:
                count = self._merge_diagonal().nnz
            self._aux["nnz_with_self_loops"] = count
        return count

    def _columns_increase(self) -> bool:
        """One O(E) check, once per pattern: columns strictly increasing
        inside every row.

        The constructor also accepts unsorted or duplicated columns; those
        keep the COO merge, which sorts and collapses them.
        """
        ordered = self._aux.get("columns_increase")
        if ordered is None:
            rows, cols = self.row_ids(), self.indices
            ordered = bool(
                ((cols[1:] > cols[:-1]) | (rows[1:] != rows[:-1])).all()
            )
            self._aux["columns_increase"] = ordered
        return ordered

    def _loop_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """Where each row's self-loop is stored or belongs, and which rows
        store none, on a canonical pattern (memoised; read-only).

        A row's columns increase, so its entries left of the diagonal
        come first: the slot is the row's first entry with ``col >= row``
        (its end if there is none), and the row stores its loop iff that
        entry is the diagonal.  :meth:`nnz_with_self_loops` counts the
        missing loops and :meth:`_insert_diagonal` inserts them.
        """
        slots = self._aux.get("loop_slots")
        if slots is None:
            ptr, cols, rows = self.indptr, self.indices, self.row_ids()
            at_or_past = cols >= rows
            # the first such entry of a row: at a row start, or after one
            # left of the diagonal
            first = at_or_past.copy()
            first[1:] &= ~at_or_past[:-1]
            starts = ptr[:-1][self.row_degrees() > 0]
            first[starts] = at_or_past[starts]
            hits = np.flatnonzero(first)
            hit_rows = rows[hits]
            diagonal = ptr[1:].copy()
            diagonal[hit_rows] = hits
            missing = np.ones(self.shape[0], dtype=bool)
            missing[hit_rows] = cols[hits] != hit_rows
            slots = self._aux["loop_slots"] = (diagonal, missing)
        return slots

    def _insert_diagonal(self) -> "CSRMatrix":
        """A + I on a canonical pattern, without a sort.

        Old entries keep their order, so the new arrays are the old ones
        with each missing loop dropped into its row at its slot
        (:meth:`_loop_slots`).  The result is the arrays
        :meth:`_merge_diagonal` builds.
        """
        n, ptr, cols = self.shape[0], self.indptr, self.indices
        diagonal, missing = self._loop_slots()
        inserted = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(missing, out=inserted[1:])
        diagonal = diagonal + inserted[:-1]  # each slot in the new arrays
        gap = np.flatnonzero(missing)
        old = np.ones(self.nnz + gap.shape[0], dtype=bool)
        old[diagonal[gap]] = False
        indices = np.empty(old.shape[0], dtype=np.int64)
        indices[old] = cols
        indices[diagonal[gap]] = gap
        values = None
        if self.values is not None:
            values = np.ones(old.shape[0], dtype=np.float64)
            values[old] = self.values
            if gap.shape[0] < n:
                values[diagonal[~missing]] += 1.0
                # the merge sums through bincount whenever it merges at
                # all, which turns a stored -0.0 into +0.0
                values += 0.0
        return CSRMatrix._on_validated_pattern(
            ptr + inserted, indices, values, self.shape
        )

    def _merge_diagonal(self) -> "CSRMatrix":
        """A + I through COO: sorts columns and sums duplicates on the way."""
        n = self.shape[0]
        rows, cols, vals = self.to_coo()
        loop = np.arange(n, dtype=np.int64)
        all_vals = (
            None if self.values is None else np.concatenate([vals, np.ones(n)])
        )
        return CSRMatrix.from_coo(
            np.concatenate([rows, loop]),
            np.concatenate([cols, loop]),
            all_vals,
            self.shape,
        )

    def submatrix(self, row_idx: np.ndarray, col_idx: np.ndarray) -> "CSRMatrix":
        """Extract the (row_idx × col_idx) submatrix (used by sampling).

        Fully vectorised: the selected rows' edge slices are gathered in
        one indexed load instead of a Python loop over rows (this is the
        hot path of GraphSAGE's neighborhood sampling).
        """
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        col_map = -np.ones(self.shape[1], dtype=np.int64)
        col_map[col_idx] = np.arange(col_idx.shape[0])
        starts = self.indptr[row_idx]
        counts = self.indptr[row_idx + 1] - starts
        offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        # per-edge source position: the row's start plus the edge's offset
        # within its row
        gather = np.repeat(starts - offsets[:-1], counts) + np.arange(
            total, dtype=np.int64
        )
        mapped = col_map[self.indices[gather]]
        keep = mapped >= 0
        rows = np.repeat(
            np.arange(row_idx.shape[0], dtype=np.int64), counts
        )[keep]
        cols = mapped[keep]
        vals = None if self.values is None else self.values[gather][keep]
        return CSRMatrix.from_coo(
            rows, cols, vals, (row_idx.shape[0], col_idx.shape[0]),
            sum_duplicates=False,
        )

    def scale_rows(self, d: np.ndarray) -> "CSRMatrix":
        """Return diag(d) @ self as a weighted CSR matrix."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[0],):
            raise ValueError("row scaling vector has wrong length")
        vals = self.effective_values() * np.repeat(d, self.row_degrees())
        return self.with_values(vals)

    def scale_cols(self, d: np.ndarray) -> "CSRMatrix":
        """Return self @ diag(d) as a weighted CSR matrix."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[1],):
            raise ValueError("column scaling vector has wrong length")
        vals = self.effective_values() * d[self.indices]
        return self.with_values(vals)

    def bandwidth(self) -> int:
        """Maximum |row - col| over stored entries (a locality feature)."""
        if self.nnz == 0:
            return 0
        return int(np.max(np.abs(self.row_ids() - self.indices)))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kind = "weighted" if self.is_weighted else "unweighted"
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, {kind})"

    def __getstate__(self):
        # the memo cache is derived data (and holds a weak reference) —
        # rebuild lazily after unpickling instead
        return (self.indptr, self.indices, self.values, self.shape)

    def __setstate__(self, state) -> None:
        self._set(*state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        if not (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        ):
            return False
        if (self.values is None) != (other.values is None):
            return False
        if self.values is None:
            return True
        return np.allclose(self.values, other.values)

    __hash__ = None  # mutable-ish container


class DiagonalMatrix:
    """A diagonal matrix stored as its diagonal vector.

    The paper's IR rewrite (Appendix C) replaces row-broadcast operations
    with multiplications by diagonal matrices, which is what unlocks the
    SDDMM-based normalization precomputation for GCN.  This class is the
    runtime value backing those IR leaves.
    """

    __slots__ = ("diag",)

    def __init__(self, diag: np.ndarray) -> None:
        diag = np.asarray(diag, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError("diagonal must be a vector")
        self.diag = diag

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.diag.shape[0]
        return (n, n)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag)

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix.eye(self.n, self.diag)

    def inv(self) -> "DiagonalMatrix":
        """Pseudo-inverse: zeros on the diagonal stay zero."""
        out = np.zeros_like(self.diag)
        nz = self.diag != 0
        out[nz] = 1.0 / self.diag[nz]
        return DiagonalMatrix(out)

    def power(self, p: float) -> "DiagonalMatrix":
        """Element-wise power, mapping 0 -> 0 (used for D^(-1/2))."""
        out = np.zeros_like(self.diag)
        nz = self.diag != 0
        out[nz] = np.power(self.diag[nz], p)
        return DiagonalMatrix(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DiagonalMatrix(n={self.n})"
