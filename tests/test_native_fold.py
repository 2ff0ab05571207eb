"""The compiled CSR row fold under every SpMM strategy, and the
gather-only, cycle-free transposes that keep the sparse substrate from
undoing its gain.

``fold_rows`` (SciPy's ``csr_matvecs`` on ``indptr[r0:r1+1]`` views) is
the one reduction the sum family takes under every row of the strategy
table, so the rows must stay bitwise equal to ``row_segment`` for any span
partition; ``max``/``min`` and the other ⊗ keep the NumPy lockstep fold
untouched.
"""

import gc

import numpy as np
import pytest

import repro.sparse.csr as csr_mod
from repro.core.verify import adversarial_battery
from repro.graphs import star
from repro.kernels import SPMM_STRATEGIES, gspmm
from repro.kernels.segment import fold_rows, folds_compiled, segment_reduce
from repro.kernels.semiring import get_semiring
from repro.kernels.blocked import _block_messages
from repro.sparse import CSRMatrix
from repro.tensor import Tensor
from repro.tensor.sparse_ops import spmm_edge

COMPILED = [("sum", "mul"), ("sum", "copy_rhs"), ("mean", "mul"), ("mean", "copy_rhs")]
LOCKSTEP = [
    ("max", "mul"), ("min", "mul"), ("max", "copy_rhs"), ("min", "copy_rhs"),
    ("sum", "add"), ("max", "add"),
]


def _weighted(adj: CSRMatrix, seed: int = 0) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    return adj.with_values(rng.standard_normal(adj.nnz))


def battery():
    """(name, matrix) pairs: the verify battery plus the fold's own corners."""
    cases = [(g.name, _weighted(g.adj)) for g in adversarial_battery(quick=True)]
    cases.append(("unweighted_rmat", adversarial_battery(quick=True)[-1].adj))
    cases.append((
        "empty_0x0",
        CSRMatrix(np.zeros(1, np.int64), np.empty(0, np.int64), np.empty(0), (0, 0)),
    ))
    # a hub row of degree 200 > segment._FOLD_BIG: NumPy's per-segment
    # ufunc.reduce sums it pairwise at k = 1, the compiled fold never does
    cases.append(("star_200", _weighted(star(200).adj.add_self_loops())))
    return cases


def run(adj, x, semiring, strategy, block_nnz):
    return gspmm(adj, x, semiring, strategy=strategy, block_nnz=block_nnz)


class TestStrategiesBitwiseEqual:
    @pytest.mark.parametrize("names", COMPILED + LOCKSTEP, ids=".".join)
    def test_all_six_equal_row_segment(self, names):
        semiring = get_semiring(*names)
        rng = np.random.default_rng(3)
        for name, adj in battery():
            for k in (0, 1, 3, 32):
                x = rng.standard_normal((adj.shape[1], k))
                ref = gspmm(adj, x, semiring, strategy="row_segment")
                assert ref.shape == (adj.shape[0], k)
                for strategy in SPMM_STRATEGIES[1:]:
                    for block_nnz in (1, 64, None):
                        out = run(adj, x, semiring, strategy, block_nnz)
                        where = (name, names, k, strategy, block_nnz)
                        assert np.array_equal(out, ref), where

    @pytest.mark.parametrize("names", COMPILED, ids=".".join)
    def test_negative_zero_messages(self, names):
        # every message is -0.0: the compiled fold starts each row at
        # +0.0, the strategies must still agree with one another
        semiring = get_semiring(*names)
        adj = battery()[-1][1]
        adj = adj.with_values(np.ones(adj.nnz))
        x = np.full((adj.shape[1], 3), -0.0)
        ref = gspmm(adj, x, semiring, strategy="row_segment")
        assert not ref.any()
        for strategy in SPMM_STRATEGIES[1:]:
            out = run(adj, x, semiring, strategy, 64)
            assert np.array_equal(out, ref), strategy
            assert np.array_equal(np.signbit(out), np.signbit(ref)), strategy


class TestAgainstLockstepFold:
    """The NumPy fold is retained: reference for the sum family, and the
    path ``max``/``min`` still take."""

    @staticmethod
    def lockstep(adj, x, semiring):
        reduce_op = semiring.reduce
        tile = np.empty((adj.nnz, x.shape[1]))
        out = segment_reduce(
            _block_messages(adj, x, semiring, 0, adj.nnz, tile), adj.indptr,
            reduce_op.ufunc, reduce_op.identity,
        )
        if reduce_op.is_mean:
            out = out / np.maximum(adj.row_degrees(), 1)[:, None]
        return out

    @pytest.mark.parametrize("names", COMPILED, ids=".".join)
    def test_compiled_fold_within_rounding(self, names):
        semiring = get_semiring(*names)
        rng = np.random.default_rng(5)
        for name, adj in battery():
            for k in (1, 3, 32):
                x = rng.standard_normal((adj.shape[1], k))
                ref = self.lockstep(adj, x, semiring)
                out = gspmm(adj, x, semiring, strategy="row_segment")
                scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
                np.testing.assert_allclose(
                    out, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name
                )

    @pytest.mark.parametrize(
        "names", [n for n in LOCKSTEP if n[0] in ("max", "min")], ids=".".join
    )
    def test_max_min_untouched_bit_for_bit(self, names):
        semiring = get_semiring(*names)
        assert not folds_compiled(semiring)
        rng = np.random.default_rng(6)
        for name, adj in battery():
            for k in (1, 3, 32):
                x = rng.standard_normal((adj.shape[1], k))
                ref = self.lockstep(adj, x, semiring)
                for strategy in ("row_segment", "blocked", "spmm_fused"):
                    out = run(adj, x, semiring, strategy, 64)
                    assert np.array_equal(out, ref), (name, strategy, k)


class TestFoldRowsContract:
    def setup_method(self):
        self.adj = battery()[-1][1]
        self.x = np.random.default_rng(0).standard_normal((self.adj.shape[1], 4))
        self.semiring = get_semiring("sum", "mul")

    def test_writes_only_its_span(self):
        n = self.adj.shape[0]
        out = np.full((n, 4), 7.0)
        fold_rows(self.adj, self.x, self.semiring, 10, 20, out)
        full = gspmm(self.adj, self.x, strategy="row_segment")
        assert np.array_equal(out[10:20], full[10:20])
        assert np.all(out[:10] == 7.0) and np.all(out[20:] == 7.0)

    def test_rejects_buffers_the_kernel_would_copy(self):
        n = self.adj.shape[0]
        out = np.zeros((n, 4))
        with pytest.raises(ValueError, match="contiguous"):
            fold_rows(self.adj, self.x[:, ::-1], self.semiring, 0, n, out)
        with pytest.raises(ValueError, match="contiguous"):
            fold_rows(self.adj, self.x, self.semiring, 0, n, np.zeros((4, n)).T)
        with pytest.raises(ValueError, match="float64"):
            fold_rows(self.adj, self.x, self.semiring, 0, n, out.astype(np.float32))
        with pytest.raises(ValueError, match="shape"):
            fold_rows(self.adj, self.x, self.semiring, 0, n, np.zeros((n, 5)))
        with pytest.raises(ValueError, match="no compiled fold"):
            fold_rows(self.adj, self.x, get_semiring("max", "mul"), 0, n, out)

    def test_non_contiguous_operand_through_gspmm(self):
        wide = np.random.default_rng(1).standard_normal((self.adj.shape[1], 8))
        view = wide[:, ::2]
        ref = gspmm(self.adj, np.ascontiguousarray(view), strategy="row_segment")
        for strategy in SPMM_STRATEGIES:
            assert np.array_equal(run(self.adj, view, None, strategy, 64), ref)

    def test_copy_rhs_ignores_stored_weights(self):
        ref = gspmm(self.adj.unweighted(), self.x, get_semiring("sum", "copy_rhs"))
        out = gspmm(self.adj, self.x, get_semiring("sum", "copy_rhs"))
        assert np.array_equal(out, ref)


class TestTransposePlan:
    def pattern(self):
        return adversarial_battery(quick=True)[-1].adj  # rmat_48, unweighted

    def test_reweighted_transpose_equals_from_scratch(self):
        pattern = self.pattern()
        rng = np.random.default_rng(2)
        for _ in range(3):
            v = rng.standard_normal(pattern.nnz)
            got = pattern.with_values(v).transpose()
            want = CSRMatrix.from_coo(
                pattern.indices, pattern.row_ids(), v,
                (pattern.shape[1], pattern.shape[0]), sum_duplicates=False,
            )
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.values, want.values)
            assert got.shape == want.shape

    def test_one_sort_per_pattern(self, monkeypatch):
        pattern = self.pattern()
        sorts = []
        real = np.lexsort

        def counting(keys):
            sorts.append(1)
            return real(keys)

        monkeypatch.setattr(csr_mod.np, "lexsort", counting)
        rng = np.random.default_rng(4)
        for _ in range(5):
            pattern.with_values(rng.standard_normal(pattern.nnz)).transpose()
        pattern.transpose()
        assert len(sorts) == 1

    def test_back_link_is_weak(self):
        a = _weighted(self.pattern())
        t = a.transpose()
        assert t.transpose() is a  # A.T.T is A while A is alive
        dense = a.to_dense()
        del a
        back = t.transpose()  # the origin is gone: rebuilt, not resurrected
        assert np.array_equal(back.to_dense(), dense)
        assert back.transpose() is t

    def test_with_values_still_checks_alignment(self):
        pattern = self.pattern()
        with pytest.raises(ValueError, match="align"):
            pattern.with_values(np.ones(pattern.nnz + 1))

    def test_no_cyclic_garbage(self):
        pattern = self.pattern()
        n = pattern.shape[0]
        rng = np.random.default_rng(8)
        gc.collect()
        gc.disable()
        try:
            for _ in range(200):
                w = pattern.with_values(rng.standard_normal(pattern.nnz))
                assert w.transpose().transpose() is w
            edge_vals = Tensor(rng.standard_normal(pattern.nnz), requires_grad=True)
            x = Tensor(rng.standard_normal((n, 4)), requires_grad=True)
            spmm_edge(pattern, edge_vals, x).sum().backward()
            assert edge_vals.grad is not None and x.grad is not None
            del w
            assert gc.collect() == 0
        finally:
            gc.enable()
