"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.kernels import (
    SPMM_STRATEGIES,
    edge_softmax,
    get_semiring,
    gspmm,
    spadd_diag,
)
from repro.kernels.segment import segment_reduce
from repro.learn import RegressionTree
from repro.sparse import CSRMatrix

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def coo_matrices(draw, max_dim=8, max_nnz=20, weighted=None, square=False):
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    if weighted is None:
        weighted = draw(st.booleans())
    values = None
    if weighted:
        values = draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
            )
        )
    return rows, cols, values, (nrows, ncols)


@st.composite
def csr_matrices(draw, **kwargs):
    rows, cols, values, shape = draw(coo_matrices(**kwargs))
    return CSRMatrix.from_coo(rows, cols, values, shape)


@st.composite
def raw_square_csr(draw, max_dim=6):
    """Square CSR arrays as the constructor accepts them: columns within
    a row in any order, possibly repeated; 0x0 and empty rows included;
    values drawn from a pool with both zeros."""
    n = draw(st.integers(0, max_dim))
    rows = [
        draw(st.lists(st.integers(0, n - 1), max_size=n + 2)) if n else []
        for _ in range(n)
    ]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    values = None
    if draw(st.booleans()):
        values = np.array(
            draw(
                st.lists(
                    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, -7.25]),
                    min_size=indices.size,
                    max_size=indices.size,
                )
            ),
            dtype=np.float64,
        )
    return CSRMatrix(indptr, indices, values, (n, n))


def diagonals(n):
    """A float64 diagonal of length ``n`` from a pool with both zeros."""
    return st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]), min_size=n, max_size=n
    ).map(lambda d: np.array(d, dtype=np.float64))


def coo_self_loops(mat, diag=None):
    """A + diag(d) as a COO round trip: append the diagonal, sort, merge.

    ``diag`` None is A + I, pattern-only if A is.
    """
    n = mat.shape[0]
    rows, cols, vals = mat.to_coo()
    loop = np.arange(n, dtype=np.int64)
    if diag is None and mat.values is not None:
        diag = np.ones(n)
    return CSRMatrix.from_coo(
        np.concatenate([rows, loop]),
        np.concatenate([cols, loop]),
        None if diag is None else np.concatenate([vals, diag]),
        mat.shape,
    )


def assert_same_arrays(got, want):
    """Bit for bit: dtypes and bytes of all three arrays."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def is_canonical(mat):
    """Columns strictly increasing inside every row."""
    return all(
        np.all(np.diff(mat.indices[lo:hi]) > 0)
        for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:])
    )


# ----------------------------------------------------------------------
# CSR invariants
# ----------------------------------------------------------------------
class TestCSRProperties:
    @given(coo_matrices())
    @settings(max_examples=60)
    def test_from_coo_matches_dense_accumulation(self, coo):
        rows, cols, values, shape = coo
        mat = CSRMatrix.from_coo(rows, cols, values, shape)
        dense = np.zeros(shape)
        if values is not None:
            for r, c, v in zip(rows, cols, values):
                dense[r, c] += v
        else:
            for r, c in zip(rows, cols):
                dense[r, c] = 1.0
        # weighted duplicates may cancel to zero; compare values not pattern
        assert np.allclose(mat.to_dense(), dense, atol=1e-9)

    @given(csr_matrices())
    @settings(max_examples=60)
    def test_transpose_involution(self, mat):
        back = mat.transpose().transpose()
        assert back.shape == mat.shape
        assert np.allclose(back.to_dense(), mat.to_dense())

    @given(csr_matrices())
    @settings(max_examples=60)
    def test_degree_sums_equal_nnz(self, mat):
        assert mat.row_degrees().sum() == mat.nnz
        assert mat.col_degrees().sum() == mat.nnz

    @given(csr_matrices(max_dim=6, square=True))
    @settings(max_examples=40)
    def test_self_loops_pattern_idempotent(self, mat):
        once = mat.add_self_loops()
        twice = once.add_self_loops()
        assert once.nnz == twice.nnz
        diag = np.diag(once.to_dense())
        if mat.values is None:
            assert np.all(diag == 1.0)

    @given(
        raw_square_csr().flatmap(
            lambda mat: st.tuples(st.just(mat), diagonals(mat.shape[0]))
        )
    )
    @example((CSRMatrix([0], [], None, (0, 0)), np.zeros(0)))
    @example((CSRMatrix([0, 0], [], None, (1, 1)), np.array([-0.0])))
    @example((CSRMatrix([0, 1], [0], [-0.0], (1, 1)), np.array([-0.0])))  # existing loop
    @example(  # repeated
        (CSRMatrix([0, 2, 3], [1, 1, 0], [1.0, 2.0, 3.0], (2, 2)), np.array([1.0, -0.0]))
    )
    @example((CSRMatrix([0, 2, 3], [1, 0, 1], None, (2, 2)), np.array([-0.0, 2.5])))  # unsorted
    @settings(max_examples=300)
    def test_self_loops_equal_the_coo_round_trip(self, case):
        """The diagonal insert builds the arrays the COO merge builds, for
        ``add_self_loops``'s A + I and ``spadd_diag``'s A + diag(d); a
        pattern with unsorted or repeated columns takes (and so matches)
        the merge itself, sort included."""
        mat, diag = case
        lexsort = np.lexsort
        for build, d in (
            (lambda: mat.add_self_loops(), None),
            (lambda: spadd_diag(mat, diag), diag),
        ):
            sorts = []

            def counting(keys):
                sorts.append(1)
                return lexsort(keys)

            np.lexsort = counting
            try:
                got = build()
            finally:
                np.lexsort = lexsort
            assert len(sorts) == (0 if is_canonical(mat) else 1)
            assert_same_arrays(got, coo_self_loops(mat, d))
            assert_same_arrays(
                got.add_self_loops().unweighted(), got.unweighted()
            )

    def test_self_loops_equal_the_coo_round_trip_on_the_verify_battery(self):
        from repro.core.verify import adversarial_battery

        rng = np.random.default_rng(0)
        for graph in adversarial_battery(quick=False):
            adj = graph.adj
            weights = rng.choice([-0.0, 0.0, 0.5, -1.0, 3.0], size=adj.nnz)
            diag = rng.choice([-0.0, 0.0, 1.1, -1.0], size=adj.shape[0])
            for mat in (adj, adj.with_values(weights)):
                assert_same_arrays(mat.add_self_loops(), coo_self_loops(mat))
                assert_same_arrays(
                    spadd_diag(mat, diag), coo_self_loops(mat, diag)
                )

    @given(csr_matrices(max_dim=6), st.data())
    @settings(max_examples=40)
    def test_submatrix_matches_dense_slice(self, mat, data):
        ridx = data.draw(
            st.lists(
                st.integers(0, mat.shape[0] - 1), min_size=1, max_size=4, unique=True
            )
        )
        cidx = data.draw(
            st.lists(
                st.integers(0, mat.shape[1] - 1), min_size=1, max_size=4, unique=True
            )
        )
        sub = mat.submatrix(np.array(ridx), np.array(cidx))
        assert np.allclose(sub.to_dense(), mat.to_dense()[np.ix_(ridx, cidx)])


# ----------------------------------------------------------------------
# kernel invariants
# ----------------------------------------------------------------------
class TestKernelProperties:
    @given(
        csr_matrices(weighted=True),
        st.sampled_from(["sum", "max", "min", "mean"]),
        st.sampled_from(["mul", "add", "copy_rhs"]),
        st.sampled_from(SPMM_STRATEGIES),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_gspmm_matches_dense_reference(self, mat, red, bin_, strategy, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((mat.shape[1], k))
        semiring = get_semiring(red, bin_)
        got = gspmm(mat, x, semiring, strategy=strategy)
        # dense reference
        identity = {"sum": 0.0, "mean": 0.0, "max": -np.inf, "min": np.inf}[red]
        expected = np.full((mat.shape[0], k), identity)
        counts = np.zeros(mat.shape[0])
        vals = mat.effective_values()
        for e, (r, c) in enumerate(zip(mat.row_ids(), mat.indices)):
            msg = {"mul": vals[e] * x[c], "add": vals[e] + x[c], "copy_rhs": x[c]}[bin_]
            if red in ("sum", "mean"):
                expected[r] += msg
            elif red == "max":
                expected[r] = np.maximum(expected[r], msg)
            else:
                expected[r] = np.minimum(expected[r], msg)
            counts[r] += 1
        if red == "mean":
            expected /= np.maximum(counts, 1)[:, None]
        if red in ("max", "min"):
            expected[counts == 0] = identity
        assert np.allclose(got, expected, atol=1e-9)

    @given(st.data())
    @settings(max_examples=60)
    def test_segment_reduce_matches_python(self, data):
        sizes = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
        indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        values = np.array(
            data.draw(
                st.lists(
                    st.floats(-100, 100, allow_nan=False),
                    min_size=int(indptr[-1]),
                    max_size=int(indptr[-1]),
                )
            )
        )
        out = segment_reduce(values, indptr, np.add, 0.0)
        expected = [
            values[indptr[i]: indptr[i + 1]].sum() for i in range(len(sizes))
        ]
        assert np.allclose(out, expected)

    @given(csr_matrices(weighted=False), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_edge_softmax_rows_sum_to_one(self, mat, seed):
        assume(mat.nnz > 0)
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(mat.nnz) * 5
        alpha = edge_softmax(mat, logits)
        sums = np.bincount(mat.row_ids(), weights=alpha.values, minlength=mat.shape[0])
        deg = mat.row_degrees()
        assert np.allclose(sums[deg > 0], 1.0)
        assert np.all(alpha.values >= 0)


# ----------------------------------------------------------------------
# learned-model invariants
# ----------------------------------------------------------------------
class TestLearnProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_predictions_within_target_range(self, data):
        n = data.draw(st.integers(4, 40))
        x = np.array(
            data.draw(
                st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)
            )
        )[:, None]
        y = np.array(
            data.draw(
                st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)
            )
        )
        tree = RegressionTree(max_depth=3).fit(x, y)
        preds = tree.predict(x)
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_exact_on_constant_pieces(self, data):
        threshold = data.draw(st.floats(-5, 5, allow_nan=False))
        lo = data.draw(st.floats(-100, 100, allow_nan=False))
        hi = data.draw(st.floats(-100, 100, allow_nan=False))
        x = np.linspace(-10, 10, 64)[:, None]
        y = np.where(x[:, 0] <= threshold, lo, hi)
        tree = RegressionTree(max_depth=2).fit(x, y)
        assert np.allclose(tree.predict(x), y)
