"""Property tests for the enumerator: semantic equivalence and pruning
soundness on randomly generated multiplication chains.

These are the strongest invariants in the system:

1. **Equivalence**: every association tree the enumerator produces for a
   chain computes exactly the same matrix (re-association must never
   change semantics).
2. **Pruning soundness**: a candidate pruned as dominated really is no
   cheaper (in total operation count) than some survivor, for any
   concrete sizes consistent with the scenario annotations.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ShapeEnv
from repro.core.assoc import enumerate_candidates
from repro.core.ir import MatMul, dense_data, dense_weight, diagonal, sparse_unweighted, sparse_weighted
from repro.core.plan import LayerBinding, Plan
from repro.core.pruning import cost_signature, prune_candidates
from repro.sparse import CSRMatrix, DiagonalMatrix
from repro.tensor import Tensor, no_grad


@st.composite
def matmul_chains(draw):
    """A random chain of diag/sparse/dense factors with compatible shapes.

    Shape grammar keeps the GNN structure: square graph-sized operands
    (diag/sparse) on the left, then a dense (N x K1) data matrix, then
    optionally a (K1 x K2) weight.
    """
    num_square = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(["diag", "sparse_u", "sparse_w"])) for _ in range(num_square)]
    # a chain must be enumerable: sparse·sparse has no rule, so thin out
    # adjacent sparse pairs by inserting diagonals
    fixed = []
    for kind in kinds:
        if fixed and fixed[-1].startswith("sparse") and kind.startswith("sparse"):
            fixed.append("diag")
        fixed.append(kind)
    with_weight = draw(st.booleans())
    return fixed, with_weight


def build_chain(kinds, with_weight):
    leaves = []
    for i, kind in enumerate(kinds):
        if kind == "diag":
            leaves.append(diagonal(f"L{i}", "N"))
        elif kind == "sparse_u":
            leaves.append(sparse_unweighted(f"L{i}", "N", "N", "E"))
        else:
            leaves.append(sparse_weighted(f"L{i}", "N", "N", "E"))
    leaves.append(dense_data("H", "N", "K1"))
    if with_weight:
        leaves.append(dense_weight("W", "K1", "K2"))
    return MatMul(tuple(leaves))


def build_values(kinds, with_weight, rng, n=6, k1=3, k2=2):
    values = {}
    dense_ref = []
    for i, kind in enumerate(kinds):
        if kind == "diag":
            d = DiagonalMatrix(rng.random(n) + 0.5)
            values[f"L{i}"] = d
            dense_ref.append(d.to_dense())
        else:
            density = 0.4
            nnz = max(1, int(density * n * n))
            rows = rng.integers(0, n, nnz)
            cols = rng.integers(0, n, nnz)
            vals = rng.random(nnz) + 0.1 if kind == "sparse_w" else None
            mat = CSRMatrix.from_coo(rows, cols, vals, (n, n))
            if kind == "sparse_u":
                mat = mat.unweighted()
            values[f"L{i}"] = mat
            dense_ref.append(mat.to_dense())
    h = rng.standard_normal((n, k1))
    values["H"] = Tensor(h)
    dense_ref.append(h)
    if with_weight:
        w = rng.standard_normal((k1, k2))
        values["W"] = Tensor(w)
        dense_ref.append(w)
    expected = dense_ref[0]
    for factor in dense_ref[1:]:
        expected = expected @ factor
    return values, expected


class TestEnumerationEquivalence:
    @given(matmul_chains(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_candidates_compute_same_product(self, chain, seed):
        kinds, with_weight = chain
        ir = build_chain(kinds, with_weight)
        candidates = enumerate_candidates([ir])
        assume(candidates)
        rng = np.random.default_rng(seed)
        values, expected = build_values(kinds, with_weight, rng)
        for candidate in candidates:
            plan = Plan(candidate)
            with no_grad():
                out = plan.execute(LayerBinding(values))
            assert np.allclose(out.data, expected, atol=1e-8), candidate.describe()

    @given(matmul_chains())
    @settings(max_examples=40, deadline=None)
    def test_candidates_deduplicated(self, chain):
        kinds, with_weight = chain
        candidates = enumerate_candidates([build_chain(kinds, with_weight)])
        keys = {(c.output, c.steps) for c in candidates}
        assert len(keys) == len(candidates)


class TestPruningSoundness:
    def _flops(self, candidate, env):
        plan = Plan(candidate)
        setup, per_iter = plan.kernel_calls(env)
        return sum(c.flops for c in setup + per_iter)

    @given(
        matmul_chains(),
        st.integers(8, 64),
        st.integers(2, 8),
        st.integers(1, 32),
        st.integers(1, 32),
    )
    @settings(max_examples=25, deadline=None)
    def test_pruned_candidates_never_strictly_best(self, chain, n, deg, k1, k2):
        kinds, with_weight = chain
        ir = build_chain(kinds, with_weight)
        candidates = enumerate_candidates([ir])
        assume(len(candidates) > 1)
        promoted = prune_candidates(candidates)
        promoted_sigs = {cost_signature(p.candidate) for p in promoted}
        env = ShapeEnv({"N": n, "E": n * deg, "K1": k1, "K2": k2})
        scenario = "in_ge_out" if k1 >= k2 else "in_lt_out"
        viable = [
            p.candidate for p in promoted if scenario in p.scenarios
        ]
        assume(viable)
        best_viable = min(self._flops(c, env) for c in viable)
        for candidate in candidates:
            if cost_signature(candidate) in promoted_sigs:
                continue
            # pruned in both scenarios: must not beat the viable best
            assert self._flops(candidate, env) >= best_viable - 1e-6
