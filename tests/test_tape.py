"""The autograd tape's contracts: need-awareness, borrowed gradients that
never alias what a user can write to, the fused cross-entropy node, and
no gradient-sized copy anywhere in a training step.

``tests/test_tensor_autograd.py`` checks each op's derivative; this file
checks the seam they all go through (``Tensor.make`` / ``Tensor.backward``).
"""

import inspect
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core import compile_model
from repro.core.bindings import build_binding
from repro.core.features import featurize_graph
from repro.core.guard import shape_env_for
from repro.core.runtime import GraniiEngine
from repro.experiments.common import model_compile_kwargs
from repro.graphs import erdos_renyi, road_mesh
from repro.kernels.registry import kernel_wrapper
from repro.models import (
    MODEL_NAMES,
    GCNLayer,
    MultiLayerGNN,
    build_layer,
    prepare_mp_graph,
)
from repro.tensor import (
    Linear,
    Tensor,
    cross_entropy,
    log_softmax,
    nll_loss,
    no_grad,
    relu,
)
from repro.tensor import sparse_ops
from repro.tensor import tensor as tensor_module


def tape_nodes(root):
    """Every interior node reachable from ``root`` over recorded parents."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._vjps:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


# ----------------------------------------------------------------------
# (a) need-awareness
# ----------------------------------------------------------------------
class TestNeedAware:
    @staticmethod
    def spy(calls, tag):
        def vjp(g):
            calls.append(tag)
            return g

        return vjp

    def test_vjp_of_a_constant_parent_is_never_called(self):
        calls = []
        const = Tensor(np.ones(3))
        leaf = Tensor(np.ones(3), requires_grad=True)
        out = Tensor.make(
            const.data + leaf.data,
            (const, leaf),
            (self.spy(calls, "const"), self.spy(calls, "leaf")),
            "add",
        )
        assert out._parents == (leaf,)
        out.sum().backward()
        assert calls == ["leaf"]
        assert const.grad is None
        assert np.array_equal(leaf.grad, np.ones(3))

    def test_all_constant_parents_record_nothing(self):
        calls = []
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
        out = Tensor.make(
            a.data * b.data, (a, b), (self.spy(calls, "a"), self.spy(calls, "b")), "mul"
        )
        assert not out.requires_grad
        assert out._parents == () and out._vjps == ()

    def test_no_grad_records_nothing(self):
        leaf = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = Tensor.make(leaf.data, (leaf,), (lambda g: g,), "id")
        assert not out.requires_grad and out._vjps == ()

    def test_lifted_scalars_and_constant_features_get_no_gradient(self, rng):
        feat = Tensor(rng.standard_normal((5, 3)))
        lin = Linear(3, 2, rng=rng)
        out = relu(lin(feat)) * 2.0
        out.sum().backward()
        assert feat.grad is None
        assert lin.weight.grad is not None and lin.bias.grad is not None
        for node in tape_nodes(out):
            assert all(p.requires_grad for p in node._parents), node.op

    @pytest.mark.parametrize("needs_input_grad", (False, True))
    def test_layer_with_constant_input_skips_the_transposed_spmm(
        self, monkeypatch, rng, needs_input_grad
    ):
        """Every promoted GCN plan over a constant ``H``: the forward
        dispatches its SpMMs and GEMMs as ever, but a backward SpMM runs
        only for an aggregation whose operand carries a gradient, and the
        GEMM's ``dH = dY · Wᵀ`` is not on the tape at all."""
        graph = erdos_renyi(36, 6, seed=7)
        g = prepare_mp_graph(graph)
        layer = GCNLayer(8, 4, rng=rng)
        spmm_calls = []
        real_gspmm = sparse_ops.gspmm

        def counting_gspmm(*args, **kwargs):
            spmm_calls.append(1)
            return real_gspmm(*args, **kwargs)

        monkeypatch.setattr(sparse_ops, "gspmm", counting_gspmm)
        dispatched = []

        def observer(primitive, call, tag):
            dispatched.append(primitive)
            return call()

        for planned in compile_model("gcn").promoted:
            layer.zero_grad()
            feat = Tensor(
                rng.standard_normal((graph.num_nodes, 8)),
                requires_grad=needs_input_grad,
            )
            del spmm_calls[:], dispatched[:]
            with kernel_wrapper(observer):
                binding = build_binding(layer, g, feat)
                out = planned.plan.execute(binding)
                forward_spmms = len(spmm_calls)
                forward_dispatches = len(dispatched)
                spmm_nodes = [n for n in tape_nodes(out) if n.op == "spmm"]
                out.sum().backward()
            label = planned.label
            assert "gemm" in dispatched, label
            assert len(dispatched) == forward_dispatches, label  # backward adds none
            assert forward_spmms == sum(
                p in ("spmm", "spmm_unweighted") for p in dispatched
            ), label
            assert len(spmm_calls) - forward_spmms == len(spmm_nodes), label
            if needs_input_grad:
                assert len(spmm_nodes) == forward_spmms, label
                assert feat.grad is not None, label
            else:
                assert feat.grad is None, label
                for node in tape_nodes(out):
                    assert len(node._vjps) == 1 or node.op != "matmul", label
                if "agg_first" in label:
                    assert spmm_nodes == [], label
            assert layer.linear.weight.grad is not None, label


# Each tape op's VJPs as the primitive the price list names them by
# (``None``: the VJP is the identity or a reshape and runs no kernel).
_VJP_PRIMITIVE = {
    "matmul": "gemm",
    "spmm": "spmm",
    "row_broadcast": "row_broadcast",
    "relu": "elementwise",
    "elu": "elementwise",
    "leaky_relu": "elementwise",
    "sigmoid": "elementwise",
    "gsddmm_add_uv": "gsddmm_attn",
    "edge_softmax": "edge_softmax",
    "add": None,
    "reshape": None,
}


def tape_kernels(root):
    """The gradient kernels ``root.backward`` runs for the tape under it:
    one per recorded VJP that is a kernel (an ``spmm_edge`` node's are the
    ``dE`` SDDMM and the ``dX`` SpMM)."""
    kernels = Counter()
    for node in tape_nodes(root):
        for vjp in node._vjps:
            if node.op == "spmm_edge":
                kernels["sddmm" if vjp.__name__ == "vjp_edge" else "spmm"] += 1
            elif _VJP_PRIMITIVE[node.op] is not None:
                kernels[_VJP_PRIMITIVE[node.op]] += 1
    return kernels


class TestPricedBackward:
    """The backward calls a plan is priced with are the kernels its tape
    runs: every VJP kernel, plus one elementwise add per gradient beyond
    the first that reaches a value (``accumulate_grad``), for a first
    layer (constant features) and a later one (features with a gradient)."""

    @pytest.mark.parametrize("input_grad", (False, True), ids=("first", "later"))
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_priced_backward_is_the_tape(self, monkeypatch, rng, model, input_grad):
        graph = erdos_renyi(40, 5, seed=3)
        g = prepare_mp_graph(graph)
        layer = build_layer(model, 8, 4, rng=rng)
        env = shape_env_for(g.adj, layer)
        sums = []
        real_accumulate = Tensor.accumulate_grad

        def counting(self, grad):
            if self.grad is not None:
                sums.append(1)
            return real_accumulate(self, grad)

        monkeypatch.setattr(Tensor, "accumulate_grad", counting)
        compiled = compile_model(model, **model_compile_kwargs(model))
        for planned in compiled.promoted:
            feat = Tensor(rng.standard_normal((graph.num_nodes, 8)), requires_grad=input_grad)
            out = planned.plan.execute(build_binding(layer, g, feat))
            ran = tape_kernels(out)
            del sums[:]
            out.backward(np.ones_like(out.data))
            ran["elementwise"] += len(sums)
            priced = Counter(
                "spmm" if c.primitive == "spmm_unweighted" else c.primitive
                for c in planned.plan.backward_calls(env, input_grad)
            )
            assert +priced == +ran, planned.label
            if not input_grad:
                # no dX SpMM, no row-broadcast VJP: nothing reaches H
                assert feat.grad is None, planned.label
            layer.zero_grad()


    @pytest.mark.parametrize("stacked", (True, False), ids=("stack", "heads"))
    def test_only_a_stacked_later_layer_is_priced_with_the_input_gradient(
        self, small_models, stacked
    ):
        """``optimize`` in training prices a stack's first layer, and
        every head of a multi-head layer (each reads the model's input),
        without the input-gradient kernels."""
        graph = erdos_renyi(60, 6, seed=5)
        rng = np.random.default_rng(0)
        if stacked:
            model = MultiLayerGNN("gcn", (8, 8, 4), rng=rng)
        else:
            heads = [GCNLayer(8, 4, rng=rng), GCNLayer(8, 4, rng=rng)]

            class Heads:  # a container without ``granii_stacked``
                def granii_layers(self):
                    return heads

            model = Heads()
        engine = GraniiEngine(device="h100", cost_models=small_models, mode="training")
        report = engine.optimize(model, graph)
        vec = featurize_graph(graph)
        for i, (layer, selection) in enumerate(
            zip(model.granii_layers(), report.selections)
        ):
            viable = engine.compile_for(layer, graph).viable(layer.in_size, layer.out_size)
            env = engine.shape_env(graph, layer)
            input_grad = stacked and i > 0
            expected = engine.predict_plan_costs(
                [p.plan for p in viable], env, vec, input_grad=input_grad
            )
            assert list(selection.predicted_costs.values()) == expected
            other = engine.predict_plan_costs(
                [p.plan for p in viable], env, vec, input_grad=not input_grad
            )
            assert other != expected  # the input gradient is priced or not
            assert engine.predict_plan_cost(
                selection.chosen.plan, env, vec, input_grad=input_grad
            ) == min(expected)


# ----------------------------------------------------------------------
# (b) borrowed gradients never alias anything a user can write to
# ----------------------------------------------------------------------
class TestBorrowAndOwn:
    def test_x_plus_x(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        (x + x).sum().backward()
        assert np.array_equal(x.grad, np.full(3, 2.0))
        h = x * 1.0  # interior: borrows, then allocates once
        x.zero_grad()
        (h + h + h).sum().backward()
        assert np.array_equal(x.grad, np.full(3, 3.0))

    def test_diamonds(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        h = x * 2.0
        left, right, third = h * 3.0, h * 5.0, relu(h) * 0.0
        ((left + right) + third + h).sum().backward()
        assert np.allclose(x.grad, np.full(4, 2.0 * (3.0 + 5.0 + 1.0)))

    def test_parameter_shared_by_two_layers(self, rng):
        lin = Linear(3, 3, bias=False, rng=rng)
        x = Tensor(rng.standard_normal((5, 3)))
        hidden = lin(x)
        lin(hidden).sum().backward()
        w = lin.weight.data
        ones = np.ones((5, 3))
        expected = x.data.T @ (ones @ w.T) + hidden.data.T @ ones
        assert np.allclose(lin.weight.grad, expected)

    def test_backward_twice_accumulates_exactly_twice(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        h = relu(x @ w)
        loss = (h * h + h).sum()
        loss.backward()
        once = [x.grad.copy(), w.grad.copy()]
        loss.backward()  # the same graph again
        assert np.array_equal(x.grad, 2.0 * once[0])
        assert np.array_equal(w.grad, 2.0 * once[1])
        h2 = relu(x @ w)
        (h2 * h2 + h2).sum().backward()  # a rebuilt graph
        assert np.allclose(x.grad, 3.0 * once[0])

    def test_scaling_one_leaf_gradient_leaves_the_other_untouched(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 0.5
        assert np.array_equal(a.grad, np.full(3, 0.5))
        assert np.array_equal(b.grad, np.ones(3))

    def test_leaf_gradient_does_not_alias_the_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        seed = np.array([1.0, 2.0, 3.0])
        (a + 0.0).backward(seed)
        a.grad *= 0.0
        assert np.array_equal(seed, [1.0, 2.0, 3.0])
        b = Tensor(np.ones(3), requires_grad=True)
        b.backward(seed)  # the root itself is a leaf
        b.grad *= 0.0
        assert np.array_equal(seed, [1.0, 2.0, 3.0])

    def test_views_reaching_a_leaf_are_copied(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (a.T + b).sum().backward()  # a's share is a transposed view of b's
        assert a.grad.flags.writeable and a.grad.flags.c_contiguous
        a.grad *= 3.0
        assert np.array_equal(b.grad, np.ones((3, 2)))
        c = Tensor(np.ones(4), requires_grad=True)
        c.sum().backward()  # a read-only broadcast view
        c.grad += 1.0
        assert np.array_equal(c.grad, np.full(4, 2.0))

    def test_interior_gradients_do_not_outlive_the_sweep(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        h = x * 2.0
        out = (h + h).sum()
        out.backward()
        assert h.grad is None and out.grad is None
        assert x.grad is not None

    def test_a_vjp_sees_an_unmodified_gradient(self):
        """A node whose gradient was summed from several contributions
        hands its VJPs the same values a copying tape would."""
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 1.0
        seen = []

        def recording(g):
            seen.append(np.array(g))
            return g

        tap = Tensor.make(h.data, (h,), (recording,), "tap")
        (tap * 2.0 + tap * 3.0 + tap).sum().backward()
        assert len(seen) == 1 and np.array_equal(seen[0], np.full(3, 6.0))
        assert np.array_equal(x.grad, np.full(3, 6.0))


# ----------------------------------------------------------------------
# (c) the fused cross-entropy node
# ----------------------------------------------------------------------
class TestFusedCrossEntropy:
    MASKS = (None, np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool))

    @pytest.mark.parametrize("mask", MASKS, ids=("all_rows", "masked"))
    def test_equals_nll_of_log_softmax(self, rng, mask):
        x0 = 5.0 * rng.standard_normal((7, 4))
        labels = rng.integers(0, 4, size=7)
        fused_in = Tensor(x0.copy(), requires_grad=True)
        fused = cross_entropy(fused_in, labels, mask)
        fused.backward()
        ref_in = Tensor(x0.copy(), requires_grad=True)
        ref = nll_loss(log_softmax(ref_in), labels, mask)
        ref.backward()
        assert fused.shape == ref.shape == ()
        assert abs(fused.item() - ref.item()) < 1e-12
        assert np.max(np.abs(fused_in.grad - ref_in.grad)) < 1e-12
        if mask is not None:
            assert np.array_equal(fused_in.grad[~mask], np.zeros((3, 4)))
        assert len(tape_nodes(fused)) == 1

    @pytest.mark.parametrize("mask", MASKS, ids=("all_rows", "masked"))
    def test_finite_difference_gradcheck(self, rng, mask):
        x0 = rng.standard_normal((7, 4))
        labels = rng.integers(0, 4, size=7)
        x = Tensor(x0.copy(), requires_grad=True)
        cross_entropy(x, labels, mask).backward()
        eps = 1e-6
        numeric = np.zeros_like(x0)
        for idx in np.ndindex(*x0.shape):
            hi, lo = x0.copy(), x0.copy()
            hi[idx] += eps
            lo[idx] -= eps
            numeric[idx] = (
                cross_entropy(Tensor(hi), labels, mask).item()
                - cross_entropy(Tensor(lo), labels, mask).item()
            ) / (2 * eps)
        assert np.allclose(x.grad, numeric, atol=1e-7)

    def test_upstream_scale_and_interior_logits(self, rng):
        x = Tensor(rng.standard_normal((6, 3)))
        lin = Linear(3, 5, rng=rng)
        labels = rng.integers(0, 5, size=6)
        (cross_entropy(lin(x), labels) * 3.0).backward()
        got = lin.weight.grad.copy()
        lin.zero_grad()
        (nll_loss(log_softmax(lin(x)), labels) * 3.0).backward()
        assert np.max(np.abs(got - lin.weight.grad)) < 1e-12

    def test_second_sweep_recomputes_the_consumed_buffer(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        loss = cross_entropy(x, rng.integers(0, 3, size=5))
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        assert np.allclose(x.grad, 2.0 * once, rtol=0, atol=1e-15)

    def test_extreme_logits_stay_finite(self):
        x = Tensor(np.array([[1e4, -1e4], [-1e4, 1e4]]), requires_grad=True)
        loss = cross_entropy(x, np.array([0, 0]))
        loss.backward()
        assert np.isfinite(loss.item()) and np.isfinite(x.grad).all()
        assert loss.item() == pytest.approx(1e4)

    def test_validation_is_kept(self, rng):
        x = Tensor(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            cross_entropy(x, np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            cross_entropy(x, np.zeros(3, dtype=int), np.zeros(3, dtype=bool))


# ----------------------------------------------------------------------
# (d) no gradient-sized copy in a training step
# ----------------------------------------------------------------------
def test_gin_training_step_makes_no_gradient_sized_copy():
    """What ``accumulate_grad`` allocated during one GIN step and is still
    alive while the graph is: the parameters' own gradients, nothing the
    size of an activation (a copying tape left one per interior node)."""
    graph = road_mesh(900, seed=1)
    rng = np.random.default_rng(0)
    sizes = (16, 32, 64)
    model = MultiLayerGNN("gin", sizes, rng=rng)
    feats = Tensor(rng.standard_normal((graph.num_nodes, sizes[0])))
    labels = rng.integers(0, sizes[-1], size=graph.num_nodes)
    for _ in range(2):  # warm caches, and the step pool: it keeps what it allocates
        cross_entropy(model(graph, feats), labels).backward()
        model.zero_grad()

    lines, first = inspect.getsourcelines(tensor_module.Tensor.accumulate_grad)
    span = range(first, first + len(lines))
    tracemalloc.start(8)
    try:
        loss = cross_entropy(model(graph, feats), labels)
        loss.backward()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = [
        trace.size
        for trace in snapshot.traces
        if any(
            frame.filename == tensor_module.__file__ and frame.lineno in span
            for frame in trace.traceback
        )
    ]
    param_bytes = max(p.data.nbytes for p in model.parameters())
    activation_bytes = graph.num_nodes * min(sizes) * 8
    assert param_bytes < activation_bytes
    assert held, "the parameters' gradient copies are allocated here"
    assert max(held) <= param_bytes
    assert loss.requires_grad  # the graph was alive when the snapshot was taken
