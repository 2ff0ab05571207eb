"""The step pool: semantically invisible, allocation-free once warm.

``repro.kernels.workspace.StepPool`` hands a kept buffer out again only
when nothing references it.  These tests hold arrays across steps and
compare bits, count allocations rather than time them, and compare every
pooled op with the plain NumPy expression it replaced.
"""

import sys
import threading

import numpy as np
import pytest

import repro.kernels.workspace as workspace
from repro.graphs.generators import rmat, sbm_communities
from repro.kernels import gsddmm_blocked
from repro.kernels.workspace import StepPool, step_buffer, thread_local_step_pool
from repro.models import MultiLayerGNN
from repro.tensor import (
    Adam,
    Tensor,
    cross_entropy,
    edge_softmax,
    elu,
    gsddmm_add_uv,
    leaky_relu,
    relu,
    row_broadcast,
    spmm_edge,
)

ZOO = ("gcn", "gin", "sgc", "tagcn", "gat", "sage", "appnp")
SIZES = (24, 16, 8)
POOLED = workspace._MIN_POOLED_BYTES


@pytest.fixture
def pool():
    """A new pool for the calling thread; the suite's own is put back."""
    before = thread_local_step_pool()
    workspace._LOCAL.step_pool = StepPool()
    yield workspace._LOCAL.step_pool
    workspace._LOCAL.step_pool = before


def problem(n=1500, seed=4, width=SIZES[0], classes=SIZES[-1]):
    graph = rmat(n, 8, seed=seed)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((graph.num_nodes, width))
    labels = rng.integers(0, classes, size=graph.num_nodes)
    return graph, feats, labels


def train_step(model, optimiser, graph, feats, labels):
    optimiser.zero_grad()
    out = model(graph, Tensor(feats))
    cross_entropy(out, labels).backward()
    optimiser.step()
    return out


def run_steps(name, steps, n=1500):
    """Outputs and parameter gradients of every step, copied out."""
    graph, feats, labels = problem(n)
    model = MultiLayerGNN(name, SIZES, rng=np.random.default_rng(1))
    optimiser = Adam(model.parameters(), lr=0.01)
    seen = []
    for _ in range(steps):
        out = train_step(model, optimiser, graph, feats, labels)
        seen.append(
            [out.data.copy()] + [p.grad.copy() for p in model.parameters()]
        )
    return seen


# ----------------------------------------------------------------------
# the pool itself
# ----------------------------------------------------------------------
class TestTake:
    def test_small_requests_are_plain_arrays(self, pool):
        a = pool.take((POOLED // 8 - 1,))
        assert a.base is None and pool.num_buffers == 0
        assert pool.hits == pool.misses == 0

    def test_a_released_buffer_comes_back_and_a_held_one_does_not(self, pool):
        a = pool.take((100, 64))
        b = pool.take((100, 64))
        assert not np.shares_memory(a, b) and pool.misses == 2
        address = a.ctypes.data
        del a
        c = pool.take((100, 64))
        assert c.ctypes.data == address and pool.hits == 1
        assert not np.shares_memory(c, b)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda a: a[3:5],
            lambda a: a.T,
            lambda a: a.reshape(-1),
            lambda a: a.reshape(-1)[::7],
            lambda a: np.broadcast_to(a, (2,) + a.shape),
            lambda a: memoryview(a),
            lambda a: a.view(np.int64),
        ],
    )
    def test_any_view_keeps_the_buffer_out_of_circulation(self, pool, derive):
        a = pool.take((100, 64))
        a[...] = 7.0
        held = derive(a)
        del a
        for _ in range(3):
            pool.take((100, 64))[...] = -1.0
        assert np.all(np.asarray(held) == np.asarray(derive(np.full((100, 64), 7.0))))

    def test_best_fit_within_half_again(self, pool):
        sizes = (8000, 10000, 12500)
        held = [pool.take((n,)) for n in sizes]
        address = {n: a.ctypes.data for n, a in zip(sizes, held)}
        del held
        first = pool.take((9000,))
        assert first.ctypes.data == address[10000]  # the smallest that fits
        second = pool.take((8000,))
        assert second.ctypes.data == address[8000]
        # 12 500 is the only free one: too large for 8 000, fine for 8 400
        third = pool.take((8000,))
        assert third.ctypes.data not in address.values()
        assert pool.take((8400,)).ctypes.data == address[12500]

    def test_dtypes_share_bytes(self, pool):
        mask = pool.take((300, 400), np.bool_)
        assert mask.dtype == np.bool_ and mask.flags.c_contiguous
        address = mask.ctypes.data
        del mask
        again = pool.take((300 * 400 // 8,), np.float64)
        assert again.ctypes.data == address and again.flags.aligned

    def test_liveness_is_one_function(self):
        """The CPython assumption, stated where a port would change it."""
        kept = [np.empty(8)]
        assert workspace._sole_holder(kept, 0)
        view = kept[0][2:]
        assert not workspace._sole_holder(kept, 0)
        del view
        assert workspace._sole_holder(kept, 0)
        assert "CPython" in workspace._sole_holder.__doc__


# ----------------------------------------------------------------------
# (a) aliasing: nothing a caller holds is ever overwritten
# ----------------------------------------------------------------------
def test_held_output_interior_gradient_and_param_grad_survive_later_steps(pool):
    graph, feats, labels = problem()
    model = MultiLayerGNN("gcn", SIZES, rng=np.random.default_rng(1))
    out = model(graph, Tensor(feats))
    captured = []
    node = out
    while node._parents and node.op != "spmm":
        node = node._parents[0]
    assert node.op == "spmm", "the walk found an interior node with a VJP"

    def capturing(vjp):
        def wrapped(g):
            result = vjp(g)
            captured.extend([g, result])
            return result
        return wrapped

    node._vjps = tuple(capturing(f) for f in node._vjps)
    cross_entropy(out, labels).backward()
    grads = [p.grad for p in model.parameters()]
    held = [out.data] + captured + grads
    assert len(captured) == 2
    assert sum(a.nbytes >= POOLED for a in held) >= 3, "pooled arrays are held"
    before = [a.copy() for a in held]

    optimiser = Adam(model.parameters(), lr=0.01)
    for _ in range(5):
        # p.grad = None, not an in-place zero: the held arrays stay the user's
        train_step(model, optimiser, graph, feats, labels)
    assert pool.hits > 0
    for was, now in zip(before, held):
        assert np.array_equal(was, now)


# ----------------------------------------------------------------------
# (b) a warm step allocates nothing step-sized
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_misses_stop_after_the_second_step_and_nothing_bypasses_the_pool(
    pool, name, monkeypatch
):
    graph, feats, labels = problem()
    model = MultiLayerGNN(name, SIZES, rng=np.random.default_rng(1))
    optimiser = Adam(model.parameters(), lr=0.01)
    for _ in range(2):
        train_step(model, optimiser, graph, feats, labels)
    assert pool.misses > 0
    misses = pool.misses

    raw = []

    def counting(allocator):
        def wrapped(*args, **kwargs):
            result = allocator(*args, **kwargs)
            if result.nbytes >= POOLED:
                raw.append((allocator.__name__, result.shape))
            return result
        return wrapped

    for allocator in ("empty", "zeros", "empty_like", "zeros_like"):
        monkeypatch.setattr(np, allocator, counting(getattr(np, allocator)))
    hits = pool.hits
    for _ in range(3):
        train_step(model, optimiser, graph, feats, labels)
    assert pool.misses == misses
    assert pool.hits > hits
    assert raw == []


# ----------------------------------------------------------------------
# (c) same bits as the unpooled tape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_pooled_training_is_bitwise_the_unpooled_training(pool, name, monkeypatch):
    """Three optimiser steps: outputs and parameter gradients with the
    pool are those with every take sent to ``np.empty``."""
    with monkeypatch.context() as patch:
        patch.setattr(workspace, "_MIN_POOLED_BYTES", sys.maxsize)
        reference = run_steps(name, 3)
        assert pool.hits == pool.misses == 0
    got = run_steps(name, 3)
    for want_step, got_step in zip(reference, got):
        for want, have in zip(want_step, got_step):
            assert np.array_equal(want, have)
    assert pool.hits > 0


class TestOpsAgainstTheExpressionsTheyReplaced:
    """Each pooled op, forward and backward, against plain NumPy."""

    N, K = 700, 12  # 700 x 12 float64 is pooled

    def operand(self, rng):
        x = rng.standard_normal((self.N, self.K))
        x[::5] = 0.0  # the mask's boundary
        x[1::7] *= -1.0
        return x

    def grads(self, fn, x, g):
        t = Tensor(x.copy(), requires_grad=True)
        out = fn(t)
        out.backward(g)
        return out.data, t.grad

    def test_relu(self, rng, pool):
        x, g = self.operand(rng), rng.standard_normal((self.N, self.K))
        out, dx = self.grads(relu, x, g)
        assert np.array_equal(out, np.maximum(x, 0.0))
        assert np.array_equal(dx, g * (x > 0))

    def test_leaky_relu(self, rng, pool):
        x, g = self.operand(rng), rng.standard_normal((self.N, self.K))
        out, dx = self.grads(lambda t: leaky_relu(t, 0.2), x, g)
        assert np.array_equal(out, np.where(x > 0, x, 0.2 * x))
        assert np.array_equal(dx, g * np.where(x > 0, 1.0, 0.2))

    def test_elu(self, rng, pool):
        x, g = self.operand(rng), rng.standard_normal((self.N, self.K))
        out, dx = self.grads(lambda t: elu(t, 1.3), x, g)
        neg = 1.3 * (np.exp(np.minimum(x, 0.0)) - 1.0)
        assert np.array_equal(out, np.where(x > 0, x, neg))
        assert np.array_equal(dx, g * np.where(x > 0, 1.0, neg + 1.3))

    def test_arithmetic_and_matmul(self, rng, pool):
        a = rng.standard_normal((self.N, self.K))
        b = rng.standard_normal((self.N, self.K))
        w = rng.standard_normal((self.K, 9))
        bias = rng.standard_normal(9)
        g = rng.standard_normal((self.N, 9))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        tw, tbias = Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True)
        product = ta * tb
        out = (product + ta) @ tw + tbias
        out.backward(g)
        assert np.array_equal(out.data, (a * b + a) @ w + bias)
        upstream = g @ w.T
        assert np.array_equal(ta.grad, upstream * b + upstream)  # second arrival
        assert np.array_equal(tb.grad, upstream * a)
        assert np.array_equal(tw.grad, (a * b + a).T @ g)
        assert np.array_equal(tbias.grad, g.sum(axis=0))

    def test_row_broadcast(self, rng, pool):
        d = rng.standard_normal(self.N)
        x, g = self.operand(rng), rng.standard_normal((self.N, self.K))
        out, dx = self.grads(lambda t: row_broadcast(d, t), x, g)
        assert np.array_equal(out, d[:, None] * x)
        assert np.array_equal(dx, d[:, None] * g)

    def test_cross_entropy(self, rng, pool):
        x = 3.0 * rng.standard_normal((5000, 8))
        labels = rng.integers(0, 8, size=5000)
        t = Tensor(x.copy(), requires_grad=True)
        loss = cross_entropy(t, labels)
        loss.backward()
        shifted = x - x.max(axis=1)[:, None]
        exps = np.exp(shifted)
        denom = exps.sum(axis=1)
        want = exps * (1.0 / (5000 * denom))[:, None]
        want[np.arange(5000), labels] -= 1.0 / 5000
        assert np.array_equal(t.grad, want)

    def test_attention_edge_ops(self, rng, pool):
        pattern = sbm_communities(400, 8, 24, seed=2).adj
        nnz, n = pattern.nnz, pattern.shape[0]
        assert nnz * 8 >= POOLED
        rows, cols = pattern.row_ids(), pattern.indices
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        tu, tv = Tensor(u, requires_grad=True), Tensor(v, requires_grad=True)
        logits = gsddmm_add_uv(pattern, tu, tv)
        assert np.array_equal(logits.data, u[rows] + v[cols])

        alpha = edge_softmax(pattern, logits)
        x = rng.standard_normal((n, 16))
        tx = Tensor(x, requires_grad=True)
        out = spmm_edge(pattern, alpha, tx)
        g = rng.standard_normal(out.data.shape)
        edge_grads = []
        vjp_edge = out._vjps[0]
        out._vjps = (lambda gg: edge_grads.append(vjp_edge(gg)) or edge_grads[-1],) + out._vjps[1:]
        out.backward(g)
        # the edge gradient is the g-SDDMM half of the g-SpMM gradient
        want = np.einsum("ek,ek->e", g[rows], x[cols])
        assert np.array_equal(edge_grads[0], want)
        a = alpha.data
        sums = np.add.reduceat(want * a, pattern.indptr[:-1])
        dlogits = a * (want - np.repeat(sums, pattern.row_degrees()))
        assert np.allclose(tu.grad, np.bincount(rows, weights=dlogits, minlength=n))

    def test_gsddmm_add_uv_rejects_mismatched_scores(self, rng):
        pattern = sbm_communities(60, 3, 6, seed=2).adj
        n = pattern.shape[0]
        with pytest.raises(ValueError):
            gsddmm_add_uv(pattern, Tensor(np.ones(n + 1)), Tensor(np.ones(n)))
        with pytest.raises(ValueError):
            gsddmm_add_uv(pattern, Tensor(np.ones(n)), Tensor(np.ones((n, 1))))


@pytest.mark.parametrize("k", (16, 32))
def test_tiled_edge_gradient_is_bitwise_the_full_gather(rng, k):
    pattern = sbm_communities(750, 12, 30, seed=5).adj
    g = rng.standard_normal((pattern.shape[0], k))
    x = rng.standard_normal((pattern.shape[1], k))
    want = np.einsum("ek,ek->e", g[pattern.row_ids()], x[pattern.indices])
    assert np.array_equal(gsddmm_blocked(pattern, g, x, "dot"), want)
    assert np.array_equal(
        gsddmm_blocked(pattern, g, x, "dot", block_nnz=1000), want
    )


# ----------------------------------------------------------------------
# (d) retention follows the traffic
# ----------------------------------------------------------------------
def test_buffers_of_a_finished_workload_are_released(pool):
    def train(n, steps):
        graph, feats, labels = problem(n)
        model = MultiLayerGNN("gcn", SIZES, rng=np.random.default_rng(1))
        optimiser = Adam(model.parameters(), lr=0.01)
        for _ in range(steps):
            train_step(model, optimiser, graph, feats, labels)

    train(1400, 50)
    footprint_b = pool.nbytes
    assert footprint_b > 0
    workspace._LOCAL.step_pool = mixed = StepPool()
    train(3500, 50)
    footprint_a = mixed.nbytes
    assert footprint_a > 2 * footprint_b
    train(1400, 50)
    assert mixed.nbytes <= 1.5 * footprint_b
    # and nothing was thrown away that the second workload still asked for
    misses = mixed.misses
    train(1400, 5)
    assert mixed.misses == misses


def test_a_steady_workload_never_loses_a_buffer(pool):
    """A buffer asked for once per cycle is released too early at most
    once: the slot remembers when, and the cycle grows to cover it."""
    rare, common = (40000,), (9000,)
    for _ in range(30):
        pool.take(rare)
        for _ in range(25):
            pool.take(common)
    misses = pool.misses
    assert misses <= 4
    for _ in range(100):
        pool.take(rare)
        for _ in range(25):
            pool.take(common)
    assert pool.misses == misses


# ----------------------------------------------------------------------
# (e) one pool per thread
# ----------------------------------------------------------------------
def test_two_threads_training_concurrently_get_the_serial_results():
    names = ("gcn", "gat")
    serial = {name: run_steps(name, 6) for name in names}
    results, errors = {}, []

    def worker(name):
        try:
            results[name] = run_steps(name, 6)
        except BaseException as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    for name in names:
        for want_step, got_step in zip(serial[name], results[name]):
            for want, have in zip(want_step, got_step):
                assert np.array_equal(want, have), name


def test_pools_are_per_thread():
    mine = thread_local_step_pool()
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(thread_local_step_pool()))
    thread.start()
    thread.join(timeout=10)
    assert theirs and theirs[0] is not mine and thread_local_step_pool() is mine


# ----------------------------------------------------------------------
# (f) the exception edge
# ----------------------------------------------------------------------
def test_a_buffer_reachable_from_a_traceback_is_not_handed_out(pool):
    def failing():
        buf = step_buffer((200, 64))
        buf[...] = 3.0
        raise RuntimeError("mid-op")

    try:
        failing()
    except RuntimeError as exc:
        held = exc  # its traceback's frame still has ``buf``
    frame = held.__traceback__.tb_next.tb_frame
    other = step_buffer((200, 64))
    other[...] = -1.0
    assert not np.shares_memory(other, frame.f_locals["buf"])
    assert np.all(frame.f_locals["buf"] == 3.0)
    del frame, held, other
    assert pool.misses == 2
    step_buffer((200, 64))
    assert pool.misses == 2  # both are free again


def test_an_op_that_raises_midway_leaves_the_pool_usable(pool, rng):
    a = Tensor(rng.standard_normal((900, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
    kept = relu(a @ w)
    before = kept.data.copy()
    with pytest.raises(ValueError):
        kept @ Tensor(rng.standard_normal((7, 900)))  # the buffer is taken, matmul raises
    again = relu(a @ w)
    assert np.array_equal(kept.data, before)
    assert np.array_equal(again.data, before)
    assert not np.shares_memory(again.data, kept.data)
