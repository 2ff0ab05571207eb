"""The worker schedule: one span function, one fork-join, one pool.

``repro.kernels.blocked.worker_spans`` cuts a compiled fold into row
spans and ``run_spans`` runs them, the caller taking the first.  These
tests pin what the schedule promises whatever the host: the bits of
every output and gradient, the shape of the spans, one pool, the
exception edge, no nested submit, nothing submitted below the crossover,
the step pool staying warm, the CPU count it sizes from, and a forked
child that can still split.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro.kernels.workspace as workspace
from repro.core.verify import adversarial_battery
from repro.graphs import plan_row_shards, star
from repro.graphs.generators import erdos_renyi, rmat
from repro.kernels import blocked, get_semiring
from repro.kernels.workspace import StepPool, thread_local_arena, thread_local_step_pool
from repro.models import MultiLayerGNN, build_layer
from repro.sparse import CSRMatrix
from repro.tensor import Adam, Tensor, cross_entropy

ZOO = ("gcn", "gin", "sgc", "tagcn", "gat", "sage", "appnp")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture
def split_everything(monkeypatch):
    """The fold crossover at 0: every compiled fold splits wherever its
    rows allow."""
    monkeypatch.setattr(blocked, "FOLD_CROSSOVER", 0)


@pytest.fixture
def split_log(monkeypatch):
    """The span count of every worker_spans call."""
    log = []
    real = blocked.worker_spans

    def logged(indptr, work, num_threads=None):
        spans = real(indptr, work, num_threads)
        log.append(len(spans))
        return spans

    monkeypatch.setattr(blocked, "worker_spans", logged)
    return log


@pytest.fixture
def pool():
    before = thread_local_step_pool()
    workspace._LOCAL.step_pool = StepPool()
    yield workspace._LOCAL.step_pool
    workspace._LOCAL.step_pool = before


def problem(n, width, classes, seed=4):
    graph = rmat(n, 8, seed=seed)
    rng = np.random.default_rng(seed)
    return (
        graph,
        rng.standard_normal((graph.num_nodes, width)),
        rng.integers(0, classes, size=graph.num_nodes),
    )


def train_steps(name, steps, sizes=(48, 32, 8), n=3000):
    """Outputs and parameter gradients of ``steps`` optimiser steps under
    the fold, forward and backward, copied out."""
    graph, feats, labels = problem(n, sizes[0], sizes[-1])
    model = MultiLayerGNN(name, sizes, rng=np.random.default_rng(1))
    optimiser = Adam(model.parameters(), lr=0.01)
    seen = []
    for _ in range(steps):
        optimiser.zero_grad()
        out = model(graph, Tensor(feats))
        cross_entropy(out, labels).backward()
        optimiser.step()
        seen.append([out.data.copy()] + [p.grad.copy() for p in model.parameters()])
    return seen


# ----------------------------------------------------------------------
# (a) the bits do not depend on the thread count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_outputs_and_gradients_bitwise_equal_for_any_thread_count(
    name, monkeypatch, split_everything, split_log
):
    monkeypatch.setenv("REPRO_NUM_THREADS", "1")
    reference = train_steps(name, 2)
    assert set(split_log) == {1}
    for threads in ("2", "4"):
        split_log.clear()
        monkeypatch.setenv("REPRO_NUM_THREADS", threads)
        got = train_steps(name, 2)
        for want_step, got_step in zip(reference, got):
            for want, have in zip(want_step, got_step):
                assert np.array_equal(want, have), (name, threads)
        assert max(split_log) == int(threads)  # the folds really were split


@pytest.mark.parametrize("name", ("gcn", "gin", "gat"))
def test_a_taped_backward_splits_bitwise_equal_to_a_one_span_fold(
    name, monkeypatch, split_log
):
    """The backward SpMMs of the tape reach ``gspmm`` with no strategy:
    the fold splits them too, and the gradients keep their bits."""
    graph, feats, labels = problem(3000, 48, 8)

    def step():
        layer = build_layer(name, 48, 8, rng=np.random.default_rng(1))
        x = Tensor(feats, requires_grad=True)
        out = layer(graph, x)
        forward_folds = len(split_log)
        cross_entropy(out, labels).backward()
        grads = [out.data.copy(), x.grad.copy()]
        grads += [p.grad.copy() for p in layer.parameters()]
        return grads, split_log[forward_folds:]

    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    want, backward = step()  # below the crossover: one span per fold
    assert backward and set(backward) == {1}
    monkeypatch.setattr(blocked, "FOLD_CROSSOVER", 0)
    split_log.clear()
    got, backward = step()
    assert backward and max(backward) == 2  # the backward folds split
    for a, b in zip(want, got):
        assert np.array_equal(a, b), name


# ----------------------------------------------------------------------
# (b) the spans
# ----------------------------------------------------------------------
def span_cases():
    cases = [(g.name, g.adj) for g in adversarial_battery(quick=False)]
    cases.append(("star_200", star(200).adj.add_self_loops()))
    cases.append(("empty_0x0", CSRMatrix(np.zeros(1, np.int64), np.empty(0, np.int64), None, (0, 0))))
    cases.append(("one_1x1", CSRMatrix(np.array([0, 1]), np.array([0]), None, (1, 1))))
    return cases


@pytest.mark.parametrize("workers", (1, 2, 3, 4, 7))
def test_fold_spans_are_contiguous_covering_and_edge_balanced(workers):
    for name, adj in span_cases():
        n, indptr = adj.shape[0], adj.indptr
        spans = blocked.worker_spans(indptr, 1 << 40, num_threads=workers)
        assert spans[0][0] == 0 and spans[-1][1] == n, name
        for (_, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 == b0, name
        assert len(spans) <= workers
        if n == 0:
            assert spans == [(0, 0)]
            continue
        assert all(r1 > r0 for r0, r1 in spans), name
        # a span ends at the first row that reaches its share of the edges:
        # over by less than its own last row's degree, short by less than
        # the degree of the row before it
        share = adj.nnz / (workers if n > 1 else 1)
        degree = np.diff(indptr)
        for r0, r1 in spans:
            edges = int(indptr[r1] - indptr[r0])
            before = int(degree[r0 - 1]) if r0 else 0
            assert share - before <= edges <= share + int(degree[r1 - 1]), (
                name, workers, (r0, r1), edges, share,
            )


def test_plan_row_shards_covers_and_balances_edges():
    g = rmat(2_000, 8, seed=3)
    bounds = plan_row_shards(g.adj.indptr, 8)
    assert bounds[0] == 0 and bounds[-1] == g.num_nodes
    assert np.all(np.diff(bounds) >= 0)
    shard_nnz = np.diff(np.asarray(g.adj.indptr)[bounds])
    # edge-balanced, not row-balanced: no shard above ~2x the mean
    # (one hub row can exceed the target; it still gets its own shard)
    assert shard_nnz.max() <= 2 * g.num_edges / 8 + g.adj.row_degrees().max()


def test_plan_row_shards_empty_graph_splits_rows():
    empty = CSRMatrix(
        np.zeros(11, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        None,
        (10, 10),
    )
    bounds = plan_row_shards(empty.indptr, 4)
    assert bounds[0] == 0 and bounds[-1] == 10
    assert len(bounds) == 5


def test_below_the_crossover_there_is_one_span(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "4")
    indptr = np.arange(10_001) * 8
    crossover = blocked.FOLD_CROSSOVER
    assert blocked.worker_spans(indptr, crossover - 1) == [(0, 10_000)]
    assert len(blocked.worker_spans(indptr, crossover)) == 4


def test_every_span_count_shares_one_pool(monkeypatch):
    """Spans beyond the pool's width queue on it (or fold on the caller):
    one executor per configured width, whatever the span count."""
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    monkeypatch.setattr(blocked, "_POOLS", {})
    ran = []
    for count in (2, 3, 5):
        blocked.run_spans([(i, i + 1) for i in range(count)], ran.append)
    try:
        assert sorted(ran) == sorted((i, i + 1) for count in (2, 3, 5) for i in range(count))
        assert list(blocked._POOLS) == [2]
    finally:
        for executor in blocked._POOLS.values():
            executor.shutdown()


# ----------------------------------------------------------------------
# (c) the exception edge
# ----------------------------------------------------------------------
def test_caller_reraises_only_after_every_started_span_finished():
    started, finished = {}, {}
    first_handed_started = threading.Event()

    def body(span):
        r0 = span[0]
        started[r0] = time.perf_counter()
        if r0 == 0:
            # wait until a pool thread has one span, so there is a worker to outlive
            assert first_handed_started.wait(10)
            raise ValueError("span 0")
        first_handed_started.set()
        time.sleep(0.05)
        finished[r0] = time.perf_counter()

    with pytest.raises(ValueError, match="span 0"):
        blocked.run_spans([(0, 1), (1, 2), (2, 3)], body)
    assert set(started) - {0} == set(finished)  # nothing still running
    time.sleep(0.1)
    assert set(started) - {0} == set(finished)  # nor started afterwards


def test_a_raising_split_fold_drops_the_callers_arena(monkeypatch, split_everything):
    adj = rmat(2000, 8, seed=3).adj.add_self_loops()
    x = np.random.default_rng(0).standard_normal((adj.shape[1], 16))
    arena = thread_local_arena()
    arena.request((64, 64))
    assert arena.num_buffers >= 1
    real = blocked._fold_span
    other = threading.Event()

    def failing(adj_, x_, semiring, r0, r1, out, tile):
        if r0 == 0:
            other.wait(10)
            raise RuntimeError("fold failed")
        other.set()
        real(adj_, x_, semiring, r0, r1, out, tile)

    monkeypatch.setattr(blocked, "_fold_span", failing)
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    with pytest.raises(RuntimeError, match="fold failed"):
        blocked.gspmm_fold(adj, x, get_semiring("sum", "mul"))
    assert arena.num_buffers == 0


def test_a_handed_span_that_raises_is_reraised():
    def body(span):
        if span[0] == 2:
            raise KeyError("handed")

    with pytest.raises(KeyError, match="handed"):
        blocked.run_spans([(0, 1), (1, 2), (2, 3)], body)


# ----------------------------------------------------------------------
# (d) no nested submit
# ----------------------------------------------------------------------
def test_a_call_from_a_pool_thread_runs_inline(monkeypatch):
    ran_on = []

    def inner(span):
        ran_on.append(threading.current_thread())

    def outer():
        blocked.run_spans([(0, 5), (5, 10), (10, 15)], inner)
        return threading.current_thread()

    future = blocked._pool(2).submit(outer)
    submitted = []
    monkeypatch.setattr(
        blocked, "_pool", lambda width: submitted.append(width) or pytest.fail("nested submit")
    )
    worker = future.result(timeout=10)
    assert worker is not threading.current_thread()
    assert ran_on == [worker] * 3 and submitted == []


# ----------------------------------------------------------------------
# (e) small requests submit nothing
# ----------------------------------------------------------------------
def test_a_serving_sized_gcn_step_submits_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "4")
    monkeypatch.setattr(blocked, "_pool", lambda width: pytest.fail("submitted"))
    graph = erdos_renyi(2000, 8, seed=0)
    feats = np.random.default_rng(0).standard_normal((graph.num_nodes, 16))
    layer = build_layer("gcn", 16, 8, rng=np.random.default_rng(0))
    out = layer(graph, Tensor(feats, requires_grad=True))
    out.sum().backward()
    assert out.data.shape == (2000, 8)


# ----------------------------------------------------------------------
# (f) the step pool stays warm with the splits engaged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_step_pool_misses_stop_after_the_second_step_while_split(
    pool, name, monkeypatch, split_everything, split_log
):
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    graph, feats, labels = problem(1500, 24, 8)
    model = MultiLayerGNN(name, (24, 16, 8), rng=np.random.default_rng(1))
    optimiser = Adam(model.parameters(), lr=0.01)

    def step():
        optimiser.zero_grad()
        cross_entropy(model(graph, Tensor(feats)), labels).backward()
        optimiser.step()

    for _ in range(2):
        step()
    misses = pool.misses
    for _ in range(3):
        step()
    assert max(split_log) > 1
    assert pool.misses == misses


# ----------------------------------------------------------------------
# The CPU count
# ----------------------------------------------------------------------
def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert blocked.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert blocked.usable_cpus() == 64


def test_thread_width_follows_the_affinity_mask_and_the_variable_wins(monkeypatch):
    monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
    monkeypatch.setattr(blocked, "_AUTO_NUM_THREADS", 1)
    assert blocked.default_num_threads() == 1
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    assert blocked.default_num_threads() == 3


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
def test_a_process_pinned_to_one_cpu_splits_nothing():
    child = textwrap.dedent(
        """
        import os
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
        import numpy as np
        from repro.kernels import blocked
        print(blocked.default_num_threads(),
              len(blocked.worker_spans(np.arange(10**6 + 1), 1 << 40)))
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


# ----------------------------------------------------------------------
# Fork safety
# ----------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_splits_without_the_parents_pool():
    script = textwrap.dedent(
        """
        import os, sys, threading
        import numpy as np
        from repro.graphs.generators import rmat
        from repro.kernels import blocked, get_semiring

        blocked.FOLD_CROSSOVER = 0
        adj = rmat(2000, 8, seed=0).adj
        x = np.random.default_rng(0).standard_normal((adj.shape[1], 16))
        semiring = get_semiring("sum", "mul")
        want = blocked.gspmm_fold(adj, x, semiring)  # warms the pool
        assert blocked._POOLS, "the parent's pool is warm"
        pid = os.fork()
        if pid == 0:
            # a handed span must reach a live pool thread: the inherited
            # executor has none, and the caller would wait out the timeout
            picked_up = threading.Event()
            waited = []

            def body(span):
                if span[0] == 0:
                    waited.append(picked_up.wait(10))
                else:
                    picked_up.set()

            blocked.run_spans([(0, 1), (1, 2)], body)
            got = blocked.gspmm_fold(adj, x, semiring)
            ok = waited == [True] and np.array_equal(got, want)
            os._exit(0 if ok else 3)
        _, status = os.waitpid(pid, 0)
        sys.exit(os.waitstatus_to_exitcode(status))
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, REPRO_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
