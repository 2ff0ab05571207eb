"""The path never-seen graph -> attached executor inspects once, sorts never.

Count-based, so they cannot flake: the expensive things the path used to
do per request (re-tokenising ``forward``, a COO round trip for Ã, a
featurizer pass and a digest per fingerprint, a price per candidate per
call) are wrapped by counting monkeypatches and must not happen, and the
values that persisted state depends on (fingerprints, promoted candidate
sets) are compared with what the tree produced before the path was
shortened (``tests/golden/request_path.json``).
"""

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import features as features_mod
from repro.core import pruning
from repro.core.costmodel import _PRICED_VECTORS, get_cost_models
from repro.core.features import featurize_graph, inspect_graph
from repro.core.runtime import GraniiEngine
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi, rmat, road_mesh
from repro.models import build_layer
from repro.serving import GraniiService, ServeRequest, fingerprint_graph

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "request_path.json").read_text()
)
ZOO = ("gcn", "gin", "sgc", "tagcn", "gat", "sage", "appnp")


@pytest.fixture(scope="module")
def cost_models():
    # h100/small shares the process-wide cost-model cache with the suite
    return get_cost_models("h100", scale="small")


def golden_graphs():
    return {
        "rmat": rmat(300, 6, seed=3),
        "mesh": road_mesh(256, seed=4),
        "er": erdos_renyi(200, 5, seed=5),
    }


class Counter:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


# ----------------------------------------------------------------------
# optimize(): no sort, no source re-parse
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_optimize_on_a_fresh_graph_neither_sorts_nor_reparses(
    name, cost_models, monkeypatch
):
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    engine = GraniiEngine(
        device="h100", scale="small", cost_models=cost_models
    )
    adj = rmat(300, 6, seed=3).adj
    engine.compile_for(layer, Graph(adj))  # warm the compile cache

    lexsort = Counter(np.lexsort)
    getsource = Counter(inspect.getsource)
    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(inspect, "getsource", getsource)
    report = engine.optimize(layer, Graph(adj))
    assert report.selections[0].chosen is not None
    assert lexsort.calls == 0
    assert getsource.calls == 0


# ----------------------------------------------------------------------
# a repeat selection: no O(E) scan, no shape env rebuilt, same floats
# ----------------------------------------------------------------------
def method_counter(fn):
    """A plain function (so it binds as a method) counting its calls."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


def _decision(report):
    sel = report.selections[0]
    return (
        sel.chosen.label,
        sel.chosen.plan.name,
        {label: float(c).hex() for label, c in sel.predicted_costs.items()},
    )


@pytest.mark.parametrize("mode", ["inference", "training"])
@pytest.mark.parametrize("name", ZOO)
def test_a_repeat_optimize_on_a_known_pattern_derives_nothing_twice(
    name, mode, cost_models, monkeypatch
):
    """A second ``optimize`` on a new ``Graph`` over a pattern already
    selected on neither scans the pattern's column order nor re-estimates
    the shape env, and decides what a cold engine on a never-seen copy of
    the pattern decides, to the last bit of every predicted cost."""
    import repro.kernels as kernels_mod
    from repro.core import ir
    from repro.sparse import CSRMatrix

    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    adj = rmat(300, 6, seed=3).adj

    def engine():
        return GraniiEngine(
            device="h100", scale="small", cost_models=cost_models, mode=mode
        )

    engine().optimize(layer, Graph(adj))  # the pattern and sizes are seen

    scans = method_counter(CSRMatrix._columns_increase)
    estimates = method_counter(kernels_mod.spgemm_output_nnz_estimate)
    monkeypatch.setattr(CSRMatrix, "_columns_increase", scans)
    monkeypatch.setattr(kernels_mod, "spgemm_output_nnz_estimate", estimates)
    warm = _decision(engine().optimize(layer, Graph(adj)))
    assert scans.calls == 0
    assert estimates.calls == 0

    # cold: a never-seen pattern object, sizes, prices and plan memos
    ir._sized_env.cache_clear()
    cost_models._memo.clear()
    for planned in engine().compile_for(layer).promoted:
        planned.plan.clear_memos()
    copy = CSRMatrix(adj.indptr.copy(), adj.indices.copy(), None, adj.shape)
    cold = _decision(engine().optimize(layer, Graph(copy)))
    assert estimates.calls == 5
    assert warm == cold


def test_a_serving_miss_scans_the_new_patterns_columns_once(
    cost_models, monkeypatch
):
    """``select`` counts Ã's edges and the executor then builds Ã: both
    need the pattern's column order, which is scanned once."""
    from repro.sparse import CSRMatrix

    scanned = []
    scan = CSRMatrix._columns_increase

    def counted(self):
        if "columns_increase" not in self._aux:
            scanned.append(self)
        return scan(self)

    monkeypatch.setattr(CSRMatrix, "_columns_increase", counted)
    graph = erdos_renyi(60, 4, seed=77)
    feats = np.random.default_rng(2).standard_normal((60, 8))
    svc = GraniiService(
        device="h100", scale="small", cost_models=cost_models, num_threads=1
    )
    svc.register_model("gcn", 8, 4)
    try:
        result = svc.serve(ServeRequest("t", "gcn", graph, feats))
    finally:
        svc.shutdown(save=False)
    assert result.ok and not result.cache_hit
    assert sum(m is graph.adj for m in scanned) == 1


# ----------------------------------------------------------------------
# fingerprints: same bytes as before, and a repeat hashes nothing
# ----------------------------------------------------------------------
class CountingSha1:
    """``hashlib.sha1`` whose digests count the bytes fed to ``update``
    (and to the constructor), across ``copy()``."""

    def __init__(self):
        self.fed = []
        self._sha1 = hashlib.sha1

    def __call__(self, data=b""):
        return _CountedDigest(self._sha1(), self.fed, data)


class _CountedDigest:
    def __init__(self, digest, fed, data=b""):
        self._digest, self._fed = digest, fed
        if len(data):
            self.update(data)

    def update(self, data):
        self._fed.append(memoryview(data).nbytes)
        self._digest.update(data)

    def copy(self):
        return _CountedDigest(self._digest.copy(), self._fed)

    def hexdigest(self):
        return self._digest.hexdigest()


def test_second_fingerprint_featurizes_and_hashes_nothing(monkeypatch):
    graph = erdos_renyi(200, 5, seed=5)
    csr_bytes = graph.adj.indptr.nbytes + graph.adj.indices.nbytes
    featurize = Counter(featurize_graph)
    sha1 = CountingSha1()
    monkeypatch.setattr(features_mod, "featurize_graph", featurize)
    monkeypatch.setattr(hashlib, "sha1", sha1)

    first = fingerprint_graph(graph, "gcn", 16, 8, cost_token="abc123def456")
    assert featurize.calls == 1
    assert sum(sha1.fed) > csr_bytes  # the arrays went through the digest

    sha1.fed.clear()
    second = fingerprint_graph(graph, "gcn", 16, 8, cost_token="abc123def456")
    assert featurize.calls == 1
    # the vector's bytes and two short scope strings: nothing array-sized
    assert sum(sha1.fed) < 512
    assert second == first
    # another Graph on the same adjacency, and a re-weighting of it
    sha1.fed.clear()
    fingerprint_graph(Graph(graph.adj), "gcn", 16, 8)
    reweighted = graph.adj.with_values(np.ones(graph.adj.nnz))
    fingerprint_graph(Graph(reweighted), "gcn", 16, 8)
    assert featurize.calls == 1
    assert sum(sha1.fed) < 1024


@pytest.mark.parametrize("gname", ["rmat", "mesh", "er"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("token", ["", "abc123def456"])
def test_fingerprints_are_the_recorded_ones(gname, weighted, token):
    """Persisted plan-cache entries are keyed by these strings."""
    adj = golden_graphs()[gname].adj
    if weighted:
        adj = adj.with_values(np.random.default_rng(7).random(adj.nnz) + 0.5)
    graph = Graph(adj, gname)
    want = GOLDEN["fingerprints"][f"{gname}|{int(weighted)}|{token}"]
    for _ in range(2):  # computed, then from the memo
        fp = fingerprint_graph(graph, "gcn", 16, 8, cost_token=token)
        assert [fp.key, fp.token] == want


def test_featurize_graph_itself_stays_uncached(monkeypatch):
    """The overhead experiments and the harness time the O(N+E) pass."""
    graph = erdos_renyi(200, 5, seed=5)
    passes = Counter(features_mod.graph_feature_vector)
    monkeypatch.setattr(features_mod, "graph_feature_vector", passes)
    inspect_graph(graph)
    first = featurize_graph(graph)
    second = featurize_graph(graph)
    assert passes.calls == 3
    assert first is not second
    assert np.array_equal(first, inspect_graph(graph))


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["dgl", "wisegraph"])  # indptr, binning
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("mode", ["inference", "training"])
def test_batch_pricing_gives_the_per_candidate_floats(
    mode, input_grad, system, cost_models
):
    """Several plans priced at once, one plan priced by itself and a
    memory-limited selection's surviving rows all give, bit for bit, the
    hand sum of each plan's calls."""
    graph = rmat(300, 6, seed=3)
    vec = featurize_graph(graph)
    limited_rows = 0
    for name in ("gcn", "tagcn", "gat", "sgc", "appnp"):
        layer = build_layer(name, 16, 32, rng=np.random.default_rng(0))

        def engine_with(limit=None):
            return GraniiEngine(
                device="h100", scale="small", cost_models=cost_models,
                mode=mode, system=system, iterations=7,
                memory_limit_bytes=limit,
            )

        engine = engine_with()
        env = engine.shape_env(graph, layer)
        compiled = engine.compile_for(layer, graph)
        viable = compiled.viable(16, 32)
        plans = [p.plan for p in viable]
        assert len(plans) > 1
        eff = engine.system.efficiency

        def one_by_one(plan):
            # a plan priced by itself, call by call
            setup, per_iter = plan.kernel_calls(env, engine.system.degree_method)
            total = cost_models.predict_calls(per_iter, vec, eff)
            if mode == "training":
                total += cost_models.predict_calls(
                    plan.backward_calls(env, input_grad), vec, eff
                )
            return total + cost_models.predict_calls(setup, vec, eff) / 7

        def hexes(costs):
            return [cost.hex() for cost in costs]

        want = hexes(one_by_one(plan) for plan in plans)
        assert hexes(engine.predict_plan_costs(
            plans, env, vec, input_grad=input_grad
        )) == want
        assert hexes(
            engine.predict_plan_cost(p, env, vec, input_grad=input_grad)
            for p in plans
        ) == want

        # a memory limit that keeps only the leanest plans prices those
        peaks = [plan.peak_memory_bytes(env) for plan in plans]
        limit = min(peaks)
        sel = engine_with(limit).select(
            compiled, Graph(graph.adj), layer, input_grad=input_grad
        )
        kept = {
            p.cost_label: cost
            for p, cost, peak in zip(viable, want, peaks) if peak <= limit
        }
        assert sel.memory_filtered_count == len(plans) - len(kept)
        if len(kept) > 1 and sel.memory_filtered_count:
            limited_rows += len(kept)
            assert {
                label: cost.hex() for label, cost in sel.predicted_costs.items()
            } == kept
    assert limited_rows  # sgc's and appnp's limits leave several rows


def test_predict_one_is_the_tree_by_tree_walk(cost_models):
    """Descending all trees at once over packed arrays changes neither a
    comparison nor the left-to-right sum: the float is the one the
    node-by-node ``RegressionTree.predict_one`` walks add up to."""
    from repro.core.features import num_features

    rng = np.random.default_rng(0)
    for primitive, model in cost_models._models.items():
        for x in rng.standard_normal((200, num_features())) * 5:
            want = model._base
            for tree in model._trees:
                want += model.learning_rate * tree.predict_one(x)
            assert model.predict_one(x).hex() == float(want).hex(), primitive
            assert model.predict_one(x.tolist()) == want


class TestPricingMemoIsBounded:
    def test_a_service_seeing_new_structures_forever_keeps_a_fixed_memo(
        self, cost_models
    ):
        cost_models._memo.clear()
        svc = GraniiService(
            device="h100", scale="small", cost_models=cost_models, num_threads=2
        )
        svc.register_model("gcn", 8, 4)
        feats = np.random.default_rng(1).standard_normal((40, 8))
        hot = erdos_renyi(40, 4, seed=10_000)
        try:
            for i in range(_PRICED_VECTORS + 40):
                for graph in (erdos_renyi(40, 4, seed=i), hot):
                    result = svc.serve(ServeRequest("t", "gcn", graph, feats))
                    assert result.ok
            assert result.cache_hit  # the hot structure still hits
        finally:
            svc.shutdown(save=False)
        assert 0 < len(cost_models._memo) <= _PRICED_VECTORS
        assert all(len(table) < 64 for table in cost_models._memo.values())

    def test_a_vector_priced_again_stays_while_idle_ones_go(self, cost_models):
        from repro.kernels import KernelCall

        cost_models._memo.clear()
        call = KernelCall("gemm", {"m": 64, "k": 16, "n": 8})
        hot = featurize_graph(erdos_renyi(40, 4, seed=10_000))
        want = cost_models.predict_call(call, hot)
        table = cost_models.prices(hot.tobytes())
        forest = cost_models._forest  # every price is one descent of it
        walks = Counter(forest.predict)
        forest.predict = walks
        try:
            for i in range(3 * _PRICED_VECTORS):
                cold = hot + float(i + 1)
                cost_models.predict_call(call, cold)
                if i % 16 == 0:
                    assert cost_models.predict_call(call, hot) == want
            assert cost_models.prices(hot.tobytes()) is table
            assert walks.calls == 3 * _PRICED_VECTORS  # never for the hot one
            assert len(cost_models._memo) == _PRICED_VECTORS
        finally:
            del forest.predict


# ----------------------------------------------------------------------
# pruning: same promoted sets from the tabled dominance test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO)
def test_promoted_candidates_are_the_recorded_ones(name):
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    compiled = GraniiEngine(device="cpu").compile_for(layer)
    got = [
        [
            p.label,
            list(p.scenarios),
            p.plan.name,
            hashlib.sha1(p.plan.candidate.describe().encode()).hexdigest()[:16],
        ]
        for p in compiled.promoted
    ]
    assert got == GOLDEN["prune"][name]


def test_dominance_matches_exhaustive_matching():
    """``_dominates`` against trying every injective assignment."""
    from itertools import permutations

    rng = np.random.default_rng(0)
    pool = [
        pruning._Instance(p, dims)
        for p in ("gemm", "spmm")
        for dims in (("N", "K1"), ("N", "K2"), ("E", "K1"), ("E+N", "K1"), ("E", "K2"))
    ]
    for scenario in pruning.SCENARIOS:
        leq, lt = pruning._order_tables(pool, scenario)
        for _ in range(300):
            small = list(rng.integers(0, len(pool), size=rng.integers(1, 4)))
            big = list(rng.integers(0, len(pool), size=rng.integers(1, 5)))
            want = any(
                all(leq[s][b] for s, b in zip(small, image))
                and (len(small) < len(big) or any(lt[s][b] for s, b in zip(small, image)))
                for image in permutations(big, len(small))
            )
            assert pruning._dominates(small, big, leq, lt) == want
