"""Tests for the real-execution (wall-clock NumPy) backend."""

import numpy as np
import pytest

from repro.core.profiler import PROFILED_PRIMITIVES, collect_profile
from repro.graphs import erdos_renyi
from repro.hardware.realexec import RealExecutionBackend
from repro.kernels import KernelCall


@pytest.fixture(scope="module")
def backend():
    return RealExecutionBackend(repeats=1)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(100, 8, seed=31)


class TestRealExecutionBackend:
    def test_every_profiled_primitive_executes(self, backend, graph):
        n, nnz = graph.num_nodes, graph.num_edges
        shapes = {"m": n, "k": 16, "n": 8, "nnz": nnz}
        tasks = [(graph, KernelCall(p, shapes)) for p in PROFILED_PRIMITIVES]
        for primitive, seconds in zip(PROFILED_PRIMITIVES, backend.time_each(tasks)):
            assert seconds > 0, primitive

    def test_unknown_primitive_raises(self, backend, graph):
        # every registry primitive has an executor today; simulate a gap
        # by asking for a shape the thunk builder cannot route
        class Fake:
            primitive = "nope"
            shape = {}

        with pytest.raises(KeyError):
            backend._kernel_thunk(Fake(), graph)

    def test_operand_caches_reused(self, backend, graph):
        call = KernelCall("spmm", {"m": graph.num_nodes, "nnz": graph.num_edges, "k": 8})
        backend.time_each([(graph, call)])
        ops_before = backend._ops_for(graph)
        backend.time_each([(graph, call)])
        assert backend._ops_for(graph) is ops_before

    def test_bigger_gemm_measures_slower(self, graph):
        small = KernelCall("gemm", {"m": 200, "k": 16, "n": 16})
        big = KernelCall("gemm", {"m": 2000, "k": 512, "n": 512})
        t_small, t_big = RealExecutionBackend(repeats=3).time_each(
            [(graph, small), (graph, big)]
        )
        assert t_big > t_small

    def test_repeats_are_the_outer_loop(self, graph, monkeypatch):
        """Every task runs once untimed, then once per round, round after
        round: a drifting host shifts all tasks' samples alike."""
        backend = RealExecutionBackend(repeats=3)
        order = []
        monkeypatch.setattr(
            backend, "_kernel_thunk",
            lambda call, graph: (lambda: order.append(call.primitive)),
        )
        tasks = [(graph, KernelCall(p, {"m": 4})) for p in ("gemm", "diag_mul")]
        seconds = backend.time_each(tasks)
        assert order == ["gemm", "diag_mul"] * 4
        assert len(seconds) == 2 and all(s > 0 for s in seconds)

    def test_large_spgemm_is_left_untimed(self, graph):
        backend = RealExecutionBackend(repeats=1)
        backend.spgemm_max_nnz = graph.num_edges - 1
        call = KernelCall("spgemm", {"m": graph.num_nodes, "nnz": graph.num_edges})
        assert backend.time_each([(graph, call)]) == [None]

    def test_profile_dataset_from_real_backend(self, graph):
        dataset = collect_profile(
            RealExecutionBackend(repeats=1), graphs=[graph], sizes=(8, 16)
        )
        assert dataset.timing == "host" and dataset.scale is None
        # the unweighted SpMM is the weighted fold: profiled as ``spmm``
        assert dataset.aliases == {"spmm_unweighted": "spmm"}
        assert "spmm_unweighted" not in dataset.primitives
        assert dataset.size("spmm") >= 2
        x, y = dataset.matrices("gemm")
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_each_distinct_call_is_timed_once(self, graph, monkeypatch):
        """The graph-only primitives repeat in every (k1, k2) row of the
        dataset, but each (primitive, shape, graph) is timed once."""
        backend = RealExecutionBackend(repeats=1)
        timed = []
        real = backend.time_each

        def recording(tasks):
            timed.extend((id(g), c.primitive, tuple(sorted(c.shape.items()))) for g, c in tasks)
            return real(tasks)

        monkeypatch.setattr(backend, "time_each", recording)
        dataset = collect_profile(backend, graphs=[graph], sizes=(8, 16, 32))
        assert len(timed) == len(set(timed))
        assert dataset.size("spadd_diag") == 9  # 3 x 3 rows, one timing
        assert sum(key[1] == "spadd_diag" for key in timed) == 1


class TestSweepCSV:
    def test_csv_round_trips_rows(self, tmp_path):
        import csv

        from repro.experiments import run_sweep

        sweep = run_sweep(
            models=("gcn",), graphs=("MC",), grid=(("dgl", "h100"),),
            modes=("inference",), scale="small",
        )
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(sweep.results)
        assert {r["graph"] for r in rows} == {"MC"}
        for row, result in zip(rows, sweep.results):
            assert float(row["speedup"]) == pytest.approx(result.speedup, abs=1e-3)
