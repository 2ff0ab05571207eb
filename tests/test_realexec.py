"""Tests for the real-execution (wall-clock NumPy) backend."""

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.hardware.realexec import REAL_PROFILED_PRIMITIVES, RealExecutionBackend
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
        for primitive in REAL_PROFILED_PRIMITIVES:
            call = KernelCall(primitive, shapes)
            seconds = backend.time_call(call, graph)
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
        backend.time_call(call, graph)
        ops_before = backend._ops_for(graph)
        backend.time_call(call, graph)
        assert backend._ops_for(graph) is ops_before

    def test_bigger_gemm_measures_slower(self, backend, graph):
        small = KernelCall("gemm", {"m": 200, "k": 16, "n": 16})
        big = KernelCall("gemm", {"m": 2000, "k": 512, "n": 512})
        t_small = min(backend.time_call(small, graph) for _ in range(3))
        t_big = backend.time_call(big, graph)
        assert t_big > t_small

    def test_profile_dataset_from_real_backend(self, graph):
        from repro.experiments.validation_real import collect_real_profile

        dataset = collect_real_profile(
            graphs=[graph], sizes=(8, 16), backend=RealExecutionBackend(repeats=1)
        )
        assert dataset.size("spmm") >= 2
        x, y = dataset.matrices("gemm")
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))


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
