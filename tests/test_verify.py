"""The differential plan-equivalence harness (repro.core.verify)."""

import importlib.util
import warnings

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.verify import (
    _compile_for_model,
    _make_cotangent,
    _make_feats,
    _mp_graph,
    _plan_outputs,
    ToleranceModel,
    adversarial_battery,
    emit_pytest_repro,
    run_single_check,
    seeded_fault,
    shrink_failure,
    sweep,
)
from repro.framework import MPGraph, get_system
from repro.graphs import Graph, empty_graph, rmat, star
from repro.kernels import SPMM_STRATEGIES, get_semiring, gspmm
from repro.models import build_layer
from repro.models.zoo import MODEL_NAMES
from repro.sparse import CSRMatrix
from repro.tensor import Tensor, no_grad


def mini_sweep(**overrides):
    kwargs = dict(
        models=["gcn"],
        systems=["dgl"],
        modes=["inference"],
        strategies=["row_segment", "blocked"],
        graphs=[star(12), empty_graph(5)],
        sizes=[(4, 3)],
        shrink=False,
    )
    kwargs.update(overrides)
    return sweep(**kwargs)


class TestToleranceModel:
    def test_thresholds_scale_with_depth(self):
        tm = ToleranceModel()
        shallow = tm.for_graph(star(4).adj)
        deep = tm.for_graph(star(64).adj)
        assert deep.depth > shallow.depth
        assert deep.rtol > shallow.rtol
        assert deep.atol > shallow.atol

    def test_training_widens(self):
        tm = ToleranceModel()
        adj = rmat(32, 4.0, seed=3).adj
        inf = tm.for_graph(adj, mode="inference")
        train = tm.for_graph(adj, mode="training")
        assert train.rtol > inf.rtol

    def test_empty_graph_has_zero_depth(self):
        tm = ToleranceModel()
        assert tm.for_graph(empty_graph(6).adj).depth == 0


class TestBattery:
    def test_quick_battery_covers_edge_cases(self):
        graphs = adversarial_battery(quick=True)
        names = {g.name for g in graphs}
        assert any(g.num_edges == 0 for g in graphs)  # empty pattern
        assert any(g.num_nodes == 1 for g in graphs)  # single node
        assert any((g.degrees() == 0).any() and g.num_edges > 0 for g in graphs)
        assert any("loops" in n for n in names)  # explicit self-loops
        assert len(adversarial_battery(quick=False)) > len(graphs)

    def test_battery_graphs_are_undirected(self):
        for g in adversarial_battery(quick=True):
            assert g.is_undirected(), g.name


class TestSweep:
    def test_clean_kernels_pass(self):
        report = mini_sweep()
        assert report.num_checks > 0
        assert report.passed, report.summary()

    def test_training_gradients_checked(self):
        report = mini_sweep(modes=["training"], strategies=["row_segment"])
        assert report.passed, report.summary()

    def test_zero_width_features(self):
        report = mini_sweep(sizes=[(0, 3)])
        assert report.passed, report.summary()

    def test_gat_attention_plans(self):
        report = mini_sweep(models=["gat"], graphs=[star(12)])
        assert report.passed, report.summary()

    def test_wisegraph_personality_uses_binning_degrees(self):
        report = mini_sweep(systems=["wisegraph"])
        assert report.passed, report.summary()

    def test_seeded_fault_is_detected(self):
        with seeded_fault(scale=1.01):
            report = mini_sweep(
                strategies=["blocked", "row_segment"],
                graphs=[star(12)],
            )
        assert not report.passed
        # only the strategy routed through the faulty kernel diverges
        assert all(r.strategy == "blocked" for r in report.failures)

    def test_seeded_fault_spares_row_segment(self):
        with seeded_fault(scale=1.01):
            report = mini_sweep(strategies=["row_segment"], graphs=[star(12)])
        assert report.passed
        # a max/min fold runs the NumPy row-block loop under row_segment
        # too; the fault still reaches the blocked row alone
        adj = rmat(60, 5.0, seed=3).adj
        x = np.random.default_rng(0).standard_normal((adj.shape[1], 4))
        for reduce_name in ("max", "min"):
            semiring = get_semiring(reduce_name, "mul")
            clean = {s: gspmm(adj, x, semiring, strategy=s) for s in SPMM_STRATEGIES}
            with seeded_fault(scale=1.01):
                faulty = {
                    s: gspmm(adj, x, semiring, strategy=s) for s in SPMM_STRATEGIES
                }
            assert faulty["row_segment"].tobytes() == clean["row_segment"].tobytes()
            assert not np.array_equal(faulty["blocked"], clean["blocked"])

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_inference_check_runs_the_served_path(self, model, monkeypatch):
        """An inference check makes the Tensor ops a served request makes:
        ``layer(g, feats)`` with the plan's executor attached, no_grad."""
        ops = []
        make = Tensor.make

        def recording(data, parents, vjps, op):
            ops.append(op)
            return make(data, parents, vjps, op)

        monkeypatch.setattr(Tensor, "make", staticmethod(recording))
        graph = rmat(40, 4.0, seed=7)
        layer = build_layer(model, 5, 3, rng=np.random.default_rng(0))
        feats = _make_feats(graph, 5, seed=0)
        engine = GraniiEngine(device="h100", scale="small")
        for planned in _compile_for_model(model, layer).promoted:
            del ops[:]
            _plan_outputs(
                layer, planned, _mp_graph(graph, model), feats, "inference",
                "row_segment", get_system("dgl").degree_method,
                _make_cotangent(graph.num_nodes, 3, seed=0),
            )
            checked = list(ops)
            del ops[:]
            layer.attach_executor(engine.make_executor(layer, planned))
            with no_grad():
                layer(graph, feats)
            assert checked and checked == ops, planned.label

    def test_report_round_trips_to_json(self, tmp_path):
        report = mini_sweep(graphs=[star(8)])
        path = tmp_path / "report.json"
        report.save(str(path))
        import json

        loaded = json.loads(path.read_text())
        assert loaded["summary"]["checks"] == report.num_checks
        assert loaded["summary"]["passed"] is True


class TestShrinkAndRepro:
    def test_fault_shrinks_to_minimal_graph_and_emits_repro(self, tmp_path):
        with seeded_fault(scale=1.01):
            report = sweep(
                models=["gcn"],
                systems=["dgl"],
                modes=["inference"],
                strategies=["blocked"],
                graphs=[rmat(32, 4.0, seed=5, name="rmat_32")],
                sizes=[(4, 3)],
                shrink=True,
                repro_dir=str(tmp_path),
                max_shrinks=1,
            )
        assert not report.passed
        shrunk = [r for r in report.failures if r.repro_path]
        assert shrunk
        # gcn adds self-loops, so one bare node already exercises the
        # faulty aggregation: the shrinker should reach a tiny graph
        assert 0 <= shrunk[0].shrunk_num_nodes <= 2

        # the emitted repro passes on clean kernels and fails under fault
        spec = importlib.util.spec_from_file_location(
            "repro_case", shrunk[0].repro_path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.test_plan_equivalence_regression()
        with seeded_fault(scale=1.01):
            with pytest.raises(AssertionError):
                mod.test_plan_equivalence_regression()

    def test_shrink_failure_respects_budget(self):
        calls = []

        def still_fails(g):
            calls.append(g.num_nodes)
            return g.num_edges > 0

        minimal = shrink_failure(still_fails, star(32), max_checks=10)
        assert len(calls) <= 10
        assert minimal.num_nodes <= 32

    def test_run_single_check_locates_plan_by_signature(self):
        from repro.core import compile_model

        compiled = compile_model("gcn", activation=True)
        sig = compiled.promoted[0].plan.candidate.output
        g = star(10)
        rows, cols, _ = g.adj.to_coo()
        result = run_single_check(
            model="gcn",
            system="dgl",
            mode="inference",
            strategy="row_segment",
            plan_signature=sig,
            rows=rows,
            cols=cols,
            num_nodes=10,
            in_size=4,
            out_size=3,
        )
        assert result.passed

    def test_run_single_check_rejects_unknown_signature(self):
        with pytest.raises(ValueError):
            run_single_check(
                model="gcn",
                system="dgl",
                mode="inference",
                strategy="row_segment",
                plan_signature="no_such_plan",
                rows=[],
                cols=[],
                num_nodes=1,
                in_size=2,
                out_size=2,
            )

    def test_emit_pytest_repro_writes_valid_module(self, tmp_path):
        report = mini_sweep(graphs=[star(6)])
        result = report.results[0]
        g = star(6)
        path = emit_pytest_repro(str(tmp_path / "test_case.py"), result, g)
        spec = importlib.util.spec_from_file_location("emitted", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.test_plan_equivalence_regression()  # clean kernels: passes


class TestRuntimeVerification:
    def graph_and_feats(self):
        g = rmat(40, 4.0, seed=7)
        feats = np.random.default_rng(1).standard_normal((40, 5))
        return g, feats

    def test_clean_plan_verifies(self):
        g, feats = self.graph_and_feats()
        layer = build_layer("gcn", 5, 3, rng=np.random.default_rng(0))
        engine = GraniiEngine(verify_plans=True)
        report = engine.optimize(layer, g)
        layer(MPGraph(g.adj_with_self_loops()), feats)
        sel = report.selections[0]
        assert sel.verified is True
        assert "verified" in sel.verify_note

    def test_verification_off_by_default(self):
        g, feats = self.graph_and_feats()
        layer = build_layer("gcn", 5, 3, rng=np.random.default_rng(0))
        engine = GraniiEngine()
        assert engine.verify_plans is False
        report = engine.optimize(layer, g)
        layer(MPGraph(g.adj_with_self_loops()), feats)
        assert report.selections[0].verified is None

    def test_argument_enables_verification(self):
        assert GraniiEngine(verify_plans=True).verify_plans is True
        assert GraniiEngine(verify_plans=False).verify_plans is False

    def test_divergent_plan_falls_back_to_reference(self):
        from repro.tensor import Tensor

        g, feats = self.graph_and_feats()
        layer = build_layer("gcn", 5, 3, rng=np.random.default_rng(0))
        engine = GraniiEngine(verify_plans=True)
        compiled = engine.compile_for(layer, g)
        sel = engine.select(compiled, g, layer)
        executor = engine.make_executor(
            layer, sel.chosen, "blocked", selection=sel
        )
        mp = MPGraph(g.adj_with_self_loops())
        feats = Tensor(feats)
        with seeded_fault(scale=1.01):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = executor(mp, feats)
            assert sel.verified is False
            assert "diverged" in sel.verify_note
            assert any(
                issubclass(w.category, RuntimeWarning) for w in caught
            )
            reference = layer.forward(mp, feats).data
            # graceful degradation: the divergent plan is abandoned and
            # the reference composition's (correct) output returned
            assert np.allclose(out.data, reference)
            assert np.allclose(executor(mp, feats).data, reference)


class TestVerifyCLI:
    def test_quick_subset_exits_zero_and_writes_report(self, tmp_path, capsys):
        from repro.verify import main

        out = tmp_path / "report.json"
        code = main([
            "--quick",
            "--models", "gcn",
            "--systems", "dgl",
            "--modes", "inference",
            "--strategies", "row_segment",
            "--output", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "0 divergent" in capsys.readouterr().out

    def test_seed_fault_mode_succeeds_by_detecting(self, tmp_path):
        from repro.verify import main

        code = main([
            "--quick",
            "--models", "gcn",
            "--systems", "dgl",
            "--modes", "inference",
            "--strategies", "blocked",
            "--seed-fault",
            "--max-shrinks", "1",
            "--repro-dir", str(tmp_path),
        ])
        assert code == 0  # the demo passes exactly when the fault IS caught
        assert list(tmp_path.glob("test_repro_*.py"))

    def test_unknown_model_rejected(self):
        from repro.verify import main

        with pytest.raises(SystemExit):
            main(["--models", "transformer"])


class TestGraphFromCoo:
    def test_repro_graph_reconstruction(self):
        g = star(9)
        rows, cols, _ = g.adj.to_coo()
        rebuilt = CSRMatrix.from_coo(
            np.asarray(rows), np.asarray(cols), None, (9, 9)
        ).unweighted()
        assert rebuilt == g.adj.unweighted()
        assert Graph(rebuilt).is_undirected()
