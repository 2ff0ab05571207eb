"""``select_sweep``: the decision overhead the paper amortises.

Set-up cold-compiles the five evaluated zoo models (TAGCN's 5184
candidates dominate), which lands in ``setup_s``.  One op then runs
``GraniiEngine.optimize`` for all five models on every graph of a small
pool, each wrapped in a fresh ``Graph`` and given a fresh engine so no memo
on either short-circuits featurisation.  No forward pass runs inside the
op: features, cost models, planlint and codegen do all the work and the
kernels none.  (The shared ``CostModelSet`` keeps its prediction memo, as
it does for any long-lived process.)
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.core.runtime import GraniiEngine
from repro.graphs.generators import erdos_renyi, rmat, road_mesh
from repro.models import MODEL_NAMES, build_layer
from repro.tensor import no_grad

from . import probes
from .tracing import NO_SPANS, OP

IN_SIZE, OUT_SIZE = 32, 16
WARMUP_OPS = 3
ATOL = 1e-8


class SelectSweep:
    name = "select_sweep"
    mode = "inference"

    # -- harness work ---------------------------------------------------
    def generate(self, seed: int, quick: bool, seconds: float) -> dict:
        shrink = 4 if quick else 1
        pool = [
            rmat(3000 // shrink, 8, seed=seed),
            road_mesh(4000 // shrink, seed=seed + 1),
            erdos_renyi(2000 // shrink, 20, seed=seed + 2),
        ]
        rng = np.random.default_rng(seed)
        return {
            "pool": pool,
            "feats": [rng.standard_normal((g.num_nodes, IN_SIZE)) for g in pool],
            "layers": {
                name: build_layer(
                    name, IN_SIZE, OUT_SIZE, rng=np.random.default_rng(seed)
                )
                for name in MODEL_NAMES
            },
        }

    # -- the program ----------------------------------------------------
    def setup(self, inputs: dict, cost_models, tracer) -> dict:
        engine = GraniiEngine(device="cpu", cost_models=cost_models)
        for layer in inputs["layers"].values():
            engine.compile_for(layer, inputs["pool"][0])  # cold: fresh process
        state = dict(inputs, cost_models=cost_models)
        for _ in range(WARMUP_OPS):
            self._op(state)
        return state

    def _op(self, state: dict) -> None:
        for graph, feats in zip(state["pool"], state["feats"]):
            graph = probes.fresh(graph)
            engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
            for layer in state["layers"].values():
                engine.optimize(layer, graph, feats)

    def _traced_op(self, state: dict, tracer) -> None:
        """``optimize`` spelt out as its three public stage calls, so each
        can carry a span; the work is the same."""
        for graph, feats in zip(state["pool"], state["feats"]):
            graph = probes.fresh(graph)
            engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
            for layer in state["layers"].values():
                with tracer.span("core.runtime.compile_for"):
                    compiled = engine.compile_for(layer, graph)
                with tracer.span("core.runtime.select"):
                    selection = engine.select(compiled, graph, layer)
                with tracer.span("core.runtime.make_executor"):
                    layer.attach_executor(engine.make_executor(
                        layer, selection.chosen, selection.spmm_strategy,
                        selection=selection,
                    ))

    def measure(self, state: dict, seconds: float, tracer, clock) -> dict:
        traced = tracer is not NO_SPANS
        op_s: List[float] = []
        failed = 0
        before = clock.tick()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(OP, op=len(op_s) + failed):
                        self._traced_op(state, tracer)
                else:
                    self._op(state)
            except Exception as exc:  # an op that raises is a failed op
                failed += 1
                print(f"op failed: {exc!r}", flush=True)
                continue
            seconds_taken = time.perf_counter() - t0
            after = clock.tick()
            # scaled by how slow the host clock's ticks on its two sides were
            op_s.append(seconds_taken / (0.5 * (before + after)))
            before = after
        return {
            "op_seconds": op_s,
            "phase_ops": len(op_s),
            "phase_seconds": sum(op_s),
            "attempted": len(op_s) + failed,
            "failed": failed,
            "layer": {},
        }

    # -- harness work ---------------------------------------------------
    def check(self, state: dict) -> dict:
        """The executors the last op attached, against each layer's own
        message-passing forward."""
        mismatches = []
        choices = {}
        for graph, feats in zip(state["pool"], state["feats"]):
            engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
            for name, layer in state["layers"].items():
                report = engine.optimize(layer, graph, feats)
                with no_grad():
                    got = np.asarray(layer(graph, feats).data)
                    layer.detach_executor()
                    want = np.asarray(layer(graph, feats).data)
                if not np.allclose(got, want, rtol=0.0, atol=ATOL):
                    mismatches.append(
                        f"{name}@{graph.name}: max abs err "
                        f"{float(np.max(np.abs(got - want))):.3e}"
                    )
                sel = report.selections[0]
                choices[f"{name}@{graph.name}"] = [[sel.label, sel.spmm_strategy]]
        return {"mismatches": mismatches, "choices": choices}

    def probe(self, state: dict) -> Dict[str, float]:
        engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
        inputs = [
            probes.LayerInput(layer, graph, feats)
            for graph, feats in zip(state["pool"], state["feats"])
            for layer in state["layers"].values()
        ]
        selections = [
            engine.select(engine.compile_for(i.layer, i.graph), i.graph, i.layer)
            for i in inputs
        ]
        out = probes.choice_metrics(selections)
        out.update(probes.stage_probe(state["cost_models"], self.mode, inputs))
        out.update(probes.compile_breakdown(state["layers"]))
        return out
