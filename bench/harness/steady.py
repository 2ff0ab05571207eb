"""``infer_steady`` and ``train_steady``: steady-state full-graph rounds.

Three inputs sit in different corners of the featurizer space and on both
sides of the in>=out / in<out scenario split: a skewed R-MAT graph under a
shrinking GCN, a near-regular road mesh under a growing GIN, and dense
SBM communities under GAT.  One op runs all three, so every op does the
same work.  Every fourth slot runs the same round on un-optimised twins
(the framework-default message-passing composition) for
``speedup_vs_default``; the two are interleaved so host drift cancels.
Every slot is followed by a tick of the host clock (``stats.HostClock``) and
its time is scaled by how slow the ticks on its two sides were.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.runtime import GraniiEngine
from repro.graphs.generators import rmat, road_mesh, sbm_communities
from repro.models import MultiLayerGNN
from repro.tensor import Adam, Tensor, cross_entropy, no_grad

from . import probes
from .stats import p50
from .tracing import NO_SPANS, OP

# (input name, model, layer sizes)
INPUTS = (
    ("rmat_gcn_shrink", "gcn", (64, 32, 16)),
    ("mesh_gin_grow", "gin", (16, 32, 64)),
    ("sbm_gat", "gat", (32, 32, 16)),
)
# Node counts (rmat, mesh, sbm) sized so one optimised round takes 50-60 ms
# on the reference host: ~190 measured ops fit the run length, and >= 100
# still do when the host runs at half speed.  5000, not 4000, R-MAT nodes for
# inference: at 4000 the GCN's first layer sits on a boundary of the cost
# model, a third of the seeds get another plan and rounds 5 % apart.
NODES = {
    "inference": (5000, 8000, 1200),
    "training": (2400, 4800, 750),
    "quick": (500, 900, 200),
}
WARMUP_ROUNDS = 3
BASELINE_EVERY = 4
ATOL = 1e-8


@dataclass
class Item:
    name: str
    graph: object
    feats: np.ndarray
    labels: np.ndarray
    model_name: str
    sizes: tuple
    seed: int
    optimised: object = None
    default: object = None
    optimisers: Dict[str, object] = field(default_factory=dict)  # per twin
    report: object = None


class Steady:
    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.name = "infer_steady" if mode == "inference" else "train_steady"
        self.training = mode == "training"

    # -- harness work ---------------------------------------------------
    def generate(self, seed: int, quick: bool, seconds: float) -> List[Item]:
        n_rmat, n_mesh, n_sbm = NODES["quick" if quick else self.mode]
        graphs = (
            rmat(n_rmat, 8, seed=seed),
            road_mesh(n_mesh, seed=seed + 1),
            sbm_communities(n_sbm, 12, 30, seed=seed + 2),
        )
        rng = np.random.default_rng(seed)
        items = []
        for (name, model, sizes), graph in zip(INPUTS, graphs):
            item = Item(
                name=name,
                graph=graph,
                feats=rng.standard_normal((graph.num_nodes, sizes[0])),
                labels=rng.integers(0, sizes[-1], size=graph.num_nodes),
                model_name=model,
                sizes=sizes,
                seed=seed,
            )
            # the un-optimised twin is the harness's reference, not the program
            self._build(item, "default")
            items.append(item)
        return items

    def _build(self, item: Item, which: str) -> None:
        """Twins start from identical weights."""
        model = MultiLayerGNN(
            item.model_name, item.sizes, rng=np.random.default_rng(item.seed)
        )
        setattr(item, which, model)
        if self.training:
            item.optimisers[which] = Adam(model.parameters(), lr=0.01)

    # -- the program ----------------------------------------------------
    def setup(self, items: List[Item], cost_models, tracer) -> dict:
        engine = GraniiEngine(device="cpu", cost_models=cost_models, mode=self.mode)
        for item in items:
            self._build(item, "optimised")
            item.report = engine.optimize(item.optimised, item.graph, item.feats)
        state = {"engine": engine, "items": items, "cost_models": cost_models}
        for _ in range(WARMUP_ROUNDS):
            self._round(state, "optimised", NO_SPANS)
        return state

    def _round(self, state: dict, which: str, tracer) -> None:
        for item in state["items"]:
            model = getattr(item, which)
            if not self.training:
                with no_grad():
                    model(item.graph, item.feats)
                continue
            optimiser = item.optimisers[which]
            optimiser.zero_grad()
            with tracer.span("tensor.forward"):
                loss = cross_entropy(model(item.graph, Tensor(item.feats)), item.labels)
            with tracer.span("tensor.backward"):
                loss.backward()
            with tracer.span("tensor.optim"):
                optimiser.step()

    def measure(self, state: dict, seconds: float, tracer, clock) -> dict:
        for _ in range(WARMUP_ROUNDS):  # after setup_s is stamped, before any op
            self._round(state, "default", NO_SPANS)
        op_s: List[float] = []
        base_s: List[float] = []
        failed = 0
        slot = 0
        before = clock.tick()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            baseline = slot % BASELINE_EVERY == BASELINE_EVERY - 1
            slot += 1
            t0 = time.perf_counter()
            try:
                if baseline:
                    self._round(state, "default", NO_SPANS)
                else:
                    with tracer.span(OP, op=len(op_s) + failed):
                        self._round(state, "optimised", tracer)
            except Exception as exc:  # an op that raises is a failed op
                failed += 1
                print(f"op failed: {exc!r}", flush=True)
                continue
            seconds_taken = time.perf_counter() - t0
            after = clock.tick()
            (base_s if baseline else op_s).append(
                seconds_taken / (0.5 * (before + after))
            )
            before = after
        return {
            "op_seconds": op_s,
            "phase_ops": len(op_s),
            "phase_seconds": sum(op_s),  # baseline slots are not the program's
            "attempted": len(op_s) + failed,
            "failed": failed,
            "layer": {
                "core.runtime.speedup_vs_default":
                    p50(base_s) / p50(op_s) if op_s and base_s else 0.0,
            },
        }

    # -- harness work ---------------------------------------------------
    def check(self, state: dict) -> dict:
        """Optimised output (and, when training, gradients) against the
        un-optimised message-passing forward on the same weights."""
        mismatches = []
        choices = {}
        for item in state["items"]:
            reference = MultiLayerGNN(item.model_name, item.sizes)
            reference.load_state_dict(item.optimised.state_dict())
            pairs = []
            for model in (item.optimised, reference):
                model.zero_grad()
                if self.training:
                    out = model(item.graph, Tensor(item.feats))
                    cross_entropy(out, item.labels).backward()
                    pairs.append(
                        [out.data] + [p.grad.copy() for p in model.parameters()]
                    )
                else:
                    with no_grad():
                        pairs.append([np.asarray(model(item.graph, item.feats).data)])
                model.zero_grad()
            for got, want in zip(*pairs):
                if not np.allclose(got, want, rtol=0.0, atol=ATOL):
                    mismatches.append(
                        f"{item.name}: max abs err "
                        f"{float(np.max(np.abs(got - want))):.3e}"
                    )
            choices[item.name] = [
                [s.label, s.spmm_strategy] for s in item.report.selections
            ]
        return {"mismatches": mismatches, "choices": choices}

    def probe(self, state: dict) -> Dict[str, float]:
        engine = state["engine"]
        out: Dict[str, float] = {}
        selections, inputs = [], []
        flops = moved = 0.0
        for item in state["items"]:
            per_layer = probes.layer_inputs(item.default, item.graph, item.feats)
            out[f"core.runtime.regret.{item.name}"] = probes.regret(
                engine, item.report.selections, per_layer
            )
            for selection, layer_input in zip(item.report.selections, per_layer):
                f, b = probes.plan_work(engine, selection, layer_input)
                flops += f
                moved += b
            selections += item.report.selections
            inputs += per_layer
        out["kernels.flops_per_op"] = flops
        out["kernels.bytes_per_op"] = moved
        out.update(probes.choice_metrics(selections))
        out.update(probes.stage_probe(state["cost_models"], self.mode, inputs))
        out.update(probes.compile_breakdown(
            {item.model_name: item.default.granii_layers()[0]
             for item in state["items"]}
        ))
        return out
