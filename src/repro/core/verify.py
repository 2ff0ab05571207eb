"""Differential plan-equivalence verification (the correctness harness).

GRANII's premise is that every enumerated association tree computes the
same mathematical function (paper §III) — which makes the candidate pool
*free differential-test coverage*: every plan, executed under every SpMM
strategy, must agree with the model's baseline message-passing forward
on any input graph.  This module systematises that check, in the spirit
of the differential testing autotuning compilers (TVM, Halide) apply to
their schedule spaces:

- :func:`adversarial_battery` — generated graphs targeting the
  structural edge cases that historically break sparse kernels (empty
  pattern, zero-degree rows, explicit self-loops, duplicate input edges,
  single node, disconnected components, power-law skew) plus zero-width
  feature matrices;
- :class:`ToleranceModel` — accept/reject thresholds that scale with
  the *accumulation depth* (max in-degree — the length of the longest
  floating-point reduction) instead of one fixed epsilon;
- :func:`sweep` — the zoo × systems × {inference, training} × plans ×
  strategies product.  Every check runs :meth:`~repro.core.plan.Plan.execute`
  with the strategy on its forward aggregations: inference checks under
  :func:`~repro.tensor.no_grad`, the path a served request takes;
  training checks whole autograd iterations (the backward runs the fold,
  as on every path), comparing parameter/input gradients against the
  reference composition;
- :func:`shrink_failure` — a delta-debugging shrinker that bisects
  nodes, then undirected edges, down to a minimal failing graph;
- :func:`emit_pytest_repro` — renders a shrunk failure as a
  ready-to-commit pytest file driving :func:`run_single_check`;
- :func:`seeded_fault` — fault injection for exercising the harness
  itself (and demonstrating that a wrong kernel is caught and shrunk).

The same comparison machinery backs the engine's opt-in runtime
verification mode (``GraniiEngine(verify_plans=True)``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..framework import MPGraph, get_system
from ..graphs import (
    Graph,
    disconnected_cliques,
    duplicated_edges,
    empty_graph,
    isolated_union,
    path,
    rmat,
    self_loop_cycle,
    single_node,
    star,
)
from ..kernels import SPMM_STRATEGIES
from ..models import build_layer, uses_self_loops
from ..models.zoo import MODEL_NAMES
from ..sparse import CSRMatrix
from ..tensor import Tensor, no_grad
from ..analysis.planlint import PlanVerdict, analyze_plan
from .bindings import build_binding, model_ir_kwargs
from .codegen import CompiledModel, PlannedCandidate, compile_model, select_default_plan

__all__ = [
    "CheckResult",
    "Tolerance",
    "ToleranceModel",
    "VerificationReport",
    "adversarial_battery",
    "emit_pytest_repro",
    "run_single_check",
    "seeded_fault",
    "shrink_failure",
    "sweep",
]

# (in_size, out_size) scenarios swept per graph: one per embedding-size
# branch of Figure 7, plus the zero-width feature matrix.
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = ((5, 3), (2, 4), (0, 3))

VERIFY_MODES: Tuple[str, ...] = ("inference", "training")


# ----------------------------------------------------------------------
# Tolerance model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tolerance:
    """Accept thresholds for one (graph, mode, plan) comparison."""

    rtol: float
    atol: float
    depth: int

    def allclose(self, a: np.ndarray, b: np.ndarray) -> bool:
        if a.shape != b.shape:
            return False
        return bool(np.allclose(a, b, rtol=self.rtol, atol=self.atol))


class ToleranceModel:
    """Depth-scaled tolerances for plan-equivalence comparisons.

    Summing ``d`` float64 terms carries a worst-case relative error of
    O(d·eps); reassociating the sum (which is exactly what a different
    plan does) can realise that bound.  A fixed epsilon is therefore
    either too loose on sparse graphs or too tight on skewed ones.  The
    thresholds here grow linearly with the *accumulation depth* — the
    maximum in-degree, i.e. the longest per-row reduction — and with the
    plan's step count (each chained kernel compounds rounding).
    Training doubles the chain (forward + backward), covered by
    ``training_factor``.
    """

    def __init__(
        self,
        base_rtol: float = 4e-12,
        base_atol: float = 1e-12,
        training_factor: float = 4.0,
    ) -> None:
        self.base_rtol = float(base_rtol)
        self.base_atol = float(base_atol)
        self.training_factor = float(training_factor)

    def accumulation_depth(self, adj: CSRMatrix) -> int:
        deg = adj.row_degrees()
        return int(deg.max()) if deg.size else 0

    def for_graph(
        self, adj: CSRMatrix, mode: str = "inference", num_steps: int = 1
    ) -> Tolerance:
        depth = self.accumulation_depth(adj)
        factor = (1.0 + depth) * max(1, int(num_steps))
        if mode == "training":
            factor *= self.training_factor
        return Tolerance(self.base_rtol * factor, self.base_atol * factor, depth)


# ----------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------
def adversarial_battery(quick: bool = False) -> List[Graph]:
    """Generated graphs spanning the structural edge cases.

    Every graph is small enough for exhaustive plan × strategy sweeps;
    the non-quick battery adds larger skewed instances so depth-scaled
    tolerances and blocking boundaries (multi-span tiles) are exercised.
    """
    graphs = [
        empty_graph(8),                      # every row empty
        single_node(),                       # smallest valid input
        isolated_union(18, 6, seed=1),       # zero-degree rows amid real ones
        self_loop_cycle(10),                 # explicit self-loops kept
        duplicated_edges(12, 4.0, seed=2),   # duplicate COO input collapsed
        disconnected_cliques(2, 4),          # reducible block-diagonal
        star(16),                            # worst-case degree skew
        rmat(48, 4.0, seed=5, name="rmat_48"),  # power-law degrees
    ]
    if not quick:
        graphs += [
            path(40),                        # max diameter, min density
            star(96),                        # deep single-row accumulation
            isolated_union(48, 16, seed=7),
            rmat(160, 8.0, seed=11, name="rmat_160"),
            disconnected_cliques(4, 6),
        ]
    return graphs


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    """One (model, system, mode, graph, plan, strategy) comparison."""

    model: str
    system: str
    mode: str
    strategy: str
    graph: str
    num_nodes: int
    num_edges: int
    plan_index: int
    plan_label: str
    plan_signature: str
    in_size: int
    out_size: int
    rtol: float
    atol: float
    depth: int
    max_abs_err: float
    max_rel_err: float
    passed: bool
    worst_quantity: str = "output"
    system_default: bool = False
    detail: str = ""
    repro_path: str = ""
    # populated when the failure was delta-debugged: the minimal graph
    # the emitted repro pins (-1 = not shrunk)
    shrunk_num_nodes: int = -1
    shrunk_num_edges: int = -1

    def describe(self) -> str:
        status = "ok" if self.passed else "DIVERGED"
        return (
            f"[{status}] {self.model}/{self.system}/{self.mode} "
            f"graph={self.graph} plan#{self.plan_index}({self.plan_label}) "
            f"strategy={self.strategy} K=({self.in_size}->{self.out_size}) "
            f"max_abs={self.max_abs_err:.3e} max_rel={self.max_rel_err:.3e} "
            f"(rtol={self.rtol:.1e}, atol={self.atol:.1e}, depth={self.depth})"
        )


@dataclass
class VerificationReport:
    """The sweep's full result set plus run metadata."""

    results: List[CheckResult] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def num_checks(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"plan-equivalence sweep: {self.num_checks} checks, "
            f"{len(self.failures)} divergent"
        ]
        finite = [
            r.max_abs_err for r in self.results if np.isfinite(r.max_abs_err)
        ]
        if finite:
            lines.append(f"worst absolute error: {max(finite):.3e}")
        for r in self.failures:
            lines.append("  " + r.describe())
            if r.repro_path:
                lines.append(f"    repro: {r.repro_path}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON form: per-(model, system, mode, strategy) roll-ups plus
        full rows for failures only — a committed artifact stays small
        while every divergence remains fully diagnosable."""
        cells: Dict[Tuple[str, str, str, str], Dict[str, object]] = {}
        for r in self.results:
            key = (r.model, r.system, r.mode, r.strategy)
            cell = cells.setdefault(
                key,
                {
                    "model": r.model,
                    "system": r.system,
                    "mode": r.mode,
                    "strategy": r.strategy,
                    "checks": 0,
                    "divergent": 0,
                    "max_abs_err": 0.0,
                    "max_rel_err": 0.0,
                },
            )
            cell["checks"] += 1
            if not r.passed:
                cell["divergent"] += 1
            if np.isfinite(r.max_abs_err):
                cell["max_abs_err"] = max(cell["max_abs_err"], r.max_abs_err)
                cell["max_rel_err"] = max(cell["max_rel_err"], r.max_rel_err)
        return {
            "meta": dict(self.meta),
            "summary": {
                "checks": self.num_checks,
                "divergent": len(self.failures),
                "passed": self.passed,
            },
            "cells": [cells[k] for k in sorted(cells)],
            "failures": [vars(r).copy() for r in self.failures],
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, default=float)
            fh.write("\n")


# ----------------------------------------------------------------------
# Single-check execution
# ----------------------------------------------------------------------
def _max_errors(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """(max absolute, max relative) error; inf on shape mismatch or NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf"), float("inf")
    if a.size == 0:
        return 0.0, 0.0
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        if np.array_equal(a, b):  # identical infs are agreement
            return 0.0, 0.0
        return float("inf"), float("inf")
    diff = np.abs(a - b)
    denom = np.abs(b)
    rel = diff / np.where(denom > 0, denom, 1.0)
    return float(diff.max()), float(rel.max())


def _mp_graph(graph: Graph, model: str) -> MPGraph:
    adj = graph.adj_with_self_loops() if uses_self_loops(model) else graph.adj
    return MPGraph(adj)


def _make_feats(graph: Graph, in_size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1009 * graph.num_nodes + in_size)
    return rng.standard_normal((graph.num_nodes, in_size))


def _make_cotangent(n: int, out_size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 7919)
    return rng.standard_normal((n, out_size))


def _zero_param_grads(layer) -> None:
    for p in layer.parameters():
        p.zero_grad()


def _collect_grads(layer, feat: Tensor) -> Dict[str, np.ndarray]:
    grads: Dict[str, np.ndarray] = {}
    for name, p in layer.named_parameters():
        grads[f"grad:{name}"] = (
            np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        )
    grads["grad:input"] = (
        np.zeros_like(feat.data) if feat.grad is None else feat.grad.copy()
    )
    return grads


def _reference_outputs(
    layer, mp: MPGraph, feats: np.ndarray, mode: str, cotangent: np.ndarray
) -> Dict[str, np.ndarray]:
    """Run the baseline message-passing forward (and backward)."""
    feat = Tensor(feats, requires_grad=(mode == "training"))
    if mode == "inference":
        with no_grad():
            out = layer.forward(mp, feat)
        return {"output": np.asarray(out.data)}
    _zero_param_grads(layer)
    out = layer.forward(mp, feat)
    out.backward(cotangent)
    quantities = {"output": np.asarray(out.data)}
    quantities.update(_collect_grads(layer, feat))
    return quantities


def _plan_outputs(
    layer,
    planned: PlannedCandidate,
    mp: MPGraph,
    feats: np.ndarray,
    mode: str,
    strategy: str,
    degree_method: str,
    cotangent: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Execute one plan under one strategy, mirroring the reference."""
    feat = Tensor(feats, requires_grad=(mode == "training"))
    binding = build_binding(layer, mp, feat, degree_method)
    if mode == "inference":
        with no_grad():
            out = planned.plan.execute(binding, strategy=strategy)
        return {"output": np.asarray(out.data)}
    _zero_param_grads(layer)
    out = planned.plan.execute(binding, strategy=strategy)
    out.backward(cotangent)
    quantities = {"output": np.asarray(out.data)}
    quantities.update(_collect_grads(layer, feat))
    return quantities


def _check_plan(
    layer,
    planned: PlannedCandidate,
    plan_index: int,
    graph: Graph,
    model: str,
    system_name: str,
    mode: str,
    strategy: str,
    in_size: int,
    out_size: int,
    tol_model: ToleranceModel,
    seed: int,
    reference: Optional[Dict[str, np.ndarray]] = None,
    system_default: bool = False,
) -> CheckResult:
    system = get_system(system_name)
    mp = _mp_graph(graph, model)
    feats = _make_feats(graph, in_size, seed)
    cotangent = _make_cotangent(graph.num_nodes, out_size, seed)
    if reference is None:
        reference = _reference_outputs(layer, mp, feats, mode, cotangent)
    tol = tol_model.for_graph(
        mp.adj, mode=mode, num_steps=len(planned.plan.steps)
    )
    detail = ""
    try:
        candidate = _plan_outputs(
            layer, planned, mp, feats, mode, strategy,
            system.degree_method, cotangent,
        )
    except Exception as exc:  # crash is a divergence too
        candidate = None
        detail = f"{type(exc).__name__}: {exc}"
    max_abs = max_rel = float("inf")
    worst = "output"
    passed = False
    if candidate is not None:
        passed = True
        max_abs = max_rel = 0.0
        for name, ref_val in reference.items():
            got = candidate.get(name)
            if got is None:
                passed, worst = False, name
                max_abs = max_rel = float("inf")
                detail = f"missing quantity {name!r}"
                break
            abs_err, rel_err = _max_errors(got, ref_val)
            if abs_err > max_abs:
                max_abs, worst = abs_err, name
            max_rel = max(max_rel, rel_err)
            if not tol.allclose(got, ref_val):
                passed = False
                worst = name
    return CheckResult(
        model=model,
        system=system_name,
        mode=mode,
        strategy=strategy,
        graph=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        plan_index=plan_index,
        plan_label=planned.label,
        plan_signature=planned.plan.candidate.output,
        in_size=in_size,
        out_size=out_size,
        rtol=tol.rtol,
        atol=tol.atol,
        depth=tol.depth,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        passed=passed,
        worst_quantity=worst,
        system_default=system_default,
        detail=detail,
    )


def _compile_for_model(model: str, layer) -> CompiledModel:
    return compile_model(model, **model_ir_kwargs(layer))


def run_single_check(
    model: str,
    system: str,
    mode: str,
    strategy: str,
    plan_signature: str,
    rows: Sequence[int],
    cols: Sequence[int],
    num_nodes: int,
    in_size: int,
    out_size: int,
    seed: int = 0,
    tol_model: Optional[ToleranceModel] = None,
) -> CheckResult:
    """Re-run one comparison from its serialised coordinates.

    This is the entry point emitted into pytest repro files: the graph
    arrives as raw COO (full directed edge list, duplicates summed into
    the pattern) and the plan is located by its stable candidate output
    signature.
    """
    adj = CSRMatrix.from_coo(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        None,
        (num_nodes, num_nodes),
    ).unweighted()
    graph = Graph(adj, name=f"repro_{num_nodes}")
    layer = build_layer(
        model, in_size, out_size, rng=np.random.default_rng(seed)
    )
    compiled = _compile_for_model(model, layer)
    matches = [
        (i, p) for i, p in enumerate(compiled.promoted)
        if p.plan.candidate.output == plan_signature
    ]
    if not matches:
        raise ValueError(
            f"no promoted {model} plan with signature {plan_signature!r}"
        )
    plan_index, planned = matches[0]
    return _check_plan(
        layer, planned, plan_index, graph, model, system, mode, strategy,
        in_size, out_size, tol_model or ToleranceModel(), seed,
    )


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
def _undirected_edges(adj: CSRMatrix) -> np.ndarray:
    """Unique undirected edges (u <= v) including self-loops, as (m, 2)."""
    rows, cols, _ = adj.to_coo()
    mask = rows <= cols
    return np.stack([rows[mask], cols[mask]], axis=1)


def _graph_from_edges(edges: np.ndarray, n: int, name: str) -> Graph:
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        non_loop = u != v
        rows = np.concatenate([u, v[non_loop]])
        cols = np.concatenate([v, u[non_loop]])
    else:
        rows = cols = np.empty(0, dtype=np.int64)
    adj = CSRMatrix.from_coo(rows, cols, None, (n, n)).unweighted()
    return Graph(adj, name=name)


def shrink_failure(
    still_fails: Callable[[Graph], bool],
    graph: Graph,
    max_checks: int = 200,
) -> Graph:
    """Delta-debug ``graph`` down to a minimal input where the check fails.

    Greedy two-phase ddmin: drop contiguous node chunks (induced
    subgraph) at halving granularity, then drop undirected-edge chunks
    the same way.  ``still_fails`` must return True while the failure
    reproduces; the budget bounds total predicate evaluations so a slow
    check cannot stall the sweep.
    """
    budget = [max_checks]

    def check(g: Graph) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return bool(still_fails(g))
        except Exception:
            return True  # a crash on the smaller input still reproduces

    # --- node phase -------------------------------------------------
    current = graph
    chunk = max(1, current.num_nodes // 2)
    while chunk >= 1 and budget[0] > 0:
        shrunk = False
        start = 0
        while start < current.num_nodes and current.num_nodes > 1:
            n = current.num_nodes
            keep = np.concatenate(
                [np.arange(0, start), np.arange(min(start + chunk, n), n)]
            )
            if keep.size == 0 or keep.size == n:
                start += chunk
                continue
            candidate = current.induced_subgraph(
                keep, name=f"{graph.name}_shrunk"
            )
            if check(candidate):
                current = candidate
                shrunk = True  # same start now addresses the next chunk
            else:
                start += chunk
        if not shrunk:
            chunk //= 2
        else:
            chunk = min(chunk, max(1, current.num_nodes // 2))

    # --- edge phase -------------------------------------------------
    edges = _undirected_edges(current.adj)
    n = current.num_nodes
    chunk = max(1, edges.shape[0] // 2)
    while chunk >= 1 and edges.shape[0] > 0 and budget[0] > 0:
        shrunk = False
        start = 0
        while start < edges.shape[0]:
            keep = np.concatenate(
                [edges[:start], edges[start + chunk:]], axis=0
            )
            if keep.shape[0] == edges.shape[0]:
                start += chunk
                continue
            candidate = _graph_from_edges(keep, n, f"{graph.name}_shrunk")
            if check(candidate):
                edges = keep
                current = candidate
                shrunk = True
            else:
                start += chunk
        if not shrunk:
            chunk //= 2
    return current


_REPRO_TEMPLATE = '''"""Auto-generated by `python -m repro.checks` — minimal failing case.

{header}
Delete this file once the underlying divergence is fixed; it pins the
shrunk graph so the regression cannot silently return.
"""

import numpy as np

from repro.core.verify import run_single_check

ROWS = {rows}
COLS = {cols}
NUM_NODES = {num_nodes}


def test_plan_equivalence_regression():
    result = run_single_check(
        model={model!r},
        system={system!r},
        mode={mode!r},
        strategy={strategy!r},
        plan_signature={signature!r},
        rows=ROWS,
        cols=COLS,
        num_nodes=NUM_NODES,
        in_size={in_size},
        out_size={out_size},
        seed={seed},
    )
    assert result.passed, result.describe()
'''


def emit_pytest_repro(
    path: str, failure: CheckResult, graph: Graph, seed: int = 0
) -> str:
    """Write a self-contained pytest file reproducing ``failure``."""
    rows, cols, _ = graph.adj.to_coo()
    header = (
        f"model={failure.model} system={failure.system} mode={failure.mode} "
        f"strategy={failure.strategy}\nplan#{failure.plan_index} "
        f"({failure.plan_label}): {failure.plan_signature}\n"
        f"max_abs_err={failure.max_abs_err:.3e} "
        f"(rtol={failure.rtol:.1e}, atol={failure.atol:.1e})"
    )
    body = _REPRO_TEMPLATE.format(
        header=header,
        rows=[int(r) for r in rows],
        cols=[int(c) for c in cols],
        num_nodes=graph.num_nodes,
        model=failure.model,
        system=failure.system,
        mode=failure.mode,
        strategy=failure.strategy,
        signature=failure.plan_signature,
        in_size=failure.in_size,
        out_size=failure.out_size,
        seed=seed,
    )
    with open(path, "w") as fh:
        fh.write(body)
    return path


# ----------------------------------------------------------------------
# Fault injection (testing the tester)
# ----------------------------------------------------------------------
@contextmanager
def seeded_fault(scale: float = 1.001) -> Iterator[None]:
    """Multiplicatively perturb the ``blocked`` strategy's kernel.

    Used to demonstrate (and test) that the harness catches a wrong
    kernel: any plan executed under the ``blocked`` strategy on a
    non-trivial graph diverges from the reference by ~``scale - 1``
    relative error, far outside the depth-scaled tolerance.  The fault
    patches ``blocked.gspmm_row_blocks`` — the ``blocked`` table row's
    runner, resolved at call time — not the span loop every in-process
    row shares, so ``row_segment`` (and the rest) stay clean.
    """
    from ..kernels import blocked as blocked_mod

    original = blocked_mod.gspmm_row_blocks

    def faulty(adj, x, semiring=None, block_nnz=None, workspace=None):
        out = original(
            adj, x, semiring, block_nnz=block_nnz, workspace=workspace
        )
        return out * scale

    blocked_mod.gspmm_row_blocks = faulty
    try:
        yield
    finally:
        blocked_mod.gspmm_row_blocks = original


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def sweep(
    models: Optional[Sequence[str]] = None,
    systems: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
    strategies: Optional[Sequence[str]] = None,
    graphs: Optional[Sequence[Graph]] = None,
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    tol_model: Optional[ToleranceModel] = None,
    seed: int = 0,
    shrink: bool = True,
    repro_dir: str = ".",
    max_shrinks: int = 3,
) -> VerificationReport:
    """Differentially test every plan × strategy against the reference.

    For each (model, graph, embedding-size) instance the baseline
    message-passing ``forward`` is executed once per mode as the
    reference; every promoted plan then runs under every strategy (and,
    in training mode, a full backward pass per strategy) and must agree
    within the depth-scaled tolerance.  Failures are optionally shrunk
    to minimal graphs and emitted as pytest repro files.
    """
    models = list(models or MODEL_NAMES)
    systems = list(systems or ("dgl", "wisegraph"))
    modes = list(modes or VERIFY_MODES)
    strategies = list(strategies or SPMM_STRATEGIES)
    graphs = list(graphs if graphs is not None else adversarial_battery())
    sizes = list(sizes or DEFAULT_SIZES)
    tol_model = tol_model or ToleranceModel()
    report = VerificationReport(
        meta={
            "models": models,
            "systems": systems,
            "modes": modes,
            "strategies": strategies,
            "graphs": [g.name for g in graphs],
            "sizes": [list(s) for s in sizes],
            "seed": seed,
            "base_rtol": tol_model.base_rtol,
            "base_atol": tol_model.base_atol,
        }
    )
    shrinks_left = [max_shrinks]

    # Static gate: a plan planlint rejects must never reach execution —
    # the sweep both enforces that and records it, so each ``verify/*``
    # entry's detail in ``python -m repro.checks`` documents
    # analyzer/harness agreement (see meta["analysis"]).
    gate_cache: Dict[int, "PlanVerdict"] = {}
    statically_rejected: List[str] = []

    def static_verdict(planned: PlannedCandidate) -> "PlanVerdict":
        key = id(planned.plan)
        verdict = gate_cache.get(key)
        if verdict is None:
            verdict = analyze_plan(planned.plan)
            gate_cache[key] = verdict
            if not verdict.ok:
                statically_rejected.append(planned.plan.name)
        return verdict

    for model in models:
        for in_size, out_size in sizes:
            layer = build_layer(
                model, in_size, out_size, rng=np.random.default_rng(seed)
            )
            compiled = _compile_for_model(model, layer)
            for graph in graphs:
                mp = _mp_graph(graph, model)
                feats = _make_feats(graph, in_size, seed)
                cotangent = _make_cotangent(
                    graph.num_nodes, out_size, seed
                )
                for mode in modes:
                    reference = _reference_outputs(
                        layer, mp, feats, mode, cotangent
                    )
                    for system_name in systems:
                        system = get_system(system_name)
                        default_planned = select_default_plan(
                            compiled, system, in_size, out_size
                        )
                        for plan_index, planned in enumerate(
                            compiled.promoted
                        ):
                            if not static_verdict(planned).ok:
                                continue
                            for strategy in strategies:
                                result = _check_plan(
                                    layer, planned, plan_index, graph,
                                    model, system_name, mode, strategy,
                                    in_size, out_size, tol_model, seed,
                                    reference=reference,
                                    system_default=(
                                        planned is default_planned
                                    ),
                                )
                                if not result.passed:
                                    if shrink and shrinks_left[0] > 0:
                                        shrinks_left[0] -= 1
                                        result.repro_path = _shrink_and_emit(
                                            result, layer, planned, graph,
                                            tol_model, seed, repro_dir,
                                        )
                                report.results.append(result)
    report.meta["repro_files"] = sorted(
        {r.repro_path for r in report.results if r.repro_path}
    )
    # analyzer/harness agreement: every executed check belongs to a
    # statically-ok plan (rejected ones were excluded above), so dynamic
    # divergences among them are exactly the analyzer's blind spots
    report.meta["analysis"] = {
        "plans_analyzed": len(gate_cache),
        "statically_rejected": sorted(set(statically_rejected)),
        "verdict_agreement": {
            "static_ok_checks": report.num_checks,
            "dynamic_divergent": len(report.failures),
            "agree": report.passed,
        },
    }
    return report


def _shrink_and_emit(
    failure: CheckResult,
    layer,
    planned: PlannedCandidate,
    graph: Graph,
    tol_model: ToleranceModel,
    seed: int,
    repro_dir: str,
) -> str:
    """Shrink one failure and write its pytest repro; returns the path."""
    import os

    def still_fails(candidate: Graph) -> bool:
        result = _check_plan(
            layer, planned, failure.plan_index, candidate, failure.model,
            failure.system, failure.mode, failure.strategy,
            failure.in_size, failure.out_size, tol_model, seed,
        )
        return not result.passed

    minimal = shrink_failure(still_fails, graph)
    failure.shrunk_num_nodes = minimal.num_nodes
    failure.shrunk_num_edges = minimal.num_edges
    fname = (
        f"test_repro_{failure.model}_{failure.mode}_{failure.strategy}"
        f"_plan{failure.plan_index}.py"
    )
    path = os.path.join(repro_dir, fname)
    return emit_pytest_repro(path, minimal_failure(failure, minimal), minimal, seed)


def minimal_failure(failure: CheckResult, minimal: Graph) -> CheckResult:
    """The original failure re-annotated with the shrunk graph's stats."""
    out = CheckResult(**vars(failure))
    out.graph = minimal.name
    out.num_nodes = minimal.num_nodes
    out.num_edges = minimal.num_edges
    return out
