"""Executable plans lowered from association-tree candidates.

A :class:`Plan` is one promoted candidate made concrete:

- **kernel calls** — the symbolic :class:`~repro.kernels.registry.KernelCall`
  list for costing, split into *setup* calls (graph-only sparse
  precomputation, amortised across iterations — e.g. GCN's Ñ, GIN's B)
  and *per-iteration* calls;
- **backward calls** — the training-mode gradient kernels induced by the
  chosen forward (GRANII does not optimise the backward pass, §VI-C, but
  its shape follows the forward choice);
- **executors** — NumPy-mode (inference) and Tensor-mode (autograd)
  interpreters that actually run the composition.

Classification policy: a step is *setup* iff all its transitive inputs
are graph leaves (adjacency, degree diagonal, ε) **and** it produces a
sparse result — i.e. it materialises a reusable sparse matrix.  Dynamic
normalization's broadcasts and degree reads stay per-iteration, exactly
as message-passing frameworks execute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kernels import (
    KernelCall,
    WorkspaceArena,
    elu,
    gemm,
    get_semiring,
    gspmm,
    leaky_relu,
    relu,
    row_broadcast,
    sddmm_diag_scale,
    sigmoid,
    spadd_diag,
    spmm,
    spmm_strategy,
    spmm_unweighted,
)
from ..kernels.registry import dispatch_kernel, transient_bytes
from ..sparse import CSRMatrix, DiagonalMatrix
from ..tensor import Tensor
from ..tensor import elu as t_elu
from ..tensor import leaky_relu as t_leaky_relu
from ..tensor import relu as t_relu
from ..tensor import row_broadcast as t_row_broadcast
from ..tensor import spmm as t_spmm
from ..tensor import spmm_edge as t_spmm_edge
from .assoc import Candidate, Step
from .ir import ShapeEnv

__all__ = [
    "EdgeSparse",
    "KernelExecutionConfig",
    "LayerBinding",
    "Plan",
    "GRAPH_LEAVES",
    "LEAF_CACHE_KEY",
    "WORKSPACE_CACHE_KEY",
]

GRAPH_LEAVES = {"A", "D", "Dm", "Ds", "Eps", "T"}

# Reserved setup-cache slot holding the plan's WorkspaceArena.  Kept out
# of the value environment (it is not a step result) but persisted with
# the cache so scratch tiles survive across iterations.
WORKSPACE_CACHE_KEY = "__workspace__"
# Reserved setup-cache slot holding the binding's graph-only leaves (the
# degree diagonals, GIN's Eps, APPNP's T), which ``build_binding`` would
# otherwise rebuild for every execution.  Not step results either.
LEAF_CACHE_KEY = "__leaves__"
_RESERVED_CACHE_KEYS = (WORKSPACE_CACHE_KEY, LEAF_CACHE_KEY)


@dataclass(frozen=True)
class KernelExecutionConfig:
    """How the executor should run its sparse aggregations.

    ``strategy`` is one of :data:`~repro.kernels.spmm.SPMM_STRATEGIES`;
    ``block_nnz``/``num_threads``/``num_workers`` tune the blocked and
    sharded strategies and are ignored by the one-shot ones.  ``None``
    knobs defer to the kernel defaults (``REPRO_BLOCK_NNZ`` /
    ``REPRO_NUM_THREADS`` / ``REPRO_NUM_WORKERS``).  In tensor mode the
    config steers the *forward* aggregation only — backward SpMMs stay on
    the reference kernel (see :mod:`repro.tensor.sparse_ops`).
    """

    strategy: str = "row_segment"
    block_nnz: Optional[int] = None
    num_threads: Optional[int] = None
    num_workers: Optional[int] = None


def _tensor_spmm_knobs(kernel_config: Optional["KernelExecutionConfig"]) -> dict:
    """Keyword knobs for the tensor-mode spmm ops (empty -> kernel defaults)."""
    if kernel_config is None:
        return {}
    return {
        "strategy": kernel_config.strategy,
        "block_nnz": kernel_config.block_nnz,
        "num_threads": kernel_config.num_threads,
        "num_workers": kernel_config.num_workers,
    }


_SPMM_SEMIRINGS = {"spmm": ("sum", "mul"), "spmm_unweighted": ("sum", "copy_rhs")}


@dataclass
class EdgeSparse:
    """A sparse matrix whose values are an autograd edge tensor (GAT's α)."""

    pattern: CSRMatrix
    values: Tensor


@dataclass
class LayerBinding:
    """Runtime values for a plan's leaves plus the attention sub-programs."""

    values: Dict[str, object]
    attention_fn: Optional[Callable] = None  # (pattern, theta, mode) -> CSR | EdgeSparse
    fused_attention_fn: Optional[Callable] = None  # (pattern, theta, value, mode)


def _resolve(env: ShapeEnv, dim) -> int:
    """Resolve a symbolic dim, supporting 'X+Y' sums."""
    if isinstance(dim, int):
        return dim
    if "+" in dim:
        return sum(env.resolve(part) for part in dim.split("+"))
    return env.resolve(dim)


class Plan:
    """One lowered candidate."""

    def __init__(self, candidate: Candidate, name: str = "") -> None:
        self.candidate = candidate
        self.name = name or candidate.output[:60]
        self.steps: List[Step] = candidate.ordered_steps()
        self._graph_only = self._taint_graph_only()
        self._setup_steps = [
            s for s in self.steps
            if self._graph_only[s.out] and s.out_desc.attr == "sparse"
        ]
        setup_outs = {s.out for s in self._setup_steps}
        # setup also includes steps feeding only setup steps
        changed = True
        while changed:
            changed = False
            consumers: Dict[str, Set[str]] = {}
            for s in self.steps:
                for a in s.args:
                    consumers.setdefault(a, set()).add(s.out)
            for s in self.steps:
                if s.out in setup_outs or not self._graph_only[s.out]:
                    continue
                cons = consumers.get(s.out, set())
                if cons and cons <= setup_outs:
                    setup_outs.add(s.out)
                    changed = True
        self._setup_outs = setup_outs
        self._iter_steps = [s for s in self.steps if s.out not in setup_outs]
        self._setup_steps = [s for s in self.steps if s.out in setup_outs]
        self._calls_memo: Dict[tuple, Tuple[List[KernelCall], List[KernelCall]]] = {}
        self._bwd_memo: Dict[tuple, List[KernelCall]] = {}

    # ------------------------------------------------------------------
    def _taint_graph_only(self) -> Dict[str, bool]:
        taint: Dict[str, bool] = {}

        def leaf_taint(ref: str) -> bool:
            return ref in GRAPH_LEAVES

        for step in self.steps:
            flags = []
            for arg in step.args:
                flags.append(taint[arg] if arg in taint else leaf_taint(arg))
            taint[step.out] = all(flags)
        return taint

    @property
    def setup_steps(self) -> List[Step]:
        return list(self._setup_steps)

    @property
    def iteration_steps(self) -> List[Step]:
        return list(self._iter_steps)

    @property
    def primitives(self) -> Tuple[str, ...]:
        return self.candidate.primitives

    def describe(self) -> str:
        return self.candidate.describe()

    # ------------------------------------------------------------------
    # Kernel-call expansion
    # ------------------------------------------------------------------
    def _step_calls(self, step: Step, env: ShapeEnv) -> List[KernelCall]:
        p = step.primitive
        descs = step.arg_descs
        out = step.out_desc
        n_rows = _resolve(env, out.shape[0])
        if p == "gemm":
            a, b = descs
            return [KernelCall("gemm", {
                "m": _resolve(env, a.shape[0]),
                "k": _resolve(env, a.shape[1]),
                "n": _resolve(env, b.shape[1]),
            }, tag=step.out)]
        if p in ("spmm", "spmm_unweighted"):
            sp, dn = descs
            return [KernelCall(p, {
                "m": _resolve(env, sp.shape[0]),
                "nnz": _resolve(env, sp.nnz),
                "k": _resolve(env, dn.shape[1]),
            }, tag=step.out)]
        if p == "sddmm_diag":
            sp = next(d for d in descs if d.is_sparse_matrix)
            return [KernelCall("sddmm_diag", {
                "m": n_rows, "nnz": _resolve(env, sp.nnz),
            }, tag=step.out)]
        if p == "diag_mul":
            return [KernelCall("diag_mul", {"m": n_rows}, tag=step.out)]
        if p == "spadd_diag":
            sp = next(d for d in descs if d.is_sparse_matrix)
            return [KernelCall("spadd_diag", {
                "m": n_rows, "nnz": _resolve(env, sp.nnz),
            }, tag=step.out)]
        if p == "spgemm":
            lhs, rhs = descs
            return [KernelCall("spgemm", {
                "m": n_rows,
                "nnz": _resolve(env, lhs.nnz),
                "nnz_rhs": _resolve(env, rhs.nnz),
                "nnz_out": _resolve(env, out.nnz),
            }, tag=step.out)]
        if p == "row_broadcast":
            _, dn = descs
            return [KernelCall("row_broadcast", {
                "m": _resolve(env, dn.shape[0]),
                "k": _resolve(env, dn.shape[1]),
            }, tag=step.out)]
        if p == "elementwise":
            k_cols = _resolve(env, out.shape[1]) if out.attr == "dense" else 1
            copies = max(1, len(descs) - 1)
            return [
                KernelCall("elementwise", {"m": n_rows, "k": k_cols}, tag=step.out)
                for _ in range(copies)
            ]
        if p == "attention":
            pattern, theta = descs
            n = _resolve(env, pattern.shape[0])
            nnz = _resolve(env, pattern.nnz)
            k = _resolve(env, theta.shape[1])
            return [
                KernelCall("gemm", {"m": n, "k": k, "n": 1}, tag=f"{step.out}:score_l"),
                KernelCall("gemm", {"m": n, "k": k, "n": 1}, tag=f"{step.out}:score_r"),
                KernelCall("gsddmm_attn", {"m": n, "nnz": nnz}, tag=f"{step.out}:logits"),
                KernelCall("edge_softmax", {"m": n, "nnz": nnz}, tag=f"{step.out}:softmax"),
            ]
        if p == "fused_attn_spmm":
            pattern, theta, value = descs
            n = _resolve(env, pattern.shape[0])
            nnz = _resolve(env, pattern.nnz)
            k_theta = _resolve(env, theta.shape[1])
            k_value = _resolve(env, value.shape[1])
            # the per-node attention scores stay as two thin GEMVs; the
            # logits + softmax + aggregation run as one fused kernel
            return [
                KernelCall("gemm", {"m": n, "k": k_theta, "n": 1}, tag=f"{step.out}:score_l"),
                KernelCall("gemm", {"m": n, "k": k_theta, "n": 1}, tag=f"{step.out}:score_r"),
                KernelCall(
                    "fused_attn_spmm", {"m": n, "nnz": nnz, "k": k_value},
                    tag=f"{step.out}:fused",
                ),
            ]
        raise KeyError(f"no kernel expansion for primitive {p!r}")

    def _leaf_prep_calls(
        self, env: ShapeEnv, degree_method: str
    ) -> Tuple[List[KernelCall], List[KernelCall]]:
        """(setup, per-iteration) preparation calls for graph leaves."""
        setup: List[KernelCall] = []
        per_iter: List[KernelCall] = []
        used_by_iter = {a for s in self._iter_steps for a in s.args}
        used_at_all = {a for s in self.steps for a in s.args}
        for diag_leaf in ("D", "Dm", "Ds"):
            if diag_leaf in used_at_all:
                n = env.resolve("N")
                nnz = env.resolve("E")
                degree = KernelCall(
                    f"degree_{degree_method}", {"m": n, "nnz": nnz},
                    tag=f"prep:{diag_leaf}:degree",
                )
                power = KernelCall(
                    "elementwise", {"m": n, "k": 1}, tag=f"prep:{diag_leaf}:pow"
                )
                target = per_iter if diag_leaf in used_by_iter else setup
                target.extend([degree, power])
        return setup, per_iter

    def kernel_calls(
        self, env: ShapeEnv, degree_method: str = "indptr"
    ) -> Tuple[List[KernelCall], List[KernelCall]]:
        """(setup_calls, per_iteration_calls) of the forward pass."""
        memo_key = (tuple(sorted(env.items())), degree_method)
        cached = self._calls_memo.get(memo_key)
        if cached is not None:
            return cached
        setup, per_iter = self._leaf_prep_calls(env, degree_method)
        for step in self._setup_steps:
            setup.extend(self._step_calls(step, env))
        for step in self._iter_steps:
            per_iter.extend(self._step_calls(step, env))
        self._calls_memo[memo_key] = (setup, per_iter)
        return setup, per_iter

    def backward_calls(self, env: ShapeEnv) -> List[KernelCall]:
        """Per-iteration gradient kernels induced by this forward plan."""
        memo_key = tuple(sorted(env.items()))
        cached = self._bwd_memo.get(memo_key)
        if cached is not None:
            return cached
        calls: List[KernelCall] = []
        for step in self._iter_steps:
            p = step.primitive
            fwd = self._step_calls(step, env)
            if p == "gemm":
                # dA = dY·B^T and dB = A^T·dY
                calls.extend(
                    KernelCall("gemm", dict(c.shape), tag=f"bwd:{c.tag}")
                    for c in fwd for _ in range(2)
                )
            elif p in ("spmm", "spmm_unweighted"):
                # dX = A^T·dY; plus dE (an SDDMM) when the sparse operand
                # itself carries gradients (attention values).
                calls.extend(
                    KernelCall(p, dict(c.shape), tag=f"bwd:{c.tag}") for c in fwd
                )
                sp = step.arg_descs[0]
                if not self._graph_only.get(sp.ref, sp.ref in GRAPH_LEAVES):
                    calls.append(KernelCall("sddmm", {
                        "m": _resolve(env, sp.shape[0]),
                        "nnz": _resolve(env, sp.nnz),
                        "k": _resolve(env, step.arg_descs[1].shape[1]),
                    }, tag=f"bwd:{step.out}:dedge"))
            elif p == "attention":
                # softmax backward + logit scatter + score GEMV grads
                calls.extend(
                    KernelCall(c.primitive, dict(c.shape), tag=f"bwd:{c.tag}")
                    for c in fwd
                )
            else:
                calls.extend(
                    KernelCall(c.primitive, dict(c.shape), tag=f"bwd:{c.tag}")
                    for c in fwd
                )
        self._bwd_memo[memo_key] = calls
        return calls

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def _value_bytes(self, desc, env: ShapeEnv) -> float:
        if desc.attr == "dense":
            return 8.0 * _resolve(env, desc.shape[0]) * _resolve(env, desc.shape[1])
        if desc.is_diagonal:
            return 8.0 * _resolve(env, desc.shape[0])
        # CSR: values + column indices + row pointer
        return 16.0 * _resolve(env, desc.nnz) + 8.0 * _resolve(env, desc.shape[0])

    def peak_memory_bytes(self, env: ShapeEnv) -> float:
        """Liveness-based peak resident bytes of one forward execution.

        Counts leaf inputs, intermediate results (freed after their last
        consumer), and per-step transient workspace (this substrate's
        SpMM/SDDMM materialise per-edge messages; the fused attention
        kernel notably does not — part of fusion's appeal).  The paper's
        Figure 8 leaves cells empty where baselines ran out of memory;
        this estimate is what lets the runtime select around such cells.
        """
        last_use: Dict[str, int] = {}
        for i, step in enumerate(self.steps):
            for arg in step.args:
                last_use[arg] = i
        leaf_descs = {}
        for step in self.steps:
            for arg, desc in zip(step.args, step.arg_descs):
                leaf_descs[arg] = desc
        # resident leaves: everything ever referenced
        live: Dict[str, float] = {
            ref: self._value_bytes(desc, env)
            for ref, desc in leaf_descs.items()
            if "(" not in ref  # leaves only; intermediates added as produced
        }
        peak = total = sum(live.values())
        for i, step in enumerate(self.steps):
            workspace = 0.0
            s_calls = self._step_calls(step, env)
            for call in s_calls:
                workspace += transient_bytes(call.primitive, call.shape)
            out_bytes = self._value_bytes(step.out_desc, env)
            total += out_bytes
            peak = max(peak, total + workspace)
            # free intermediates whose last consumer is this step
            for arg in step.args:
                if "(" in arg and last_use.get(arg) == i and arg in live:
                    total -= live.pop(arg)
            live[step.out] = out_bytes
        return peak

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        binding: LayerBinding,
        mode: str = "numpy",
        setup_cache: Optional[Dict[str, object]] = None,
        kernel_config: Optional[KernelExecutionConfig] = None,
        budget=None,
    ):
        """Run the plan; returns the output value.

        ``setup_cache`` (if provided) persists graph-only sparse results
        across calls — the runtime passes one cache per (plan, graph).
        When ``kernel_config`` selects a blocked strategy, the cache also
        carries the :class:`~repro.kernels.workspace.WorkspaceArena`, so
        scratch tiles are allocated once and reused every iteration.

        ``budget`` (an :class:`~repro.core.guard.ExecutionBudget`) is
        consulted after every step — wall-clock deadline and resident
        intermediate bytes — so a runaway plan is stopped *between*
        kernels rather than only noticed at the end.  Every step runs
        through :func:`~repro.kernels.registry.dispatch_kernel`, the
        wrappable seam faults and instrumentation attach to; an escaping
        exception is annotated with ``granii_step`` / ``granii_primitive``
        so the guard can attribute the failure.
        """
        if mode not in ("numpy", "tensor"):
            raise ValueError("mode must be 'numpy' or 'tensor'")
        workspace = None
        row = spmm_strategy(
            kernel_config.strategy if kernel_config is not None else "row_segment"
        )
        if row.plan_arena:
            if setup_cache is not None:
                workspace = setup_cache.get(WORKSPACE_CACHE_KEY)
                if workspace is None:
                    workspace = WorkspaceArena()
                    setup_cache[WORKSPACE_CACHE_KEY] = workspace
            else:
                workspace = WorkspaceArena()
        env: Dict[str, object] = dict(binding.values)
        if setup_cache:
            env.update(
                (k, v) for k, v in setup_cache.items()
                if k not in _RESERVED_CACHE_KEYS
            )
        if budget is not None:
            budget.start()
        if mode == "numpy" and row.fuses:
            # local import: codegen imports Plan from this module
            from .codegen import compile_plan

            schedule = compile_plan(self).schedule
        else:
            schedule = [("step", s) for s in self.steps]
        for kind, item in schedule:
            if kind == "fused":
                segment = item
                if segment.out in env:
                    continue
                try:
                    value = dispatch_kernel(
                        row.primitive,
                        lambda: _execute_fused_segment(
                            segment, env, kernel_config, workspace
                        ),
                        tag=segment.out,
                    )
                except Exception as exc:
                    _annotate_failure(exc, segment.spmm)
                    raise
                env[segment.out] = value
                if budget is not None:
                    tail = (
                        segment.epilogues[-1] if segment.epilogues
                        else segment.spmm
                    )
                    budget.on_step(tail, value)
                continue
            step = item
            if step.out in env:
                continue
            try:
                value = dispatch_kernel(
                    step.primitive,
                    lambda: _execute_step(
                        step, env, mode, binding, kernel_config, workspace
                    ),
                    tag=step.out,
                )
            except Exception as exc:
                _annotate_failure(exc, step)
                raise
            env[step.out] = value
            if setup_cache is not None and step.out in self._setup_outs:
                setup_cache[step.out] = value
            if budget is not None:
                budget.on_step(step, value)
        return env[self.candidate.output]


def _annotate_failure(exc: BaseException, step: Step) -> None:
    """Tag an escaping exception with the step that raised it (best effort)."""
    if getattr(exc, "granii_step", None) is not None:
        return
    try:
        exc.granii_step = step.out
        exc.granii_primitive = step.primitive
    except (AttributeError, TypeError):  # pragma: no cover - slotted exc
        pass


def _execute_fused_segment(
    segment,
    env: Dict[str, object],
    kernel_config: Optional[KernelExecutionConfig] = None,
    workspace: Optional[WorkspaceArena] = None,
):
    """Run one compiled fused segment through ``gspmm_fused``.

    ``segment`` is a :class:`~repro.analysis.planlint.FusionSegmentSpec`:
    the aggregation step plus the (legality-proven) absorbed pre-scale
    ``row_broadcast`` and epilogue chain.  Absorbed member outputs never
    enter ``env`` — only the tail value does.
    """
    from ..kernels.compiled import gspmm_fused

    spmm_step = segment.spmm
    p = spmm_step.primitive
    sp = env[spmm_step.args[0]]
    if isinstance(sp, EdgeSparse):
        sp = sp.pattern.with_values(sp.values.data)
        p = "spmm"
    pre = None
    if segment.pre_scale is not None:
        # the spmm's dense operand is the absorbed broadcast's input
        pre = np.asarray(
            env[segment.pre_scale.args[0]].diag, dtype=np.float64
        )
        dn = env[segment.pre_scale.args[1]]
    else:
        dn = env[spmm_step.args[1]]
    epilogues = []
    for step in segment.epilogues:
        if step.primitive == "row_broadcast":
            epilogues.append(
                ("scale", np.asarray(env[step.args[0]].diag, dtype=np.float64))
            )
        else:
            epilogues.append(("nonlinear", step.meta))
    return gspmm_fused(
        sp,
        _as_numpy(dn),
        get_semiring(*_SPMM_SEMIRINGS[p]),
        block_nnz=kernel_config.block_nnz if kernel_config else None,
        workspace=workspace,
        pre_scale=pre,
        epilogues=tuple(epilogues),
    )


def _execute_step(
    step: Step,
    env: Dict[str, object],
    mode: str,
    binding: LayerBinding,
    kernel_config: Optional[KernelExecutionConfig] = None,
    workspace: Optional[WorkspaceArena] = None,
):
    p = step.primitive
    args = [env[a] for a in step.args]
    if p == "gemm":
        a, b = args
        if mode == "tensor":
            return _as_tensor(a) @ _as_tensor(b)
        return gemm(_as_numpy(a), _as_numpy(b))
    if p in ("spmm", "spmm_unweighted"):
        sp, dn = args
        if isinstance(sp, EdgeSparse):
            if mode == "tensor":
                return t_spmm_edge(
                    sp.pattern,
                    sp.values,
                    _as_tensor(dn),
                    **_tensor_spmm_knobs(kernel_config),
                )
            sp = sp.pattern.with_values(sp.values.data)
            p = "spmm"
        elif mode == "tensor":
            return t_spmm(sp, _as_tensor(dn), **_tensor_spmm_knobs(kernel_config))
        if kernel_config is not None:
            return gspmm(
                sp,
                _as_numpy(dn),
                get_semiring(*_SPMM_SEMIRINGS[p]),
                strategy=kernel_config.strategy,
                block_nnz=kernel_config.block_nnz,
                num_threads=kernel_config.num_threads,
                num_workers=kernel_config.num_workers,
                workspace=workspace,
            )
        if p == "spmm_unweighted":
            return spmm_unweighted(sp, _as_numpy(dn))
        return spmm(sp, _as_numpy(dn))
    if p == "sddmm_diag":
        descs = step.arg_descs
        sparse_idx = next(i for i, d in enumerate(descs) if d.is_sparse_matrix)
        sp = args[sparse_idx]
        diags = [a for i, a in enumerate(args) if i != sparse_idx]
        left = diags[0] if sparse_idx > 0 else DiagonalMatrix(np.ones(sp.shape[0]))
        if sparse_idx == 0:
            right = diags[0]
        else:
            right = diags[1] if len(diags) > 1 else DiagonalMatrix(np.ones(sp.shape[1]))
        return sddmm_diag_scale(sp, left, right)
    if p == "diag_mul":
        a, b = args
        return DiagonalMatrix(a.diag * b.diag)
    if p == "spadd_diag":
        descs = step.arg_descs
        sparse_idx = next(i for i, d in enumerate(descs) if d.is_sparse_matrix)
        sp = args[sparse_idx]
        dg = args[1 - sparse_idx]
        return spadd_diag(sp, dg.diag)
    if p == "spgemm":
        from ..kernels import spgemm as k_spgemm

        return k_spgemm(args[0], args[1])
    if p == "row_broadcast":
        d, x = args
        if mode == "tensor":
            return t_row_broadcast(d.diag, _as_tensor(x))
        return row_broadcast(d.diag, _as_numpy(x))
    if p == "elementwise":
        if step.meta == "add" or len(args) > 1:
            total = args[0]
            for other in args[1:]:
                total = total + other
            return total
        return _apply_nonlinear(step.meta, args[0], mode)
    if p == "attention":
        if binding.attention_fn is None:
            raise RuntimeError("plan needs an attention_fn in its binding")
        pattern, theta = args
        return binding.attention_fn(pattern, theta, mode)
    if p == "fused_attn_spmm":
        if binding.fused_attention_fn is None:
            raise RuntimeError("plan needs a fused_attention_fn in its binding")
        pattern, theta, value = args
        return binding.fused_attention_fn(pattern, theta, value, mode)
    raise KeyError(f"no executor for primitive {p!r}")


_NONLINEAR_NUMPY = {"relu": relu, "elu": elu, "leaky_relu": leaky_relu, "sigmoid": sigmoid}
_NONLINEAR_TENSOR = {"relu": t_relu, "elu": t_elu, "leaky_relu": t_leaky_relu}


def _apply_nonlinear(name: str, value, mode: str):
    if mode == "tensor":
        try:
            return _NONLINEAR_TENSOR[name](_as_tensor(value))
        except KeyError:
            raise KeyError(f"no tensor nonlinearity {name!r}") from None
    try:
        return _NONLINEAR_NUMPY[name](_as_numpy(value))
    except KeyError:
        raise KeyError(f"no numpy nonlinearity {name!r}") from None


def _as_numpy(value) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
