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

The calls are compiled once per plan, on its first pricing, into a
template whose dims are still symbolic (``N``/``E``/``K1``/``K2``/``E@k``)
and whose price-key layout is fixed; each shape env evaluates the
template once into a :class:`CallView` (calls, price keys, SpMM subset,
peak-memory bytes), and a plan keeps the views of the envs it priced most
recently.  Neither rides along when a plan is pickled.  A
:class:`PriceIndex` interns several plans' views of one env so that a
selection prices each distinct call once and totals every plan's calls in
one array pass.

Classification policy: a step is *setup* iff all its transitive inputs
are graph leaves (adjacency, degree diagonal, ε) **and** it produces a
sparse result — i.e. it materialises a reusable sparse matrix.  Dynamic
normalization's broadcasts and degree reads stay per-iteration, exactly
as message-passing frameworks execute them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
from ..kernels.registry import dispatch_kernel, get_primitive, transient_bytes
from ..sparse import CSRMatrix, DiagonalMatrix
from ..tensor import Tensor
from ..tensor import elu as t_elu
from ..tensor import leaky_relu as t_leaky_relu
from ..tensor import relu as t_relu
from ..tensor import row_broadcast as t_row_broadcast
from ..tensor import sigmoid as t_sigmoid
from ..tensor import spmm as t_spmm
from ..tensor import spmm_edge as t_spmm_edge
from .assoc import Candidate, Step
from .ir import Dim, ShapeEnv, env_key

__all__ = [
    "CallList",
    "CallView",
    "EdgeSparse",
    "KernelExecutionConfig",
    "LayerBinding",
    "Plan",
    "PriceIndex",
    "price_index",
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
    :data:`~repro.kernels.blocked.DEFAULT_BLOCK_NNZ` sizes its tiles.
    In tensor mode the config steers the *forward* aggregation only —
    backward SpMMs run the fold (see :mod:`repro.tensor.sparse_ops`).
    """

    strategy: str = "row_segment"


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


def _value_bytes(desc, sizes: "_Sizes") -> float:
    if desc.attr == "dense":
        return 8.0 * sizes[desc.shape[0]] * sizes[desc.shape[1]]
    if desc.is_diagonal:
        return 8.0 * sizes[desc.shape[0]]
    # CSR: values + column indices + row pointer
    return 16.0 * sizes[desc.nnz] + 8.0 * sizes[desc.shape[0]]


# Shape envs one plan keeps resolved calls (and price indexes) for, least
# recently priced dropped first: the bound of the cost models' price memo
# (``costmodel._PRICED_VECTORS``).  Compiled plans live as long as the
# process, so without a bound every never-seen graph size would add a
# view to every plan it prices, forever.
_VIEWS_KEPT = 128
# Guards every per-env table (plan views, price indexes) for a lookup, a
# reorder, an insert and an eviction; nothing is computed under it.
_VIEWS_LOCK = threading.Lock()


def kept(table: "OrderedDict", key, build: Callable[[], object]):
    """``table[key]``, built by ``build()`` outside the lock when missing;
    ``table`` keeps the :data:`_VIEWS_KEPT` entries used most recently."""
    with _VIEWS_LOCK:
        entry = table.get(key)
        if entry is not None:
            table.move_to_end(key)
            return entry
    entry = build()
    with _VIEWS_LOCK:
        entry = table.setdefault(key, entry)  # another thread may have won
        table.move_to_end(key)
        while len(table) > _VIEWS_KEPT:
            table.popitem(last=False)
    return entry


class _Sizes(dict):
    """One shape env's sizes, each dim resolved on first use."""

    __slots__ = ("env",)

    def __init__(self, env) -> None:
        super().__init__()
        self.env = ShapeEnv(env)

    def __missing__(self, dim) -> int:
        size = self[dim] = _resolve(self.env, dim)
        return size


class _CallSpec(NamedTuple):
    """One kernel call of a plan with its dims still symbolic.

    The shape entries are kept in name order, the order
    :func:`~repro.core.costmodel.call_key` sorts them into, so a resolved
    call's price key is its shape's items as built: no sort.
    """

    primitive: str
    tag: str
    names: Tuple[str, ...]
    dims: Tuple[Dim, ...]

    @classmethod
    def of(cls, primitive: str, tag: str, **dims: Dim) -> "_CallSpec":
        get_primitive(primitive)  # validated once, when the template is built
        names = tuple(sorted(dims))
        return cls(primitive, tag, names, tuple(dims[name] for name in names))

    def key(self, sizes: _Sizes) -> tuple:
        """The price key under one env's sizes."""
        items = tuple(zip(self.names, map(sizes.__getitem__, self.dims)))
        return (self.primitive, items)

    def call(self, key: tuple) -> KernelCall:
        """The call whose price key is ``key`` (from :meth:`key`)."""
        return KernelCall(self.primitive, dict(key[1]), tag=self.tag)

    def resolve(self, sizes: _Sizes) -> Tuple[tuple, KernelCall]:
        """``(price key, call)`` under one env's sizes."""
        key = self.key(sizes)
        return key, self.call(key)


class CallList(NamedTuple):
    """Resolved kernel calls and their price keys, position for position
    (each key is :func:`~repro.core.costmodel.call_key` of its call)."""

    calls: List[KernelCall]
    keys: List[tuple]


def _call_list(pairs: Sequence[tuple]) -> CallList:
    """The :class:`CallList` of ``(price key, call or spec)`` pairs."""
    return CallList(
        [call if type(call) is KernelCall else call.call(key) for key, call in pairs],
        [key for key, _ in pairs],
    )


class _CallTemplate:
    """A plan's kernel calls with symbolic dims, derived once per plan.

    Built on the plan's first pricing and evaluated once per shape env
    into a :class:`CallView`.
    """

    def __init__(self, plan: "Plan") -> None:
        self.steps = plan.steps
        self.step_calls = [plan._step_calls(step) for step in plan.steps]
        setup_outs = plan._setup_outs
        self.setup = [i for i, s in enumerate(plan.steps) if s.out in setup_outs]
        self.iteration = [
            i for i, s in enumerate(plan.steps) if s.out not in setup_outs
        ]
        # graph leaves the degree pass prepares, and whether it runs per
        # iteration (a leaf an iteration step reads) or once in setup
        used_by_iter = {a for s in plan.iteration_steps for a in s.args}
        used_at_all = {a for s in plan.steps for a in s.args}
        self.prep_leaves = [
            (leaf, leaf in used_by_iter)
            for leaf in ("D", "Dm", "Ds") if leaf in used_at_all
        ]
        self._prep: Dict[str, Tuple[List[_CallSpec], List[_CallSpec]]] = {}
        self.backward = self._backward_specs(plan)
        # liveness for the peak-memory walk
        self.last_use: Dict[str, int] = {}
        leaf_descs = {}
        for i, step in enumerate(plan.steps):
            for arg, desc in zip(step.args, step.arg_descs):
                self.last_use[arg] = i
                leaf_descs[arg] = desc
        self.leaf_descs = {
            ref: desc for ref, desc in leaf_descs.items() if "(" not in ref
        }

    def _backward_specs(self, plan: "Plan") -> List[_CallSpec]:
        """Per-iteration gradient kernels induced by the forward plan."""
        specs: List[_CallSpec] = []
        for i in self.iteration:
            step = plan.steps[i]
            p = step.primitive
            # gemm: dA = dY·B^T and dB = A^T·dY; spmm: dX = A^T·dY;
            # attention: softmax backward + logit scatter + score GEMV grads
            copies = 2 if p == "gemm" else 1
            for spec in self.step_calls[i]:
                specs.extend([spec._replace(tag=f"bwd:{spec.tag}")] * copies)
            if p in _SPMM_SEMIRINGS:
                # plus dE (an SDDMM) when the sparse operand itself
                # carries gradients (attention values)
                sp = step.arg_descs[0]
                if not plan._graph_only.get(sp.ref, sp.ref in GRAPH_LEAVES):
                    specs.append(_CallSpec.of(
                        "sddmm", f"bwd:{step.out}:dedge",
                        m=sp.shape[0], nnz=sp.nnz, k=step.arg_descs[1].shape[1],
                    ))
        return specs

    def prep(self, degree_method: str) -> Tuple[List[_CallSpec], List[_CallSpec]]:
        """(setup, per-iteration) preparation calls for graph leaves."""
        prep = self._prep.get(degree_method)
        if prep is None:
            setup: List[_CallSpec] = []
            per_iter: List[_CallSpec] = []
            for leaf, in_iter in self.prep_leaves:
                (per_iter if in_iter else setup).extend((
                    _CallSpec.of(
                        f"degree_{degree_method}", f"prep:{leaf}:degree",
                        m="N", nnz="E",
                    ),
                    _CallSpec.of("elementwise", f"prep:{leaf}:pow", m="N", k=1),
                ))
            prep = self._prep[degree_method] = (setup, per_iter)
        return prep

    def peak_bytes(self, sizes: _Sizes, step_calls) -> float:
        """The liveness walk of :meth:`Plan.peak_memory_bytes`."""
        live: Dict[str, float] = {
            ref: _value_bytes(desc, sizes) for ref, desc in self.leaf_descs.items()
        }
        peak = total = sum(live.values())
        for i, step in enumerate(self.steps):
            workspace = 0.0
            for _, call in step_calls[i]:
                workspace += transient_bytes(call.primitive, call.shape)
            out_bytes = _value_bytes(step.out_desc, sizes)
            total += out_bytes
            peak = max(peak, total + workspace)
            # free intermediates whose last consumer is this step
            for arg in step.args:
                if "(" in arg and self.last_use.get(arg) == i and arg in live:
                    total -= live.pop(arg)
            live[step.out] = out_bytes
        return peak


class CallView:
    """One plan's kernel calls resolved under one shape env.

    Holds what selection reads: the forward setup and per-iteration calls
    (per degree method) and the backward calls, each with its calls'
    price keys, and the peak-memory estimate.  The per-step calls are
    resolved when the view is built, everything else on first use.
    """

    def __init__(self, template: _CallTemplate, env) -> None:
        self._template = template
        self._sizes = _Sizes(env)
        self._steps = [
            [spec.resolve(self._sizes) for spec in specs]
            for specs in template.step_calls
        ]
        self._forward: Dict[str, Tuple[CallList, CallList]] = {}
        self._backward: Optional[CallList] = None
        self._peak: Optional[float] = None

    def pairs(self, degree_method: str) -> Tuple[List[tuple], List[tuple]]:
        """(setup, per-iteration) calls of the forward pass as ``(price
        key, call or spec)`` pairs, in call order: a degree-pass call is
        still its spec.  The one listing of the forward calls, which
        :meth:`forward` resolves and a :class:`PriceIndex` interns."""
        t, sizes = self._template, self._sizes
        prep_setup, prep_iter = t.prep(degree_method)
        setup = [(spec.key(sizes), spec) for spec in prep_setup]
        setup.extend(pair for i in t.setup for pair in self._steps[i])
        per_iter = [(spec.key(sizes), spec) for spec in prep_iter]
        per_iter.extend(pair for i in t.iteration for pair in self._steps[i])
        return setup, per_iter

    def backward_pairs(self) -> List[tuple]:
        """The per-iteration gradient calls as ``(price key, spec)``
        pairs, in call order: what :attr:`backward` resolves."""
        return [(spec.key(self._sizes), spec) for spec in self._template.backward]

    def forward(self, degree_method: str = "indptr") -> Tuple[CallList, CallList]:
        """(setup, per-iteration) calls of the forward pass."""
        fwd = self._forward.get(degree_method)
        if fwd is None:
            setup, per_iter = self.pairs(degree_method)
            fwd = self._forward[degree_method] = (
                _call_list(setup), _call_list(per_iter)
            )
        return fwd

    @property
    def backward(self) -> CallList:
        """Per-iteration gradient calls."""
        if self._backward is None:
            self._backward = _call_list(self.backward_pairs())
        return self._backward

    @property
    def peak_bytes(self) -> float:
        """Liveness-based peak resident bytes of one forward execution."""
        if self._peak is None:
            self._peak = self._template.peak_bytes(self._sizes, self._steps)
        return self._peak


def _slot_matrix(rows: Sequence[List[int]]) -> np.ndarray:
    """Rows of slots, right-padded with slot 0, at least one column wide."""
    width = max(1, max(map(len, rows), default=0))
    return np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.intp)


class PriceIndex:
    """Several plans' calls under one shape env, each distinct price key
    interned once.

    Every distinct key of the plans' forward calls (one degree method)
    and, when ``training``, of their backward calls gets a *slot*
    (``slots``); slot 0 is padding and prices 0.0.  Each call list is a
    row of slots, padded on the right, in one matrix of ``blocks`` row
    blocks of one row per plan (per-iteration lists, setup lists, then
    backward lists), so one vector of per-slot seconds totals every list
    at once: ``np.cumsum(seconds[matrix], axis=1)[:, -1]`` adds left to
    right, as pricing call by call does, and each pad adds +0.0.  Nothing
    here is keyed by graph.
    """

    def __init__(
        self,
        plans: Sequence["Plan"],
        env: ShapeEnv,
        key: Tuple,
        degree_method: str,
        training: bool,
    ) -> None:
        self.views = [plan.call_view(env, key) for plan in plans]
        self.keys: List[Optional[tuple]] = [None]
        self.calls: List[Optional[KernelCall]] = [None]
        self.slots: Dict[tuple, int] = {}
        self.blocks = 3 if training else 2
        blocks: List[List[List[int]]] = [[] for _ in range(self.blocks)]
        for view in self.views:
            setup, per_iter = view.pairs(degree_method)
            lists = [per_iter, setup]
            if training:
                lists.append(view.backward_pairs())
            for block, pairs in zip(blocks, lists):
                block.append(self._intern(pairs))
        self.matrix = _slot_matrix([row for block in blocks for row in block])

    def _intern(self, pairs: Sequence[tuple]) -> List[int]:
        """Slots of ``(key, call or spec)`` pairs; a new key's spec is
        made its call here."""
        slots, keys, calls = self.slots, self.keys, self.calls
        row = []
        for key, call in pairs:
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(keys)
                keys.append(key)
                calls.append(call if type(call) is KernelCall else call.call(key))
            row.append(slot)
        return row


def price_index(
    plans: Sequence["Plan"],
    env: ShapeEnv,
    key: Optional[Tuple],
    degree_method: str,
    training: bool,
) -> PriceIndex:
    """The :class:`PriceIndex` of ``plans`` under ``env`` (``key``: its
    env key, if known), kept with the first plan's views: bounded like
    them and forgotten by its :meth:`Plan.clear_memos`."""
    if key is None:
        key = env_key(env)
    plans = tuple(plans)
    return kept(
        plans[0]._indexes, (plans, key, degree_method, training),
        lambda: PriceIndex(plans, env, key, degree_method, training),
    )


class Plan:
    """One lowered candidate."""

    def __init__(
        self,
        candidate: Candidate,
        name: str = "",
        steps: Optional[List[Step]] = None,
    ) -> None:
        """``steps`` is ``candidate.ordered_steps()`` when the caller has
        computed it already (compile: pruning's order)."""
        self.candidate = candidate
        self.name = name or candidate.output[:60]
        self.steps: List[Step] = (
            candidate.ordered_steps() if steps is None else steps
        )
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
        self.clear_memos()

    def clear_memos(self) -> None:
        """Forget everything derived from the plan on demand: the call
        template, the per-env views, the price indexes it heads
        (:func:`price_index`), and planlint's env-free verdicts (per
        strategy tuple; see ``repro.analysis.planlint.analyze_plan``)."""
        self._template: Optional[_CallTemplate] = None
        self._views: "OrderedDict[Tuple, CallView]" = OrderedDict()
        self._indexes: "OrderedDict[Tuple, PriceIndex]" = OrderedDict()
        self._verdicts: Dict[Tuple[str, ...], object] = {}

    def __getstate__(self):
        # the memos are rebuilt on demand: none rides in a snapshot
        state = self.__dict__.copy()
        for name in ("_template", "_views", "_indexes", "_verdicts"):
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.clear_memos()

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
    def _step_calls(self, step: Step) -> List[_CallSpec]:
        p = step.primitive
        descs = step.arg_descs
        out = step.out_desc
        n_rows = out.shape[0]
        if p == "gemm":
            a, b = descs
            return [_CallSpec.of(
                "gemm", step.out, m=a.shape[0], k=a.shape[1], n=b.shape[1]
            )]
        if p in ("spmm", "spmm_unweighted"):
            sp, dn = descs
            return [_CallSpec.of(
                p, step.out, m=sp.shape[0], nnz=sp.nnz, k=dn.shape[1]
            )]
        if p == "sddmm_diag":
            sp = next(d for d in descs if d.is_sparse_matrix)
            return [_CallSpec.of("sddmm_diag", step.out, m=n_rows, nnz=sp.nnz)]
        if p == "diag_mul":
            return [_CallSpec.of("diag_mul", step.out, m=n_rows)]
        if p == "spadd_diag":
            sp = next(d for d in descs if d.is_sparse_matrix)
            return [_CallSpec.of("spadd_diag", step.out, m=n_rows, nnz=sp.nnz)]
        if p == "spgemm":
            lhs, rhs = descs
            return [_CallSpec.of(
                "spgemm", step.out,
                m=n_rows, nnz=lhs.nnz, nnz_rhs=rhs.nnz, nnz_out=out.nnz,
            )]
        if p == "row_broadcast":
            _, dn = descs
            return [_CallSpec.of(
                "row_broadcast", step.out, m=dn.shape[0], k=dn.shape[1]
            )]
        if p == "elementwise":
            k_cols = out.shape[1] if out.attr == "dense" else 1
            copies = max(1, len(descs) - 1)
            return [_CallSpec.of("elementwise", step.out, m=n_rows, k=k_cols)] * copies
        if p == "attention":
            pattern, theta = descs
            n, nnz, k = pattern.shape[0], pattern.nnz, theta.shape[1]
            return [
                _CallSpec.of("gemm", f"{step.out}:score_l", m=n, k=k, n=1),
                _CallSpec.of("gemm", f"{step.out}:score_r", m=n, k=k, n=1),
                _CallSpec.of("gsddmm_attn", f"{step.out}:logits", m=n, nnz=nnz),
                _CallSpec.of("edge_softmax", f"{step.out}:softmax", m=n, nnz=nnz),
            ]
        if p == "fused_attn_spmm":
            pattern, theta, value = descs
            n, nnz = pattern.shape[0], pattern.nnz
            # the per-node attention scores stay as two thin GEMVs; the
            # logits + softmax + aggregation run as one fused kernel
            return [
                _CallSpec.of("gemm", f"{step.out}:score_l", m=n, k=theta.shape[1], n=1),
                _CallSpec.of("gemm", f"{step.out}:score_r", m=n, k=theta.shape[1], n=1),
                _CallSpec.of(
                    "fused_attn_spmm", f"{step.out}:fused",
                    m=n, nnz=nnz, k=value.shape[1],
                ),
            ]
        raise KeyError(f"no kernel expansion for primitive {p!r}")

    def call_view(self, env: ShapeEnv, key: Optional[Tuple] = None) -> CallView:
        """This plan's calls under ``env``; ``key`` is ``env_key(env)``
        when the caller already has it.

        The template is derived on the first call, and one view is kept
        per env for the :data:`_VIEWS_KEPT` envs priced most recently.
        """
        if key is None:
            key = env_key(env)
        return kept(self._views, key, lambda: CallView(self._call_template(), env))

    def _call_template(self) -> _CallTemplate:
        template = self._template
        if template is None:
            template = self._template = _CallTemplate(self)
        return template

    def kernel_calls(
        self, env: ShapeEnv, degree_method: str = "indptr"
    ) -> Tuple[List[KernelCall], List[KernelCall]]:
        """(setup_calls, per_iteration_calls) of the forward pass."""
        setup, per_iter = self.call_view(env).forward(degree_method)
        return setup.calls, per_iter.calls

    def backward_calls(self, env: ShapeEnv) -> List[KernelCall]:
        """Per-iteration gradient kernels induced by this forward plan."""
        return self.call_view(env).backward.calls

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def peak_memory_bytes(self, env: ShapeEnv) -> float:
        """Liveness-based peak resident bytes of one forward execution.

        Counts leaf inputs, intermediate results (freed after their last
        consumer), and per-step transient workspace (this substrate's
        SpMM/SDDMM materialise per-edge messages; the fused attention
        kernel notably does not — part of fusion's appeal).  The paper's
        Figure 8 leaves cells empty where baselines ran out of memory;
        this estimate is what lets the runtime select around such cells.
        """
        return self.call_view(env).peak_bytes

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
        for step in self.steps:
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
        strategy = "row_segment" if kernel_config is None else kernel_config.strategy
        if isinstance(sp, EdgeSparse):
            if mode == "tensor":
                return t_spmm_edge(
                    sp.pattern, sp.values, _as_tensor(dn), strategy=strategy
                )
            sp = sp.pattern.with_values(sp.values.data)
            p = "spmm"
        elif mode == "tensor":
            return t_spmm(sp, _as_tensor(dn), strategy=strategy)
        if kernel_config is not None:
            return gspmm(
                sp,
                _as_numpy(dn),
                get_semiring(*_SPMM_SEMIRINGS[p]),
                strategy=strategy,
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
_NONLINEAR_TENSOR = {
    "relu": t_relu, "elu": t_elu, "leaky_relu": t_leaky_relu, "sigmoid": t_sigmoid
}


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
