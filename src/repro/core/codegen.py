"""Code generation for promoted candidates (paper §IV-D).

``compile_model`` runs the whole offline stage for one model: IR build →
rewrite → enumeration → pruning → lowering to :class:`Plan` objects, all
cached per (model, hyper-parameters) so the compilation cost is paid
once.  The resulting :class:`CompiledModel` is the conditional program of
Figure 7 in object form:

- plans viable in only one embedding-size scenario are guarded by the
  cheap ``in_size >= out_size`` condition;
- plans viable in both scenarios are left for the online cost models.

``emit_python_source`` renders the same dispatch structure as readable
Python source, mirroring the paper's generated conditional code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .assoc import Candidate, Step, enumerate_candidates
from .ir import IRNode
from .modelir import build_model_ir
from .pruning import prune_candidates
from .plan import Plan
from .rewrite import rewrite_variants
from .rules import Operand

__all__ = [
    "PlannedCandidate",
    "CompiledModel",
    "cached_model",
    "compile_model",
    "fuse_attention_candidates",
    "plan_tags",
    "select_default_plan",
    "emit_python_source",
    "clear_compile_cache",
]


def fuse_attention_candidates(candidates: Sequence[Candidate]) -> List[Candidate]:
    """Peephole fusion pass: attention followed by aggregation → one kernel.

    For every candidate where an ``spmm`` consumes an ``attention``
    result, emit an additional candidate with the pair replaced by the
    FusedMM-style ``fused_attn_spmm`` primitive.  Fused and unfused
    variants both enter the pool; the cost models pick per input (fusion
    saves the materialised α and two launches, but forfeits α reuse).
    """
    fused: List[Candidate] = []
    for candidate in candidates:
        steps = set(candidate.steps)
        attn = next((s for s in steps if s.primitive == "attention"), None)
        if attn is None:
            continue
        consumer = next(
            (
                s for s in steps
                if s.primitive == "spmm" and s.args[0] == attn.out
            ),
            None,
        )
        if consumer is None:
            continue
        pattern_desc, theta_desc = attn.arg_descs
        value_desc = consumer.arg_descs[1]
        out_ref = f"fused_attn_spmm({attn.args[0]},{attn.args[1]},{consumer.args[1]})"
        out_desc = Operand(
            out_ref, "dense", "data",
            (pattern_desc.shape[0], value_desc.shape[1]),
        )
        fused_step = Step(
            out=out_ref,
            primitive="fused_attn_spmm",
            args=(attn.args[0], attn.args[1], consumer.args[1]),
            arg_descs=(pattern_desc, theta_desc, value_desc),
            out_desc=out_desc,
        )
        new_steps = {s for s in steps if s not in (attn, consumer)}
        # rewire consumers of the old spmm output onto the fused output
        rewired = set()
        for step in new_steps:
            if consumer.out in step.args:
                new_args = tuple(
                    out_ref if a == consumer.out else a for a in step.args
                )
                step = Step(
                    out=step.out, primitive=step.primitive, args=new_args,
                    arg_descs=step.arg_descs, out_desc=step.out_desc,
                    meta=step.meta,
                )
            rewired.add(step)
        rewired.add(fused_step)
        output = out_ref if candidate.output == consumer.out else candidate.output
        fused.append(Candidate(frozenset(rewired), output))
    return fused


@dataclass
class PlannedCandidate:
    """A promoted candidate, lowered, with its viability annotation."""

    plan: Plan
    scenarios: Tuple[str, ...]
    tags: Dict[str, str]

    @cached_property
    def label(self) -> str:
        if "gat" in self.tags:
            return self.tags["gat"]
        parts = [self.tags.get("norm", ""), self.tags.get("order", "")]
        return ":".join(p for p in parts if p)


def plan_tags(plan: Plan) -> Dict[str, str]:
    """Classify a plan for human-readable labels and baseline lookup.

    - ``norm``: 'precompute' when graph-only sparse setup exists (Ñ or B),
      'dynamic' otherwise.
    - ``order``: 'update_first' when some aggregation consumes a
      weight-dependent operand, 'agg_first' otherwise.
    - ``gat``: 'reuse' / 'recompute' by the number of weight GEMMs.
    """
    tags: Dict[str, str] = {}
    tags["norm"] = "precompute" if plan.setup_steps else "dynamic"

    weight_tainted: Dict[str, bool] = {}

    def tainted(ref: str) -> bool:
        if ref in weight_tainted:
            return weight_tainted[ref]
        return ref.startswith("W")

    update_first = False
    for step in plan.steps:
        arg_taints = [tainted(a) for a in step.args]
        weight_tainted[step.out] = any(arg_taints)
        if step.primitive in ("spmm", "spmm_unweighted"):
            dense_arg_idx = 1
            if arg_taints[dense_arg_idx]:
                update_first = True
    tags["order"] = "update_first" if update_first else "agg_first"

    has_attention = any(s.primitive == "attention" for s in plan.steps)
    fused = next(
        (s for s in plan.steps if s.primitive == "fused_attn_spmm"), None
    )
    if has_attention or fused is not None:
        weight_gemms = sum(
            1
            for s in plan.steps
            if s.primitive == "gemm" and any(a.startswith("W") for a in s.args)
        )
        mode = "reuse" if weight_gemms <= 1 else "recompute"
        tags["gat"] = f"fused_{mode}" if fused is not None else mode
    return tags


@dataclass
class CompiledModel:
    """The offline stage's output for one model."""

    model_name: str
    ir_variants: List[IRNode]
    enumerated_count: int
    promoted: List[PlannedCandidate]
    all_candidates: List[Candidate]

    @property
    def pruned_count(self) -> int:
        return self.enumerated_count - len(self.promoted)

    def viable(self, in_size: int, out_size: int) -> List[PlannedCandidate]:
        scenario = "in_ge_out" if in_size >= out_size else "in_lt_out"
        return [p for p in self.promoted if scenario in p.scenarios]

    def find(self, **tags: str) -> List[PlannedCandidate]:
        """Promoted plans matching all the given tag values."""
        out = []
        for planned in self.promoted:
            if all(planned.tags.get(k) == v for k, v in tags.items()):
                out.append(planned)
        return out


_COMPILE_CACHE: Dict[Tuple, CompiledModel] = {}


def _compile_key(name: str, fusion: bool, spgemm: bool, model_kwargs) -> Tuple:
    return (name.lower(), fusion, spgemm, tuple(sorted(model_kwargs.items())))


def cached_model(
    name: str, fusion: bool = False, spgemm: bool = False, **model_kwargs
) -> Optional[CompiledModel]:
    """What :func:`compile_model` has cached for these arguments, if anything.

    Lets a caller that would have to *produce* an IR (parse a ``forward``)
    skip doing so when the result would be discarded on a cache hit.
    """
    return _COMPILE_CACHE.get(_compile_key(name, fusion, spgemm, model_kwargs))


def compile_model(
    name: str,
    ir: Optional[IRNode] = None,
    fusion: bool = False,
    spgemm: bool = False,
    **model_kwargs,
) -> CompiledModel:
    """Run the offline compilation stage (cached).

    ``ir`` may supply a frontend-parsed IR for the model; the tests assert
    parsed and direct-built IRs yield identical candidate sets, so the
    cache key ignores the IR's provenance.

    Two extension switches (both off by default, matching the paper's
    §VI-B composition counts): ``fusion`` adds FusedMM-style fused
    attention variants; ``spgemm`` admits sparse·sparse associations so
    propagation powers (SGC's Ñ², APPNP's hops) can be materialised as
    one-time setup.
    """
    key = _compile_key(name, fusion, spgemm, model_kwargs)
    if key in _COMPILE_CACHE:
        return _COMPILE_CACHE[key]
    if ir is None:
        ir = build_model_ir(name, **model_kwargs)
    variants = rewrite_variants(ir)
    candidates = enumerate_candidates(variants, allow_spgemm=spgemm)
    if fusion:
        candidates = candidates + fuse_attention_candidates(candidates)
    promoted_raw = prune_candidates(candidates)
    promoted = []
    for pc in promoted_raw:
        plan = Plan(pc.candidate, name=f"{name}:{len(promoted)}", steps=pc.steps)
        promoted.append(PlannedCandidate(plan, pc.scenarios, plan_tags(plan)))
    compiled = CompiledModel(
        model_name=name.lower(),
        ir_variants=variants,
        enumerated_count=len(candidates),
        promoted=promoted,
        all_candidates=candidates,
    )
    _COMPILE_CACHE[key] = compiled
    return compiled


def clear_compile_cache() -> None:
    _COMPILE_CACHE.clear()


def compile_plan(plan: Plan) -> Plan:
    """Kept only for ``bench/harness/probes.py``, which times this call
    and :func:`clear_plan_compile_cache`; a plan runs as its own steps,
    so there is nothing to lower and the plan comes back unchanged."""
    return plan


def clear_plan_compile_cache() -> None:
    """No-op: :func:`compile_plan` caches nothing."""


def select_default_plan(
    compiled: CompiledModel, system, in_size: int, out_size: int
) -> PlannedCandidate:
    """The baseline system's fixed default composition for this model.

    Encodes each system's shipped behaviour (§VI-B): dynamic
    normalization, GEMM placement per the system's per-model reordering
    policy, and the system's GAT reuse/recompute policy.
    """
    name = compiled.model_name
    if name == "gat":
        recompute = system.default_gat_recompute(in_size, out_size)
        matches = compiled.find(gat="recompute" if recompute else "reuse")
        if matches:
            return matches[0]
        matches = compiled.find(gat="reuse")
        return matches[0]
    gemm_first = system.default_gemm_first(name, in_size, out_size)
    order = "update_first" if gemm_first else "agg_first"
    matches = compiled.find(norm="dynamic", order=order)
    if not matches:
        matches = compiled.find(norm="dynamic")
    if not matches:  # pragma: no cover - defensive
        matches = compiled.promoted
    # Among equal tags prefer the plan with the most primitives matching a
    # naive execution (i.e. the largest step count — no hidden fusions).
    return max(matches, key=lambda p: len(p.plan.steps))


def emit_python_source(compiled: CompiledModel) -> str:
    """Readable Python for the conditional dispatch (Figure 7)."""
    lines: List[str] = [
        f"def run_{compiled.model_name}(graph, feat, in_size, out_size, cost_models):",
        '    """GRANII-generated conditional execution."""',
    ]
    only_ge = [p for p in compiled.promoted if p.scenarios == ("in_ge_out",)]
    only_lt = [p for p in compiled.promoted if p.scenarios == ("in_lt_out",)]
    both = [p for p in compiled.promoted if len(p.scenarios) == 2]

    def plan_call(p: PlannedCandidate) -> str:
        return f"execute_plan({p.plan.name!r}, graph, feat)  # {p.label}"

    lines.append("    if in_size >= out_size:")
    lines.extend(_branch_lines(only_ge + both, plan_call, indent="        "))
    lines.append("    else:")
    lines.extend(_branch_lines(only_lt + both, plan_call, indent="        "))
    return "\n".join(lines) + "\n"


def _branch_lines(plans, plan_call, indent: str) -> List[str]:
    if not plans:
        return [indent + "raise RuntimeError('no viable composition')"]
    if len(plans) == 1:
        return [indent + "return " + plan_call(plans[0])]
    lines = [indent + "costs = {"]
    for p in plans:
        lines.append(indent + f"    {p.plan.name!r}: cost_models.plan_cost({p.plan.name!r}, graph),")
    lines.append(indent + "}")
    lines.append(indent + "best = min(costs, key=costs.get)")
    for p in plans:
        lines.append(indent + f"if best == {p.plan.name!r}:")
        lines.append(indent + "    return " + plan_call(p))
    lines.append(indent + "raise RuntimeError('unreachable')")
    return lines

