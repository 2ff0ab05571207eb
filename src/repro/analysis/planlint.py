"""planlint: abstract interpretation over lowered GRANII plans.

The enumerator (``repro.core.assoc``) *declares* a result description
for every step it emits; nothing before this module ever checked those
declarations.  The interpreter here re-derives each step's result from
the rule table's semantics under the abstract domains of
:mod:`repro.analysis.domains` — symbolic shapes, the sparsity-structure
lattice, symbolic nnz upper bounds — and reports any disagreement, plus
the structural hazards a declaration cannot express:

- ``undefined-ref`` / ``ssa-violation`` / ``dead-step`` /
  ``missing-output`` — dataflow integrity of the step DAG;
- ``inplace-alias`` — a step whose output aliases one of its inputs,
  which would corrupt the autograd tape's saved activations;
- ``leaf-desc-inconsistent`` — the same leaf used under two different
  descriptions (the classic dropped-transpose bug);
- ``shape-mismatch`` / ``operand-attr-mismatch`` /
  ``result-shape-mismatch`` / ``result-attr-mismatch`` /
  ``stale-nnz-bound`` — rule-table disagreements;
- ``workspace-leak`` / ``workspace-double-use`` — the
  :class:`~repro.kernels.workspace.WorkspaceArena` acquire/release
  protocol, checked over *both* the normal and the exception edge of
  every blocked-strategy kernel step.

Verdicts are :class:`PlanVerdict` records: proved facts, residual
obligations (properties that remain runtime checks), and diagnostics.
``repro.core.pruning.prune_candidates`` rejects candidates whose verdict
has error diagnostics before cost modeling; the guarded executor skips
runtime re-checks of facts proved here (see ``SelectionReport.analysis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.assoc import Candidate, Step
from ..core.ir import ShapeEnv, dims_compatible
from ..errors import GraniiAnalysisError
from ..kernels.spmm import SPMM_STRATEGIES, spmm_strategy
from .domains import (
    AbstractMatrix,
    compose_product_nnz,
    from_operand,
    join_structure,
    nnz_leq,
    plus_diag_nnz,
    structure_of,
)

__all__ = [
    "Diagnostic",
    "FusionReport",
    "FusionSegmentSpec",
    "PlanVerdict",
    "analyze_candidate",
    "analyze_plan",
    "analysis_env_key",
    "fusion_legality",
    "reject_illegal",
    "workspace_trace",
    "check_workspace_trace",
]

# Primitives the strategy table's rows execute, scratch and all.
WORKSPACE_PRIMITIVES = ("spmm", "spmm_unweighted")

# Unary element-wise metas the fused epilogue can replay bit-identically
# (mirrors repro.kernels.compiled.FUSABLE_NONLINEARS; kept literal here so
# the analysis layer never imports kernel code).
FUSABLE_NONLINEAR_METAS = ("relu", "leaky_relu", "elu", "sigmoid")


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding. ``severity`` is 'error' or 'warning'."""

    rule: str
    message: str
    step: str = ""  # offending step signature, if any
    severity: str = "error"

    def describe(self) -> str:
        where = f" [{self.step}]" if self.step else ""
        return f"{self.severity}: {self.rule}: {self.message}{where}"


@dataclass
class PlanVerdict:
    """The analyzer's verdict on one candidate/plan.

    ``proved`` are facts established statically (the guard may skip the
    corresponding runtime checks); ``obligations`` are properties the
    analyzer could *not* discharge and that remain runtime checks.
    ``facts`` carries computed values backing proved facts (e.g. the
    peak-memory estimate under ``env_key``).
    """

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    proved: List[str] = field(default_factory=list)
    obligations: List[str] = field(default_factory=list)
    env_key: Tuple = ()
    facts: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def describe(self) -> str:
        status = "ok" if self.ok else "REJECTED"
        lines = [
            f"planlint {self.target}: {status} "
            f"(proved {len(self.proved)}, obligations {len(self.obligations)})"
        ]
        lines += [f"  {d.describe()}" for d in self.diagnostics]
        lines += [f"  proved: {p}" for p in self.proved]
        lines += [f"  obligation: {o}" for o in self.obligations]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "ok": self.ok,
            "diagnostics": [d.describe() for d in self.diagnostics],
            "proved": list(self.proved),
            "obligations": list(self.obligations),
        }


def analysis_env_key(env: Optional[Dict]) -> Tuple:
    """Canonical hashable key for a shape environment."""
    if not env:
        return ()
    return tuple(sorted((str(k), int(v)) for k, v in env.items()))


# ----------------------------------------------------------------------
# Per-primitive transfer functions
# ----------------------------------------------------------------------
def _err(diags: List[Diagnostic], rule: str, message: str, step: Step) -> None:
    diags.append(Diagnostic(rule, message, step=step.out))


def _check_inner(
    diags: List[Diagnostic], step: Step, left: AbstractMatrix, right: AbstractMatrix
) -> None:
    if not dims_compatible(left.shape[1], right.shape[0]):
        _err(
            diags,
            "shape-mismatch",
            f"contraction mismatch: {left.describe()} · {right.describe()}",
            step,
        )


def _derive(
    step: Step, argvals: Sequence[AbstractMatrix], diags: List[Diagnostic]
) -> Optional[AbstractMatrix]:
    """Re-derive the step's result description from the rule table.

    Returns None when the step is too malformed to produce a result
    (diagnostics explain why); the interpreter then falls back to the
    declared description so analysis can continue downstream.
    """
    p = step.primitive

    def arity(*allowed: int) -> bool:
        if len(argvals) not in allowed:
            _err(
                diags,
                "operand-attr-mismatch",
                f"{p} expects {' or '.join(map(str, allowed))} operands, "
                f"got {len(argvals)}",
                step,
            )
            return False
        return True

    def result(
        attr: str, subattr: str, shape, nnz=None, structure=None
    ) -> AbstractMatrix:
        return AbstractMatrix(
            ref=step.out,
            attr=attr,
            subattr=subattr,
            shape=tuple(shape),
            nnz=nnz,
            structure=structure,
            origin=step.out,
        )

    if p == "gemm":
        if not arity(2):
            return None
        a, b = argvals
        for v in (a, b):
            if not v.is_dense:
                _err(diags, "operand-attr-mismatch",
                     f"gemm needs dense operands, got {v.describe()}", step)
        _check_inner(diags, step, a, b)
        return result("dense", "data", (a.shape[0], b.shape[1]))

    if p in ("spmm", "spmm_unweighted"):
        if not arity(2):
            return None
        a, b = argvals
        want = "unweighted" if p == "spmm_unweighted" else "weighted"
        if not (a.is_sparse_matrix and a.subattr == want):
            _err(diags, "operand-attr-mismatch",
                 f"{p} needs a sparse.{want} matrix, got {a.describe()}", step)
        if not b.is_dense:
            _err(diags, "operand-attr-mismatch",
                 f"{p} needs a dense right operand, got {b.describe()}", step)
        _check_inner(diags, step, a, b)
        return result("dense", "data", (a.shape[0], b.shape[1]))

    if p == "row_broadcast":
        if not arity(2):
            return None
        d, x = argvals
        if not d.is_diagonal:
            _err(diags, "operand-attr-mismatch",
                 f"row_broadcast needs a diagonal, got {d.describe()}", step)
        if not x.is_dense:
            _err(diags, "operand-attr-mismatch",
                 f"row_broadcast needs a dense matrix, got {x.describe()}", step)
        _check_inner(diags, step, d, x)
        return result("dense", "data", (d.shape[0], x.shape[1]))

    if p == "diag_mul":
        if not arity(2):
            return None
        a, b = argvals
        for v in (a, b):
            if not v.is_diagonal:
                _err(diags, "operand-attr-mismatch",
                     f"diag_mul needs diagonals, got {v.describe()}", step)
        _check_inner(diags, step, a, b)
        return result(
            "sparse", "diagonal", (a.shape[0], b.shape[1]),
            nnz=a.shape[0], structure="diagonal",
        )

    if p == "sddmm_diag":
        if not arity(2, 3):
            return None
        sparse = [v for v in argvals if v.is_sparse_matrix]
        diag_count = sum(1 for v in argvals if v.is_diagonal)
        if len(sparse) != 1 or diag_count != len(argvals) - 1:
            _err(diags, "operand-attr-mismatch",
                 "sddmm_diag needs exactly one sparse matrix scaled by "
                 "diagonal(s), got "
                 + ", ".join(v.describe() for v in argvals), step)
            return None
        for left, right in zip(argvals, argvals[1:]):
            _check_inner(diags, step, left, right)
        return result(
            "sparse", "weighted",
            (argvals[0].shape[0], argvals[-1].shape[1]),
            nnz=sparse[0].nnz,
            structure=sparse[0].structure,
        )

    if p == "spadd_diag":
        if not arity(2):
            return None
        sparse = [v for v in argvals if v.is_sparse_matrix]
        diag = [v for v in argvals if v.is_diagonal]
        if len(sparse) != 1 or len(diag) != 1:
            _err(diags, "operand-attr-mismatch",
                 "spadd_diag needs one sparse matrix and one diagonal, got "
                 + ", ".join(v.describe() for v in argvals), step)
            return None
        if not sparse[0].compatible_shape(diag[0].shape):
            _err(diags, "shape-mismatch",
                 f"addition over unequal shapes: {sparse[0].describe()} + "
                 f"{diag[0].describe()}", step)
        return result(
            "sparse", "weighted", sparse[0].shape,
            nnz=plus_diag_nnz(sparse[0].nnz, diag[0].shape[0]),
            structure=join_structure(sparse[0].structure, "diagonal"),
        )

    if p == "spgemm":
        if not arity(2):
            return None
        a, b = argvals
        for v in (a, b):
            if not v.is_sparse_matrix:
                _err(diags, "operand-attr-mismatch",
                     f"spgemm needs sparse matrices, got {v.describe()}", step)
        _check_inner(diags, step, a, b)
        return result(
            "sparse", "weighted", (a.shape[0], b.shape[1]),
            nnz=compose_product_nnz(a.nnz, b.nnz),
            structure=join_structure(a.structure, b.structure),
        )

    if p == "attention":
        if not arity(2):
            return None
        pattern, theta = argvals
        if not pattern.is_sparse_matrix:
            _err(diags, "operand-attr-mismatch",
                 f"attention needs a sparse pattern, got {pattern.describe()}",
                 step)
        if not theta.is_dense:
            _err(diags, "operand-attr-mismatch",
                 f"attention needs dense features, got {theta.describe()}",
                 step)
        _check_inner(diags, step, pattern, theta)
        return result(
            "sparse", "weighted", pattern.shape,
            nnz=pattern.nnz, structure=pattern.structure,
        )

    if p == "fused_attn_spmm":
        if not arity(3):
            return None
        pattern, theta, x = argvals
        if not pattern.is_sparse_matrix:
            _err(diags, "operand-attr-mismatch",
                 f"fused_attn_spmm needs a sparse pattern, got "
                 f"{pattern.describe()}", step)
        for v in (theta, x):
            if not v.is_dense:
                _err(diags, "operand-attr-mismatch",
                     f"fused_attn_spmm needs dense features, got "
                     f"{v.describe()}", step)
        _check_inner(diags, step, pattern, theta)
        _check_inner(diags, step, pattern, x)
        return result("dense", "data", (pattern.shape[0], x.shape[1]))

    if p == "elementwise":
        if step.meta == "add":
            if len(argvals) < 2:
                _err(diags, "operand-attr-mismatch",
                     "elementwise add needs at least two operands", step)
                return None
        elif not arity(1):
            return None
        first = argvals[0]
        structure = first.structure
        for v in argvals[1:]:
            if v.attr != first.attr or not first.compatible_shape(v.shape):
                _err(diags, "shape-mismatch",
                     f"elementwise over unequal operands: {first.describe()} "
                     f"vs {v.describe()}", step)
            structure = join_structure(structure, v.structure)
        return result(
            first.attr, first.subattr, first.shape,
            nnz=first.nnz, structure=structure,
        )

    _err(diags, "unknown-primitive", f"no transfer function for {p!r}", step)
    return None


def _check_declared(
    step: Step, derived: AbstractMatrix, diags: List[Diagnostic],
    obligations: List[str],
) -> None:
    """Compare the enumerator's declared out_desc to the derivation."""
    declared = step.out_desc
    if (declared.attr, declared.subattr) != (derived.attr, derived.subattr):
        _err(diags, "result-attr-mismatch",
             f"declared {declared.attr}.{declared.subattr}, rules derive "
             f"{derived.attr}.{derived.subattr}", step)
    if tuple(declared.shape) != derived.shape:
        if derived.compatible_shape(tuple(declared.shape)):
            obligations.append(
                f"{step.out}: declared shape {declared.shape} only "
                f"resolvable against derived {derived.shape} at runtime"
            )
        else:
            _err(diags, "result-shape-mismatch",
                 f"declared shape {tuple(declared.shape)}, rules derive "
                 f"{derived.shape}", step)
    if declared.attr != "sparse":
        return
    if derived.nnz is None:
        obligations.append(
            f"{step.out}: nnz bound {declared.nnz!r} outside the bound "
            f"algebra; checked at runtime"
        )
    elif declared.nnz != derived.nnz:
        if nnz_leq(derived.nnz, declared.nnz) is True:
            diags.append(Diagnostic(
                "stale-nnz-bound",
                f"declared bound {declared.nnz!r} is looser than derived "
                f"{derived.nnz!r}",
                step=step.out, severity="warning",
            ))
        else:
            _err(diags, "stale-nnz-bound",
                 f"declared nnz bound {declared.nnz!r} does not cover "
                 f"derived {derived.nnz!r}", step)


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------
def analyze_candidate(candidate: Candidate, name: str = "") -> PlanVerdict:
    """Abstractly interpret one candidate's step DAG."""
    verdict = PlanVerdict(target=name or candidate.output)
    diags = verdict.diagnostics
    steps = list(candidate.steps)

    # dataflow integrity on the *raw* step set: ordered_steps() keys by
    # output ref, so a double write would silently collapse there.
    outs = [s.out for s in steps]
    producers = set(outs)
    if len(producers) != len(outs):
        dupes = sorted({o for o in outs if outs.count(o) > 1})
        for ref in dupes:
            diags.append(Diagnostic(
                "ssa-violation",
                f"{ref!r} is written by {outs.count(ref)} steps", step=ref,
            ))

    ordered = candidate.ordered_steps()
    state: Dict[str, AbstractMatrix] = {}
    leaf_state: Dict[str, AbstractMatrix] = {}

    for step in ordered:
        if step.out in step.args:
            diags.append(Diagnostic(
                "inplace-alias",
                f"step output aliases its own input {step.out!r}; in-place "
                f"update would corrupt autograd-saved activations",
                step=step.out,
            ))
        argvals: List[AbstractMatrix] = []
        for ref, desc in zip(step.args, step.arg_descs):
            if ref in state:
                known = state[ref]
                declared = from_operand(desc, origin=step.out)
                if (
                    (known.attr, known.subattr) != (declared.attr, declared.subattr)
                    or tuple(known.shape) != tuple(declared.shape)
                    or known.nnz != declared.nnz
                ):
                    diags.append(Diagnostic(
                        "operand-mismatch",
                        f"{step.primitive} consumes {ref!r} as "
                        f"{declared.describe()} but its producer computes "
                        f"{known.describe()}",
                        step=step.out,
                    ))
                argvals.append(known)
            elif ref in producers:
                # produced, but not before this step: a dependency cycle
                diags.append(Diagnostic(
                    "undefined-ref",
                    f"{ref!r} is consumed before any producing step can "
                    f"run (dependency cycle)", step=step.out,
                ))
                argvals.append(from_operand(desc, origin=ref))
            else:
                if "(" in ref:
                    # leaves are plain names; a signature-shaped ref with
                    # no producing step is a dangling intermediate
                    diags.append(Diagnostic(
                        "undefined-ref",
                        f"no step produces intermediate {ref!r}",
                        step=step.out,
                    ))
                lifted = from_operand(desc, origin=ref)
                known_leaf = leaf_state.get(ref)
                if known_leaf is None:
                    leaf_state[ref] = lifted
                elif (
                    (known_leaf.attr, known_leaf.subattr)
                    != (lifted.attr, lifted.subattr)
                    or tuple(known_leaf.shape) != tuple(lifted.shape)
                    or known_leaf.nnz != lifted.nnz
                ):
                    diags.append(Diagnostic(
                        "leaf-desc-inconsistent",
                        f"leaf {ref!r} used both as {known_leaf.describe()} "
                        f"and as {lifted.describe()} (dropped transpose?)",
                        step=step.out,
                    ))
                argvals.append(leaf_state[ref])
        derived = _derive(step, argvals, diags)
        if derived is not None:
            _check_declared(step, derived, diags, verdict.obligations)
            state[step.out] = derived
        else:
            state[step.out] = from_operand(step.out_desc, origin=step.out)

    # output and reachability
    by_out = {s.out: s for s in steps}
    if candidate.output not in by_out:
        diags.append(Diagnostic(
            "missing-output",
            f"no step produces the candidate output {candidate.output!r}",
        ))
    else:
        reachable = set()
        stack = [candidate.output]
        while stack:
            ref = stack.pop()
            step = by_out.get(ref)
            if step is None or ref in reachable:
                continue
            reachable.add(ref)
            stack.extend(step.args)
        for step in ordered:
            if step.out not in reachable:
                diags.append(Diagnostic(
                    "dead-step",
                    f"step never contributes to the output", step=step.out,
                ))

    if verdict.ok:
        verdict.proved.append(
            f"dataflow: {len(ordered)} steps in SSA form, alias-free, "
            f"all reachable from the output"
        )
        verdict.proved.append(
            "shapes/attrs: every step's declared result matches the rule "
            "table under symbolic dims"
        )
        if not any(o.startswith(s.out) for s in ordered for o in verdict.obligations):
            verdict.proved.append("nnz bounds: all declared bounds derivable")
    return verdict


# ----------------------------------------------------------------------
# Workspace lifetime analysis
# ----------------------------------------------------------------------
def workspace_trace(plan, strategy: str) -> List[Tuple[str, str, str]]:
    """The scratch acquire/release protocol a plan's execution implies.

    A strategy-table row with ``scratch`` holds one buffer per
    aggregation step: the tiled rows an arena tile (the fused row a
    message + pre-scale pair with the same discipline).  Each is
    acquired before the kernel loop and released on the normal edge
    (back to the arena for the next step) *and* on the exception edge
    (the guard's ``drop_buffers`` cleanup).  Events are
    ``(kind, buffer_key, step_out)`` with kind in ``acquire`` /
    ``release-normal`` / ``release-exception``; a row without scratch
    (``row_segment``) implies none.
    """
    events: List[Tuple[str, str, str]] = []
    scratch = spmm_strategy(strategy).scratch
    if scratch is None:
        return events
    for step in plan.steps:
        if step.primitive not in WORKSPACE_PRIMITIVES:
            continue
        key = f"{scratch}:{step.out}"
        events.append(("acquire", key, step.out))
        events.append(("release-normal", key, step.out))
        events.append(("release-exception", key, step.out))
    return events


def check_workspace_trace(
    events: Sequence[Tuple[str, str, str]]
) -> List[Diagnostic]:
    """Simulate the trace over both control-flow edges independently."""
    diags: List[Diagnostic] = []
    for edge in ("normal", "exception"):
        live: Dict[str, str] = {}
        for kind, key, out in events:
            if kind == "acquire":
                if key in live:
                    diags.append(Diagnostic(
                        "workspace-double-use",
                        f"buffer {key!r} acquired by {out!r} while still "
                        f"held by {live[key]!r}", step=out,
                    ))
                live[key] = out
            elif kind == f"release-{edge}":
                live.pop(key, None)
        for key, out in live.items():
            diags.append(Diagnostic(
                "workspace-leak",
                f"buffer {key!r} never released on the {edge} edge",
                step=out,
            ))
    return diags


# ----------------------------------------------------------------------
# Fusion legality
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusionSegmentSpec:
    """One statically-legal fused chain: optional pre-scale
    ``row_broadcast`` folded into an aggregation's edge gather, plus an
    ordered tail of single-consumer epilogue steps (output row scaling
    and unary non-linearities) applied per row-span."""

    spmm: Step
    pre_scale: Optional[Step]
    epilogues: Tuple[Step, ...]

    @property
    def out(self) -> str:
        """The ref the fused callable produces (the chain tail's out)."""
        return self.epilogues[-1].out if self.epilogues else self.spmm.out

    @property
    def members(self) -> Tuple[Step, ...]:
        head = (self.pre_scale,) if self.pre_scale is not None else ()
        return head + (self.spmm,) + self.epilogues

    def describe(self) -> str:
        parts = [s.primitive + (f"[{s.meta}]" if s.meta else "")
                 for s in self.members]
        return " -> ".join(parts) + f" => {self.out}"


@dataclass
class FusionReport:
    """Which steps of a plan may run fused, and why the rest may not.

    ``segments`` are provably-legal fused chains; ``rejected`` records,
    per declined fusion opportunity, ``(step_out, reason)`` — the CI zoo
    sweep requires every promoted plan to either compile clean or carry
    a recorded fallback reason."""

    target: str
    segments: List[FusionSegmentSpec] = field(default_factory=list)
    rejected: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def fused_outs(self) -> List[str]:
        return [seg.out for seg in self.segments]

    def describe(self) -> str:
        lines = [
            f"fusion {self.target}: {len(self.segments)} segment(s), "
            f"{len(self.rejected)} declined"
        ]
        lines += [f"  fuse: {seg.describe()}" for seg in self.segments]
        lines += [f"  skip: {out}: {why}" for out, why in self.rejected]
        return "\n".join(lines)


def fusion_legality(plan) -> FusionReport:
    """Statically determine which chains of ``plan`` may run fused.

    A chain anchors on an aggregation step (``spmm`` /
    ``spmm_unweighted``) in the iteration body and may absorb:

    - **pre-scale**: the producer of the dense operand, when it is an
      iteration ``row_broadcast`` whose output is consumed *only* by
      this aggregation (folding it into the edge gather is then
      observationally — and bitwise — equivalent);
    - **epilogues**: a forward walk from the aggregation output through
      single-consumer iteration steps that are either ``row_broadcast``
      over the chain value or fusable unary ``elementwise`` steps.

    Fused intermediates vanish (they are never materialised), so every
    absorbed step's output must be single-consumer, must not be the plan
    output, and must not be a setup result another execution could
    read from the cache.  The candidate-level verdict (SSA, alias-free,
    rule-table agreement) gates the whole report: a plan the abstract
    interpreter rejects never fuses at all.
    """
    report = FusionReport(target=plan.name)
    verdict = analyze_candidate(plan.candidate, name=plan.name)
    if not verdict.ok:
        report.rejected.append((
            plan.candidate.output,
            "candidate rejected by planlint: "
            + "; ".join(d.rule for d in verdict.errors),
        ))
        return report
    consumers: Dict[str, List[Step]] = {}
    for step in plan.steps:
        for arg in step.args:
            consumers.setdefault(arg, []).append(step)
    by_out = {s.out: s for s in plan.steps}
    iter_outs = {s.out for s in plan.iteration_steps}
    output = plan.candidate.output

    def single_consumer(ref: str) -> bool:
        return len(consumers.get(ref, [])) == 1 and ref != output

    claimed: set = set()
    for step in plan.iteration_steps:
        if step.primitive not in WORKSPACE_PRIMITIVES:
            continue
        # --- pre-scale: row_broadcast feeding the dense operand --------
        pre: Optional[Step] = None
        dense_ref = step.args[1]
        producer = by_out.get(dense_ref)
        if producer is not None and producer.primitive == "row_broadcast":
            if producer.out not in iter_outs:
                report.rejected.append((
                    producer.out,
                    "pre-scale row_broadcast is a cached setup result; "
                    "fusing it would recompute per iteration",
                ))
            elif not single_consumer(producer.out):
                report.rejected.append((
                    producer.out,
                    f"pre-scale row_broadcast output has "
                    f"{len(consumers.get(producer.out, []))} consumers "
                    f"(or is the plan output); must materialise",
                ))
            elif producer.out in claimed:
                report.rejected.append((
                    producer.out, "already absorbed by another segment",
                ))
            else:
                pre = producer
        # --- epilogues: forward single-consumer walk -------------------
        epilogues: List[Step] = []
        current = step.out
        while True:
            cons = consumers.get(current, [])
            if current == output or len(cons) != 1:
                break
            nxt = cons[0]
            if nxt.out not in iter_outs or nxt.out in claimed:
                break
            if nxt.primitive == "row_broadcast":
                if nxt.args[1] != current:
                    report.rejected.append((
                        nxt.out,
                        "row_broadcast consumes the chain value as its "
                        "diagonal operand; not a row-scale epilogue",
                    ))
                    break
            elif nxt.primitive == "elementwise":
                if len(nxt.args) != 1 or nxt.meta == "add":
                    report.rejected.append((
                        nxt.out,
                        "elementwise consumer is n-ary; fused epilogues "
                        "are unary only",
                    ))
                    break
                if nxt.meta not in FUSABLE_NONLINEAR_METAS:
                    report.rejected.append((
                        nxt.out,
                        f"nonlinearity {nxt.meta!r} has no fused epilogue",
                    ))
                    break
            else:
                # a gemm/spmm/... consumer ends the chain; not a decline
                break
            epilogues.append(nxt)
            current = nxt.out
        seg = FusionSegmentSpec(
            spmm=step, pre_scale=pre, epilogues=tuple(epilogues)
        )
        claimed.update(s.out for s in seg.members)
        report.segments.append(seg)
    return report


# ----------------------------------------------------------------------
# Plan-level entry points
# ----------------------------------------------------------------------
def analyze_plan(
    plan, env: Optional[ShapeEnv] = None, strategies: Sequence[str] = SPMM_STRATEGIES
) -> PlanVerdict:
    """Full verdict for a lowered plan: candidate + lifetimes + env facts.

    ``strategies`` are the execution strategies whose scratch lifetimes
    the verdict covers — by default every row of the strategy table."""
    verdict = analyze_candidate(plan.candidate, name=plan.name)
    ws_diags: List[Diagnostic] = []
    for strategy in strategies:
        ws_diags.extend(check_workspace_trace(workspace_trace(plan, strategy)))
    verdict.diagnostics.extend(ws_diags)
    if not ws_diags:
        verdict.proved.append(
            "workspace: arena acquire/release balanced on normal and "
            "exception edges for " + "/".join(strategies)
        )
    if env is not None:
        verdict.env_key = analysis_env_key(env)
        try:
            estimate = float(plan.peak_memory_bytes(env))
        except (GraniiAnalysisError, KeyError, ValueError) as exc:
            verdict.obligations.append(
                f"peak-memory estimate unresolved under env: {exc}"
            )
        else:
            verdict.facts["peak_memory_bytes"] = estimate
            verdict.proved.append(
                f"peak-memory-estimate: {estimate / 2**20:.2f} MiB under "
                f"the selection env"
            )
    return verdict


def reject_illegal(
    candidates: Sequence[Candidate],
) -> Tuple[List[Candidate], List[Tuple[Candidate, PlanVerdict]]]:
    """Partition candidates into statically-legal and rejected.

    Used by ``repro.core.pruning.prune_candidates`` so illegal trees
    never reach cost modeling.
    """
    legal: List[Candidate] = []
    rejected: List[Tuple[Candidate, PlanVerdict]] = []
    for cand in candidates:
        verdict = analyze_candidate(cand)
        if verdict.ok:
            legal.append(cand)
        else:
            rejected.append((cand, verdict))
    return legal, rejected
