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
has error diagnostics before cost modeling, so every plan a selection
can choose has already passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.assoc import Candidate, Step
from ..core.ir import ShapeEnv, dims_compatible, env_key
from ..errors import GraniiAnalysisError
from ..kernels.spmm import SPMM_STRATEGIES, spmm_strategy
from .domains import (
    AbstractMatrix,
    compose_product_nnz,
    from_operand,
    join_structure,
    nnz_leq,
    plus_diag_nnz,
)

__all__ = [
    "Diagnostic",
    "PlanVerdict",
    "analyze_candidate",
    "analyze_plan",
    "analysis_env_key",
    "reject_illegal",
    "workspace_trace",
    "check_workspace_trace",
]

# Primitives the strategy table's rows execute, scratch and all.
WORKSPACE_PRIMITIVES = ("spmm", "spmm_unweighted")

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


# Canonical hashable key for a shape environment.
analysis_env_key = env_key


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
class _StepVisit(NamedTuple):
    """Everything a step's visit yields that depends only on the step and
    its argument values: its value, and its diagnostics in walk order —
    in-place aliasing, then per argument the producer-vs-declared operand
    mismatch, then the transfer's own."""

    value: AbstractMatrix
    diagnostics: Tuple[Diagnostic, ...]
    obligations: Tuple[str, ...]
    alias: Tuple[Diagnostic, ...]
    operands: Tuple[Tuple[Diagnostic, ...], ...]  # one entry per argument
    transfer: Tuple[Diagnostic, ...]
    # the memo key's objects, kept alive with the entry
    step: Step
    args: Tuple[AbstractMatrix, ...]


class _SharedWork:
    """The pure per-step work of one batch of verdicts, done once.

    A step's visit (:class:`_StepVisit`) depends only on the step and its
    argument values, and a lift only on the operand description and
    origin.  The trees of one enumeration share their steps (hash-consing,
    :mod:`repro.core.assoc`), so a batch repeats each piece of work many
    times over: TAGCN's 5 184 trees hold 61 581 step uses but only
    ~6 200 step objects.  A tree's verdict is then a walk of memo lookups
    plus the checks that really are per tree.

    Keys are object identities — hashing a frozen ``Step`` walks its
    nested tuples on every lookup — and every entry keeps its key
    objects alive, so no id is reused while the memo lives.  Equal
    produced values are one object, so a consumer meets the same
    argument tuple whichever equal producer a tree holds (TAGCN: 6 640
    visits), and a produced value is never a lift, so a visit tells the
    arguments a step of the tree produced from the argument values
    alone.  A memo lives for one :func:`reject_illegal` (or
    :func:`analyze_candidate`) call and is never attached to a candidate
    or a step.
    """

    __slots__ = ("lifts", "lift_ids", "produced", "visits")

    def __init__(self) -> None:
        self.lifts: Dict[Tuple[int, str], Tuple[AbstractMatrix, object]] = {}
        # ids of the lifts; the one object per distinct value a step
        # produced (never a lift, whatever its value)
        self.lift_ids: set = set()
        self.produced: Dict[AbstractMatrix, AbstractMatrix] = {}
        self.visits: Dict[Tuple[int, ...], _StepVisit] = {}

    def lift(self, desc, origin: str) -> AbstractMatrix:
        key = (id(desc), origin)
        hit = self.lifts.get(key)
        if hit is None:
            value = from_operand(desc, origin=origin)
            self.lift_ids.add(id(value))
            hit = self.lifts[key] = (value, desc)
        return hit[0]

    def visit(self, step: Step, argvals: List[AbstractMatrix]) -> _StepVisit:
        """The step's visit given its args (memoised by identities)."""
        key = (id(step), *map(id, argvals))
        hit = self.visits.get(key)
        if hit is None:
            hit = self.visits[key] = self._visit(step, tuple(argvals))
        return hit

    def _visit(self, step: Step, argvals: Tuple[AbstractMatrix, ...]) -> _StepVisit:
        alias: Tuple[Diagnostic, ...] = ()
        if step.out in step.args:
            alias = (Diagnostic(
                "inplace-alias",
                f"step output aliases its own input {step.out!r}; in-place "
                f"update would corrupt autograd-saved activations",
                step=step.out,
            ),)
        operands = tuple(
            # only an argument a step of the tree produced is compared
            () if id(known) in self.lift_ids
            else _operand_mismatch(step, ref, desc, known)
            for ref, desc, known in zip(step.args, step.arg_descs, argvals)
        )
        diags: List[Diagnostic] = []
        obligations: List[str] = []
        derived = _derive(step, list(argvals), diags)
        if derived is not None:
            _check_declared(step, derived, diags, obligations)
        else:
            derived = from_operand(step.out_desc, origin=step.out)
        derived = self.produced.setdefault(derived, derived)
        transfer = tuple(diags)
        flat = alias + tuple(d for arg in operands for d in arg) + transfer
        return _StepVisit(
            derived, flat, tuple(obligations), alias, operands, transfer,
            step, argvals,
        )


def _operand_mismatch(
    step: Step, ref: str, desc, known: AbstractMatrix
) -> Tuple[Diagnostic, ...]:
    """The diagnostic when a consumer declares an operand other than its
    producer computes."""
    if (
        (known.attr, known.subattr) == (desc.attr, desc.subattr)
        and tuple(known.shape) == tuple(desc.shape)
        and known.nnz == desc.nnz
    ):
        return ()
    return (Diagnostic(
        "operand-mismatch",
        f"{step.primitive} consumes {ref!r} as {from_operand(desc).describe()} "
        f"but its producer computes {known.describe()}",
        step=step.out,
    ),)


def analyze_candidate(
    candidate: Candidate,
    name: str = "",
    shared: Optional[_SharedWork] = None,
    order: Optional[List[Step]] = None,
) -> PlanVerdict:
    """Abstractly interpret one candidate's step DAG.

    ``shared`` is the batch's :class:`_SharedWork` (a fresh one when
    None) and ``order`` the candidate's ``ordered_steps()`` when the
    caller has it; neither changes the verdict.
    """
    if shared is None:
        shared = _SharedWork()
    verdict = PlanVerdict(target=name or candidate.output)
    diags = verdict.diagnostics
    obligations = verdict.obligations

    # dataflow integrity on the *raw* step set: ordered_steps() keys by
    # output ref, so a double write would silently collapse there.
    outs = [s.out for s in candidate.steps]
    producers = set(outs)
    if len(producers) != len(outs):
        dupes = sorted({o for o in outs if outs.count(o) > 1})
        for ref in dupes:
            diags.append(Diagnostic(
                "ssa-violation",
                f"{ref!r} is written by {outs.count(ref)} steps", step=ref,
            ))

    ordered = candidate.ordered_steps() if order is None else order
    state: Dict[str, AbstractMatrix] = {}
    leaf_state: Dict[str, AbstractMatrix] = {}
    visits = shared.visits

    for step in ordered:
        argvals: List[AbstractMatrix] = []
        # this tree's own findings on an argument, by position (rare)
        local: Optional[Dict[int, List[Diagnostic]]] = None
        for ref in step.args:
            value = state.get(ref)
            if value is None:
                value, found = _unproduced(
                    shared, step, len(argvals), producers, leaf_state
                )
                if found:
                    if local is None:
                        local = {}
                    local[len(argvals)] = found
            argvals.append(value)
        visit = visits.get((id(step), *map(id, argvals)))
        if visit is None:
            visit = shared.visit(step, argvals)
        if local is None:
            if visit.diagnostics:
                diags.extend(visit.diagnostics)
        else:
            diags.extend(visit.alias)
            for i, mine in enumerate(visit.operands):
                diags.extend(local.get(i, mine))
            diags.extend(visit.transfer)
        if visit.obligations:
            obligations.extend(visit.obligations)
        state[step.out] = visit.value

    # output and reachability
    if candidate.output not in producers:
        diags.append(Diagnostic(
            "missing-output",
            f"no step produces the candidate output {candidate.output!r}",
        ))
    else:
        by_out = {s.out: s for s in candidate.steps}
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
        if not any(o.startswith(s.out) for o in obligations for s in ordered):
            verdict.proved.append("nnz bounds: all declared bounds derivable")
    return verdict


def _unproduced(
    shared: _SharedWork,
    step: Step,
    i: int,
    producers: set,
    leaf_state: Dict[str, AbstractMatrix],
) -> Tuple[AbstractMatrix, List[Diagnostic]]:
    """The value of ``step``'s argument ``i``, which no step of the tree
    has produced yet, and this tree's findings on it."""
    ref, desc = step.args[i], step.arg_descs[i]
    found: List[Diagnostic] = []
    if ref in producers:
        # produced, but not before this step: a dependency cycle
        found.append(Diagnostic(
            "undefined-ref",
            f"{ref!r} is consumed before any producing step can run "
            f"(dependency cycle)", step=step.out,
        ))
        return shared.lift(desc, ref), found
    if "(" in ref:
        # leaves are plain names; a signature-shaped ref with no
        # producing step is a dangling intermediate
        found.append(Diagnostic(
            "undefined-ref", f"no step produces intermediate {ref!r}",
            step=step.out,
        ))
    lifted = shared.lift(desc, ref)
    value = leaf_state.setdefault(ref, lifted)
    if value is not lifted and (
        (value.attr, value.subattr) != (lifted.attr, lifted.subattr)
        or tuple(value.shape) != tuple(lifted.shape)
        or value.nnz != lifted.nnz
    ):
        found.append(Diagnostic(
            "leaf-desc-inconsistent",
            f"leaf {ref!r} used both as {value.describe()} and as "
            f"{lifted.describe()} (dropped transpose?)",
            step=step.out,
        ))
    return value, found


# ----------------------------------------------------------------------
# Workspace lifetime analysis
# ----------------------------------------------------------------------
def workspace_trace(plan, strategy: str) -> List[Tuple[str, str, str]]:
    """The scratch acquire/release protocol a plan's execution implies.

    A strategy-table row with ``scratch`` holds one buffer per
    aggregation step: the tiled row's arena tile.  Each is
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
# Plan-level entry points
# ----------------------------------------------------------------------
def analyze_plan(
    plan,
    env: Optional[ShapeEnv] = None,
    strategies: Sequence[str] = SPMM_STRATEGIES,
    env_key: Optional[Tuple] = None,
) -> PlanVerdict:
    """Full verdict for a lowered plan: candidate + lifetimes + env facts.

    ``strategies`` are the execution strategies whose scratch lifetimes
    the verdict covers — by default every row of the strategy table.

    The candidate verdict and the workspace traces are functions of the
    plan alone: they are derived once per (plan, strategies) and kept on
    the plan.  Every call returns a fresh verdict, which adds the env's
    facts (``env_key``: ``analysis_env_key(env)``, if the caller has it)
    from the plan's view of ``env``.
    """
    strategies = tuple(strategies)
    base = plan._verdicts.get(strategies)
    if base is None:
        base = analyze_candidate(plan.candidate, name=plan.name)
        ws_diags: List[Diagnostic] = []
        for strategy in strategies:
            ws_diags.extend(check_workspace_trace(workspace_trace(plan, strategy)))
        base.diagnostics.extend(ws_diags)
        if not ws_diags:
            base.proved.append(
                "workspace: arena acquire/release balanced on normal and "
                "exception edges for " + "/".join(strategies)
            )
        plan._verdicts[strategies] = base
    verdict = PlanVerdict(
        target=base.target,
        diagnostics=list(base.diagnostics),
        proved=list(base.proved),
        obligations=list(base.obligations),
    )
    if env is not None:
        verdict.env_key = analysis_env_key(env) if env_key is None else env_key
        try:
            estimate = float(plan.call_view(env, verdict.env_key).peak_bytes)
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
    orders: Optional[Sequence[List[Step]]] = None,
) -> Tuple[List[Candidate], List[Tuple[Candidate, PlanVerdict]]]:
    """Partition candidates into statically-legal and rejected.

    Used by ``repro.core.pruning.prune_candidates`` so illegal trees
    never reach cost modeling.  Every candidate gets its full verdict;
    the pure per-step work is shared across the batch.  ``orders`` are
    the candidates' ``ordered_steps()``, when the caller has them.
    """
    legal: List[Candidate] = []
    rejected: List[Tuple[Candidate, PlanVerdict]] = []
    shared = _SharedWork()
    if orders is None:
        orders = [None] * len(candidates)
    for cand, order in zip(candidates, orders):
        verdict = analyze_candidate(cand, shared=shared, order=order)
        if verdict.ok:
            legal.append(cand)
        else:
            rejected.append((cand, verdict))
    return legal, rejected
