"""Seeded IR mutations: the analyzer's self-test.

A static analyzer that has never seen a bug proves nothing.  Each
mutation here plants one specific, realistic defect into a *clean*
promoted candidate (or workspace trace) — swapped operands, a dropped
transpose, a stale nnz bound, a leaked arena buffer — and records which
diagnostic rule must fire.  :func:`check_mutation` applies one mutation
to the first applicable candidate (or trace) from the model zoo and
reports whether the planted bug was caught.  Each mutation is an entry
of the check registry (``planlint/<mutation>``)::

    PYTHONPATH=src python -m repro.checks --quick --only planlint
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Tuple

from ..core.assoc import Candidate, Step
from ..core.rules import Operand
from .planlint import (
    analyze_candidate,
    check_workspace_trace,
    workspace_trace,
)

__all__ = ["MUTATIONS", "Mutation", "check_mutation", "zoo_pool"]


class NotApplicable(Exception):
    """The mutation found no site in this candidate."""


def _replace_step(cand: Candidate, old: Step, new: Step) -> Candidate:
    steps = set(cand.steps)
    steps.discard(old)
    steps.add(new)
    return Candidate(frozenset(steps), cand.output)


def _add_step(cand: Candidate, new: Step) -> Candidate:
    return Candidate(cand.steps | {new}, cand.output)


def _find(cand: Candidate, pred) -> Step:
    for step in cand.ordered_steps():
        if pred(step):
            return step
    raise NotApplicable


def _swap_desc_shape(desc: Operand) -> Operand:
    return Operand(desc.ref, desc.attr, desc.subattr,
                   (desc.shape[1], desc.shape[0]), desc.nnz)


# ----------------------------------------------------------------------
# Candidate mutations
# ----------------------------------------------------------------------
def swap_gemm_operands(cand: Candidate) -> Candidate:
    s = _find(cand, lambda s: s.primitive == "gemm"
              and s.arg_descs[0].shape != s.arg_descs[1].shape)
    new = replace(s, args=s.args[::-1], arg_descs=s.arg_descs[::-1])
    return _replace_step(cand, s, new)


def swap_spmm_operands(cand: Candidate) -> Candidate:
    s = _find(cand, lambda s: s.primitive in ("spmm", "spmm_unweighted"))
    new = replace(s, args=s.args[::-1], arg_descs=s.arg_descs[::-1])
    return _replace_step(cand, s, new)


def drop_transpose(cand: Candidate) -> Candidate:
    """One use of a multi-use leaf silently sees the transposed shape."""
    uses: Dict[str, List[Step]] = {}
    produced = {s.out for s in cand.steps}
    for step in cand.ordered_steps():
        for ref in step.args:
            if ref not in produced:
                uses.setdefault(ref, []).append(step)
    for ref, steps in sorted(uses.items()):
        if len(steps) < 2:
            continue
        s = steps[0]
        idx = s.args.index(ref)
        if s.arg_descs[idx].shape[0] == s.arg_descs[idx].shape[1]:
            continue  # transposing a square desc is invisible
        descs = list(s.arg_descs)
        descs[idx] = _swap_desc_shape(descs[idx])
        return _replace_step(cand, s, replace(s, arg_descs=tuple(descs)))
    raise NotApplicable


def stale_nnz_bound(cand: Candidate) -> Candidate:
    """Sparse result keeps an old bound after the pattern grew."""
    s = _find(cand, lambda s: s.out_desc.attr == "sparse"
              and s.out_desc.nnz not in (None, "N"))
    od = s.out_desc
    new_od = Operand(od.ref, od.attr, od.subattr, od.shape, "N")
    return _replace_step(cand, s, replace(s, out_desc=new_od))


def mismatched_out_shape(cand: Candidate) -> Candidate:
    s = _find(cand, lambda s: s.out_desc.shape[0] != s.out_desc.shape[1])
    return _replace_step(
        cand, s, replace(s, out_desc=_swap_desc_shape(s.out_desc))
    )


def wrong_result_attr(cand: Candidate) -> Candidate:
    s = _find(cand, lambda s: s.out_desc.attr == "sparse"
              and s.out_desc.subattr == "weighted")
    od = s.out_desc
    new_od = Operand(od.ref, "dense", "data", od.shape, None)
    return _replace_step(cand, s, replace(s, out_desc=new_od))


def undefined_ref(cand: Candidate) -> Candidate:
    """A step consumes an intermediate no step produces."""
    s = _find(cand, lambda s: any("(" in a for a in s.args))
    idx = next(i for i, a in enumerate(s.args) if "(" in a)
    args = list(s.args)
    args[idx] = "ghost(" + args[idx] + ")"
    return _replace_step(cand, s, replace(s, args=tuple(args)))


def double_write(cand: Candidate) -> Candidate:
    """Two distinct steps write the same output ref."""
    s = _find(cand, lambda s: True)
    shadow = replace(s, meta=s.meta + "#shadow")
    return _add_step(cand, shadow)


def dead_step(cand: Candidate) -> Candidate:
    """A step whose result nothing consumes."""
    s = _find(cand, lambda s: True)
    od = s.out_desc
    dead_out = f"dead({s.out})"
    dead = replace(
        s,
        out=dead_out,
        out_desc=Operand(dead_out, od.attr, od.subattr, od.shape, od.nnz),
    )
    return _add_step(cand, dead)


def inplace_alias(cand: Candidate) -> Candidate:
    """A step reads and writes the same ref (in-place update)."""
    s = _find(cand, lambda s: len(s.args) >= 1)
    args = (s.out,) + s.args[1:]
    descs = (Operand(s.out, s.arg_descs[0].attr, s.arg_descs[0].subattr,
                     s.arg_descs[0].shape, s.arg_descs[0].nnz),) + s.arg_descs[1:]
    return _replace_step(cand, s, replace(s, args=args, arg_descs=descs))


def unresolvable_dim(cand: Candidate) -> Candidate:
    """A declared shape names a symbol no environment binds."""
    s = _find(cand, lambda s: isinstance(s.out_desc.shape[0], str))
    od = s.out_desc
    new_od = Operand(od.ref, od.attr, od.subattr,
                     ("Q?", od.shape[1]), od.nnz)
    return _replace_step(cand, s, replace(s, out_desc=new_od))


# ----------------------------------------------------------------------
# Workspace-trace mutations
# ----------------------------------------------------------------------
def workspace_leak(events: List[Tuple[str, str, str]]):
    """Drop the exception-edge release: a kernel crash leaks the tile."""
    for i, (kind, _, _) in enumerate(events):
        if kind == "release-exception":
            return events[:i] + events[i + 1:]
    raise NotApplicable


def workspace_double_use(events: List[Tuple[str, str, str]]):
    """A second acquire of a live buffer key."""
    for i, (kind, key, out) in enumerate(events):
        if kind == "acquire":
            return events[:i + 1] + [("acquire", key, out + "#again")] + events[i + 1:]
    raise NotApplicable


@dataclass(frozen=True)
class Mutation:
    """One planted bug: how to plant it, which rules may catch it."""

    name: str
    kind: str  # 'candidate' | 'trace'
    apply: Callable
    expected_rules: FrozenSet[str]


def _m(name, kind, fn, *rules) -> Mutation:
    return Mutation(name, kind, fn, frozenset(rules))


MUTATIONS: List[Mutation] = [
    _m("swap_gemm_operands", "candidate", swap_gemm_operands,
       "shape-mismatch", "result-shape-mismatch"),
    _m("swap_spmm_operands", "candidate", swap_spmm_operands,
       "operand-attr-mismatch"),
    _m("drop_transpose", "candidate", drop_transpose,
       "leaf-desc-inconsistent", "shape-mismatch"),
    _m("stale_nnz_bound", "candidate", stale_nnz_bound, "stale-nnz-bound"),
    _m("mismatched_out_shape", "candidate", mismatched_out_shape,
       "result-shape-mismatch"),
    _m("wrong_result_attr", "candidate", wrong_result_attr,
       "result-attr-mismatch"),
    _m("undefined_ref", "candidate", undefined_ref, "undefined-ref"),
    _m("double_write", "candidate", double_write, "ssa-violation"),
    _m("dead_step", "candidate", dead_step, "dead-step"),
    _m("inplace_alias", "candidate", inplace_alias,
       "inplace-alias", "undefined-ref"),
    _m("unresolvable_dim", "candidate", unresolvable_dim,
       "result-shape-mismatch"),
    _m("workspace_leak", "trace", workspace_leak, "workspace-leak"),
    _m("workspace_double_use", "trace", workspace_double_use,
       "workspace-double-use"),
]


def zoo_pool():
    """Clean candidates and plans to mutate (compiled zoo defaults)."""
    from ..core.codegen import compile_model

    pool: List[Candidate] = []
    plans = []
    for name in ("gcn", "gat", "gin", "sgc", "tagcn"):
        compiled = compile_model(name)
        for pc in compiled.promoted:
            pool.append(pc.plan.candidate)
            plans.append(pc.plan)
    return pool, plans


def check_mutation(mutation: Mutation, pool, plans) -> Dict[str, object]:
    """Plant one mutation in the first applicable member of
    :func:`zoo_pool`'s ``(pool, plans)`` and analyze it.

    The record's ``caught`` is False when an expected rule did not fire
    or no candidate (or trace) gave the mutation a site.
    """
    record: Dict[str, object] = {
        "mutation": mutation.name,
        "expected": sorted(mutation.expected_rules),
    }
    fired: List[str] = []
    applied = False
    if mutation.kind == "candidate":
        for cand in pool:
            try:
                mutated = mutation.apply(cand)
            except NotApplicable:
                continue
            applied = True
            verdict = analyze_candidate(mutated, name=mutation.name)
            fired = sorted({d.rule for d in verdict.errors})
            break
    else:
        for plan in plans:
            events = workspace_trace(plan, "blocked")
            if not events:
                continue
            try:
                mutated_events = mutation.apply(list(events))
            except NotApplicable:
                continue
            applied = True
            diags = check_workspace_trace(mutated_events)
            fired = sorted({d.rule for d in diags})
            break
    record["applied"] = applied
    record["fired"] = fired
    record["caught"] = applied and bool(
        mutation.expected_rules.intersection(fired)
    )
    return record
