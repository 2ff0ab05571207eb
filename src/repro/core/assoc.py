"""Association-tree enumeration (Algorithm 1, paper §IV-C).

Given a rewritten matrix IR, enumerate *every* legal re-association as a
set of primitive steps.  Each step is content-addressed — its identifier
is the canonical signature ``primitive(arg_refs)`` — so common
subexpressions are shared automatically across and within candidates.
This hash-consing is what realises the paper's post-enumeration CSE scan:
GAT's reuse composition, for example, falls out because the aggregation's
``H·W`` association resolves to the very step the attention prelude
already created.

The enumerator works bottom-up with memoisation: for an n-ary
multiplication level it performs a CYK-style exploration of contiguous
windows matched by the rule table, so enumeration cost is polynomial in
chain length rather than factorial in interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .ir import Add, Attention, IRNode, Leaf, MatMul, Nonlinear, RowBroadcast
from .rules import MatchResult, Operand, match_add_children, match_matmul_window

__all__ = ["Step", "Candidate", "enumerate_candidates", "leaf_operand"]


@dataclass(frozen=True)
class Step:
    """One primitive application; ``out`` is its canonical signature.

    ``meta`` refines the primitive for execution: the nonlinearity name
    for barrier steps ('relu', 'elu', ...) or 'add' for n-ary additions.
    """

    out: str
    primitive: str
    args: Tuple[str, ...]
    arg_descs: Tuple[Operand, ...]
    out_desc: Operand
    meta: str = ""

    def describe(self) -> str:
        suffix = f"[{self.meta}]" if self.meta else ""
        return f"{self.out_desc.ref} = {self.primitive}{suffix}({', '.join(self.args)})"


@dataclass(frozen=True)
class Candidate:
    """One complete primitive composition: a DAG of steps plus the output."""

    steps: FrozenSet[Step]
    output: str

    @property
    def primitives(self) -> Tuple[str, ...]:
        return tuple(sorted(s.primitive for s in self.steps))

    def ordered_steps(self) -> List[Step]:
        """Steps in dependency order (deterministic): a depth-first
        post-order over each step's args, roots taken in sorted-output
        order.

        One compile computes this once per tree (pruning hands it to
        planlint and to the promoted plans); it is not cached here.
        """
        # a step leaves ``pending`` when its visit starts: one dict pop
        # both finds a ref's producer and marks it seen
        pending = {s.out: s for s in self.steps}
        ordered: List[Step] = []
        append, pop = ordered.append, pending.pop
        for out in sorted(pending):
            step = pop(out, None)
            if step is not None:
                _post_order(step, pop, append)
        return ordered

    def describe(self) -> str:
        return " ; ".join(s.describe() for s in self.ordered_steps())


def _post_order(step: Step, pop, append) -> None:
    """Append ``step`` after the not-yet-visited producers of its args.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, and one per tree keeps the cyclic collector busy.
    """
    for arg in step.args:
        dep = pop(arg, None)
        if dep is not None:
            _post_order(dep, pop, append)
    append(step)


def leaf_operand(leaf: Leaf) -> Operand:
    return Operand(leaf.name, leaf.attr, leaf.subattr, leaf.shape, leaf.nnz)


def _sig(primitive: str, args: Sequence[str]) -> str:
    return f"{primitive}({','.join(args)})"


def _make_step(
    primitive: str, args: Sequence[Operand], match: MatchResult, meta: str = ""
) -> Step:
    refs = tuple(a.ref for a in args)
    sig_name = f"{primitive}.{meta}" if meta else primitive
    out = _sig(sig_name, refs)
    out_desc = Operand(
        out, match.result_attr, match.result_subattr, match.result_shape, match.result_nnz
    )
    return Step(out, primitive, refs, tuple(args), out_desc, meta)


Alternative = Tuple[Operand, FrozenSet[Step]]


class _Enumerator:
    """Bottom-up enumeration with memoised chain exploration."""

    def __init__(self, allow_spgemm: bool = False) -> None:
        self._chain_memo: Dict[Tuple[str, ...], List[Alternative]] = {}
        self._op_cache: Dict[str, Operand] = {}
        self._allow_spgemm = allow_spgemm

    # -- chains ---------------------------------------------------------
    def _chain(self, ops: Tuple[Operand, ...]) -> List[Alternative]:
        """All full associations of a multiplication chain."""
        if len(ops) == 1:
            return [(ops[0], frozenset())]
        key = tuple(o.ref for o in ops)
        cached = self._chain_memo.get(key)
        if cached is not None:
            return cached
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        for width in (2, 3):
            for start in range(len(ops) - width + 1):
                window = ops[start : start + width]
                match = match_matmul_window(window, allow_spgemm=self._allow_spgemm)
                if match is None:
                    continue
                step = _make_step(match.primitive, window, match)
                new_ops = ops[:start] + (step.out_desc,) + ops[start + width :]
                for result_op, steps in self._chain(new_ops):
                    merged = steps | {step}
                    results[(result_op.ref, merged)] = (result_op, merged)
        out = list(results.values())
        self._chain_memo[key] = out
        return out

    # -- generic nodes ----------------------------------------------------
    def enumerate(self, node: IRNode) -> List[Alternative]:
        if isinstance(node, Leaf):
            return [(leaf_operand(node), frozenset())]
        if isinstance(node, RowBroadcast):
            # Un-rewritten broadcasts act as association barriers: the
            # operand is fully resolved first, then one row_broadcast step
            # applies.  The normal pipeline eliminates these via the
            # Appendix C rewrite; this path exists for the rewrite
            # ablation (and for IRs a user chooses not to rewrite).
            return self._enumerate_row_broadcast(node)
        if isinstance(node, MatMul):
            return self._enumerate_matmul(node)
        if isinstance(node, Add):
            return self._enumerate_add(node)
        if isinstance(node, Attention):
            return self._enumerate_attention(node)
        if isinstance(node, Nonlinear):
            return self._enumerate_nonlinear(node)
        raise TypeError(f"unknown IR node {node!r}")

    def _product(
        self, children: Sequence[IRNode]
    ) -> List[Tuple[Tuple[Operand, ...], FrozenSet[Step]]]:
        """Cartesian product of child alternatives with step-union."""
        combos: List[Tuple[Tuple[Operand, ...], FrozenSet[Step]]] = [
            ((), frozenset())
        ]
        for child in children:
            alts = self.enumerate(child)
            combos = [
                (ops + (op,), steps | child_steps)
                for ops, steps in combos
                for op, child_steps in alts
            ]
        return combos

    def _enumerate_matmul(self, node: MatMul) -> List[Alternative]:
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        for ops, steps in self._product(node.children):
            for result_op, chain_steps in self._chain(ops):
                merged = steps | chain_steps
                results[(result_op.ref, merged)] = (result_op, merged)
        return list(results.values())

    def _enumerate_add(self, node: Add) -> List[Alternative]:
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        for ops, steps in self._product(node.children):
            match = match_add_children(ops)
            if match is None:
                continue
            meta = "add" if match.primitive == "elementwise" else ""
            step = _make_step(match.primitive, ops, match, meta)
            merged = steps | {step}
            results[(step.out_desc.ref, merged)] = (step.out_desc, merged)
        return list(results.values())

    def _enumerate_row_broadcast(self, node: RowBroadcast) -> List[Alternative]:
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        vec_alts = self.enumerate(node.vec)
        mat_alts = self.enumerate(node.mat)
        for vec_op, vec_steps in vec_alts:
            for mat_op, mat_steps in mat_alts:
                match = MatchResult(
                    "row_broadcast", "dense", "data", mat_op.shape
                )
                step = _make_step("row_broadcast", (vec_op, mat_op), match)
                merged = vec_steps | mat_steps | {step}
                results[(step.out_desc.ref, merged)] = (step.out_desc, merged)
        return list(results.values())

    def _enumerate_attention(self, node: Attention) -> List[Alternative]:
        pattern_op = leaf_operand(node.pattern)
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        for theta_op, steps in self.enumerate(node.theta):
            match = MatchResult(
                "attention", "sparse", "weighted", node.pattern.shape, node.pattern.nnz
            )
            step = _make_step("attention", (pattern_op, theta_op), match)
            merged = steps | {step}
            results[(step.out_desc.ref, merged)] = (step.out_desc, merged)
        return list(results.values())

    def _enumerate_nonlinear(self, node: Nonlinear) -> List[Alternative]:
        results: Dict[Tuple[str, FrozenSet[Step]], Alternative] = {}
        for child_op, steps in self.enumerate(node.child):
            match = MatchResult(
                "elementwise", child_op.attr, child_op.subattr, child_op.shape, child_op.nnz
            )
            step = _make_step("elementwise", (child_op,), match, meta=node.name)
            merged = steps | {step}
            results[(step.out_desc.ref, merged)] = (step.out_desc, merged)
        return list(results.values())


def enumerate_candidates(
    variants: Sequence[IRNode], allow_spgemm: bool = False
) -> List[Candidate]:
    """Enumerate all association trees over one or more IR variants.

    Candidates from different rewrite variants are merged and deduplicated
    by their step DAGs (two variants can reach the same composition).
    ``allow_spgemm`` admits sparse·sparse associations (extension).
    """
    enumerator = _Enumerator(allow_spgemm=allow_spgemm)
    seen: Dict[Tuple[str, FrozenSet[Step]], Candidate] = {}
    for variant in variants:
        for op, steps in enumerator.enumerate(variant):
            key = (op.ref, steps)
            if key not in seen:
                seen[key] = Candidate(steps, op.ref)
    return list(seen.values())
