"""Input-oblivious pruning of association-tree candidates (paper §IV-C).

Pruning happens offline, before the input graph is known, under the two
embedding-size scenarios the paper identifies:

- ``in_ge_out``: input embedding size ≥ output size (K1 ≥ K2)
- ``in_lt_out``: input embedding size < output size (K1 < K2)

Within one scenario a candidate is *dominated* when another candidate's
primitive multiset maps injectively into its own with every mapped
instance no larger (same primitive, component-wise ≤ dimensions under the
scenario's K1/K2 ordering), and the domination is strict (extra
primitives, or at least one strictly smaller instance).  A candidate
dominated in **both** scenarios can never win and is pruned; survivors
are annotated with the scenarios where they remain viable, which later
becomes the embedding-size dispatch condition (§IV-D).

Cost-equivalent duplicates (identical primitive+dimension multisets) are
collapsed to one representative first — the "removes duplicates" clause
of the paper's first rule — which also keeps the dominance pass
quadratic in the number of *distinct* cost signatures rather than raw
trees (TAGCN enumerates thousands of trees but has far fewer distinct
cost signatures).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .assoc import Candidate, Step

__all__ = ["SCENARIOS", "PrunedCandidate", "prune_candidates", "cost_signature"]

SCENARIOS = ("in_ge_out", "in_lt_out")

# Symbolic dimension magnitudes per scenario; used only for *ordering*
# K-dims against each other.  N/E stay symbolic: cross-symbol comparisons
# other than K1 vs K2 (and E vs E+N) are treated as incomparable.
_K_ORDER = {
    "in_ge_out": {"K1": 2, "K2": 1},
    "in_lt_out": {"K1": 1, "K2": 2},
}


def _dim_leq(a, b, scenario: str) -> Optional[bool]:
    """Whether dim a ≤ dim b under the scenario; None if incomparable."""
    if a == b:
        return True
    order = _K_ORDER[scenario]
    if a in order and b in order:
        return order[a] <= order[b]
    if isinstance(a, str) and isinstance(b, str):
        if b == f"{a}+N":
            return True
        if a == f"{b}+N":
            return False
    if isinstance(a, int) and isinstance(b, int):
        return a <= b
    return None


@dataclass(frozen=True)
class _Instance:
    """One primitive instance with its cost-relevant symbolic dims."""

    primitive: str
    dims: Tuple


def _step_instances(step: Step) -> List[_Instance]:
    """The cost instances one step contributes, in order."""
    p = step.primitive
    descs = step.arg_descs
    od = step.out_desc
    out: List[_Instance] = []
    if p == "gemm":
        dims = (descs[0].shape[0], descs[0].shape[1], descs[1].shape[1])
    elif p in ("spmm", "spmm_unweighted"):
        dims = (descs[0].nnz, descs[1].shape[1])
    elif p in ("sddmm_diag", "spadd_diag"):
        dims = (next(d for d in descs if d.is_sparse_matrix).nnz,)
    elif p == "diag_mul":
        dims = (od.shape[0],)
    elif p == "row_broadcast":
        dims = (descs[1].shape[0], descs[1].shape[1])
    elif p == "elementwise":
        cols = od.shape[1] if od.attr == "dense" else 1
        dims = (od.shape[0], cols)
        out.extend(_Instance(p, dims) for _ in range(max(0, len(descs) - 2)))
    elif p == "attention":
        dims = (descs[0].nnz, descs[1].shape[1])
    elif p == "fused_attn_spmm":
        dims = (descs[0].nnz, descs[2].shape[1])
    elif p == "spgemm":
        dims = (descs[0].nnz, descs[1].nnz, od.nnz)
    else:
        raise KeyError(f"no cost instance rule for {p!r}")
    out.append(_Instance(p, dims))
    return out


def _instances(candidate: Candidate) -> List[_Instance]:
    return [i for step in candidate.ordered_steps() for i in _step_instances(step)]


def cost_signature(candidate: Candidate):
    """Hashable multiset of primitive instances (cost-equivalence key)."""
    return frozenset(Counter(_instances(candidate)).items())


def _instance_leq(a: _Instance, b: _Instance, scenario: str) -> bool:
    """a ≤ b: same primitive, every dim of a no larger under the scenario."""
    if a.primitive != b.primitive or len(a.dims) != len(b.dims):
        return False
    return all(
        _dim_leq(da, db, scenario) is True for da, db in zip(a.dims, b.dims)
    )


def _order_tables(
    instances: Sequence[_Instance], scenario: str
) -> Tuple[List[List[bool]], List[List[bool]]]:
    """``leq[i][j]`` / ``lt[i][j]`` over a pass's distinct instances.

    Thousands of trees share a few dozen instances, so each ordered pair
    is compared once here instead of once per backtracking step.
    """
    leq = [[_instance_leq(a, b, scenario) for b in instances] for a in instances]
    lt = [
        [leq[i][j] and a.dims != b.dims for j, b in enumerate(instances)]
        for i, a in enumerate(instances)
    ]
    return leq, lt


def _dominates(
    small: List[int],
    big: List[int],
    leq: List[List[bool]],
    lt: List[List[bool]],
) -> bool:
    """True if `small` maps injectively into `big`, all ≤, strictly overall.

    Both are lists of indices into the tables of :func:`_order_tables`.
    Equal instances are interchangeable, so the search tries each
    distinct instance of ``big`` once per position, not each copy.
    """
    if len(small) > len(big):
        return False
    return _assign(small, Counter(big), leq, lt, 0, len(small) < len(big))


def _assign(
    small: List[int],
    free: Dict[int, int],
    leq: List[List[bool]],
    lt: List[List[bool]],
    i: int,
    any_strict: bool,
) -> bool:
    """Backtracking for :func:`_dominates`: map ``small[i:]`` into the
    instances still ``free`` (by index; restored on return).  A module
    function, not a closure: a closure that calls itself is a reference
    cycle per call."""
    if i == len(small):
        return any_strict
    leq_i, lt_i = leq[small[i]], lt[small[i]]
    for b, left in free.items():
        if not left or not leq_i[b]:
            continue
        free[b] = left - 1
        found = _assign(small, free, leq, lt, i + 1, any_strict or lt_i[b])
        free[b] = left
        if found:
            return True
    return False


@dataclass
class PrunedCandidate:
    """A promoted candidate annotated with its viable scenarios."""

    candidate: Candidate
    scenarios: Tuple[str, ...]  # subset of SCENARIOS where not dominated
    steps: List[Step]  # ``candidate.ordered_steps()``, as pruning computed it

    @property
    def needs_cost_model(self) -> bool:
        """Viable in both scenarios → embedding sizes alone cannot decide."""
        return len(self.scenarios) == len(SCENARIOS)


def prune_candidates(
    candidates: Sequence[Candidate], analyze: bool = True
) -> List[PrunedCandidate]:
    """The paper's offline pruning: dedupe, dominate, annotate, promote.

    With ``analyze`` (the default) every candidate first passes the
    static plan verifier (:mod:`repro.analysis.planlint`); trees the
    abstract interpreter rejects never reach cost signatures, let alone
    the cost models.  A healthy rule table produces no rejections, so
    this is a cheap invariant check in the common case — but it is the
    load-bearing gate when rules or the enumerator change.  If *every*
    candidate is statically illegal the enumeration itself is broken and
    we raise :class:`~repro.errors.GraniiAnalysisError` carrying the
    first verdict's diagnostics.

    Each tree's dependency order is computed once, here: the verifier,
    the sort key, the cost instances and the promoted plans all walk it.
    """
    orders = [cand.ordered_steps() for cand in candidates]
    if analyze and candidates:
        # imported lazily: repro.analysis imports this package's siblings
        from ..analysis.planlint import reject_illegal
        from ..errors import GraniiAnalysisError

        legal, rejected = reject_illegal(candidates, orders)
        if rejected and not legal:
            cand, verdict = rejected[0]
            raise GraniiAnalysisError(
                f"static analysis rejected every enumerated candidate "
                f"({len(rejected)} total); first verdict:\n"
                + verdict.describe(),
                node=cand.output,
                diagnostics=verdict.diagnostics,
            )
        if rejected:
            dropped = {id(cand) for cand, _ in rejected}
            orders = [o for c, o in zip(candidates, orders) if id(c) not in dropped]
        candidates = legal
    # Per-step work is shared across trees (keyed by step identity, for
    # this call only; each entry holds its step, so no id is reused): a
    # step's description and instance codes.  Codes number the distinct
    # instances, so a tree's cost signature is its sorted code tuple and
    # ≤ is a table lookup in the search.
    step_work: Dict[int, Tuple[Step, str, Tuple[int, ...]]] = {}
    codes: Dict[_Instance, int] = {}
    keyed = []
    for cand, order in zip(candidates, orders):
        described: List[str] = []
        tree_codes: List[int] = []
        for step in order:
            work = step_work.get(id(step))
            if work is None:
                work = step_work[id(step)] = (
                    step,
                    step.describe(),
                    tuple(
                        codes.setdefault(i, len(codes))
                        for i in _step_instances(step)
                    ),
                )
            described.append(work[1])
            tree_codes.extend(work[2])
        keyed.append(
            ((len(cand.steps), " ; ".join(described)), cand, order, tree_codes)
        )
    # 1. collapse cost-equivalent duplicates
    by_sig: Dict[Tuple[int, ...], Tuple[Candidate, List[Step], List[int]]] = {}
    for _, cand, order, tree_codes in sorted(keyed, key=lambda entry: entry[0]):
        by_sig.setdefault(tuple(sorted(tree_codes)), (cand, order, tree_codes))
    distinct = [(cand, order) for cand, order, _ in by_sig.values()]
    coded = [c for _, _, c in by_sig.values()]
    distinct_instances = list(codes)
    primitive_of = [inst.primitive for inst in distinct_instances]
    # an injective same-primitive map needs at least as many instances of
    # every primitive on the big side: rejects most pairs without a search.
    # Candidates share a handful of primitive-count profiles, so the test
    # is made once per pair of profiles.
    profile_ids: Dict[Tuple, int] = {}
    profile = [
        profile_ids.setdefault(
            tuple(sorted(Counter(primitive_of[i] for i in c).items())),
            len(profile_ids),
        )
        for c in coded
    ]
    counts = [dict(p) for p in profile_ids]
    fits = [
        [all(big.get(p, 0) >= c for p, c in small.items()) for big in counts]
        for small in counts
    ]
    tables = {s: _order_tables(distinct_instances, s) for s in SCENARIOS}

    members: Dict[int, List[int]] = {}
    for o, p in enumerate(profile):
        members.setdefault(p, []).append(o)

    # 2. per-scenario domination
    survivors: List[PrunedCandidate] = []
    for k, (cand, order) in enumerate(distinct):
        rivals = [
            coded[o]
            for p, group in members.items()
            if fits[p][profile[k]]
            for o in group
            if o != k
        ]
        viable = tuple(
            scenario
            for scenario in SCENARIOS
            if not any(
                _dominates(small, coded[k], *tables[scenario]) for small in rivals
            )
        )
        if viable:
            survivors.append(PrunedCandidate(cand, viable, order))
    if not survivors:
        raise RuntimeError("pruning removed every candidate — rule bug")
    return survivors
