"""Disjoint-write pass: symbolic interval proof for split-fold span writes.

Upgrades the file-local ``shared-write-in-parallel`` heuristic into a
whole-program proof: the *producer* loop in
:func:`~repro.kernels.blocked.worker_spans` derives
``r0, r1 = int(bounds[i]), int(bounds[i + 1])`` from
``plan_row_shards`` (whose result is monotone non-decreasing by
construction) and ships them at fixed positions of a span tuple
(``spans.append((r0, r1))``); the *consumer* (the span body ``run_span``
in :func:`~repro.kernels.blocked.fold_spans`, run on the pool's
threads) unpacks the tuple and writes ``out[r0:r1]``, directly or
through a view it then updates in place.  The pass pairs producer and
consumer by tuple arity, carries each endpoint symbolically as
``bounds[i + c] + d``, and proves writes for different ``i`` disjoint
iff the lower endpoint is ``bounds[i] + d_lo`` with ``d_lo >= 0``, the
upper is ``bounds[i + 1] + d_hi`` with ``d_hi <= 0`` (given monotone
bounds, ``[b_i, b_{i+1})`` intervals never overlap).

Any slice write through unpacked bounds that cannot be proved — an
unrecognized bounds source, a widened slice, or an offset lower
bound — is a ``shard-write-overlap`` finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .model import Finding, FunctionInfo, Program

__all__ = ["analyze_disjoint"]

# Calls whose result is a provably monotone non-decreasing bounds array.
_MONOTONE_PRODUCERS = {"plan_row_shards"}


@dataclass(frozen=True)
class _Sym:
    """``bounds[loop_var + index_offset] + value_offset``."""

    index_offset: int
    value_offset: int


@dataclass
class _Producer:
    fi: FunctionInfo
    monotone: bool
    line: int
    tuple_arity: int
    # tuple position -> symbol for every shipped bound value
    positions: Dict[int, _Sym]


def _const_int(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return -inner if inner is not None else None
    return None


def _strip_int(node: ast.AST) -> ast.AST:
    """``int(x)`` is value-transparent for interval reasoning."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and len(node.args) == 1
    ):
        node = node.args[0]
    return node


def _parse_bound_expr(
    node: ast.AST, bounds_name: str, loop_var: str
) -> Optional[_Sym]:
    """Parse ``int(bounds[i + c]) + d`` (any nesting order) to a _Sym."""
    node = _strip_int(node)
    value_offset = 0
    while isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        rhs = _const_int(node.right)
        if rhs is None:
            return None
        value_offset += rhs if isinstance(node.op, ast.Add) else -rhs
        node = _strip_int(node.left)
    if not (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == bounds_name
    ):
        return None
    idx = node.slice
    if isinstance(idx, ast.Name) and idx.id == loop_var:
        return _Sym(0, value_offset)
    if (
        isinstance(idx, ast.BinOp)
        and isinstance(idx.op, (ast.Add, ast.Sub))
        and isinstance(idx.left, ast.Name)
        and idx.left.id == loop_var
    ):
        c = _const_int(idx.right)
        if c is None:
            return None
        return _Sym(c if isinstance(idx.op, ast.Add) else -c, value_offset)
    return None


def _find_producers(prog: Program) -> List[_Producer]:
    out: List[_Producer] = []
    for fi in prog.functions:
        bounds_vars: Dict[str, bool] = {}  # name -> provably monotone
        for node in ast.walk(fi.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name is not None and (
                    "shard" in name or "bound" in name or name in
                    _MONOTONE_PRODUCERS or "cumsum" in name
                ):
                    bounds_vars[node.targets[0].id] = (
                        name in _MONOTONE_PRODUCERS
                    )
        if not bounds_vars:
            continue
        for loop in ast.walk(fi.node):
            if not (
                isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Name)
            ):
                continue
            loop_var = loop.target.id
            for bname, monotone in bounds_vars.items():
                # symbols bound inside the loop: r0 -> bounds[i]+d ...
                symbols: Dict[str, _Sym] = {}
                for st in ast.walk(loop):
                    if not isinstance(st, ast.Assign) or len(st.targets) != 1:
                        continue
                    tgt, val = st.targets[0], st.value
                    pairs: List[Tuple[ast.AST, ast.AST]] = []
                    if isinstance(tgt, ast.Tuple) and isinstance(
                        val, ast.Tuple
                    ) and len(tgt.elts) == len(val.elts):
                        pairs = list(zip(tgt.elts, val.elts))
                    else:
                        pairs = [(tgt, val)]
                    for t, v in pairs:
                        if isinstance(t, ast.Name):
                            sym = _parse_bound_expr(v, bname, loop_var)
                            if sym is not None:
                                symbols[t.id] = sym
                for call in ast.walk(loop):
                    if not (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("submit", "put", "append")
                    ):
                        continue
                    for arg in call.args:
                        if not isinstance(arg, ast.Tuple):
                            continue
                        positions = {}
                        for pos, elt in enumerate(arg.elts):
                            sym = None
                            if isinstance(elt, ast.Name):
                                sym = symbols.get(elt.id)
                            if sym is None:
                                sym = _parse_bound_expr(elt, bname, loop_var)
                            if sym is not None:
                                positions[pos] = sym
                        if positions:
                            out.append(_Producer(
                                fi=fi, monotone=monotone, line=call.lineno,
                                tuple_arity=len(arg.elts),
                                positions=positions,
                            ))
    return out


def _consumer_findings(
    fi: FunctionInfo, producers: List[_Producer]
) -> List[Finding]:
    """Check every slice-store through tuple-unpacked bound names."""
    params = {a.arg for a in fi.node.args.args}
    findings: List[Finding] = []
    for node in ast.walk(fi.node):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Name)
            and node.value.id in params
        ):
            continue
        names = node.targets[0].elts
        arity = len(names)
        matched = [p for p in producers if p.tuple_arity == arity]
        if not matched:
            continue
        # name -> tuple position, for every plainly-named slot
        slot: Dict[str, int] = {
            elt.id: pos
            for pos, elt in enumerate(names)
            if isinstance(elt, ast.Name)
        }
        for line, sub in _slice_writes(fi):
            lo, hi = sub.slice.lower, sub.slice.upper
            lo_pos = _slot_of(lo, slot)
            hi_pos = _slot_of(hi, slot)
            if lo_pos is None and hi_pos is None:
                continue  # slice not built from the task's bound fields
            for prod in matched:
                findings.extend(_prove(fi, prod, line, sub, lo, hi, slot))
    return findings


def _slice_writes(fi: FunctionInfo) -> List[Tuple[int, ast.Subscript]]:
    """Every ``x[lo:hi]`` the function writes: a slice store
    (``x[lo:hi] = ...`` / ``x[lo:hi] += ...``), or a view ``v = x[lo:hi]``
    that is then updated in place (``v /= ...``, ``v[...] = ...``) or
    handed to a call, which may write it."""
    stores: List[Tuple[int, ast.Subscript]] = []
    views: Dict[str, Tuple[int, ast.Subscript]] = {}
    written = set()
    for st in ast.walk(fi.node):
        if isinstance(st, ast.Assign) and len(st.targets) == 1:
            target, value = st.targets[0], st.value
            if isinstance(target, ast.Subscript) and isinstance(
                target.slice, ast.Slice
            ):
                stores.append((st.lineno, target))
            elif (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Subscript)
                and isinstance(value.slice, ast.Slice)
            ):
                views[target.id] = (st.lineno, value)
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                written.add(target.value.id)
        elif isinstance(st, ast.AugAssign):
            target = st.target
            if isinstance(target, ast.Subscript) and isinstance(
                target.slice, ast.Slice
            ):
                stores.append((st.lineno, target))
            elif isinstance(target, ast.Name):
                written.add(target.id)
        elif isinstance(st, ast.Call):
            written.update(
                arg.id for arg in st.args if isinstance(arg, ast.Name)
            )
    stores.extend(view for name, view in views.items() if name in written)
    return stores


def _slot_of(node: Optional[ast.AST], slot: Dict[str, int]) -> Optional[int]:
    if node is None:
        return None
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and leaf.id in slot:
            return slot[leaf.id]
    return None


def _endpoint_sym(
    node: Optional[ast.AST], slot: Dict[str, int], prod: _Producer
) -> Optional[_Sym]:
    """Symbol of a consumer-side slice endpoint: an unpacked name plus
    an optional constant offset (``r1 + 1``)."""
    if node is None:
        return None
    node = _strip_int(node)
    offset = 0
    while isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        c = _const_int(node.right)
        if c is None:
            return None
        offset += c if isinstance(node.op, ast.Add) else -c
        node = _strip_int(node.left)
    if isinstance(node, ast.Name) and node.id in slot:
        base = prod.positions.get(slot[node.id])
        if base is None:
            return None
        return _Sym(base.index_offset, base.value_offset + offset)
    return None


def _prove(fi, prod, line, sub, lo, hi, slot) -> List[Finding]:
    target = sub.value
    tname = target.id if isinstance(target, ast.Name) else "<expr>"
    where = (
        f"write {tname}[...] in {fi.qualname} (bounds shipped from "
        f"{prod.fi.qualname}:{prod.line})"
    )
    if not prod.monotone:
        return [Finding(
            "shard-write-overlap", fi.path, line,
            f"{where}: the shard bounds source is not a recognized "
            f"monotone producer ({'/'.join(sorted(_MONOTONE_PRODUCERS))}), "
            f"so shard intervals cannot be proved disjoint",
        )]
    lo_sym = _endpoint_sym(lo, slot, prod)
    hi_sym = _endpoint_sym(hi, slot, prod)
    if lo_sym is None or hi_sym is None:
        return [Finding(
            "shard-write-overlap", fi.path, line,
            f"{where}: slice endpoints are not both derived from the "
            f"task's shipped bounds — not provably disjoint",
        )]
    ok = (
        hi_sym.index_offset == lo_sym.index_offset + 1
        and lo_sym.value_offset >= 0
        and hi_sym.value_offset <= 0
    )
    if ok:
        return []
    return [Finding(
        "shard-write-overlap", fi.path, line,
        f"{where}: writes [bounds[i+{lo_sym.index_offset}]"
        f"{lo_sym.value_offset:+d}, bounds[i+{hi_sym.index_offset}]"
        f"{hi_sym.value_offset:+d}) can overlap the neighbouring shard "
        f"for monotone bounds",
    )]


def analyze_disjoint(prog: Program) -> List[Finding]:
    producers = _find_producers(prog)
    findings: List[Finding] = []
    for fi in prog.functions:
        findings.extend(_consumer_findings(fi, producers))
    return findings
