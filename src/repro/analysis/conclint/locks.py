"""Lock-discipline pass: acquisition-order graph, cycles, blocking.

Builds the whole-program lock-acquisition-order graph by interpreting
every ``with <lock>:`` region interprocedurally: a region of lock ``L``
contributes an edge ``L -> M`` for every lock ``M`` acquired inside it,
either by direct nesting or through any function the region may call
(``may_acquire`` fixpoint over the resolved call graph).

Findings:

- ``lock-order-cycle`` — a cycle in the order graph (two call paths
  that acquire the same locks in opposite orders can deadlock).
- ``lock-self-deadlock`` — a non-reentrant ``Lock`` region that can
  re-acquire its own lock (``threading.Lock`` is not recursive).
- ``lock-held-across-blocking-call`` — a region whose body can reach a
  blocking primitive (``queue.get``, ``Event.wait``, ``Future.result``,
  ``time.sleep``, process/executor joins) while the lock is held; one
  finding per region, reported at the ``with`` line, naming every
  blocking site so a single waiver covers the designed cases.
- ``lock-acquire-no-release`` — a bare ``.acquire()`` on a known lock
  whose ``.release()`` is not inside a ``finally`` block (an exception
  between them leaks the lock forever; use ``with``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .model import Finding, FunctionInfo, LockInfo, Program, receiver_text

__all__ = ["LockGraph", "analyze_locks"]

_PROC_HINTS = ("proc", "process", "thread", "worker")


@dataclass
class LockGraph:
    """The acquisition-order graph plus per-edge witness sites."""

    locks: Dict[str, LockInfo]
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]] = field(
        default_factory=dict
    )

    def add_edge(self, src: str, dst: str, site: Tuple[str, int]) -> None:
        if (src, dst) not in self.edges:
            self.edges.add((src, dst))
            self.edge_sites[(src, dst)] = site

    def site_index(self) -> Dict[Tuple[str, int], str]:
        """(construction relpath, lineno) -> lock id, for the dynamic
        sanitizer's lock-identity mapping."""
        out: Dict[Tuple[str, int], str] = {}
        for info in self.locks.values():
            for site in info.sites:
                out[site] = info.lock_id
        return out


def blocking_reason(call: ast.Call) -> Optional[str]:
    """Name the blocking primitive a call is, or None.

    Receiver-name heuristics keep ``dict.get`` / ``str.join`` out: the
    repo's own naming (``*queue*``, ``event``, ``proc``/``worker``,
    ``*pool*``) is part of the checked discipline.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    recv = receiver_text(func.value).lower()
    attr = func.attr
    if attr == "sleep" and (recv == "time" or recv.endswith(".time")):
        return "time.sleep"
    if attr == "get" and "queue" in recv:
        return f"{recv}.get"
    if attr == "wait" and ("event" in recv or "cond" in recv or "fut" in recv):
        return f"{recv}.wait"
    if attr == "result":
        if "fut" in recv:
            return f"{recv}.result"
        inner = func.value
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "submit"
        ):
            return "submit(...).result"
    if attr == "join":
        if isinstance(func.value, ast.Constant):
            return None  # str.join
        if any(h in recv for h in _PROC_HINTS):
            return f"{recv}.join"
    if attr == "join_thread":
        return f"{recv}.join_thread"
    if attr == "shutdown" and ("pool" in recv or "executor" in recv):
        return f"{recv}.shutdown"
    return None


def _with_lock(item: ast.withitem, fi: FunctionInfo, prog: Program):
    if item.optional_vars is not None:
        return None
    return prog.resolve_lock(item.context_expr, fi)


@dataclass
class _Summary:
    acquires: Set[str] = field(default_factory=set)
    blocks: List[Tuple[str, int]] = field(default_factory=list)  # (what, line)
    calls: List[Tuple[ast.Call, int]] = field(default_factory=list)


def _summarize(fi: FunctionInfo, prog: Program) -> _Summary:
    """Direct (non-transitive) lock/blocking/call facts of one function,
    excluding nested function bodies (they have their own summaries and
    only contribute when actually called)."""
    s = _Summary()
    own = fi.node

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) and child is not own:
                continue
            if isinstance(child, ast.With):
                for item in child.items:
                    info = _with_lock(item, fi, prog)
                    if info is not None:
                        s.acquires.add(info.lock_id)
            if isinstance(child, ast.Call):
                reason = blocking_reason(child)
                if reason is not None:
                    s.blocks.append((reason, child.lineno))
                if isinstance(child.func, ast.Attribute) and child.func.attr in (
                    "acquire",
                ):
                    info = prog.resolve_lock(child.func.value, fi)
                    if info is not None:
                        s.acquires.add(info.lock_id)
                s.calls.append((child, child.lineno))
            walk(child)

    walk(own)
    return s


def _fixpoint(prog: Program):
    """Transitive ``may_acquire`` / ``may_block`` per function."""
    summaries = {fi.qualname: _summarize(fi, prog) for fi in prog.functions}
    resolved: Dict[str, List[Tuple[str, int]]] = {}
    for fi in prog.functions:
        outs: List[Tuple[str, int]] = []
        for call, line in summaries[fi.qualname].calls:
            for callee in prog.resolve_call(call, fi):
                outs.append((callee.qualname, line))
        resolved[fi.qualname] = outs
    may_acquire = {q: set(s.acquires) for q, s in summaries.items()}
    may_block = {q: bool(s.blocks) for q, s in summaries.items()}
    changed = True
    while changed:
        changed = False
        for q, outs in resolved.items():
            for callee, _line in outs:
                if not may_acquire[q] >= may_acquire[callee]:
                    may_acquire[q] |= may_acquire[callee]
                    changed = True
                if may_block[callee] and not may_block[q]:
                    may_block[q] = True
                    changed = True
    return summaries, may_acquire, may_block


def _scc_cycles(edges: Set[Tuple[str, str]]) -> List[List[str]]:
    """Strongly-connected components with more than one node."""
    adj: Dict[str, List[str]] = {}
    nodes: Set[str] = set()
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        nodes.update((a, b))
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def strong(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        for w in adj.get(v, ()):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1:
                out.append(sorted(comp))

    for v in sorted(nodes):
        if v not in index:
            strong(v)
    return out


def analyze_locks(prog: Program) -> Tuple[List[Finding], LockGraph]:
    findings: List[Finding] = []
    graph = LockGraph(locks=dict(prog.locks))
    summaries, may_acquire, may_block = _fixpoint(prog)

    for fi in prog.functions:
        _scan_regions(
            fi, prog, summaries, may_acquire, may_block, graph, findings
        )
        _check_bare_acquire(fi, prog, findings)

    for cycle in _scc_cycles(graph.edges):
        pairs = [
            (a, b) for (a, b) in graph.edges if a in cycle and b in cycle
        ]
        site = graph.edge_sites[min(pairs)]
        findings.append(
            Finding(
                "lock-order-cycle", site[0], site[1],
                f"lock-order cycle among {{{', '.join(cycle)}}}: two "
                f"threads taking these locks in opposite orders can "
                f"deadlock; pick one rank order (see DESIGN.md)",
            )
        )
    return findings, graph


def _scan_regions(fi, prog, summaries, may_acquire, may_block, graph, findings):
    """Walk one function; every `with <lock>:` starts a region."""

    def _walk_no_defs(root: ast.AST):
        """Yield descendants without entering nested function bodies —
        a closure defined under a lock does not run under it."""
        for child in ast.iter_child_nodes(root):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield child
            yield from _walk_no_defs(child)

    def region(body: List[ast.stmt], held: List[LockInfo], blocked_out) -> None:
        for stmt in body:
            for node in [stmt, *_walk_no_defs(stmt)]:
                if isinstance(node, ast.With):
                    for item in node.items:
                        info = _with_lock(item, fi, prog)
                        if info is None:
                            continue
                        for h in held:
                            graph.add_edge(
                                h.lock_id, info.lock_id, (fi.path, node.lineno)
                            )
                            if (
                                h.lock_id == info.lock_id
                                and h.kind == "lock"
                            ):
                                findings.append(Finding(
                                    "lock-self-deadlock", fi.path, node.lineno,
                                    f"non-reentrant lock {h.lock_id} "
                                    f"re-acquired while already held in "
                                    f"{fi.qualname}",
                                ))
                if isinstance(node, ast.Call) and held:
                    reason = blocking_reason(node)
                    if reason is not None:
                        blocked_out.append((reason, node.lineno))
                    for callee in prog.resolve_call(node, fi):
                        q = callee.qualname
                        for lock_id in may_acquire[q]:
                            for h in held:
                                graph.add_edge(
                                    h.lock_id, lock_id, (fi.path, node.lineno)
                                )
                                if h.lock_id == lock_id and h.kind == "lock":
                                    findings.append(Finding(
                                        "lock-self-deadlock", fi.path,
                                        node.lineno,
                                        f"non-reentrant lock {h.lock_id} "
                                        f"re-acquired via call to "
                                        f"{callee.name}() in {fi.qualname}",
                                    ))
                        if may_block[q]:
                            blocked_out.append(
                                (f"{callee.name}()", node.lineno)
                            )

    # top-level With statements open regions; nested ones are caught by
    # the ast.walk above (with the outer lock held)
    def drive(body: List[ast.stmt], held: List[LockInfo]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.With):
                infos = [
                    i for i in (
                        _with_lock(item, fi, prog) for item in stmt.items
                    ) if i is not None
                ]
                if infos:
                    blocked: List[Tuple[str, int]] = []
                    region(stmt.body, held + infos, blocked)
                    if blocked:
                        seen, names = set(), []
                        for what, line in blocked:
                            if what not in seen:
                                seen.add(what)
                                names.append(f"{what} (line {line})")
                        findings.append(Finding(
                            "lock-held-across-blocking-call",
                            fi.path, stmt.lineno,
                            f"{' + '.join(i.lock_id for i in infos)} held "
                            f"across blocking call(s) in {fi.qualname}: "
                            f"{'; '.join(names[:6])}",
                        ))
                drive(stmt.body, held + infos)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            drive(_stmt_bodies(stmt), held)

    drive(fi.node.body, [])


def _stmt_bodies(node: ast.AST) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    for attr in ("body", "orelse", "finalbody"):
        val = getattr(node, attr, None)
        if isinstance(val, list):
            out.extend(s for s in val if isinstance(s, ast.stmt))
    if isinstance(node, ast.Try):
        for h in node.handlers:
            out.extend(h.body)
    return out


def _check_bare_acquire(fi: FunctionInfo, prog: Program, findings) -> None:
    acquires: List[Tuple[LockInfo, int]] = []
    releases_in_finally: Set[str] = set()
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                    ):
                        info = prog.resolve_lock(sub.func.value, fi)
                        if info is not None:
                            releases_in_finally.add(info.lock_id)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            info = prog.resolve_lock(node.func.value, fi)
            if info is not None:
                acquires.append((info, node.lineno))
    for info, line in acquires:
        if info.lock_id not in releases_in_finally:
            findings.append(Finding(
                "lock-acquire-no-release", fi.path, line,
                f"{info.lock_id}.acquire() in {fi.qualname} without a "
                f"release() in a finally block — an exception in between "
                f"leaks the lock; use `with`",
            ))
