"""Resource-lifetime pass: executors released on all paths.

Generalizes planlint's workspace acquire/release trace to module code.
The tracked resource is the **executor** — ``ThreadPoolExecutor(...)``
and any function that returns one (the *acquire functions*, derived by
fixpoint).

A resource bound to a local must, on **every** path out of the
function — normal returns *and* exception edges — be released
(``shutdown``, or passed to a derived *releaser* function) or escape
(returned, stored on an attribute, or published into a module-level
container, which transfers ownership to a longer-lived teardown path).
Locals holding resources inside a container (``entry[role] = pool``)
become *holders* and are tracked as a unit.

The interpreter runs each function with explicit try/except/finally
flow: at every statement that performs a call while resources are
live, the pre-state is snapshotted as a potential exception edge; the
enclosing handlers run on that snapshot, and anything still live when
an exception (or return) leaves the function is a ``resource-leak``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .model import Finding, FunctionInfo, Program, receiver_text

__all__ = ["analyze_lifetime"]


def _is_seed_acquire(call: ast.Call) -> Optional[str]:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name == "ThreadPoolExecutor":
        return "executor"
    return None


def _derive_acquire_fns(prog: Program) -> Dict[str, str]:
    """Functions whose return value is a tracked resource."""
    kinds: Dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for fi in prog.functions:
            if fi.qualname in kinds:
                continue
            kind = _returns_resource(fi, prog, kinds)
            if kind is not None:
                kinds[fi.qualname] = kind
                changed = True
    return kinds


def _call_acquire_kind(
    call: ast.Call, fi: FunctionInfo, prog: Program, acq: Dict[str, str]
) -> Optional[str]:
    kind = _is_seed_acquire(call)
    if kind is not None:
        return kind
    for callee in prog.resolve_call(call, fi):
        if callee.qualname in acq:
            return acq[callee.qualname]
    return None


def _returns_resource(fi, prog, acq) -> Optional[str]:
    assigned: Dict[str, str] = {}
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            kind = _call_acquire_kind(node.value, fi, prog, acq)
            if kind is not None:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned[t.id] = kind
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Call):
                kind = _call_acquire_kind(node.value, fi, prog, acq)
                if kind is not None:
                    return kind
            if isinstance(node.value, ast.Name) and node.value.id in assigned:
                return assigned[node.value.id]
    return None


def _derive_releasers(prog: Program, acq: Dict[str, str]) -> Set[str]:
    """Functions that release (or take ownership of) their first arg."""
    releasers: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for fi in prog.functions:
            if fi.qualname in releasers:
                continue
            if _releases_param(fi, prog, releasers):
                releasers.add(fi.qualname)
                changed = True
    return releasers


def _releases_param(fi, prog, releasers) -> bool:
    args = fi.node.args.args
    skip = 1 if (fi.cls and args and args[0].arg in ("self", "cls")) else 0
    if len(args) <= skip:
        return False
    param = args[skip].arg
    derived: Set[str] = {param}
    for node in ast.walk(fi.node):
        # `for pool in entry.values():` -> pool derives from entry
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            root = node.iter
            while isinstance(root, (ast.Attribute, ast.Call, ast.Subscript)):
                root = getattr(root, "value", None) or getattr(
                    root, "func", None
                )
                if isinstance(root, ast.Attribute):
                    continue
            if isinstance(root, ast.Name) and root.id in derived:
                derived.add(node.target.id)
    module_globals = {
        t.id
        for tree_path, tree in prog.trees.items()
        if tree_path == fi.path
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(t, ast.Name)
    }
    for node in ast.walk(fi.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # direct release primitive on a derived name
        if isinstance(func, ast.Attribute) and func.attr == "shutdown":
            base = func.value
            if isinstance(base, ast.Name) and base.id in derived:
                return True
        # handoff to another releaser
        if node.args and isinstance(node.args[0], ast.Name):
            if node.args[0].id in derived:
                for callee in prog.resolve_call(node, fi):
                    if callee.qualname in releasers:
                        return True
        # escape into a module-level container: POOL.setdefault(...).append(p)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "add", "put")
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in derived
        ):
            recv = receiver_text(func.value)
            root = recv.split(".")[0] if recv else ""
            if root in module_globals:
                return True
    # escape via `GLOBAL[key] = param`
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id in module_globals
                    and isinstance(node.value, ast.Name)
                    and node.value.id in derived
                ):
                    return True
    return False


# ----------------------------------------------------------------------
# The per-function abstract interpreter
# ----------------------------------------------------------------------
class _Interp:
    def __init__(self, fi: FunctionInfo, prog: Program, acq, releasers):
        self.fi = fi
        self.prog = prog
        self.acq = acq
        self.releasers = releasers
        self.findings: List[Finding] = []
        self.locals: Set[str] = set()

    # -- state helpers --------------------------------------------------
    @staticmethod
    def _merge(states: List[Optional[Dict[str, str]]]):
        live = [s for s in states if s is not None]
        if not live:
            return None
        out: Dict[str, str] = {}
        for s in live:
            out.update(s)
        return out

    def _leak(self, state: Dict[str, str], line: int, how: str) -> None:
        for var, kind in sorted(state.items()):
            self.findings.append(Finding(
                "resource-leak", self.fi.path, line,
                f"{kind} {var!r} in {self.fi.qualname} {how} — every "
                f"executor must be released or escape on all paths, "
                f"including exception edges",
            ))

    # -- classification -------------------------------------------------
    def _acquire_kind(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Call):
            return _call_acquire_kind(value, self.fi, self.prog, self.acq)
        return None

    def _release_targets(self, call: ast.Call, state) -> List[str]:
        """Names in `state` this call releases / takes ownership of."""
        func = call.func
        out: List[str] = []
        if isinstance(func, ast.Attribute) and func.attr == "shutdown":
            if isinstance(func.value, ast.Name) and func.value.id in state:
                out.append(func.value.id)
        if call.args and isinstance(call.args[0], ast.Name):
            name = call.args[0].id
            if name in state:
                for callee in self.prog.resolve_call(call, self.fi):
                    if callee.qualname in self.releasers:
                        out.append(name)
                        break
        return out

    def _is_risky(self, stmt: ast.stmt, state) -> bool:
        """Statement can raise with resources live and is not itself a
        pure release action (releases never snapshot: the cleanup
        sequence at a function's end is not a new leak edge).

        Only *simple* statements (and compound-statement headers) are
        snapshotted here — calls inside a compound statement's body get
        their own snapshot at the right handler nesting when the body
        is interpreted.
        """
        if not state:
            return False
        if isinstance(
            stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr,
                   ast.Assert, ast.Delete, ast.Return, ast.Raise)
        ):
            roots: List[ast.AST] = [stmt]
        elif isinstance(stmt, ast.If):
            roots = [stmt.test]
        elif isinstance(stmt, ast.While):
            roots = [stmt.test]
        elif isinstance(stmt, ast.For):
            roots = [stmt.iter]
        elif isinstance(stmt, ast.With):
            roots = [item.context_expr for item in stmt.items]
        else:
            return False
        calls = [
            n for root in roots for n in ast.walk(root)
            if isinstance(n, ast.Call)
        ]
        if not calls:
            return False
        return not all(self._release_targets(c, state) for c in calls)

    # -- driver ---------------------------------------------------------
    def run(self) -> List[Finding]:
        exc_out: List[Tuple[Dict[str, str], int]] = []
        final = self.run_block(list(self.fi.node.body), {}, exc_out)
        if final:
            self._leak(final, self.fi.node.body[-1].lineno, "still live at end")
        seen: Set[str] = set()
        for state, line in exc_out:
            for var in list(state):
                if var in seen:
                    state.pop(var)
                else:
                    seen.add(var)
            if state:
                self._leak(state, line, "leaks if an exception unwinds here")
        return self.findings

    def run_block(self, stmts, state, exc_out):
        for stmt in stmts:
            if state is None:
                return None
            state = self.run_stmt(stmt, state, exc_out)
        return state

    def run_stmt(self, stmt, state, exc_out):
        if self._is_risky(stmt, state):
            exc_out.append((dict(state), stmt.lineno))
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt, state)
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            return state
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            for name in self._release_targets(stmt.value, state):
                state.pop(name, None)
            return state
        if isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Name):
                state.pop(stmt.value.id, None)  # ownership to the caller
            if state:
                self._leak(state, stmt.lineno, "still live at this return")
            return None
        if isinstance(stmt, ast.Raise):
            exc_out.append((dict(state), stmt.lineno))
            return None
        if isinstance(stmt, ast.If):
            s1 = self.run_block(stmt.body, dict(state), exc_out)
            s2 = self.run_block(stmt.orelse, dict(state), exc_out)
            return self._merge([s1, s2])
        if isinstance(stmt, (ast.For, ast.While)):
            s1 = self.run_block(stmt.body, dict(state), exc_out)
            merged = self._merge([state, s1]) or dict(state)
            s2 = self.run_block(stmt.body, dict(merged), exc_out)
            return self._merge([merged, s2]) or merged
        if isinstance(stmt, ast.With):
            return self.run_block(stmt.body, state, exc_out)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, state, exc_out)
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            return state
        return state

    def _assign(self, stmt: ast.Assign, state):
        value = stmt.value
        kind = self._acquire_kind(value)
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
        if kind is not None:
            if isinstance(target, ast.Name):
                state[target.id] = kind
            # attribute / subscript target: escapes at birth
            return state
        if isinstance(value, ast.Name) and value.id in state:
            if isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Name):
                    if base.id in state and state[base.id] == "holder":
                        state.pop(value.id)  # moved into a tracked holder
                    elif base.id in self._module_globals():
                        state.pop(value.id)  # published module-wide
                    else:
                        state.pop(value.id)
                        state[base.id] = "holder"
            elif isinstance(target, (ast.Attribute,)):
                state.pop(value.id)  # stored on an object: escapes
            return state
        # `entry = {}` style holder seed: only tracked once it holds
        if isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Name)
                and isinstance(value, ast.Name)
                and value.id in state
            ):
                state.pop(value.id)
                state[base.id] = "holder"
        # publishing a holder: GLOBAL[key] = holder
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in self._module_globals()
            and isinstance(value, ast.Name)
        ):
            state.pop(value.id, None)
        return state

    def _module_globals(self) -> Set[str]:
        cached = getattr(self, "_mg", None)
        if cached is None:
            tree = self.prog.trees.get(self.fi.path)
            cached = set()
            if tree is not None:
                for node in tree.body:
                    targets = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name):
                            cached.add(t.id)
            self._mg = cached
        return cached

    def _try(self, stmt: ast.Try, state, exc_out):
        body_exc: List[Tuple[Dict[str, str], int]] = []
        normal = self.run_block(stmt.body, dict(state), body_exc)
        after: List[Optional[Dict[str, str]]] = []
        if normal is not None:
            normal = self.run_block(stmt.orelse, normal, body_exc)
        after.append(normal)
        for est, line in body_exc:
            if not stmt.handlers:
                exc_out.append((est, line))
                continue
            for handler in stmt.handlers:
                h_exc: List[Tuple[Dict[str, str], int]] = []
                hs = self.run_block(handler.body, dict(est), h_exc)
                after.append(hs)
                exc_out.extend(h_exc)
        merged = self._merge(after)
        if stmt.finalbody:
            f_exc: List[Tuple[Dict[str, str], int]] = []
            if merged is not None:
                merged = self.run_block(stmt.finalbody, merged, f_exc)
            fixed: List[Tuple[Dict[str, str], int]] = []
            for est, line in exc_out:
                out = self.run_block(stmt.finalbody, dict(est), f_exc)
                if out:
                    fixed.append((out, line))
            exc_out[:] = fixed
            exc_out.extend(f_exc)
        return merged


def analyze_lifetime(prog: Program) -> List[Finding]:
    acq = _derive_acquire_fns(prog)
    releasers = _derive_releasers(prog, acq)
    findings: List[Finding] = []
    for fi in prog.functions:
        if fi.qualname in acq:
            continue  # acquire functions hand ownership to their caller
        has_acquire = any(
            isinstance(n, ast.Assign)
            and isinstance(n.targets[0], ast.Name)
            and isinstance(n.value, ast.Call)
            and _call_acquire_kind(n.value, fi, prog, acq) is not None
            for n in ast.walk(fi.node)
            if isinstance(n, ast.Assign) and len(n.targets) == 1
        )
        if not has_acquire:
            continue
        findings.extend(_Interp(fi, prog, acq, releasers).run())
    return findings
