"""AST linter enforcing the repository's runtime invariants.

Rules (each waivable per line with ``# lint: allow(<rule>)`` on the
offending line or the line above; waivers are counted, not silent):

- ``env-outside-config`` — ``os.environ`` / ``os.getenv`` anywhere but
  ``repro/config.py``.  Every knob must flow through the validated
  ``REPRO_*`` accessors so typos raise ``GraniiConfigError`` instead of
  silently picking defaults.
- ``raw-alloc-in-kernels`` — ``np.empty`` / ``np.zeros`` inside
  ``repro/kernels/`` bypasses the :class:`WorkspaceArena` scratch
  discipline (``workspace.py`` itself is exempt: the arena's own
  allocation cannot bypass the arena).
- ``raw-alloc-in-tensor`` — its twin for ``repro/tensor/``: ``np.empty``
  / ``np.zeros`` and their ``_like`` variants there bypass the step pool
  (``workspace.step_buffer``), and a step-sized array allocated raw is
  memory the allocator returns to the OS and faults back every step.
  Arrays that outlive a step (parameters, optimizer state) carry waivers.
- ``masked-select-in-hot-path`` — ``np.copyto(..., where=...)``,
  ``np.putmask`` and three-argument ``np.where`` inside ``repro/tensor/``
  and ``repro/kernels/``: a masked select branches per element, and on
  random-sign data it runs 10-15x slower than the ufunc arithmetic that
  gives the same bits (``kernels/dense.py``).  Selects over one value per
  row, not per edge or element, carry waivers.
- ``granii-except`` — a bare ``except:`` anywhere, or an
  ``except Exception/GraniiError`` whose body only swallows
  (``pass``/``...``/``continue``) inside guard/dispatch modules, where a
  swallowed failure silently breaks the fallback-ladder contract.
- ``shared-write-in-parallel`` — inside a function submitted to a
  thread pool (``.map``/``.submit``, or the span body handed to the
  fork-join ``run_spans(spans, body)``) in ``repro/kernels/``,
  ``repro/serving/``, or ``repro/framework/mp.py``, a write to a
  captured array whose index is not provably derived from the
  function's own work item (parameters/locals); such writes are not
  provably disjoint across workers.  A write is a subscript assignment
  or an ``out=`` keyword: ``out=out[r0:r1]`` with ``r0, r1`` from the
  work item is clean, ``out=out`` and ``out=out[:]`` are findings.
  Both free functions and ``self._method`` targets are resolved; a
  lambda cannot be, so span bodies are named functions.
- ``unused-import`` — a name an ``import`` binds that the module never
  reads.  A name listed in ``__all__`` counts as read, and so does every
  import of an ``__init__.py`` (a package re-exports what it imports);
  ``from __future__`` imports are skipped.  A read anywhere in the
  module counts, even in another function than the import's, and so
  does a name inside a string annotation.

CLI::

    python -m repro.analysis.lint src/repro [--json REPORT.json]

Exit status 0 when no (unwaived) violations, 1 otherwise; each finding
prints as ``<rule> <file>:<line> <message>``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

__all__ = ["RULES", "Violation", "lint_source", "lint_paths", "main"]

RULES = (
    "env-outside-config",
    "raw-alloc-in-kernels",
    "raw-alloc-in-tensor",
    "masked-select-in-hot-path",
    "granii-except",
    "shared-write-in-parallel",
    "unused-import",
)

# what bypasses the step pool in repro/tensor/
_TENSOR_ALLOCATORS = {"empty", "zeros", "empty_like", "zeros_like"}

# masked selects, flagged in repro/tensor/ and repro/kernels/
_MASKED_SELECTS = {"copyto", "putmask", "where"}

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([a-z\-,\s]+)\)")

# modules where a swallowed broad handler breaks the runtime contract
_GUARD_PATH_HINTS = ("core/guard", "kernels/registry", "core/plan")


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    message: str
    waived: bool = False

    def describe(self) -> str:
        suffix = " (waived)" if self.waived else ""
        return f"{self.rule} {self.path}:{self.line} {self.message}{suffix}"


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_np_call(node: ast.Call, names: Set[str]) -> Optional[str]:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr in names
    ):
        return f"{func.value.id}.{func.attr}"
    return None


def _masked_select(node: ast.Call) -> Optional[str]:
    """The call if it is ``np.copyto(..., where=)``, ``np.putmask`` or a
    three-argument ``np.where``."""
    name = _is_np_call(node, _MASKED_SELECTS)
    if name is None or name.endswith("putmask"):
        return name
    if name.endswith("copyto"):
        return name if any(k.arg == "where" for k in node.keywords) else None
    return name if len(node.args) == 3 else None


def _imported_names(tree: ast.Module):
    """``(name, node)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node


def _read_names(tree: ast.Module) -> Set[str]:
    """Names the module reads: loads, ``__all__`` entries, and the names
    inside string annotations."""
    names: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                try:
                    parsed = ast.parse(c.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return names


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Handler body does nothing but suppress the exception."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for n in nodes:
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            names.append(n.attr)
    return names


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = _norm(path)
        self.tree = tree
        self.found: List[Violation] = []
        self.in_kernels = (
            "repro/kernels/" in self.path
            and not self.path.endswith("workspace.py")
        )
        self.in_tensor = "repro/tensor/" in self.path
        self.in_hot_path = self.in_tensor or "repro/kernels/" in self.path
        self.in_config = self.path.endswith("repro/config.py")
        # parallel-closure discipline applies wherever this repo submits
        # work to executors: kernels, the serving runtime, and the
        # multiprocess training harness
        self.in_parallel_scope = (
            self.in_kernels
            or "repro/serving/" in self.path
            or self.path.endswith("repro/framework/mp.py")
        )
        self.in_guard_path = any(h in self.path for h in _GUARD_PATH_HINTS)
        self._functions: Dict[str, ast.FunctionDef] = {
            n.name: n
            for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)
        }

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.found.append(
            Violation(rule, self.path, getattr(node, "lineno", 0), message)
        )

    # -- env-outside-config -------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.in_config
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            self._emit(
                "env-outside-config", node,
                f"os.{node.attr} outside repro/config.py — use the "
                f"validated repro.config accessors",
            )
        self.generic_visit(node)

    # -- raw-alloc-in-kernels ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_kernels:
            name = _is_np_call(node, {"empty", "zeros"})
            if name:
                self._emit(
                    "raw-alloc-in-kernels", node,
                    f"{name} in repro/kernels/ bypasses WorkspaceArena",
                )
        if self.in_tensor:
            name = _is_np_call(node, _TENSOR_ALLOCATORS)
            if name:
                self._emit(
                    "raw-alloc-in-tensor", node,
                    f"{name} in repro/tensor/ bypasses the step pool "
                    f"(workspace.step_buffer)",
                )
        if self.in_hot_path:
            name = _masked_select(node)
            if name:
                self._emit(
                    "masked-select-in-hot-path", node,
                    f"{name} masked select in a kernel or tensor op — write "
                    f"it as branch-free arithmetic (see kernels/dense.py)",
                )
        if self.in_parallel_scope:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in ("map", "submit") and isinstance(func, ast.Attribute) and node.args:
                self._check_parallel_closure(node.args[0], name)
            elif name == "run_spans" and len(node.args) >= 2:
                self._check_parallel_closure(node.args[1], name)
        self.generic_visit(node)

    # -- granii-except -------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "granii-except", node,
                "bare except: swallows KeyboardInterrupt and masks the "
                "structured GraniiError contract",
            )
        elif self.in_guard_path and _swallows(node):
            broad = {"Exception", "BaseException", "GraniiError"}
            caught = set(_handler_names(node))
            if caught & broad:
                self._emit(
                    "granii-except", node,
                    f"except {'/'.join(sorted(caught & broad))} with an "
                    f"empty body swallows failures the fallback ladder "
                    f"must see",
                )
        self.generic_visit(node)

    # -- unused-import -------------------------------------------------
    def check_unused_imports(self) -> None:
        if self.path.endswith("__init__.py"):
            return  # a package's imports are its re-exports
        read = _read_names(self.tree)
        for name, node in _imported_names(self.tree):
            if name not in read:
                self._emit(
                    "unused-import", node,
                    f"{name!r} is imported but never used",
                )

    # -- shared-write-in-parallel --------------------------------------
    def _check_parallel_closure(self, target: ast.AST, via: str) -> None:
        fn: Optional[ast.FunctionDef] = None
        if isinstance(target, ast.Name):
            fn = self._functions.get(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            fn = self._functions.get(target.attr)
        if fn is None:
            return
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        if fn.args.vararg:
            params.add(fn.args.vararg.arg)
        local: Set[str] = set(params)
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign):
                for t in n.targets:
                    for leaf in ast.walk(t):
                        if isinstance(leaf, ast.Name) and isinstance(
                            leaf.ctx, ast.Store
                        ):
                            local.add(leaf.id)
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign, ast.For)):
                t = n.target
                for leaf in ast.walk(t):
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        local.add(leaf.id)
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign):
                written = [(n, t) for t in n.targets if isinstance(t, ast.Subscript)]
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Subscript):
                written = [(n, n.target)]
            elif isinstance(n, ast.Call):
                # ``np.ufunc(..., out=<array>)`` writes <array>
                written = [
                    (n, kw.value) for kw in n.keywords
                    if kw.arg == "out"
                    and isinstance(kw.value, (ast.Name, ast.Subscript))
                ]
            else:
                continue
            for stmt, t in written:
                base = t.value if isinstance(t, ast.Subscript) else t
                if not (isinstance(base, ast.Name) and base.id not in local):
                    continue  # writes to the closure's own values are fine
                index_names = [] if t is base else [
                    leaf.id
                    for leaf in ast.walk(t.slice)
                    if isinstance(leaf, ast.Name)
                ]
                if not index_names or any(
                    name not in local for name in index_names
                ):
                    self._emit(
                        "shared-write-in-parallel", stmt,
                        f"write to shared array {base.id!r} inside "
                        f"{fn.name!r} (submitted to {via}) with "
                        f"an index not derived from the work item — not "
                        f"provably disjoint across workers",
                    )


def _apply_waivers(source: str, found: List[Violation]) -> List[Violation]:
    lines = source.splitlines()
    waivers: Dict[int, Set[str]] = {}
    for i, text in enumerate(lines, start=1):
        m = _ALLOW_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            waivers[i] = rules
    out: List[Violation] = []
    for v in found:
        allowed = waivers.get(v.line, set()) | waivers.get(v.line - 1, set())
        if v.rule in allowed:
            out.append(Violation(v.rule, v.path, v.line, v.message, waived=True))
        else:
            out.append(v)
    return out


def lint_source(source: str, path: str) -> List[Violation]:
    """Lint one file's source text; returns violations incl. waived ones."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation("syntax-error", _norm(path), exc.lineno or 0, str(exc))]
    linter = _FileLinter(path, tree)
    linter.visit(tree)
    linter.check_unused_imports()
    return sorted(
        _apply_waivers(source, linter.found), key=lambda v: (v.line, v.rule)
    )


def _iter_py_files(paths: Sequence[str]):
    for path in paths:
        if os.path.isfile(path):
            yield path
        else:
            for root, _dirs, files in os.walk(path):
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    out: List[Violation] = []
    for path in _iter_py_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            out.extend(lint_source(fh.read(), path))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint")
    parser.add_argument("--json", default="", help="write findings JSON here")
    args = parser.parse_args(argv)

    violations = lint_paths(args.paths or ["src/repro"])
    active = [v for v in violations if not v.waived]
    waived = [v for v in violations if v.waived]
    for v in active:
        print(v.describe())
    summary = (
        f"{len(active)} violation(s), {len(waived)} waived"
        if violations
        else "clean"
    )
    print(summary)
    if args.json:
        waiver_counts: Dict[str, int] = {}
        for v in waived:
            waiver_counts[v.rule] = waiver_counts.get(v.rule, 0) + 1
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "violations": [v.describe() for v in active],
                    "waived": [v.describe() for v in waived],
                    "waiver_counts": waiver_counts,
                    "totals": {
                        "active": len(active),
                        "waived": len(waived),
                    },
                },
                fh, indent=2,
            )
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
