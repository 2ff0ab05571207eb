"""In-memory span recorder for the traced run.

The benchmark times the program from outside only: spans are opened by
harness code around calls into a layer's public functions, and by one
global wrapper at the ``dispatch_kernel`` seam.  Nothing under ``src/`` is
instrumented.  Spans stay in a list and are written out once, at exit.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

OP = "op"  # name of the span that covers one measured op


class Tracer:
    """Spans are ``[name, start, end, parent, op, thread]`` rows.

    ``parent`` is the index of the enclosing span on the same thread (or
    None); ``op`` identifies the measured op the span belongs to and is
    inherited from the parent.  Worker threads and the generator record
    concurrently, so a row is appended and its index read under one lock.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        row = [name, time.perf_counter(), 0.0, parent, op, threading.get_ident()]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, op: Optional[int]) -> None:
        """Record a span whose bounds were reported by the program
        (``ServeResult.queue_seconds``) instead of timed by the harness."""
        self.spans.append([name, start, end, None, op, None])

    def kernel_timer(self, primitive: str, next_call, tag: str):
        """``push_kernel_wrapper`` callback: one span per kernel dispatch."""
        with self.span("kernels." + primitive):
            return next_call()

    # ------------------------------------------------------------------
    def adopt(self, windows: Sequence[Tuple[int, int, float, float]]) -> None:
        """Give worker-thread spans the op id of the request they served.

        ``windows`` holds ``(op, thread, start, end)``: the interval in
        which one worker thread processed one request.  A pool thread runs
        one request at a time, so windows on a thread never overlap.
        """
        by_thread: Dict[int, List[Tuple[float, float, int]]] = defaultdict(list)
        for op, thread, start, end in windows:
            by_thread[thread].append((start, end, op))
        for row in self.spans:
            if row[4] is not None or row[5] not in by_thread:
                continue
            for start, end, op in by_thread[row[5]]:
                if start <= row[1] and row[2] <= end:
                    row[4] = op
                    break

    def op_durations(self) -> Dict[int, float]:
        return {r[4]: r[2] - r[1] for r in self.spans if r[0] == OP}

    def coverage(self) -> Tuple[float, float]:
        """``(op seconds, seconds of them covered by a layer span)``.

        A span counts towards the cover when it hangs directly under the
        op span, or is a top-level span on another thread that ``adopt``
        assigned to the op; deeper spans are already inside one of those.
        """
        ops = {i: r for i, r in enumerate(self.spans) if r[0] == OP}
        total = sum(r[2] - r[1] for r in ops.values())
        op_ids = {r[4] for r in ops.values()}
        covered = 0.0
        for row in self.spans:
            if row[0] == OP or row[4] not in op_ids:
                continue
            if row[3] in ops or row[3] is None:
                covered += row[2] - row[1]
        return total, covered

    def totals(self, prefix: str) -> Dict[str, Tuple[float, int]]:
        """``name -> (seconds, calls)`` over spans of measured ops."""
        op_ids = {r[4] for r in self.spans if r[0] == OP}
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for row in self.spans:
            if row[0].startswith(prefix) and row[4] in op_ids:
                out[row[0]][0] += row[2] - row[1]
                out[row[0]][1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def dump(self, path: Path) -> None:
        t0 = min((r[1] for r in self.spans), default=0.0)
        rows = [
            {
                "name": r[0],
                "start": r[1] - t0,
                "end": r[2] - t0,
                "parent": r[3],
                "op": r[4],
                "thread": r[5],
            }
            for r in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))


class _NoSpans:
    """The untraced run, warm-up and baseline rounds: ``span`` returns a
    shared no-op context, so the measured loops read the same in both runs."""

    def span(self, name: str, op: Optional[int] = None) -> "_NoSpans":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NO_SPANS = _NoSpans()
