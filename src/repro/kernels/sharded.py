"""Process-parallel sharded g-SpMM over shared-memory buffers.

The ``blocked_parallel`` strategy fans row blocks over a thread pool;
its spans overlap for the sum family (the compiled row fold holds no
GIL) but the NumPy-fold semirings and everything around the fold still
serialise on it.  This module sidesteps the GIL entirely: the graph is
split into contiguous, nnz-balanced *row
shards* (:func:`repro.graphs.partition.plan_row_shards`), the CSR
arrays, the dense operand and the result matrix are placed in
``multiprocessing.shared_memory`` segments, and a persistent pool of
worker processes each runs an ordinary in-process g-SpMM over its
shard's sub-CSR view, writing results into a disjoint row range of the
shared output — zero-copy reads, no result pickling.

Per-shard plan selection
------------------------
Shards differ in density and skew, so each shard gets its *own* inner
plan from its own stats (:func:`select_shard_plan`): tiny shards run the
one-shot ``row_segment`` kernel, everything else runs ``blocked`` with a
tile sized to the worker's cache budget (``REPRO_SHARD_CACHE_KB``) —
input inspection applied at shard granularity.

Determinism contract
--------------------
Shard bounds never split a row, and the inner kernels reduce each row's
edges in CSR order, so the sharded result is **bitwise identical** to
every other strategy for all supported semirings (mean included: row
degrees are row-local).

Failure model
-------------
The pool is *self-healing*: every worker stamps a heartbeat into a
shared segment around each shard, so the parent can tell a dead worker
(SIGKILL/OOM), a hung worker (alive but silent past
``REPRO_SHARD_HEARTBEAT_S`` — e.g. SIGSTOPped or deadlocked), and an
idle worker apart.  A dead or hung worker is killed and respawned in
place (fresh task queue, exponential backoff per slot) and its unacked
shards are resubmitted to the surviving workers — the call completes
with the same bitwise-deterministic output instead of failing.
:class:`ShardedWorkerError` (a ``RuntimeError``) is the *last resort*:
it is raised only for a remote kernel exception (a deterministic bug a
retry cannot fix), an exhausted respawn budget
(``REPRO_SHARD_RESPAWNS``), shared-memory exhaustion, or an overall
call timeout — and then the guarded runtime's fallback ladder demotes
to an in-process strategy.  Segments are tracked parent-side and
unlinked on release/atexit so ``/dev/shm`` is left clean; workers
unregister attachments from their own ``resource_tracker`` to avoid
double-unlink races.
"""

from __future__ import annotations

import atexit
import logging
import os
import queue
import signal
import threading
import time
import traceback
import uuid
import multiprocessing as mp
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..graphs.partition import plan_row_shards
from ..sparse import CSRMatrix
from .blocked import DEFAULT_BLOCK_NNZ, usable_cpus
from .semiring import Semiring, get_semiring

__all__ = [
    "ShardedWorkerError",
    "default_num_workers",
    "default_num_shards",
    "drain_pool",
    "estimate_segment_bytes",
    "gspmm_sharded",
    "hang_one_worker",
    "kill_one_worker",
    "live_segment_bytes",
    "pool_health",
    "request_shm_exhaustion",
    "request_worker_hang",
    "request_worker_kill",
    "select_shard_plan",
    "sharded_pool",
    "shutdown_pool",
    "sweep_leaked_segments",
]

logger = logging.getLogger(__name__)

# Every segment this module creates carries this name prefix plus the
# creating pid, so a startup sweep can recognise — and reclaim — segments
# leaked by a previous process that died without running its atexit
# cleanup (SIGKILL, OOM-kill, power loss).
SEGMENT_PREFIX = "granii-shm"

# Shards smaller than this run the one-shot row_segment kernel: the tile
# bookkeeping of the blocked kernel costs more than it saves.
SMALL_SHARD_NNZ = 4096

# How many distinct graphs keep live shared segments at once (the verify
# sweep alternates a graph and its transpose per training step).
_GRAPH_CACHE_CAP = 4

# Per-worker cap on cached segment attachments (attach/mmap is a syscall;
# steady-state reuse should hit this cache).
_WORKER_ATTACH_CAP = 32

# Exponential-backoff base/cap for in-place worker respawns.
_RESPAWN_BACKOFF_BASE = 0.05
_RESPAWN_BACKOFF_MAX = 1.0


class ShardedWorkerError(RuntimeError):
    """The sharded pool could not complete a call despite self-healing:
    a remote kernel exception, an exhausted respawn budget, shared-memory
    exhaustion, or an overall call timeout.

    Deliberately a ``RuntimeError``: the guarded runtime classifies it as
    a kernel error and demotes down the fallback ladder.
    """


def default_num_workers() -> int:
    """``REPRO_NUM_WORKERS``, or ``min(4, usable_cpus())`` when unset/0."""
    value = config.num_workers()
    if value > 0:
        return value
    return max(1, min(4, usable_cpus()))


def default_num_shards(nnz: int, num_workers: int) -> int:
    """Shard count: ~``REPRO_SHARD_NNZ`` edges per shard, clamped so every
    worker has work but no more than 4 shards queue behind each."""
    per_shard = config.shard_nnz()
    wanted = -(-max(int(nnz), 1) // per_shard)  # ceil
    return int(min(max(wanted, num_workers), 4 * num_workers))


def select_shard_plan(
    shard_nnz: int, shard_rows: int, k: int
) -> Tuple[str, Optional[int]]:
    """Pick the inner (strategy, block_nnz) for one shard from its stats.

    This is the engine's input inspection applied per shard: tiny shards
    take the one-shot path; dense shards get a tile sized so one
    ``(block_nnz, k)`` float64 workspace tile fits the configured cache
    budget — on the large R-MAT benchmark this is worth ~2x over the
    global default tile.
    """
    if shard_nnz <= SMALL_SHARD_NNZ:
        return "row_segment", None
    budget_bytes = config.shard_cache_kb() * 1024
    block = budget_bytes // (8 * max(int(k), 1))
    return "blocked", int(min(max(block, 512), DEFAULT_BLOCK_NNZ))


def estimate_segment_bytes(
    num_rows: int, num_cols: int, nnz: int, k: int, weighted: bool = True
) -> float:
    """Parent-side shared-memory footprint of one sharded g-SpMM call.

    indptr + indices (+ values) for the graph, the dense operand, and
    the output — all float64/int64.  Used by :class:`ExecutionBudget` to
    account segments against the per-plan memory budget.
    """
    graph = 8.0 * (num_rows + 1) + 8.0 * nnz * (2 if weighted else 1)
    dense = 8.0 * num_cols * max(int(k), 0)
    out = 8.0 * num_rows * max(int(k), 1)
    return graph + dense + out


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _owns_tracker() -> bool:
    """Whether a segment attached now would register with a
    resource_tracker of this process's own rather than the parent's.

    A worker normally inherits the tracker the parent started for its
    first segment (fork copies the pipe, spawn passes it down), and then
    attaching re-registers a name the shared tracker already holds.  Only
    a worker without one starts a private tracker on its first attach,
    which would unlink the parent's segments when the worker exits.  Ask
    before the first attach: afterwards both cases look alike.
    """
    return getattr(resource_tracker._resource_tracker, "_fd", None) is None


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Keep a worker's *own* resource_tracker from unlinking parent
    segments.  Never call it under a tracker shared with the parent: the
    unregister would drop the parent's registration, and the parent's
    later unlink makes the tracker print a ``KeyError`` traceback."""
    try:  # pragma: no cover - exercised only in worker processes
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _attach(
    cache: "OrderedDict[str, shared_memory.SharedMemory]", name: str, untrack: bool
):
    shm = cache.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            _untrack(shm)
        cache[name] = shm
        while len(cache) > _WORKER_ATTACH_CAP:
            _, old = cache.popitem(last=False)
            old.close()
    else:
        cache.move_to_end(name)
    return shm


def _run_shard(task, attached, arena, untrack: bool) -> None:
    """Execute one shard: sub-CSR view -> inner gspmm -> disjoint write."""
    from .spmm import gspmm

    def attach(name: str):
        return _attach(attached, name, untrack)

    (_, names, meta, r0, r1, reduce_name, binary_name, inner, block) = task
    n, ncols, nnz, k_in, k_out, has_values = meta
    if r1 <= r0:
        return  # zero-row shard: nothing to compute, nothing to write
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=attach(names["indptr"]).buf)
    e0, e1 = int(indptr[r0]), int(indptr[r1])
    indices = np.ndarray((nnz,), dtype=np.int64, buffer=attach(names["indices"]).buf)
    values = None
    if has_values:
        values = np.ndarray(
            (nnz,), dtype=np.float64, buffer=attach(names["values"]).buf
        )[e0:e1]
    x = np.ndarray((ncols, k_in), dtype=np.float64, buffer=attach(names["x"]).buf)
    out = np.ndarray((n, k_out), dtype=np.float64, buffer=attach(names["out"]).buf)
    sub = CSRMatrix(
        indptr[r0 : r1 + 1] - e0,  # copies; the shard's local row pointers
        indices[e0:e1],
        values,
        (r1 - r0, ncols),
    )
    semiring = get_semiring(reduce_name, binary_name)
    out[r0:r1] = gspmm(
        sub, x, semiring, strategy=inner, block_nnz=block, workspace=arena
    )


def _worker_main(
    worker_index, hb_name, task_queue, result_queue
) -> None:  # pragma: no cover
    """Worker loop; runs in a child process (coverage can't see it).

    The worker stamps a heartbeat — ``[last_beat, busy_since]`` float64
    pair at its slot of the shared heartbeat segment — at startup, when
    it picks a task up, and when it finishes one, so the parent can tell
    *hung while computing* (stale ``busy_since``) from *idle* apart.
    """
    # The parent validated the CSR once; shard views are trusted.  Set in
    # the child's own environment, before any config read in this process.
    os.environ["REPRO_SKIP_VALIDATION"] = "1"  # lint: allow(env-outside-config)
    from .workspace import WorkspaceArena

    arena = WorkspaceArena()
    attached: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
    untrack = _owns_tracker()  # before the first attach
    hb = None
    try:
        hb_shm = shared_memory.SharedMemory(name=hb_name)
        if untrack:
            _untrack(hb_shm)
        hb = np.ndarray(
            (2,), dtype=np.float64, buffer=hb_shm.buf,
            offset=16 * int(worker_index),
        )
        hb[0] = time.monotonic()
    except Exception:
        hb = None  # heartbeatless workers still compute; only healing degrades
    parent_pid = os.getppid()
    while True:
        # Poll instead of blocking forever: if the parent is SIGKILLed its
        # sentinel never arrives (and sibling workers inherited the queue's
        # write end, so no EOF either) — self-reap instead of leaking an
        # orphan that pins attached segments.
        try:
            if not task_queue._reader.poll(2.0):
                # getppid changes the moment the parent terminates, even
                # while it is still an unreaped zombie (os.kill(pid, 0)
                # would succeed on the zombie and deadlock against a
                # supervisor that reaps only after pipe EOF)
                if os.getppid() != parent_pid:
                    break
                continue
        except (OSError, EOFError):
            break
        task = task_queue.get()
        if task is None:
            break
        if hb is not None:
            hb[1] = hb[0] = time.monotonic()
        try:
            _run_shard(task, attached, arena, untrack)
        except BaseException as exc:
            result_queue.put(
                ("err", task[0], f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        else:
            result_queue.put(("ok", task[0]))
        if hb is not None:
            hb[0] = time.monotonic()
            hb[1] = 0.0
    for shm in attached.values():
        shm.close()


# ----------------------------------------------------------------------
# Parent side: segments
# ----------------------------------------------------------------------
def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"


_SHM_EXHAUST_REQUESTED = False


def request_shm_exhaustion() -> None:
    """Arm a one-shot allocation failure for the *next* segment create.

    Used by the ``shm_exhaustion`` fault action to simulate ``/dev/shm``
    running out of space; the next sharded call fails structured (the
    fallback ladder demotes it) instead of half-allocating.
    """
    global _SHM_EXHAUST_REQUESTED
    _SHM_EXHAUST_REQUESTED = True


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    global _SHM_EXHAUST_REQUESTED
    if _SHM_EXHAUST_REQUESTED:
        _SHM_EXHAUST_REQUESTED = False
        raise ShardedWorkerError(
            "injected shared-memory exhaustion (shm_exhaustion fault)"
        )
    try:
        # SharedMemory refuses size=0; zero-size arrays ride a 1-byte segment
        return shared_memory.SharedMemory(
            create=True, size=max(int(nbytes), 1), name=_segment_name()
        )
    except OSError as exc:
        # ENOSPC/ENOMEM on /dev/shm: surface structured so the guard
        # ladder demotes to an in-process strategy instead of crashing
        raise ShardedWorkerError(
            f"shared-memory segment allocation of {max(int(nbytes), 1)} "
            f"bytes failed ({exc}); /dev/shm may be exhausted"
        ) from exc


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else — not ours to judge
    except OSError:
        return True
    return True


_SWEEP_DONE = False


def sweep_leaked_segments(shm_dir: str = "/dev/shm") -> List[str]:
    """Reclaim shared-memory segments leaked by dead processes.

    Scans ``shm_dir`` for segments matching our naming scheme
    (``granii-shm-<pid>-<token>``), and unlinks every one whose creating
    pid no longer exists — the leftovers of a process that was
    SIGKILLed/OOM-killed before its atexit cleanup ran.  Segments of
    live processes (including our own) are never touched.  Returns the
    reclaimed segment names; logs a warning naming what it reclaimed.
    """
    reclaimed: List[str] = []
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return reclaimed  # non-POSIX shm layout: nothing to sweep
    own_pid = os.getpid()
    for name in entries:
        if not name.startswith(SEGMENT_PREFIX + "-"):
            continue
        parts = name.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            stale = shared_memory.SharedMemory(name=name)
            stale.close()
            stale.unlink()
        except FileNotFoundError:
            continue  # raced another sweeper; already gone
        except OSError:
            continue
        reclaimed.append(name)
    if reclaimed:
        logger.warning(
            "reclaimed %d leaked shared-memory segment(s) from dead "
            "processes: %s",
            len(reclaimed),
            ", ".join(sorted(reclaimed)),
        )
    return reclaimed


def _startup_sweep() -> None:
    """Run the leak sweep once, the first time a pool is brought up."""
    global _SWEEP_DONE
    if not _SWEEP_DONE:
        _SWEEP_DONE = True
        sweep_leaked_segments()


def _fill_segment(shm: shared_memory.SharedMemory, arr: np.ndarray) -> None:
    if arr.size:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr


_GRAPH_SEGMENTS: "OrderedDict[str, Dict[str, shared_memory.SharedMemory]]" = OrderedDict()


def _release_entry(entry: Dict[str, shared_memory.SharedMemory]) -> None:
    for shm in entry.values():
        try:
            shm.close()
            shm.unlink()
        except OSError:
            # a respawn/atexit race may have unlinked it already: a
            # double release must log-and-continue, never raise
            logger.debug("segment %s already released", shm.name)


def _graph_segments(adj: CSRMatrix) -> Dict[str, shared_memory.SharedMemory]:
    """Shared segments holding ``adj``'s CSR arrays, cached on the matrix.

    The cache token lives in ``adj._aux`` (the matrix's memo dict), so a
    plan that aggregates over the same adjacency every iteration uploads
    the graph exactly once; the LRU cap bounds resident segments when
    many distinct graphs stream through (the verify battery).
    """
    token = adj._aux.get("sharded_segments")
    if token is not None and token in _GRAPH_SEGMENTS:
        _GRAPH_SEGMENTS.move_to_end(token)
        return _GRAPH_SEGMENTS[token]
    token = uuid.uuid4().hex
    entry: Dict[str, shared_memory.SharedMemory] = {}
    try:
        for role, arr in (
            ("indptr", adj.indptr),
            ("indices", adj.indices),
            ("values", adj.values),
        ):
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr)
            shm = _create_segment(arr.nbytes)
            # register before filling: if the fill faults, the handler
            # below can only release segments the entry already owns
            entry[role] = shm
            _fill_segment(shm, arr)
    except Exception:
        _release_entry(entry)  # allocation died mid-graph: no half entries
        raise
    adj._aux["sharded_segments"] = token
    _GRAPH_SEGMENTS[token] = entry
    while len(_GRAPH_SEGMENTS) > _GRAPH_CACHE_CAP:
        _, old = _GRAPH_SEGMENTS.popitem(last=False)
        _release_entry(old)
    return entry


# Free dense buffers pooled by (rounded) size, reused across calls.
_BUFFER_POOL: Dict[int, List[shared_memory.SharedMemory]] = {}
_BUFFER_POOL_CAP_BYTES = 1 << 30


def _rounded_size(nbytes: int) -> int:
    return 1 << max(int(nbytes - 1).bit_length() if nbytes > 1 else 0, 12)


def _acquire_buffer(nbytes: int) -> shared_memory.SharedMemory:
    size = _rounded_size(nbytes)
    free = _BUFFER_POOL.get(size)
    if free:
        return free.pop()
    return _create_segment(size)


def _release_buffer(shm: shared_memory.SharedMemory) -> None:
    pooled = sum(size * len(free) for size, free in _BUFFER_POOL.items())
    if pooled + shm.size > _BUFFER_POOL_CAP_BYTES:
        _discard_buffer(shm)
        return
    _BUFFER_POOL.setdefault(shm.size, []).append(shm)


def _discard_buffer(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
        shm.unlink()
    except OSError:
        # idempotent under the worker-respawn/atexit double-release race
        logger.debug("segment %s already released", shm.name)


def live_segment_bytes() -> int:
    """Bytes of shared memory currently held by this process (cache+pool)."""
    total = 0
    for entry in _GRAPH_SEGMENTS.values():
        total += sum(shm.size for shm in entry.values())
    for size, free in _BUFFER_POOL.items():
        total += size * len(free)
    return total


def release_segments() -> None:
    """Unlink every cached graph segment and pooled buffer."""
    while _GRAPH_SEGMENTS:
        _, entry = _GRAPH_SEGMENTS.popitem(last=False)
        _release_entry(entry)
    for free in _BUFFER_POOL.values():
        for shm in free:
            _discard_buffer(shm)
    _BUFFER_POOL.clear()


# ----------------------------------------------------------------------
# Parent side: the worker pool
# ----------------------------------------------------------------------
def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _WorkerPool:
    """Persistent *self-healing* workers: one task queue each, a shared
    result queue, and a shared heartbeat segment.

    Per-worker queues make submission a deterministic round-robin (shard
    ``i`` -> worker ``i % W``) and keep a poisoned worker from stealing
    its siblings' tasks; the shared result queue gives the parent one
    place to wait with a timeout.  The parent tracks every submitted
    task until its ack arrives, so when a worker dies or hangs
    (heartbeat silent past ``REPRO_SHARD_HEARTBEAT_S`` while holding
    shards) it can be killed, respawned in place — fresh task queue,
    exponential backoff per slot — and its unacked shards resubmitted
    to the survivors.  Shard writes land in disjoint ``out[r0:r1]``
    ranges, so re-running a possibly-half-finished shard is idempotent
    and the healed call stays bitwise-identical.
    """

    def __init__(self, num_workers: int) -> None:
        self._ctx = _mp_context()
        self.num_workers = num_workers
        self.broken = False
        self.restarts = 0  # pool-lifetime respawn count (health probe)
        self.slot_restarts = [0] * num_workers
        self.hb_shm = _create_segment(16 * num_workers)
        self._hb = np.ndarray(
            (num_workers, 2), dtype=np.float64, buffer=self.hb_shm.buf
        )
        self._hb[...] = 0.0
        self.result_queue = self._ctx.Queue()
        self.task_queues = []
        self.processes = []
        # inflight bookkeeping: shard id -> (slot, task); per-slot views
        self._inflight: Dict[int, Tuple[int, tuple]] = {}
        self._slot_inflight: List[set] = [set() for _ in range(num_workers)]
        # last observed progress per slot: spawn, ack, or heartbeat change
        now = time.monotonic()
        self._progress = [now] * num_workers
        self._last_beat = [0.0] * num_workers
        for i in range(num_workers):
            self.task_queues.append(self._ctx.SimpleQueue())
            self.processes.append(self._spawn(i))

    def _spawn(self, slot: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                slot, self.hb_shm.name,
                self.task_queues[slot], self.result_queue,
            ),
            name=f"repro-shard-{slot}",
            daemon=True,
        )
        proc.start()
        self._progress[slot] = time.monotonic()
        return proc

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, shard_index: int, task) -> None:
        self._assign(shard_index % self.num_workers, task)

    def _assign(self, slot: int, task) -> None:
        shard_id = task[0]
        self._inflight[shard_id] = (slot, task)
        self._slot_inflight[slot].add(shard_id)
        # the hang clock starts at assignment, not at the (possibly long
        # ago) previous heartbeat — an idle pool is not a hung pool
        self._progress[slot] = time.monotonic()
        self.task_queues[slot].put(task)

    def dead_workers(self) -> List[str]:
        return [
            f"{p.name} (exitcode {p.exitcode})"
            for p in self.processes
            if not p.is_alive()
        ]

    def alive_count(self) -> int:
        return sum(1 for p in self.processes if p.is_alive())

    def ensure_alive(self) -> None:
        """Respawn any worker that died while idle (between calls)."""
        for slot, proc in enumerate(self.processes):
            if not proc.is_alive():
                self.restarts += 1
                self.slot_restarts[slot] += 1
                self.task_queues[slot] = self._ctx.SimpleQueue()
                self.processes[slot] = self._spawn(slot)

    # ------------------------------------------------------------------
    # Collection + healing
    # ------------------------------------------------------------------
    def _observe_heartbeats(self) -> None:
        """Fold heartbeat-segment changes into per-slot progress times."""
        now = time.monotonic()
        for slot in range(self.num_workers):
            beat = float(self._hb[slot, 0])
            if beat != self._last_beat[slot]:
                self._last_beat[slot] = beat
                self._progress[slot] = now

    def _hung_slots(self, heartbeat_s: float) -> List[int]:
        """Slots holding shards with no progress for ``heartbeat_s``.

        Covers both a worker stalled *inside* a shard (busy marker set,
        heartbeat frozen — SIGSTOP, deadlock) and one stopped while its
        queue holds work it never picks up.
        """
        self._observe_heartbeats()
        now = time.monotonic()
        return [
            slot
            for slot in range(self.num_workers)
            if self._slot_inflight[slot]
            and now - self._progress[slot] > heartbeat_s
        ]

    def _heal(self, counters: Dict[str, int], deadline: float) -> None:
        """Kill hung workers, respawn dead slots, resubmit orphans."""
        heartbeat_s = config.shard_heartbeat_seconds()
        budget = config.shard_respawns()
        for slot in self._hung_slots(heartbeat_s):
            proc = self.processes[slot]
            if proc.is_alive() and proc.pid is not None:
                logger.warning(
                    "sharded worker %s hung (silent %.1fs past "
                    "REPRO_SHARD_HEARTBEAT_S with %d shard(s)); killing",
                    proc.name, heartbeat_s, len(self._slot_inflight[slot]),
                )
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
        for slot, proc in enumerate(self.processes):
            if proc.is_alive():
                continue
            counters["respawns"] += 1
            if counters["respawns"] > budget:
                self.broken = True
                raise ShardedWorkerError(
                    f"sharded SpMM gave up after {budget} worker "
                    f"respawn(s) in one call (REPRO_SHARD_RESPAWNS); "
                    f"last corpse: {proc.name} (exitcode {proc.exitcode})"
                )
            self.restarts += 1
            self.slot_restarts[slot] += 1
            backoff = min(
                _RESPAWN_BACKOFF_BASE * (2 ** (self.slot_restarts[slot] - 1)),
                _RESPAWN_BACKOFF_MAX,
            )
            backoff = min(backoff, max(deadline - time.monotonic(), 0.0))
            if backoff > 0.0:
                time.sleep(backoff)
            orphans = [
                self._inflight[shard_id][1]
                for shard_id in sorted(self._slot_inflight[slot])
            ]
            self._slot_inflight[slot].clear()
            # abandoned queue may still hold orphans; the replacement gets
            # a fresh queue so nothing is ever executed twice concurrently
            self.task_queues[slot] = self._ctx.SimpleQueue()
            self.processes[slot] = self._spawn(slot)
            survivors = [
                s for s in range(self.num_workers)
                if self.processes[s].is_alive()
            ] or [slot]
            for i, task in enumerate(orphans):
                target = survivors[i % len(survivors)]
                logger.warning(
                    "resubmitting shard %s from dead worker slot %d to %s",
                    task[0], slot, self.processes[target].name,
                )
                self._assign(target, task)

    def collect(self, expected: int, timeout: float) -> None:
        """Wait for ``expected`` shard acks, healing workers as needed.

        Raises :class:`ShardedWorkerError` only as a last resort: remote
        kernel exception, respawn budget exhausted, or overall timeout.
        """
        deadline = time.monotonic() + timeout
        poll = config.shard_poll_seconds()
        counters = {"respawns": 0}
        done_ids: set = set()
        while len(done_ids) < expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.broken = True
                raise ShardedWorkerError(
                    f"sharded SpMM timed out after {timeout:.1f}s with "
                    f"{expected - len(done_ids)} shard(s) outstanding "
                    f"(raise REPRO_SHARDED_TIMEOUT for slow hosts)"
                )
            try:
                msg = self.result_queue.get(timeout=min(poll, remaining))
            except queue.Empty:
                self._heal(counters, deadline)
                continue
            if msg[0] == "ok":
                shard_id = msg[1]
                if shard_id in done_ids:
                    continue  # duplicate ack after a resubmission race
                done_ids.add(shard_id)
                entry = self._inflight.pop(shard_id, None)
                if entry is not None:
                    slot = entry[0]
                    self._slot_inflight[slot].discard(shard_id)
                    self._progress[slot] = time.monotonic()
            else:
                # a remote exception is a deterministic kernel failure;
                # resubmitting it would fail identically — surface it
                self.broken = True
                raise ShardedWorkerError(
                    f"shard {msg[1]} failed remotely: {msg[2]}\n{msg[3]}"
                )
        self._inflight.clear()
        for inflight in self._slot_inflight:
            inflight.clear()

    # ------------------------------------------------------------------
    # Chaos hooks + lifecycle
    # ------------------------------------------------------------------
    def kill_one(self) -> bool:
        """SIGKILL one live worker (the chaos harness's fault hook)."""
        for proc in self.processes:
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
                return True
        return False

    def stop_one(self) -> bool:
        """SIGSTOP one live worker: alive but silent (the hang fault)."""
        for proc in self.processes:
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGSTOP)
                return True
        return False

    def health(self) -> Dict[str, object]:
        return {
            "num_workers": self.num_workers,
            "alive": self.alive_count(),
            "restarts": self.restarts,
            "broken": self.broken,
            "inflight": len(self._inflight),
        }

    def shutdown(self) -> None:
        if getattr(self, "_shutdown_done", False):
            return  # respawn/atexit paths can race a second shutdown
        self._shutdown_done = True
        for task_queue, proc in zip(self.task_queues, self.processes):
            try:
                if proc.is_alive():
                    task_queue.put(None)
                    # a SIGSTOPped worker can't see the sentinel (or a
                    # SIGTERM) until resumed
                    os.kill(proc.pid, signal.SIGCONT)
            except Exception:
                pass
        for proc in self.processes:
            proc.join(timeout=2.0)
            if proc.is_alive():
                # a SIGSTOPped worker ignores terminate(); make sure the
                # corpse cannot wake up inside a recycled segment later
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=2.0)
        for task_queue in self.task_queues:
            task_queue.close()
        self.result_queue.close()
        self.result_queue.join_thread()
        try:
            self.hb_shm.close()
            self.hb_shm.unlink()
        except OSError:
            logger.debug("heartbeat segment already released")


_POOL: Optional[_WorkerPool] = None
_KILL_REQUESTED = False
_HANG_REQUESTED = False
# gspmm_sharded shares one result queue across the pool; two threads
# collecting concurrently would steal each other's acks.  The serving
# runtime calls in from multiple request threads, so pool use is
# serialized here — the workers, not the submitting threads, are the
# parallelism.
_POOL_LOCK = threading.RLock()


def _get_pool(num_workers: int) -> _WorkerPool:
    global _POOL
    if _POOL is not None and (
        _POOL.broken or _POOL.num_workers != num_workers
    ):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _startup_sweep()
        _POOL = _WorkerPool(num_workers)
    else:
        # a worker that died between calls is respawned in place rather
        # than costing the whole warm pool
        _POOL.ensure_alive()
    return _POOL


def shutdown_pool() -> None:
    """Stop the warm worker pool (restarted lazily on the next call).

    Also disarms any pending injected faults so a chaos scenario cannot
    leak an armed one-shot into the next pool's first call.
    """
    global _POOL, _KILL_REQUESTED, _HANG_REQUESTED, _SHM_EXHAUST_REQUESTED
    _KILL_REQUESTED = False
    _HANG_REQUESTED = False
    _SHM_EXHAUST_REQUESTED = False
    # lint: allow(lock-held-across-blocking-call) joining workers is the point
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


def drain_pool() -> None:
    """Gracefully quiesce the pool: wait for in-flight shards, then stop.

    Pool use is serialized by ``_POOL_LOCK`` and a call only releases it
    once every shard is acked, so taking the lock *is* the wait; the
    shutdown inside then observes an idle pool.  Service shutdown calls
    this before :func:`release_segments` so no worker can ever touch an
    unlinked segment.
    """
    # lint: allow(lock-held-across-blocking-call) taking the lock is the wait
    with _POOL_LOCK:
        shutdown_pool()


def pool_health() -> Dict[str, object]:
    """Liveness snapshot of the warm pool (``None``-safe, non-blocking).

    Reads pool fields without taking ``_POOL_LOCK`` so a health probe
    stays responsive while a long call holds the pool.
    """
    pool = _POOL
    if pool is None:
        return {"running": False}
    health = pool.health()
    health["running"] = True
    return health


def request_worker_kill() -> None:
    """Arm a one-shot SIGKILL of a worker during the *next* sharded call.

    Used by the ``kill_worker`` fault action to simulate a worker crash
    mid-shard; the next :func:`gspmm_sharded` kills one worker right
    after dispatching its shards and must recover by resubmitting the
    corpse's shards to the survivors.
    """
    global _KILL_REQUESTED
    _KILL_REQUESTED = True


def request_worker_hang() -> None:
    """Arm a one-shot SIGSTOP of a worker during the *next* sharded call.

    Used by the ``hang_worker`` fault action: the stopped worker stays
    alive but silent, so only heartbeat-based hung detection (not the
    dead-pipe check) can recover the call.
    """
    global _HANG_REQUESTED
    _HANG_REQUESTED = True


def kill_one_worker() -> bool:
    """SIGKILL a live pool worker right now; returns False if no pool."""
    if _POOL is None:
        return False
    return _POOL.kill_one()


def hang_one_worker() -> bool:
    """SIGSTOP a live pool worker right now; returns False if no pool."""
    if _POOL is None:
        return False
    return _POOL.stop_one()


@contextmanager
def sharded_pool(num_workers: Optional[int] = None):
    """Scoped pool: warm within the block, shut down (and segments
    released) on exit.  Tests and short-lived drivers use this to
    guarantee a clean ``/dev/shm``; long-lived engines rely on the warm
    module pool plus the atexit hook instead."""
    # lint: allow(lock-held-across-blocking-call) scoped pool teardown waits
    with _POOL_LOCK:
        pool = _get_pool(num_workers or default_num_workers())
        try:
            yield pool
        finally:
            shutdown_pool()
            release_segments()


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter shutdown
    try:
        shutdown_pool()
    finally:
        release_segments()


atexit.register(_atexit_cleanup)


# ----------------------------------------------------------------------
# The strategy entry point
# ----------------------------------------------------------------------
def _check_shard_bounds(bounds: np.ndarray, num_rows: int) -> None:
    """Disjoint-coverage check: the runtime discharge of the planlint
    obligation that sharded writes partition the output rows."""
    if (
        bounds.shape[0] < 2
        or int(bounds[0]) != 0
        or int(bounds[-1]) != num_rows
        or bool(np.any(np.diff(bounds) < 0))
    ):
        raise ShardedWorkerError(
            f"shard bounds {np.asarray(bounds).tolist()} do not disjointly "
            f"cover rows [0, {num_rows})"
        )


def gspmm_sharded(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    num_workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    block_nnz: Optional[int] = None,
    timeout: Optional[float] = None,
) -> np.ndarray:
    """Process-parallel sharded g-SpMM; see the module docstring.

    ``block_nnz`` forces one tile size on every non-tiny shard; ``None``
    lets :func:`select_shard_plan` pick per shard.  ``timeout`` defaults
    to ``REPRO_SHARDED_TIMEOUT`` seconds.
    """
    global _KILL_REQUESTED, _HANG_REQUESTED
    if semiring is None:
        semiring = get_semiring()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if semiring.binary.uses_rhs and x.shape[0] != adj.shape[1]:
        raise ValueError(f"gspmm shape mismatch: adj {adj.shape} vs dense {x.shape}")
    n, ncols = int(adj.shape[0]), int(adj.shape[1])
    k_in = int(x.shape[1])
    k_out = 1 if semiring.binary.name == "copy_lhs" else k_in
    if n == 0:
        # empty result, returned to the caller  # lint: allow(raw-alloc-in-kernels)
        return np.empty((0, k_out), dtype=np.float64)
    if num_workers is None:
        num_workers = default_num_workers()
    num_workers = max(1, int(num_workers))
    if num_shards is None:
        num_shards = default_num_shards(adj.nnz, num_workers)
    bounds = plan_row_shards(adj.indptr, num_shards)
    _check_shard_bounds(bounds, n)

    # lint: allow(lock-held-across-blocking-call) collect() must own the pool
    with _POOL_LOCK:
        pool = _get_pool(num_workers)
        if _KILL_REQUESTED:
            # Fault hook (repro.faults kill_worker): SIGKILL one worker
            # *before* its shards are submitted, so tasks round-robined
            # onto the dead process sit in an abandoned queue and the
            # healing collect() must respawn the slot and resubmit them —
            # a deterministic stand-in for a worker dying mid-shard.
            _KILL_REQUESTED = False
            pool.kill_one()
        if _HANG_REQUESTED:
            # Fault hook (repro.faults hang_worker): SIGSTOP leaves the
            # worker alive but silent, so only heartbeat-based hung
            # detection recovers the call.
            _HANG_REQUESTED = False
            pool.stop_one()
        graph_entry = _graph_segments(adj)
        x_shm = _acquire_buffer(max(x.nbytes, 1))
        try:
            out_shm = _acquire_buffer(max(n * k_out * 8, 1))
        except Exception:
            # nothing was submitted yet: the pool is untouched and the
            # lone acquired buffer can be recycled, not torn down
            _release_buffer(x_shm)
            raise
        try:
            _fill_segment(x_shm, x)
            names = {
                "indptr": graph_entry["indptr"].name,
                "indices": graph_entry["indices"].name,
                "x": x_shm.name,
                "out": out_shm.name,
            }
            has_values = adj.values is not None
            if has_values:
                names["values"] = graph_entry["values"].name
            meta = (n, ncols, int(adj.nnz), k_in, k_out, has_values)
            submitted = 0
            for i in range(num_shards):
                r0, r1 = int(bounds[i]), int(bounds[i + 1])
                shard_edges = int(adj.indptr[r1] - adj.indptr[r0])
                if block_nnz is not None:
                    inner, block = "blocked", int(block_nnz)
                else:
                    inner, block = select_shard_plan(shard_edges, r1 - r0, k_in)
                pool.submit(i, (i, names, meta, r0, r1,
                                semiring.reduce.name, semiring.binary.name,
                                inner, block))
                submitted += 1
            pool.collect(submitted, timeout or config.sharded_timeout_seconds())
            out = np.ndarray(
                (n, k_out), dtype=np.float64, buffer=out_shm.buf
            ).copy()
        except Exception:
            # A late worker write into a recycled buffer would corrupt an
            # unrelated call: on any failure the buffers die with the pool.
            _discard_buffer(x_shm)
            _discard_buffer(out_shm)
            shutdown_pool()
            raise
        _release_buffer(x_shm)
        _release_buffer(out_shm)
        return out
