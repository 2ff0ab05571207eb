"""``serve_mix``: the serving hot path under a hit/miss traffic mix.

A ``GraniiService`` with its defaults hosts one GCN 16->8 for four tenants.
Every fifth request carries a never-seen structure (plan-cache miss:
fingerprint + select + execute); the rest draw Zipf-distributed from eight
hot structures warmed in set-up (hits).  So ``op_ms_p50`` is the hit path
and ``op_ms_tail`` (p90) sits inside the miss mode, not on its edge.  The
set-up fills the default-sized plan cache with never-reused structures, so
every measured miss evicts while the hot set survives.  Graphs are small
(~2000 nodes): admission, fingerprinting, cache, guard and queueing are the cost, not
kernels.

Phase A is an open loop at a fixed rate, each request timed from when it
was *due*; it gives the latencies.  Phase B is a closed loop, one thread
keeping eight requests in flight; it gives ``ops_per_s``.  Both run in
one-second segments with the host clock (``stats.HostClock``) ticking in
between.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.core.costmodel import cost_model_token
from repro.core.runtime import GraniiEngine
from repro.errors import GraniiError
from repro.graphs.generators import erdos_renyi
from repro.models import build_layer
from repro.serving import GraniiService, ServeRequest, fingerprint_graph
from repro.tensor import no_grad

from . import probes
from .stats import best_of, p50, pct
from .tracing import NO_SPANS, OP

IN_SIZE, OUT_SIZE = 16, 8
MODEL_SEED = 0  # register_model's default weight seed
TENANTS = 4
HOT = 8
# Never-reused structures served once in set-up: the plan cache (default
# capacity 128) is full when measuring starts, as in a long-lived service,
# so every measured miss evicts while the hot set survives.
CACHE_FILL = 128
COLD_EVERY = 5
CHECK_EVERY = 25
# Phase A, requests per second: ~40 % of the host's capacity.  The 20 ms
# between arrivals is well above a miss's ~12 ms, so a request rarely meets
# the next one; at 80/s the two were equal and the tail flipped between
# "misses overlap the next request" and "they do not" from run to run.
RATE = 50.0
PHASE_A_SHARE = 0.6
SEGMENT_REQUESTS = 50  # phase A: a second of arrivals
SEGMENT_SECONDS = 1.0  # phase B
IN_FLIGHT = 8  # phase B
PHASE_B_MAX_RATE = 300.0  # sizes the pre-generated stream, not the load
ATOL = 1e-8


class ServeMix:
    name = "serve_mix"
    mode = "inference"

    # -- harness work ---------------------------------------------------
    def generate(self, seed: int, quick: bool, seconds: float) -> dict:
        nodes = 300 if quick else 2000
        # hot and cold structures alike: same generator, size and degree, so
        # every hit does the same work whichever structure the draw names
        hot = []
        for i in range(HOT):
            graph = erdos_renyi(nodes, 8, seed=seed + i)
            feats = np.random.default_rng(seed + i).standard_normal(
                (graph.num_nodes, IN_SIZE)
            )
            hot.append((graph, feats))
        n_a = int(RATE * seconds * PHASE_A_SHARE)
        n_b = int(PHASE_B_MAX_RATE * seconds * (1.0 - PHASE_A_SHARE))
        rng = np.random.default_rng(seed)
        cold_feats = rng.standard_normal((nodes, IN_SIZE))
        zipf = 1.0 / np.arange(1, HOT + 1) ** 1.1
        draws = rng.choice(HOT, size=n_a + n_b, p=zipf / zipf.sum())
        stream = []
        for i in range(n_a + n_b):
            if i % COLD_EVERY == COLD_EVERY - 1:
                graph = erdos_renyi(nodes, 8, seed=seed + 1000 + i)
                stream.append((graph, cold_feats))
            else:
                stream.append(hot[int(draws[i])])
        fill = [
            erdos_renyi(nodes, 8, seed=seed + 500000 + i)
            for i in range(8 if quick else CACHE_FILL)
        ]
        return {"hot": hot, "stream": stream, "n_a": n_a, "fill": fill,
                "cold_feats": cold_feats}

    # -- the program ----------------------------------------------------
    def setup(self, inputs: dict, cost_models, tracer) -> dict:
        fingerprint_fn = None
        if tracer is not NO_SPANS:
            # the service's default fingerprint, under a span
            def fingerprint_fn(graph, model_name, in_size, out_size):
                with tracer.span("serving.fingerprint"):
                    return fingerprint_graph(
                        graph, model_name, in_size, out_size,
                        cost_token=cost_model_token("cpu"),
                    )

        svc = GraniiService(
            device="cpu", cost_models=cost_models, fingerprint_fn=fingerprint_fn
        )
        svc.register_model("gcn", IN_SIZE, OUT_SIZE)
        warm_up = [(graph, inputs["cold_feats"]) for graph in inputs["fill"]]
        warm_up += inputs["hot"] * TENANTS  # last, so the hot set is most recent
        for i, (graph, feats) in enumerate(warm_up):
            result = svc.serve(
                ServeRequest(f"tenant-{i % TENANTS}", "gcn", graph, feats)
            )
            if not result.ok:
                raise RuntimeError(f"warm-up request failed: {result.error}")
        return dict(inputs, svc=svc, cost_models=cost_models)

    def teardown(self, state: dict) -> None:
        state["svc"].shutdown(save=False)

    def measure(self, state: dict, seconds: float, tracer, clock) -> dict:
        n_a = state["n_a"]
        run = _Run(state["svc"], state["stream"], tracer, n_a)
        # Both phases run in segments; between two segments nothing is in
        # flight and the host clock ticks: on one thread in phase A, where
        # requests seldom overlap, on two at once in phase B, which keeps
        # both vCPUs busy.  A segment's times are scaled by how slow the
        # ticks on its two sides were.
        before = clock.block()
        # phase A: open loop
        slowdown = []  # per segment
        late = []
        for first in range(0, n_a, SEGMENT_REQUESTS):
            t0 = time.perf_counter() + 0.02
            for i in range(first, min(first + SEGMENT_REQUESTS, n_a)):
                due = t0 + (i - first) / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(max(0.0, time.perf_counter() - due))
                run.submit(i, due)
            run.wait()
            after = clock.block()
            slowdown.append(0.5 * (before + after))
            before = after
        # phase B: closed loop
        slots = threading.Semaphore(IN_FLIGHT)
        run.on_done = slots.release
        b_seconds = 0.0
        before = clock.threaded_block()
        deadline = time.perf_counter() + seconds * (1.0 - PHASE_A_SHARE)
        sent = n_a
        while sent < len(state["stream"]) and time.perf_counter() < deadline:
            b0 = time.perf_counter()
            segment_end = min(deadline, b0 + SEGMENT_SECONDS)
            while sent < len(state["stream"]) and time.perf_counter() < segment_end:
                slots.acquire()
                run.submit(sent, time.perf_counter())
                sent += 1
            run.wait()
            segment_seconds = time.perf_counter() - b0
            after = clock.threaded_block()
            b_seconds += segment_seconds / (0.5 * (before + after))
            before = after
        run.finish()

        rows = run.rows
        a_rows = [r for r in rows[:n_a] if r is not None and r["ok"]]
        failed = run.shed + sum(1 for r in rows[:sent] if r is not None and not r["ok"])
        latency = [
            (r["done"] - r["due"]) / slowdown[i // SEGMENT_REQUESTS]
            for i, r in enumerate(rows[:n_a]) if r is not None and r["ok"]
        ]
        hits = [r["done"] - r["due"] for r in a_rows if r["hit"]]
        misses = [r["done"] - r["due"] for r in a_rows if not r["hit"]]
        served = [r for r in rows[:sent] if r is not None]
        cache = state["svc"].cache.stats()
        state["checked"] = run.kept
        state["hit_ms_p50"] = 1e3 * p50(hits)
        return {
            "op_seconds": latency,
            "phase_ops": sent - n_a - run.shed,  # the saturation phase
            "phase_seconds": b_seconds,
            "attempted": sent,
            "failed": failed,
            "layer": {
                "serving.service.admit_ms_p50": 1e3 * p50(run.admit[:n_a]),
                "serving.service.queue_ms_p50": 1e3 * p50([r["queue"] for r in a_rows]),
                "serving.service.queue_ms_p90": 1e3 * pct([r["queue"] for r in a_rows], 90),
                "serving.service.shed_count": float(run.shed),
                "serving.service.retry_count": float(sum(r["retries"] for r in served)),
                "serving.service.demotion_count": float(sum(r["demotions"] for r in served)),
                "serving.service.hit_ms_p50": state["hit_ms_p50"],
                "serving.service.miss_ms_p50": 1e3 * p50(misses),
                "serving.cache.hit_share":
                    sum(1 for r in served if r["hit"]) / len(served) if served else 0.0,
                "serving.cache.evictions": cache["evictions"],
                "serving.cache.collisions": cache["collisions"],
                "core.guard.demotions": float(sum(r["demotions"] for r in served)),
                "bench.generator_late_ms_p90": 1e3 * pct(late, 90),
            },
        }

    # -- harness work ---------------------------------------------------
    def check(self, state: dict) -> dict:
        """Every 25th served value against the un-optimised GCN forward."""
        mismatches = []
        reference = build_layer(
            "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(MODEL_SEED)
        )
        for index, value in state["checked"].items():
            graph, feats = state["stream"][index]
            with no_grad():
                want = np.asarray(reference(graph, feats).data)
            if value is None or not np.allclose(value, want, rtol=0.0, atol=ATOL):
                mismatches.append(f"request {index}: served value differs")
        engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
        choices = {}
        for i, (graph, _) in enumerate(state["hot"]):
            sel = engine.select(engine.compile_for(reference, graph), graph, reference)
            choices[f"hot{i}"] = [[sel.label, sel.spmm_strategy]]
        return {"mismatches": mismatches, "choices": choices}

    def probe(self, state: dict) -> Dict[str, float]:
        engine = GraniiEngine(device="cpu", cost_models=state["cost_models"])
        layer = build_layer(
            "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(MODEL_SEED)
        )
        inputs = [probes.LayerInput(layer, g, f) for g, f in state["hot"]]
        selections, bare, flops, moved = [], [], 0.0, 0.0
        for item in inputs:
            sel = engine.select(engine.compile_for(layer, item.graph), item.graph, layer)
            executor = engine.make_executor(
                layer, sel.chosen, sel.spmm_strategy, selection=sel, guarded=False
            )
            probes._run(executor, item)
            bare.append(best_of(lambda: probes._run(executor, item), 5))
            f, b = probes.plan_work(engine, sel, item)
            flops += f / len(inputs)
            moved += b / len(inputs)
            selections.append(sel)
        bare_ms = 1e3 * p50(bare)
        out = {
            "serving.service.bare_exec_ms_p50": bare_ms,
            "serving.service.overhead_ratio": state["hit_ms_p50"] / bare_ms,
            "kernels.flops_per_op": flops,
            "kernels.bytes_per_op": moved,
        }
        out.update(probes.choice_metrics(selections))
        out.update(probes.stage_probe(state["cost_models"], self.mode, inputs))
        out.update(probes.compile_breakdown({"gcn": layer}))
        return out


class _Run:
    """Submits requests and keeps one row per request, filled in by the
    future's done-callback (which runs on the worker thread)."""

    def __init__(self, svc, stream, tracer, n_a: int) -> None:
        self.svc = svc
        self.stream = stream
        self.tracer = tracer
        self.n_a = n_a
        self.started = time.perf_counter()
        self.rows: List[dict] = [None] * len(stream)
        self.admit: List[float] = []
        self.kept: Dict[int, np.ndarray] = {}
        self.shed = 0
        self.on_done = lambda: None
        self._pending = threading.Semaphore(0)
        self._accepted = 0
        self._waited = 0

    def submit(self, index: int, due: float) -> None:
        graph, feats = self.stream[index]
        request = ServeRequest(
            f"tenant-{index % TENANTS}", "gcn", graph, feats, request_id=str(index)
        )
        t0 = time.perf_counter()
        try:
            future = self.svc.submit(request)
        except GraniiError as exc:  # shed or rejected: a failed op
            self.shed += 1
            self.admit.append(time.perf_counter() - t0)
            print(f"request {index} refused: {exc!r}", flush=True)
            self.on_done()
            return
        t1 = time.perf_counter()
        self.admit.append(t1 - t0)
        self._accepted += 1
        future.add_done_callback(
            lambda f, i=index, due=due, t0=t0, t1=t1: self._done(f, i, due, t0, t1)
        )

    def _done(self, future, index: int, due: float, t0: float, t1: float) -> None:
        done = time.perf_counter()
        result = future.result()
        self.rows[index] = {
            "due": due, "done": done, "ok": result.ok, "hit": result.cache_hit,
            "queue": result.queue_seconds, "retries": result.retries,
            "demotions": len(result.demotions),
            "thread": threading.get_ident(),
            "admit": (t0, t1),
        }
        if index % CHECK_EVERY == 0:
            self.kept[index] = result.value
        elif index % COLD_EVERY == COLD_EVERY - 1:
            self.stream[index] = None  # a cold graph is never sent twice
        self.on_done()
        self._pending.release()

    def wait(self) -> None:
        """Block until every accepted request so far has completed."""
        while self._waited < self._accepted:
            self._pending.acquire()
            self._waited += 1

    def finish(self) -> None:
        """Turn phase A's rows (the requests whose latency is reported) into
        spans: op (due -> done), admit, queue, and the window in which a
        worker thread held each request — from the previous completion on
        that thread to this one."""
        if self.tracer is NO_SPANS:
            return
        windows = []
        last_done: Dict[int, float] = {}
        done_order = sorted(
            (i for i, r in enumerate(self.rows[:self.n_a]) if r is not None),
            key=lambda i: self.rows[i]["done"],
        )
        for index in done_order:
            row = self.rows[index]
            t0, t1 = row["admit"]
            self.tracer.add(OP, row["due"], row["done"], index)
            self.tracer.add("serving.service.admit", t0, t1, index)
            self.tracer.add(
                "serving.service.queue", t1, max(t1, t0 + row["queue"]), index
            )
            thread = row["thread"]
            windows.append((index, thread, last_done.get(thread, self.started), row["done"]))
            last_done[thread] = row["done"]
        self.tracer.adopt(windows)
