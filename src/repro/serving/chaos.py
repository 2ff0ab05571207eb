"""Service-level chaos: drive ``GraniiService`` through failure storms.

The scenarios here extend the engine-level chaos cases
(:mod:`repro.faults.chaos`) one level up: instead of faulting a single
guarded executor, each scenario runs a *multi-tenant traffic mix*
through a live service and checks the serving contract:

- **no hangs**: every admitted request's future resolves within the
  gather timeout;
- **no raw escapes**: every terminal outcome is a result or a
  structured ``GraniiError`` (``raw_escape`` outcomes are violations);
- **isolation**: a clean tenant sharing the thread pool with a
  poisoned tenant gets correct, undemoted answers;
- **breaker demotion**: a tenant whose requests keep failing is
  demoted to the reference path (outcome ``reference``), not errored
  forever;
- **backpressure**: an overload burst sheds with
  :class:`~repro.errors.GraniiOverloadError` carrying a positive
  retry-after hint, and every accepted request still terminates;
- **collision safety**: a forced fingerprint key collision is detected
  by the structural token and served by recompute — never by the
  colliding entry's plan;
- **durability**: a snapshot corrupted on disk is quarantined at warm
  start with the service still answering (``corrupt-snapshot``), and a
  SIGKILLed serving process leaves state a fresh process warm-starts
  from — first repeat request is a plan-cache hit (``restart-warm``).

Each scenario is seeded and replayable, returns a record whose
``violations`` list is empty iff the contract held, and removes any
state directory it made.  They are entries of the check registry
(``serving/<scenario>``)::

    PYTHONPATH=src python -m repro.checks --seed 0 --quick --only serving
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..core.costmodel import save_cost_models
from ..errors import GraniiError, GraniiInputError, GraniiOverloadError
from ..faults import FaultPlan
from ..graphs.generators import erdos_renyi
from ..models import build_layer
from .fingerprint import fingerprint_graph
from .service import GraniiService, ServeRequest, ServeResult

__all__ = ["SCENARIOS", "serving_inputs"]

IN_SIZE, OUT_SIZE = 16, 8
NODES = 200
GATHER_TIMEOUT_SECONDS = 60.0

# outcomes that violate the serving contract when they appear anywhere
BAD_OUTCOMES = ("raw_escape", "hang", "mismatch", "isolation_breach")


def _service(cost_models, **kwargs) -> GraniiService:
    kwargs.setdefault("device", "cpu")
    kwargs.setdefault("cost_models", cost_models)
    kwargs.setdefault("num_threads", 4)
    svc = GraniiService(**kwargs)
    svc.register_model("gcn", IN_SIZE, OUT_SIZE)
    return svc


def serving_inputs(seed: int):
    """The graph, features and baseline output every scenario shares."""
    graph = erdos_renyi(NODES, avg_degree=6, seed=7)
    feats = np.random.default_rng(seed).standard_normal(
        (graph.num_nodes, IN_SIZE)
    )
    return graph, feats, _reference(graph, feats)


def _reference(graph, feats: np.ndarray) -> np.ndarray:
    layer = build_layer("gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0))
    return np.asarray(layer(graph, feats).data)


def _gather(
    futures: List["Future[ServeResult]"], violations: List[str]
) -> List[ServeResult]:
    """Resolve every future; a timeout is the cardinal sin (a hang)."""
    results: List[ServeResult] = []
    for future in futures:
        try:
            result = future.result(timeout=GATHER_TIMEOUT_SECONDS)
        except FutureTimeout:
            violations.append(
                f"hang: a request future did not resolve within "
                f"{GATHER_TIMEOUT_SECONDS:.0f}s"
            )
            continue
        results.append(result)
        if result.outcome == "raw_escape":
            violations.append(
                f"raw_escape: {result.tenant}/{result.request_id}: "
                f"{result.error_type}: {result.error}"
            )
    return results


def _check_clean(
    results: List[ServeResult],
    reference: np.ndarray,
    violations: List[str],
    tenant: str = "clean",
) -> None:
    """The isolation contract: the clean tenant is correct and untouched."""
    for r in results:
        if r.tenant != tenant:
            continue
        if not r.ok:
            violations.append(
                f"isolation_breach: clean tenant request {r.request_id} "
                f"failed: {r.error_type}: {r.error}"
            )
        elif r.outcome != "ok" or r.demotions:
            violations.append(
                f"isolation_breach: clean tenant request {r.request_id} "
                f"ended {r.outcome!r} with demotions {r.demotions}"
            )
        elif not np.allclose(r.value, reference, rtol=1e-4, atol=1e-6):
            violations.append(
                f"mismatch: clean tenant request {r.request_id} diverged "
                f"from the baseline "
                f"(max_abs_err={float(np.max(np.abs(r.value - reference))):.3e})"
            )


def _record(name: str, violations: List[str], **extra) -> Dict[str, object]:
    record: Dict[str, object] = {
        "scenario": name,
        "outcome": "violated" if violations else "ok",
        "violations": violations,
    }
    record.update(extra)
    return record


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_slow_tenant(graph, feats, reference, cost_models, seed, n):
    """A tenant whose kernels stall must time out (structured), while a
    clean tenant sharing the pool still gets correct, undemoted
    answers.  The deadline rides the slow tenant's *requests* — the
    clean tenant carries none, because a shared thread pool gives no
    latency guarantee while a neighbor's work is stalling workers; the
    isolation contract here is correctness, demotion state, and
    termination, not tail latency."""
    violations: List[str] = []
    with _service(cost_models) as svc:
        futures = []
        for i in range(n):
            slow_plan = FaultPlan.from_string("*:slow:1.0:0.3", seed=seed + i)
            futures.append(svc.submit(ServeRequest(
                tenant="slow", model="gcn", graph=graph, feats=feats,
                fault_plan=slow_plan, deadline_seconds=0.5,
            )))
            futures.append(svc.submit(ServeRequest(
                tenant="clean", model="gcn", graph=graph, feats=feats,
            )))
        results = _gather(futures, violations)
    _check_clean(results, reference, violations)
    slow = [r for r in results if r.tenant == "slow"]
    timeouts = sum(1 for r in slow if r.outcome == "timeout")
    if not any(r.outcome in ("timeout", "ok_demoted", "error") for r in slow):
        violations.append(
            "mismatch: every slow-tenant request completed clean under a "
            "100% stall fault — the injected faults never reached the "
            "kernels"
        )
    return _record(
        "slow-tenant", violations,
        slow_outcomes=sorted({r.outcome for r in slow}), timeouts=timeouts,
    )


def scenario_poison_graph(graph, feats, reference, cost_models, seed, n):
    """A tenant whose every kernel raises must demote through its own
    ladder, trip the tenant breaker, and land on the reference path —
    with the clean tenant never seeing a demotion."""
    violations: List[str] = []
    with _service(
        cost_models, tenant_breaker_threshold=3,
        tenant_breaker_cooldown=300.0,
    ) as svc:
        poison_results: List[ServeResult] = []
        # sequential on the poisoned tenant so breaker state accumulates
        # deterministically; the clean tenant rides the pool concurrently
        clean_futures = [
            svc.submit(ServeRequest(
                tenant="clean", model="gcn", graph=graph, feats=feats,
            ))
            for _ in range(n)
        ]
        for i in range(max(n, 6)):
            plan = FaultPlan.from_string("*:raise:1.0", seed=seed + i)
            poison_results.append(svc.serve(ServeRequest(
                tenant="poison", model="gcn", graph=graph, feats=feats,
                fault_plan=plan,
            ), timeout=GATHER_TIMEOUT_SECONDS))
        results = _gather(clean_futures, violations) + poison_results
        stats = svc.stats()
    _check_clean(results, reference, violations)
    for r in poison_results:
        if r.outcome == "raw_escape":
            violations.append(
                f"raw_escape: poison/{r.request_id}: "
                f"{r.error_type}: {r.error}"
            )
        elif r.ok and not np.allclose(
            r.value, reference, rtol=1e-4, atol=1e-6
        ):
            violations.append(
                f"mismatch: poison/{r.request_id} returned ok with a "
                f"wrong value"
            )
    referenced = sum(1 for r in poison_results if r.outcome == "reference")
    if referenced == 0:
        violations.append(
            "mismatch: the tenant breaker never demoted the poisoned "
            "tenant to the reference path"
        )
    return _record(
        "poison-graph", violations,
        poison_outcomes=sorted({r.outcome for r in poison_results}),
        reference_served=referenced,
        breaker_trips=stats["tenants"]["poison"]["breaker_trips"],
    )


def scenario_corrupt_snapshot(graph, feats, reference, cost_models, seed, n):
    """A snapshot damaged on disk (the ``corrupt_snapshot`` fault) must
    be quarantined at the next warm start and the service must still
    answer correctly — a damaged file costs a cold rebuild, never a
    crash or a wrong answer."""
    violations: List[str] = []
    quarantined: List[str] = []
    warm_start: Dict[str, object] = {}
    state_dir = tempfile.mkdtemp(prefix="granii-state-chaos-")
    # the corrupt_snapshot fault finds its file through REPRO_STATE_DIR
    restore = config.override_env({"REPRO_STATE_DIR": state_dir})
    try:
        with _service(cost_models, state_dir=state_dir) as svc:
            first = svc.serve(ServeRequest(
                tenant="durable", model="gcn", graph=graph, feats=feats,
            ), timeout=GATHER_TIMEOUT_SECONDS)
            if not first.ok:
                violations.append(
                    f"mismatch: durable/{first.request_id} failed before "
                    f"any fault: {first.error}"
                )
            svc.save_state()
            # the fault fires at the next kernel dispatch and truncates
            # one snapshot file mid-write, as a crashed writer would;
            # param 1 indexes the sorted snapshot list at "plan_cache",
            # which every warm start loads regardless of constructor args
            plan = FaultPlan.from_string(
                "*:corrupt_snapshot:1.0:1", seed=seed
            )
            damaged = svc.serve(ServeRequest(
                tenant="durable", model="gcn", graph=graph, feats=feats,
                fault_plan=plan,
            ), timeout=GATHER_TIMEOUT_SECONDS)
            if not damaged.ok:
                violations.append(
                    f"mismatch: the corrupt_snapshot fault broke the "
                    f"*serving* path: {damaged.error}"
                )
        # restart: the corrupted snapshot must quarantine, the rest of
        # the state must load, and the service must still answer
        with _service(cost_models, state_dir=state_dir) as svc2:
            health = svc2.health()
            quarantined = list(health["state_store"]["quarantined"])
            warm_start = dict(svc2.warm_start)
            if not quarantined:
                violations.append(
                    "mismatch: the damaged snapshot was not quarantined "
                    "at warm start"
                )
            result = svc2.serve(ServeRequest(
                tenant="durable", model="gcn", graph=graph, feats=feats,
            ), timeout=GATHER_TIMEOUT_SECONDS)
            if not result.ok:
                violations.append(
                    f"raw_escape: the service failed after quarantining a "
                    f"corrupt snapshot: {result.error_type}: {result.error}"
                )
            elif not np.allclose(
                result.value, reference, rtol=1e-4, atol=1e-6
            ):
                violations.append(
                    "mismatch: post-quarantine answer diverged from the "
                    "baseline"
                )
    finally:
        restore()
        shutil.rmtree(state_dir, ignore_errors=True)
    return _record(
        "corrupt-snapshot", violations,
        quarantined=quarantined, warm_start=warm_start,
    )


def scenario_restart_warm(graph, feats, reference, cost_models, seed, n):
    """The full kill-and-restart round trip: a service process serves one
    request, saves state, and dies by SIGKILL (no cleanup).
    A fresh process must warm-start from ``REPRO_STATE_DIR`` and serve
    the first repeat request as a plan-cache **hit** — same plan, no
    re-selection.  The killed process loads
    ``cost_models`` from a cache file, so it fits nothing."""
    state_dir = tempfile.mkdtemp(prefix="granii-state-restart-")
    model_dir = tempfile.mkdtemp(prefix="granii-models-restart-")
    try:
        save_cost_models(
            cost_models, os.path.join(model_dir, "costmodels_cpu_default.json")
        )
        return _restart_warm(state_dir, model_dir, graph, feats, reference, seed)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.rmtree(model_dir, ignore_errors=True)


def _restart_warm(state_dir, model_dir, graph, feats, reference, seed):
    violations: List[str] = []
    warm: Dict[str, object] = {}
    warm_seconds = -1.0
    result: Optional[ServeResult] = None
    nodes = graph.num_nodes
    child_code = (
        "import os, signal\n"
        "import numpy as np\n"
        "from repro.core.costmodel import get_cost_models\n"
        "from repro.graphs.generators import erdos_renyi\n"
        "from repro.serving.service import GraniiService, ServeRequest\n"
        f"graph = erdos_renyi({nodes}, avg_degree=6, seed=7)\n"
        f"feats = np.random.default_rng({seed}).standard_normal"
        f"((graph.num_nodes, {IN_SIZE}))\n"
        f"models = get_cost_models('cpu', cache_dir={model_dir!r})\n"
        f"svc = GraniiService(device='cpu', cost_models=models,\n"
        f"    num_threads=2, state_dir={state_dir!r})\n"
        f"svc.register_model('gcn', {IN_SIZE}, {OUT_SIZE})\n"
        "r = svc.serve(ServeRequest(tenant='t', model='gcn', graph=graph,"
        " feats=feats))\n"
        "assert r.ok, r.error\n"
        "svc.save_state()\n"
        "print('ready', flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child_code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),  # lint: allow(env-outside-config)
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != -9 or "ready" not in proc.stdout:
        violations.append(
            f"mismatch: the to-be-killed serving process did not reach "
            f"its SIGKILL (rc={proc.returncode}): {proc.stderr[-500:]}"
        )
        return _record("restart-warm", violations)
    # warm start in THIS process: cost models + plan cache both come
    # off disk; no cost_models argument on purpose
    t_warm = time.perf_counter()
    with _service(None, num_threads=2, state_dir=state_dir) as svc:
        warm = dict(svc.warm_start)
        result = svc.serve(ServeRequest(
            tenant="t", model="gcn", graph=graph, feats=feats,
        ), timeout=GATHER_TIMEOUT_SECONDS)
    warm_seconds = time.perf_counter() - t_warm
    if not bool(warm.get("cost_models")):
        violations.append(
            "mismatch: cost models were not warm-started from disk"
        )
    if not result.ok:
        violations.append(
            f"raw_escape: warm-started service failed: "
            f"{result.error_type}: {result.error}"
        )
    else:
        if not result.cache_hit:
            violations.append(
                "mismatch: the first repeat request after restart "
                "re-selected instead of hitting the warmed plan cache"
            )
        if not np.allclose(result.value, reference, rtol=1e-4, atol=1e-6):
            violations.append(
                "mismatch: the warm-started answer diverged from the "
                "baseline"
            )
    return _record(
        "restart-warm", violations,
        warm_start=warm,
        warm_first_request_seconds=round(warm_seconds, 3),
        cache_hit=bool(result.cache_hit) if result is not None else False,
    )


def scenario_cache_collision(graph, feats, reference, cost_models, seed, n):
    """Adversarial fingerprinting: every graph hashes to the same cache
    key.  The structural token must catch the collision and each graph
    must still get the answer for *its* structure."""
    violations: List[str] = []

    def colliding_fingerprint(g, model_name, in_size, out_size):
        fp = fingerprint_graph(g, model_name, in_size, out_size)
        return type(fp)(key="deadbeef" * 5, token=fp.token)

    other = erdos_renyi(graph.num_nodes // 2, avg_degree=5, seed=seed + 11)
    other_feats = np.random.default_rng(seed).standard_normal(
        (other.num_nodes, IN_SIZE)
    )
    with _service(cost_models, fingerprint_fn=colliding_fingerprint) as svc:
        futures = []
        for i in range(n):
            g, f = (graph, feats) if i % 2 == 0 else (other, other_feats)
            futures.append(svc.submit(ServeRequest(
                tenant="collide", model="gcn", graph=g, feats=f,
            )))
        results = _gather(futures, violations)
        stats = svc.cache.stats()
    ref_a, ref_b = _reference(graph, feats), _reference(other, other_feats)
    for r in results:
        if not r.ok:
            violations.append(
                f"raw_escape: collide/{r.request_id} failed under a mere "
                f"key collision: {r.error_type}: {r.error}"
            )
            continue
        expect = ref_a if r.value.shape[0] == graph.num_nodes else ref_b
        if not np.allclose(r.value, expect, rtol=1e-4, atol=1e-6):
            violations.append(
                f"mismatch: collide/{r.request_id} was served the "
                f"colliding entry's plan (wrong value for its structure)"
            )
    if stats["collisions"] < 1:
        violations.append(
            "mismatch: forced key collisions were never detected by the "
            "structural token"
        )
    return _record(
        "cache-collision", violations,
        collisions=stats["collisions"], hits=stats["hits"],
    )


def scenario_overload(graph, feats, reference, cost_models, seed, n):
    """A burst far past the queue bound: excess requests shed with a
    positive retry-after hint, accepted ones all terminate."""
    violations: List[str] = []
    burst = max(4 * n, 12)
    with _service(
        cost_models, num_threads=1, max_queue=2,
    ) as svc:
        futures, sheds, hints = [], 0, []
        for i in range(burst):
            plan = FaultPlan.from_string("*:slow:1.0:0.05", seed=seed + i)
            try:
                futures.append(svc.submit(ServeRequest(
                    tenant="burst", model="gcn", graph=graph, feats=feats,
                    fault_plan=plan,
                )))
            except GraniiOverloadError as exc:
                sheds += 1
                hints.append(exc.retry_after_seconds)
                if exc.retry_after_seconds <= 0:
                    violations.append(
                        "mismatch: a shed carried no positive retry-after "
                        "hint"
                    )
        results = _gather(futures, violations)
    if sheds == 0:
        violations.append(
            f"mismatch: a burst of {burst} against a queue bound of 2 "
            f"shed nothing — backpressure is not engaging"
        )
    if not any(r.ok for r in results):
        violations.append(
            "mismatch: the overloaded service served nothing at all"
        )
    return _record(
        "overload", violations,
        burst=burst, accepted=len(futures), shed=sheds,
        served=sum(1 for r in results if r.ok),
        max_retry_hint=round(max(hints), 4) if hints else 0.0,
    )


def scenario_poison_input(graph, feats, reference, cost_models, seed, n):
    """Malformed requests die at admission, on the caller's thread, with
    structured errors — they never occupy a worker."""
    violations: List[str] = []
    nan_feats = feats.copy()
    nan_feats[3, 2] = np.nan
    cases: List[Tuple[str, ServeRequest]] = [
        ("nan-features", ServeRequest(
            tenant="bad", model="gcn", graph=graph, feats=nan_feats)),
        ("wrong-width", ServeRequest(
            tenant="bad", model="gcn", graph=graph,
            feats=feats[:, : IN_SIZE // 2].copy())),
        ("unknown-model", ServeRequest(
            tenant="bad", model="resnet50", graph=graph, feats=feats)),
        ("bad-deadline", ServeRequest(
            tenant="bad", model="gcn", graph=graph, feats=feats,
            deadline_seconds=-1.0)),
    ]
    caught = {}
    with _service(cost_models) as svc:
        for name, request in cases:
            try:
                svc.submit(request)
                violations.append(
                    f"mismatch: {name} was admitted instead of rejected"
                )
            except GraniiInputError as exc:
                caught[name] = type(exc).__name__
            except GraniiError as exc:
                caught[name] = type(exc).__name__
            except Exception as exc:  # noqa: BLE001
                violations.append(
                    f"raw_escape: {name} raised unstructured "
                    f"{type(exc).__name__}: {exc}"
                )
        stats = svc.stats()
    if stats["totals"]["completed"] != 0:
        violations.append(
            "mismatch: a malformed request reached a worker thread"
        )
    return _record("poison-input", violations, rejected=caught)


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "slow-tenant": scenario_slow_tenant,
    "poison-graph": scenario_poison_graph,
    "cache-collision": scenario_cache_collision,
    "overload": scenario_overload,
    "poison-input": scenario_poison_input,
    "corrupt-snapshot": scenario_corrupt_snapshot,
    "restart-warm": scenario_restart_warm,
}
