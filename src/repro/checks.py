"""One registry of checks, one runner, one JSON report.

Every check behind the repo's correctness and robustness claims is an
entry here:

- ``chaos/<model>/<schedule>``: a zoo model under one of
  :data:`repro.faults.chaos.FAULT_SCHEDULES` must end correct or raise a
  structured error; ``chaos/gcn/input-*``: a malformed input must be
  rejected at admission;
- ``serving/<scenario>``: :data:`repro.serving.chaos.SCENARIOS` (no
  hang, no raw escape, tenants isolated, durable state recovers);
- ``racestress/<scenario>``: the lock-order edges a stress run takes
  must all be in conclint's static graph;
- ``planlint/<mutation>``, ``conclint/<mutation>``: each seeded bug must
  be caught; ``planlint/zoo``: every promoted zoo plan must pass
  planlint; ``conclint/baseline``: the unmutated tree must be clean;
- ``verify/<model>/<mode>``: every promoted plan of the model, under
  both systems and every SpMM strategy, must match the reference
  composition on the adversarial battery
  (:func:`repro.core.verify.sweep`); ``verify/seed-fault``: a
  deliberately wrong kernel must be caught and shrunk;
- ``lint/<rule>``: no unwaived :data:`repro.analysis.lint.RULES`
  violation in ``src/repro`` and the ``tests``, ``examples`` and
  ``benchmarks`` trees beside ``src/``.

::

    python -m repro.checks [--quick] [--seed N] [--only NAMES] [--output PATH]

``--quick`` runs the entries CI runs, at reduced sizes (the verify
entries take the quick battery); ``--only`` takes comma-separated entry
or suite names.  The runner prints one line per entry, writes a JSON
list of ``{check, suite, ok, seconds, detail}`` and exits 1 iff an
entry is not ok.  Inputs several entries share (the ``cpu`` cost
models, conclint's analysis of the unmutated tree and its lock graph,
the zoo's compiled plans, the verify battery, one lint pass) are built
once per run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import lint
from .analysis import mutate as planlint_mutate
from .analysis.conclint import analyze_sources
from .analysis.conclint import mutate as conclint_mutate
from .analysis.planlint import analyze_plan
from .core import verify
from .core.codegen import compile_model
from .core.costmodel import get_cost_models
from .faults import chaos, racestress
from .models import MODEL_NAMES
from .serving import chaos as serving_chaos

__all__ = ["Check", "Context", "REGISTRY", "main", "run", "select"]


class Context:
    """The inputs of one run: its seed, its size and a memo of what
    entries share, each built on first use."""

    def __init__(self, seed: int = 0, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self._memo: Dict[object, object] = {}

    def shared(self, key: object, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def cost_models(self):
        return self.shared("cost_models", lambda: get_cost_models("cpu"))

    @property
    def tree(self):
        """``(sources, report)``: the ``repro`` tree and conclint's
        analysis of it, whose lock graph racestress checks against."""

        def build():
            sources = conclint_mutate.tree_sources()
            return sources, analyze_sources(sources)

        return self.shared("tree", build)


@dataclass(frozen=True)
class Check:
    """A registry entry: ``run`` returns ``(ok, detail)``; ``detail``
    must be JSON-serializable."""

    name: str
    quick: bool
    run: Callable[[Context], Tuple[bool, object]]

    @property
    def suite(self) -> str:
        return self.name.split("/", 1)[0]


def _chaos_case(model, schedule, rules, env, ctx: Context):
    graph, feats = ctx.shared("chaos", lambda: chaos.chaos_inputs(ctx.seed))
    reference = ctx.shared(
        ("chaos", model), lambda: chaos.reference_output(model, graph, feats)
    )
    record = chaos.run_case(
        model, schedule, rules, env, graph, feats, reference,
        ctx.cost_models, ctx.seed,
    )
    return record["outcome"] not in chaos.BAD_OUTCOMES, record


def _admission_case(name, ctx: Context):
    graph, feats = ctx.shared("chaos", lambda: chaos.chaos_inputs(ctx.seed))
    record = chaos.run_admission_case(
        name, graph, feats, ctx.cost_models, ctx.seed
    )
    return record["outcome"] not in chaos.BAD_OUTCOMES, record


def _serving_scenario(name, ctx: Context):
    graph, feats, reference = ctx.shared(
        "serving", lambda: serving_chaos.serving_inputs(ctx.seed)
    )
    record = serving_chaos.SCENARIOS[name](
        graph, feats, reference, ctx.cost_models, ctx.seed,
        3 if ctx.quick else 6,
    )
    return not record["violations"], record


def _race_scenario(name, ctx: Context):
    report = racestress.run_scenario(name, ctx.quick, ctx.tree[1].graph)
    return report.ok, report.to_dict()


def _planlint_mutation(mutation, ctx: Context):
    pool, plans = ctx.shared("planlint", planlint_mutate.zoo_pool)
    record = planlint_mutate.check_mutation(mutation, pool, plans)
    return bool(record["caught"]), record


def _conclint_mutation(mutation, ctx: Context):
    return conclint_mutate.check_mutation(mutation, *ctx.tree)


# the promoted plans planlint/zoo analyzes beyond zoo_pool's defaults
_PLANLINT_EXTENSIONS = {
    "gat+fusion": ("gat", {"fusion": True}),
    "sgc+spgemm": ("sgc", {"spgemm": True, "hops": 2}),
}


def _planlint_zoo(ctx: Context):
    _pool, plans = ctx.shared("planlint", planlint_mutate.zoo_pool)
    labelled = [(plan.name.split(":")[0], plan) for plan in plans]
    for label, (name, kwargs) in _PLANLINT_EXTENSIONS.items():
        labelled += [
            (label, pc.plan) for pc in compile_model(name, **kwargs).promoted
        ]
    verdicts = [(label, analyze_plan(plan)) for label, plan in labelled]
    rejected = [v.describe() for _, v in verdicts if not v.ok]
    return not rejected, {
        "outcome": f"{len(verdicts)} plans, {len(rejected)} rejected",
        "rejected": rejected,
        "plans": [dict(model=label, **v.to_dict()) for label, v in verdicts],
    }


def _conclint_baseline(ctx: Context):
    report = ctx.tree[1]
    return not report.active, {
        "outcome": f"{len(report.active)} finding(s), "
                   f"{len(report.waived)} waived",
        **report.to_dict(),
    }


def _sweep(ctx: Context, **kwargs):
    """``(report, detail)`` of one :func:`repro.core.verify.sweep` over
    the run's battery; the pytest source of each shrunk repro is in the
    detail, and no file outlives the call."""
    graphs = ctx.shared(
        "verify", lambda: verify.adversarial_battery(quick=ctx.quick)
    )
    with tempfile.TemporaryDirectory() as repro_dir:
        report = verify.sweep(
            graphs=graphs, seed=ctx.seed, repro_dir=repro_dir, **kwargs
        )
        sources = {}
        for result in report.failures:
            if result.repro_path:
                with open(result.repro_path) as fh:
                    result.repro_path = os.path.basename(result.repro_path)
                    sources[result.repro_path] = fh.read()
    report.meta["repro_files"] = sorted(sources)
    detail = report.to_dict()
    detail["outcome"] = (
        f"{report.num_checks} checks, {len(report.failures)} divergent"
    )
    detail["repro_sources"] = sources
    return report, detail


def _verify_case(model, mode, ctx: Context):
    report, detail = _sweep(ctx, models=[model], modes=[mode])
    return report.passed, detail


def _verify_seed_fault(ctx: Context):
    # the blocked kernel is the one seeded_fault perturbs
    with verify.seeded_fault():
        report, detail = _sweep(
            ctx, models=["gcn"], systems=["dgl"], modes=["inference"],
            strategies=["blocked"], max_shrinks=1,
        )
    shrunk = [r for r in report.failures if r.shrunk_num_nodes >= 0]
    return bool(shrunk), detail


def _lint_roots() -> List[str]:
    """``src/repro`` plus whichever of ``tests``, ``examples`` and
    ``benchmarks`` sits beside ``src/``."""
    package = os.path.dirname(os.path.abspath(__file__))
    beside = [
        os.path.join(os.path.dirname(os.path.dirname(package)), name)
        for name in ("tests", "examples", "benchmarks")
    ]
    return [package] + [path for path in beside if os.path.isdir(path)]


def _lint_rule(rule, ctx: Context):
    found = ctx.shared("lint", lambda: lint.lint_paths(_lint_roots()))
    # a file lint cannot parse was checked by no rule, so it fails each
    mine = [v for v in found if v.rule == rule or v.rule not in lint.RULES]
    active = [v.describe() for v in mine if not v.waived]
    waived = [v.describe() for v in mine if v.waived]
    return not active, {
        "outcome": f"{len(active)} violation(s), {len(waived)} waived",
        "violations": active,
        "waived": waived,
    }


def _registry() -> Tuple[Check, ...]:
    checks: List[Check] = []
    for model in MODEL_NAMES:
        for schedule, rules, env in chaos.FAULT_SCHEDULES:
            checks.append(Check(
                f"chaos/{model}/{schedule}",
                model in chaos.QUICK_MODELS
                and schedule in chaos.QUICK_SCHEDULES,
                partial(_chaos_case, model, schedule, rules, env),
            ))
    for name in chaos.ADMISSION_CASES:
        checks.append(
            Check(f"chaos/gcn/{name}", True, partial(_admission_case, name))
        )
    for name in serving_chaos.SCENARIOS:
        checks.append(
            Check(f"serving/{name}", True, partial(_serving_scenario, name))
        )
    for name in racestress.SCENARIOS:
        # CI's dynamic check is the serving workload; the cache hammer
        # runs in tier-1 (tests/test_conclint.py)
        checks.append(Check(
            f"racestress/{name}", name == "serving",
            partial(_race_scenario, name),
        ))
    for mutation in planlint_mutate.MUTATIONS:
        checks.append(Check(
            f"planlint/{mutation.name}", True,
            partial(_planlint_mutation, mutation),
        ))
    checks.append(Check("planlint/zoo", True, _planlint_zoo))
    checks.append(Check("conclint/baseline", True, _conclint_baseline))
    for mutation in conclint_mutate.MUTATIONS:
        checks.append(Check(
            f"conclint/{mutation.name}", True,
            partial(_conclint_mutation, mutation),
        ))
    for model in MODEL_NAMES:
        for mode in verify.VERIFY_MODES:
            checks.append(Check(
                f"verify/{model}/{mode}", True,
                partial(_verify_case, model, mode),
            ))
    checks.append(Check("verify/seed-fault", True, _verify_seed_fault))
    for rule in lint.RULES:
        checks.append(Check(f"lint/{rule}", True, partial(_lint_rule, rule)))
    return tuple(checks)


REGISTRY: Tuple[Check, ...] = _registry()


def select(only: Sequence[str] = (), quick: bool = False) -> List[Check]:
    """The registry entries named in ``only`` (entry or suite names; all
    when empty), restricted to the quick ones if ``quick``.  Raises
    ``KeyError`` naming any name that matches no entry."""
    names = set(only)
    unknown = names - {c.name for c in REGISTRY} - {c.suite for c in REGISTRY}
    if unknown:
        raise KeyError(", ".join(sorted(unknown)))
    return [
        c for c in REGISTRY
        if (not names or c.name in names or c.suite in names)
        and (c.quick or not quick)
    ]


def run(checks: Sequence[Check], ctx: Context) -> List[Dict[str, object]]:
    """Run each entry, print one line for it and return the report.

    An entry that raises is not ok, with its traceback as the detail;
    the remaining entries still run."""
    results: List[Dict[str, object]] = []
    for check in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = check.run(ctx)
        except Exception:  # noqa: BLE001 - one broken entry must not stop the rest
            ok, detail = False, traceback.format_exc()
        seconds = round(time.perf_counter() - t0, 3)
        results.append({
            "check": check.name, "suite": check.suite, "ok": bool(ok),
            "seconds": seconds, "detail": detail,
        })
        note = detail.get("outcome", "") if isinstance(detail, dict) else ""
        print(f"{'ok  ' if ok else 'FAIL'} {check.name:<40} {seconds:8.3f}s {note}",
              flush=True)
        if not ok:
            print(f"     {json.dumps(detail, default=str)}", flush=True)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the entries CI runs, at reduced sizes",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the inputs and fault draws"
    )
    parser.add_argument(
        "--only", default="", help="comma-separated entry or suite names"
    )
    parser.add_argument("--output", default="", help="write the JSON report here")
    args = parser.parse_args(argv)

    try:
        checks = select([n for n in args.only.split(",") if n], args.quick)
    except KeyError as exc:
        parser.error(f"unknown check or suite: {exc.args[0]}")
    if not checks:
        parser.error("the selection holds no entry (--quick keeps only quick ones)")
    t0 = time.perf_counter()
    results = run(checks, Context(args.seed, args.quick))
    failed = [r["check"] for r in results if not r["ok"]]
    print(
        f"\n{len(results)} checks in {time.perf_counter() - t0:.1f}s: "
        f"{len(results) - len(failed)} ok, {len(failed)} failed"
        + (f" ({', '.join(failed)})" if failed else "")
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=2, default=str)
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
