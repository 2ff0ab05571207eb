"""CLI: planlint over the model zoo.

::

    python -m repro.analysis                        # analyze zoo plans
    python -m repro.analysis --models gcn,gat
    python -m repro.analysis --output ANALYSIS_REPORT.json

Exit status is non-zero if any promoted plan fails analysis, which
makes this directly usable as the CI ``analysis`` job.  The seeded
mutations that prove planlint catches bugs run in ``python -m
repro.checks``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.codegen import compile_model
from ..models import MODEL_NAMES
from .planlint import analyze_plan

_EXTENSIONS = (
    ("gat", {"fusion": True}),
    ("sgc", {"spgemm": True, "hops": 2}),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--models", default="", help="comma-separated model subset"
    )
    parser.add_argument(
        "--no-extensions", action="store_true",
        help="skip the fusion/spgemm extension pools",
    )
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--output", default="", help="write report JSON here")
    args = parser.parse_args(argv)

    models = [m for m in args.models.split(",") if m] or list(MODEL_NAMES)
    targets = [(name, {}) for name in models]
    if not args.no_extensions and not args.models:
        targets += list(_EXTENSIONS)
    plans = []
    for name, kwargs in targets:
        compiled = compile_model(name, **kwargs)
        suffix = "".join(f"+{k}" for k in kwargs if kwargs[k] is True)
        for planned in compiled.promoted:
            plans.append((f"{name}{suffix}", planned.plan))
    verdicts = []
    failed = 0
    for label, plan in plans:
        verdict = analyze_plan(plan)
        verdicts.append((label, verdict))
        if not verdict.ok:
            failed += 1
        if args.verbose or not verdict.ok:
            print(verdict.describe())
    total_proved = sum(len(v.proved) for _, v in verdicts)
    total_obl = sum(len(v.obligations) for _, v in verdicts)
    print(
        f"{len(verdicts)} promoted plans analyzed: "
        f"{len(verdicts) - failed} ok, {failed} rejected "
        f"({total_proved} facts proved, {total_obl} obligations)"
    )
    report = {
        "plans": [
            dict(model=label, **verdict.to_dict()) for label, verdict in verdicts
        ]
    }
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
