"""CLI for the concurrency linter.

::

    python -m repro.analysis.conclint src/repro [--json REPORT.json] [--verbose]

Exit status 0 when there are no unwaived findings, 1 otherwise.  The
seeded mutations that prove conclint catches bugs run in ``python -m
repro.checks``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import analyze_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.conclint",
        description="Interprocedural concurrency linter for the repro tree",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze")
    parser.add_argument("--json", default="", help="write the report here")
    parser.add_argument("--verbose", action="store_true",
                        help="print the lock-order graph and waivers")
    args = parser.parse_args(argv)

    report = analyze_paths(args.paths or ["src/repro"])
    for f in report.active:
        print(f.describe())
    counts = report.waiver_counts()
    waived_text = ", ".join(
        f"{rule}={n}" for rule, n in sorted(counts.items())
    ) or "none"
    print(
        f"conclint: {len(report.active)} finding(s), "
        f"{len(report.waived)} waived ({waived_text})"
    )
    if args.verbose and report.graph is not None:
        for src, dst in sorted(report.graph.edges):
            site = report.graph.edge_sites[(src, dst)]
            print(f"  lock-order edge {src} -> {dst}  [{site[0]}:{site[1]}]")
        for f in report.waived:
            print(f"  waived: {f.describe()}  // {f.justification}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    return 1 if report.active else 0


if __name__ == "__main__":
    sys.exit(main())
