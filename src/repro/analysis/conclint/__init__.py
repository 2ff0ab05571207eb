"""``repro.analysis.conclint`` — interprocedural concurrency linter.

Three passes over the repo's own source (see the sibling modules):

- :mod:`.locks` — whole-program lock-acquisition-order graph; cycles,
  self-deadlocks, locks held across blocking calls, bare ``acquire()``
  without a ``finally`` release.
- :mod:`.lifetime` — thread-pool executors provably shut down or
  published on all paths including exception edges.
- :mod:`.disjoint` — symbolic interval proof that the split fold's
  ``out[r0:r1]`` span writes are non-overlapping for
  ``plan_row_shards`` bounds.

Waivers use the repo-wide pragma dialect — ``# lint: allow(<rule>)`` on
the offending line or the line above — but conclint additionally
requires trailing justification text after the closing paren
(``# lint: allow(lock-held-across-blocking-call) pool serialization is
the design``); a bare concurrency waiver is itself a finding
(``unjustified-waiver``).  Waivers are counted, never silent.

The static lock-order graph is also the reference the dynamic
sanitizer (:mod:`repro.faults.racestress`) checks observed lock
acquisitions against: every edge seen at runtime must already exist
statically.

CLI::

    python -m repro.analysis.conclint src/repro [--json REPORT.json]

Its seeded mutations (:mod:`.mutate`) run in ``python -m repro.checks``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .disjoint import analyze_disjoint
from .lifetime import analyze_lifetime
from .locks import LockGraph, analyze_locks
from .model import CONCLINT_RULES, Finding, Program, canonical_rel

__all__ = [
    "CONCLINT_RULES",
    "ConclintReport",
    "Finding",
    "LockGraph",
    "Program",
    "analyze_paths",
    "analyze_sources",
    "canonical_rel",
    "collect_sources",
]


@dataclass
class ConclintReport:
    """Every finding (waived and active) plus the lock-order graph."""

    findings: List[Finding] = field(default_factory=list)
    graph: Optional[LockGraph] = None

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    def waiver_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.waived:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        graph = self.graph
        return {
            "active": [f.describe() for f in self.active],
            "waived": [f.describe() for f in self.waived],
            "waiver_counts": self.waiver_counts(),
            "totals": {
                "active": len(self.active),
                "waived": len(self.waived),
            },
            "lock_order_edges": sorted(
                [src, dst] for src, dst in (graph.edges if graph else ())
            ),
            "locks": {
                info.lock_id: {
                    "kind": info.kind,
                    "sites": [f"{p}:{l}" for p, l in info.sites],
                }
                for info in (graph.locks.values() if graph else ())
            },
        }


def _apply_waivers(prog: Program, findings: List[Finding]) -> List[Finding]:
    """Waive findings via pragmas; flag concurrency waivers that carry
    no justification text, and count every waiver."""
    out: List[Finding] = []
    used: set = set()
    for f in findings:
        table = prog.waivers.get(f.path, {})
        waived = False
        for line in (f.line, f.line - 1):
            entry = table.get(line)
            if entry and f.rule in entry[0]:
                out.append(Finding(
                    f.rule, f.path, f.line, f.message,
                    waived=True, justification=entry[1],
                ))
                used.add((f.path, line))
                waived = True
                break
        if not waived:
            out.append(f)
    # justification discipline: every conclint-rule waiver pragma must
    # say *why* in-line, whether or not it matched a finding
    for path, table in sorted(prog.waivers.items()):
        for line, (rules, justification) in sorted(table.items()):
            conc = sorted(set(rules) & set(CONCLINT_RULES))
            if conc and not justification:
                out.append(Finding(
                    "unjustified-waiver", path, line,
                    f"waiver for {', '.join(conc)} has no in-line "
                    f"justification — say why after the closing paren",
                ))
    return sorted(out, key=lambda f: (f.path, f.line, f.rule))


def analyze_sources(sources: Dict[str, str]) -> ConclintReport:
    """Run all three passes over ``{path: source}``."""
    prog = Program(sources)
    findings: List[Finding] = list(prog.parse_errors)
    lock_findings, graph = analyze_locks(prog)
    findings.extend(lock_findings)
    findings.extend(analyze_lifetime(prog))
    findings.extend(analyze_disjoint(prog))
    return ConclintReport(
        findings=_apply_waivers(prog, findings), graph=graph
    )


def collect_sources(paths: Sequence[str]) -> Dict[str, str]:
    sources: Dict[str, str] = {}
    for path in paths:
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                sources[path] = fh.read()
            continue
        for root, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".py"):
                    full = os.path.join(root, name)
                    with open(full, "r", encoding="utf-8") as fh:
                        sources[full] = fh.read()
    return sources


def analyze_paths(paths: Sequence[str]) -> ConclintReport:
    return analyze_sources(collect_sources(paths))
