"""Static analysis for GRANII: plan verification and codebase linting.

Three prongs, all purely static:

- :mod:`repro.analysis.planlint` — an abstract interpreter over the
  matrix IR and lowered plan steps.  It re-derives every step's result
  description from the rule table under symbolic shape/sparsity/nnz
  domains (:mod:`repro.analysis.domains`), flags SSA/alias/lifetime
  hazards, and produces per-plan :class:`~repro.analysis.planlint.PlanVerdict`
  records (proved facts + residual obligations) that
  ``repro.core.pruning`` uses to reject statically-illegal trees before
  cost modeling and ``repro.core.guard`` uses to skip redundant runtime
  checks.
- :mod:`repro.analysis.lint` — an AST linter enforcing the repository's
  runtime invariants (``repro.config`` env discipline, ``WorkspaceArena``
  allocation discipline, structured ``GraniiError`` handling, provably
  disjoint writes in split-fold closures).
- :mod:`repro.analysis.conclint` — an *interprocedural* concurrency
  linter: whole-program lock-acquisition-order graph (cycles, blocking
  calls under locks, bare acquires), resource-lifetime proofs for
  thread-pool executors over exception edges, and a symbolic interval
  proof that the split fold's ``out[r0:r1]`` span writes are disjoint.
  Its static lock graph is validated dynamically by
  :mod:`repro.faults.racestress`.

CLIs::

    python -m repro.analysis              # planlint over the model zoo
    python -m repro.analysis.lint src/repro
    python -m repro.analysis.conclint src/repro

The seeded mutations of both analyzers run in ``python -m repro.checks``.
"""

from .domains import AbstractMatrix, join_structure, structure_leq, structure_of
from .planlint import (
    Diagnostic,
    PlanVerdict,
    analyze_candidate,
    analyze_plan,
    analysis_env_key,
    reject_illegal,
)

__all__ = [
    "AbstractMatrix",
    "Diagnostic",
    "PlanVerdict",
    "analyze_candidate",
    "analyze_plan",
    "analysis_env_key",
    "reject_illegal",
    "join_structure",
    "structure_leq",
    "structure_of",
]
