"""Kept only for ``bench/child.py``, which imports these two names.

The process-pool SpMM strategy that lived here is gone; both functions
are no-ops.  This module is not re-exported from :mod:`repro.kernels`.
"""


def release_segments() -> None:
    """No-op: nothing allocates shared-memory segments."""


def shutdown_pool() -> None:
    """No-op: there is no process pool."""
