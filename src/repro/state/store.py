"""Crash-safe durable snapshots of GRANII's learned selection state.

GRANII's value at serving time is state that was *learned* — trained
cost models and fingerprint-keyed plan selections.  Both are expensive
to rebuild (a profiling fit, a selection per cached structure), so a
restart must be able to warm-start from disk, and
a crash *during* a save must never leave a half-written file that
poisons the next start.

Every snapshot is one file under ``REPRO_STATE_DIR`` written with the
classic crash-safe dance: write to a same-directory temp file, ``fsync``
it, then ``os.replace`` onto the final name (atomic on POSIX).  The file
is a JSON envelope carrying a schema version and a SHA-256 checksum of
the payload blob; :meth:`StateStore.load` verifies both and, on *any*
corruption or version mismatch, quarantines the bad file (renamed to
``<name>.corrupt.<n>``) and returns ``None`` so the caller rebuilds cold
— a damaged snapshot costs a warm start, never a crash.

Payloads that are plain JSON are stored as JSON (inspectable with any
editor); anything else rides as a base64 pickle blob, which is safe here
because snapshots are local state written and read by the same trusted
process, not a network input.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["SCHEMA_VERSION", "StateStore", "atomic_write_text", "quarantine"]

logger = logging.getLogger(__name__)

# Bump on any incompatible envelope/payload layout change: old snapshots
# are then quarantined and rebuilt instead of being misread.  2: cost
# models save their trees as node columns.  3: cost models save each
# ensemble as packed node columns (raw bytes).
SCHEMA_VERSION = 3

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp + fsync + rename (crash-safe).

    The temp file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary.  Readers see
    either the complete old file or the complete new one, never a
    truncated hybrid.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine(path) -> Optional[str]:
    """Move a damaged file aside as ``<name>.corrupt.<n>``; never raises.

    Returns the quarantine path, or ``None`` if the file vanished or the
    rename failed (in which case the caller still proceeds cold).
    """
    path = Path(path)
    for n in range(1000):
        target = path.with_name(f"{path.name}.corrupt.{n}")
        if not target.exists():
            break
    try:
        os.replace(path, target)
    except OSError:
        return None
    logger.warning("quarantined corrupt state file %s -> %s", path, target.name)
    return str(target)


class StateStore:
    """Named, checksummed, schema-versioned snapshots under one directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, name: str) -> Path:
        if not _NAME_RE.match(name) or name.endswith(".json"):
            raise ValueError(f"invalid snapshot name {name!r}")
        return self.root / f"{name}.json"

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, name: str, payload: Any) -> str:
        """Atomically persist ``payload`` as snapshot ``name``.

        JSON-representable payloads are stored as JSON; anything else as
        a base64 pickle blob.  Returns the snapshot path.
        """
        try:
            blob = json.dumps(payload, sort_keys=True)
            encoding = "json"
        except (TypeError, ValueError):
            blob = base64.b64encode(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
            encoding = "pickle"
        envelope = {
            "schema": SCHEMA_VERSION,
            "name": name,
            "encoding": encoding,
            "checksum": hashlib.sha256(blob.encode()).hexdigest(),
            "blob": blob,
        }
        path = self._path(name)
        atomic_write_text(path, json.dumps(envelope))
        return str(path)

    def load(self, name: str) -> Optional[Any]:
        """Return snapshot ``name``'s payload, or ``None`` to rebuild cold.

        Any failure — missing file, truncated JSON, checksum mismatch,
        unknown schema version, undecodable blob — quarantines the file
        (if present) and returns ``None``; it never raises.
        """
        path = self._path(name)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("state snapshot %s unreadable: %s", path, exc)
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
            if envelope.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema version {envelope.get('schema')!r} "
                    f"!= {SCHEMA_VERSION}"
                )
            blob = envelope["blob"]
            if not isinstance(blob, str):
                raise ValueError("blob is not a string")
            digest = hashlib.sha256(blob.encode()).hexdigest()
            if digest != envelope.get("checksum"):
                raise ValueError("checksum mismatch")
            if envelope.get("encoding") == "json":
                return json.loads(blob)
            if envelope.get("encoding") == "pickle":
                return pickle.loads(base64.b64decode(blob))
            raise ValueError(f"unknown encoding {envelope.get('encoding')!r}")
        except Exception as exc:
            logger.warning(
                "state snapshot %s corrupt (%s); quarantining and "
                "rebuilding cold",
                path,
                exc,
            )
            quarantine(path)
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshots(self) -> List[str]:
        """Names of intact-looking snapshot files currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem for p in self.root.glob("*.json") if ".corrupt." not in p.name
        )

    def quarantined(self) -> List[str]:
        """Filenames previously quarantined by :meth:`load`."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.glob("*.corrupt.*"))

    def status(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "snapshots": self.snapshots(),
            "quarantined": self.quarantined(),
        }
