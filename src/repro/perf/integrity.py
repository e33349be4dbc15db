"""Artifact integrity guard: checksummed, schema-tagged result files.

Every on-disk artifact the perf layer persists -- cached cell outcomes,
which double as run-manifest checkpoints -- is written through
:func:`write_artifact`, which prefixes the pickled payload with a
one-line JSON header carrying a format tag, a schema string, the
payload length and its SHA-256.
:func:`read_artifact` verifies all four before unpickling, so a
truncated write (SIGKILL mid-``os.replace``), a flipped bit, or a file
from an incompatible layout version surfaces as a structured
:class:`IntegrityError` -- never as a bogus result silently folded into
a report.

Callers that can recompute (the result cache) catch the error, evict
the artifact and emit an :class:`ArtifactIntegrityWarning`; the run
proceeds as if the entry never existed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Any, Optional

#: Format tag of the artifact container itself (not the payload schema).
ARTIFACT_FORMAT = "repro-artifact"
#: Container layout version; bump on incompatible header changes.
ARTIFACT_VERSION = 1


class IntegrityError(Exception):
    """A persisted artifact failed verification.

    ``reason`` is machine-readable: ``"missing"``, ``"unreadable"``,
    ``"not-an-artifact"``, ``"truncated"``, ``"checksum-mismatch"``,
    ``"schema-mismatch"`` or ``"undecodable"``.
    """

    def __init__(self, path: Path, reason: str, detail: str = "") -> None:
        self.path = Path(path)
        self.reason = reason
        self.detail = detail
        message = f"{self.path}: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class ArtifactIntegrityWarning(UserWarning):
    """A corrupt/mismatched artifact was evicted and will be recomputed."""


def warn_corrupt(error: IntegrityError, *, action: str = "recomputing") -> None:
    """Emit the structured warning for one evicted artifact."""
    warnings.warn(
        f"artifact {error.path} failed integrity check "
        f"[{error.reason}]; {action}"
        + (f": {error.detail}" if error.detail else ""),
        ArtifactIntegrityWarning,
        stacklevel=3,
    )


def payload_digest(payload: bytes) -> str:
    """SHA-256 hex digest of an artifact payload."""
    return hashlib.sha256(payload).hexdigest()


def write_artifact(path: Path | str, obj: Any, *, schema: str) -> str:
    """Persist ``obj`` under an integrity header; return the payload digest.

    The write is atomic (temp file + ``os.replace``) so readers only
    ever observe either the previous artifact or the complete new one.
    """
    path = Path(path)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = payload_digest(payload)
    header = json.dumps(
        {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "schema": schema,
            "size": len(payload),
            "sha256": digest,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(b"\n")
        fh.write(payload)
    os.replace(tmp, path)
    return digest


def read_artifact(
    path: Path | str, *, schema: str, digest: Optional[str] = None
) -> Any:
    """Load and verify one artifact; raise :class:`IntegrityError` if bad.

    ``digest``, when given, is the expected :func:`file_digest` of the
    whole file; a mismatch is a ``"checksum-mismatch"``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise IntegrityError(path, "missing") from None
    except OSError as exc:
        raise IntegrityError(path, "unreadable", str(exc)) from None
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise IntegrityError(
            path, "checksum-mismatch",
            "whole-file digest differs from the recorded one",
        )
    head, sep, payload = raw.partition(b"\n")
    if not sep:
        raise IntegrityError(path, "not-an-artifact", "no header line")
    try:
        header = json.loads(head)
    except (ValueError, UnicodeDecodeError):
        raise IntegrityError(
            path, "not-an-artifact", "undecodable header"
        ) from None
    if (
        not isinstance(header, dict)
        or header.get("format") != ARTIFACT_FORMAT
        or header.get("version") != ARTIFACT_VERSION
    ):
        raise IntegrityError(
            path, "not-an-artifact", f"header {header!r}"
        )
    if header.get("schema") != schema:
        raise IntegrityError(
            path,
            "schema-mismatch",
            f"expected {schema!r}, found {header.get('schema')!r}",
        )
    if len(payload) != header.get("size"):
        raise IntegrityError(
            path,
            "truncated",
            f"expected {header.get('size')} payload bytes, "
            f"found {len(payload)}",
        )
    if payload_digest(payload) != header.get("sha256"):
        raise IntegrityError(path, "checksum-mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises wildly varied types
        raise IntegrityError(path, "undecodable", str(exc)) from None


def file_digest(path: Path | str) -> str:
    """SHA-256 of a whole artifact file (header + payload).

    The run manifest records this per checkpoint so a swapped or
    regenerated file is detected even when internally consistent.
    """
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
