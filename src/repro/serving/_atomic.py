"""Shared durable-write discipline for serving state on disk.

Both persistence layers — :mod:`repro.serving.checkpoint` (whole-switch
snapshots) and :mod:`repro.serving.wal` (the write-ahead op log) — need
the same three guarantees, so they live here once:

* **canonical encoding** — one byte encoding per payload, normalized
  through a JSON encode/decode so int dict keys and their string forms
  hash identically (:func:`canonical_bytes`), which is what every
  checksum covers;
* **atomic replacement** — :func:`atomic_write_text` writes through a
  same-directory ``*.tmp`` file and an atomic rename, so a crash
  mid-write leaves the previous file (or none), never a truncated one
  that parses;
* **stale-tmp hygiene** — a crash *between* the tmp write and the rename
  strands a ``*.tmp`` file; :func:`cleanup_stale_tmp` sweeps them so
  recovery never mistakes a partial write for state (counted as
  ``atomic_stale_tmp_removed_total``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any

from repro import obs

__all__ = [
    "TMP_SUFFIX",
    "atomic_write_text",
    "canonical_bytes",
    "checksum_hex",
    "cleanup_stale_tmp",
    "tmp_path_for",
]

#: Suffix appended to the destination name while a write is in flight.
TMP_SUFFIX = ".tmp"


def _normalize_key(key: Any) -> str:
    """Exactly json.dumps's key coercion (bool before int: True is an
    int whose JSON key form is ``"true"``, not ``"True"``)."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return str(key)
    if isinstance(key, float):
        return repr(key)
    raise TypeError(f"unserializable dict key {key!r}")


def _normalize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {_normalize_key(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def canonical_bytes(payload: dict[str, Any]) -> bytes:
    """The canonical encoding a checksum covers: sorted keys, no
    whitespace variance, UTF-8.  JSON maps int dict keys to strings, so
    SMBM row ids survive as strings and are re-intified on restore —
    and because int keys sort numerically while their string forms sort
    lexicographically (10 < 2 as strings), keys are stringified *before*
    the sorted dump so writer and reader hash the exact same bytes.
    (Key coercion mirrors ``json.dumps`` exactly; this sits on the WAL
    append hot path, where a full encode/decode round trip costs more
    than the rest of the append combined.)"""
    return json.dumps(
        _normalize(payload), sort_keys=True, separators=(",", ":")
    ).encode()


def checksum_hex(data: bytes) -> str:
    """The hex SHA-256 both on-disk formats store next to their payload."""
    return hashlib.sha256(data).hexdigest()


def tmp_path_for(path: pathlib.Path) -> pathlib.Path:
    """The same-directory temporary name an atomic write goes through."""
    return path.with_suffix(path.suffix + TMP_SUFFIX)


def atomic_write_text(path: str | pathlib.Path, text: str, *,
                      fsync: bool = False) -> pathlib.Path:
    """Write ``text`` to ``path`` through a tmp file + atomic rename.

    With ``fsync=True`` the tmp file is flushed to stable storage before
    the rename, hardening against power loss as well as process crash
    (the rename itself is atomic on POSIX either way).
    """
    path = pathlib.Path(path)
    tmp = tmp_path_for(path)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    tmp.replace(path)
    return path


def cleanup_stale_tmp(directory: str | pathlib.Path) -> list[pathlib.Path]:
    """Remove every ``*.tmp`` stranded by an interrupted atomic write.

    Returns the removed paths (sorted, for deterministic reporting) and
    counts each as ``atomic_stale_tmp_removed_total``.  Safe to call on a
    directory that does not exist yet.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    removed = sorted(directory.glob(f"*{TMP_SUFFIX}"))
    if not removed:
        return []
    counter = obs.get_registry().counter(
        "atomic_stale_tmp_removed_total", {},
        help="stale *.tmp files swept before recovery "
             "(interrupted atomic writes)",
    )
    for tmp in removed:
        tmp.unlink(missing_ok=True)
        counter.inc()
    return removed
