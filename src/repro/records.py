"""The one on-disk record format: small JSON objects, written atomically.

Every piece of state the package persists is a JSON object in a file:
evaluation-cache entries, serve results, warm-start entries and
experiment rows.  This module is the only code that touches
those files.  The stores on top of it are thin typed views that own
their key function and their validation; none of them opens a file.

* :func:`read_json` never raises.  A missing, unreadable, truncated or
  non-JSON file, or one whose value is not an object, reads as ``None``,
  so every view treats a damaged record as a miss and recomputes it.
* :func:`write_json` writes a temp file in the target directory, then
  renames it over the target.  A concurrent reader sees the old record
  or the new one, never a torn one; concurrent writers of one record
  each rename their own complete file, and the last one wins.  When
  the disk refuses the write, it removes its temp file and returns
  ``False``: a store that cannot write is merely cold.  There is no
  ``fsync`` — every record can be recomputed, and a flush per write
  would cost every cache store a disk round trip.
* :class:`RecordStore` maps a hex digest to ``root/<d[:2]>/<d>.json``,
  sharded by the first two hex digits so no directory grows huge.
* :func:`canonical_digest` is the one key function: every store names
  its records by the SHA-256 of a JSON spelling of what made them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Iterator, Optional, Tuple

__all__ = ["RecordStore", "canonical_digest", "read_json", "write_json"]


def canonical_digest(obj) -> str:
    """SHA-256 of ``obj`` as sorted-key JSON, so one spec has one
    spelling; a value JSON cannot spell raises instead of hashing an
    incidental ``repr``."""
    blob = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def read_json(path) -> Optional[dict]:
    """The JSON object stored at ``path``, or None.  Never raises."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    return data if isinstance(data, dict) else None


def write_json(path, data) -> bool:
    """Atomically replace ``path`` with ``data`` as JSON (creating its
    directory).  Returns False, leaving no temp file, when the disk
    refuses the write."""
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    except OSError:
        return False
    done = False
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
        done = True
    except OSError:
        pass
    finally:
        if not done:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return done


class RecordStore:
    """Digest -> JSON object, one file per record under ``root``."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        return read_json(self.path(digest))

    def put(self, digest: str, data: dict) -> bool:
        return write_json(self.path(digest), data)

    def _files(self):
        return self.root.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._files())

    def records(self) -> Iterator[Tuple[pathlib.Path, dict]]:
        """Every readable record as ``(path, data)``, in sorted path
        order; unreadable files are skipped."""
        for path in sorted(self._files()):
            data = read_json(path)
            if data is not None:
                yield path, data
