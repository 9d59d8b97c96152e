"""Atomic file publication: readers see the old file or the new one, never a mix.

The one implementation behind every file the library publishes in place —
the measurement store's manifest and segments (:mod:`repro.store`), the
campaign checkpoint (:mod:`repro.runtime.checkpoint`), the trace sink
(:mod:`repro.obs.sink`), model checkpoints
(:func:`repro.nn.serialization.save_model`), dataset archives
(:func:`repro.datasets.io.save_dataset`) and the CLI's JSON reports
(``--output`` of every ``repro`` subcommand).  The last three serialize to
memory first, so a save that raises part-way publishes nothing.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path, payload: bytes, *, durable: bool = True) -> None:
    """Replace the file at *path* with *payload*, atomically.

    The bytes go to a uniquely named temporary file in *path*'s directory
    (the same filesystem, so the rename is atomic and concurrent writers
    never share a temporary file).  It is fsynced — unless
    ``durable=False``, for telemetry that may be lost in an OS crash — and
    then renamed over *path* with :func:`os.replace`.  If anything raises,
    the temporary file is deleted and *path* keeps its old content.
    """
    path = Path(path)
    handle, temporary = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
            if durable:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
