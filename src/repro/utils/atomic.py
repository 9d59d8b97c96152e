"""Atomic file publication: readers see the old file or the new one, never a mix.

The one implementation behind every file the library publishes in place —
the measurement store's manifest and segments (:mod:`repro.store`), the
campaign checkpoint (:mod:`repro.runtime.checkpoint`), the trace sink
(:mod:`repro.obs.sink`), model checkpoints
(:func:`repro.nn.serialization.save_model`), dataset archives
(:func:`repro.datasets.io.save_dataset`) and the CLI's JSON reports
(``--output`` of every ``repro`` subcommand).  The last three serialize to
memory first, so a save that raises part-way publishes nothing.

A published file gets the mode ``open()`` would give it, ``0o666`` less
the process umask (0644 under the usual 022), not ``tempfile.mkstemp``'s
owner-only 0600.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def _create_temporary(path: Path) -> tuple[int, Path]:
    """Create a new, uniquely named file next to *path* for writing.

    Created with ``O_CREAT | O_EXCL`` and mode ``0o666``, so the kernel
    applies the umask exactly as it does for ``open()`` — without reading
    or changing the process-wide umask, which other threads may rely on.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        temporary = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
        try:
            return os.open(temporary, flags, 0o666), temporary
        except FileExistsError:
            continue


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
    handle, temporary = _create_temporary(path)
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
