"""Persistent, concurrency-safe measurement store (disk tier of the cache).

The keyed evaluation cache of :class:`repro.sim.simulator.Simulator` is an
in-process dict: it dies with the process and is deliberately emptied for
process-pool workers.  This module adds the durable tier below it — an
append-only binary **segment log** plus an in-memory index, keyed exactly
like the evaluation cache (``(workload, encoded-config key)`` mapping to the
``(5,)`` float64 metric row) under a **fingerprint** covering the design-space
spec, the metric set and the simulator settings.  Two
campaigns exploring the same space amortise each other's simulations: store
hits skip simulation but produce bitwise-identical results (the values are
stored as raw IEEE-754 bits, so a warm campaign equals a cold one bitwise).

Layout on disk (a store is a directory)::

    my.store/
      manifest.json     # {"version", "fingerprint", "digest"} — identity
      seg-00000001.seg  # immutable binary segments, loaded in name order
      seg-00000002.seg
      .lock             # advisory fcntl lock serialising writers

Concurrency model
-----------------
*Appends are whole new segments.*  A writer never modifies an existing file:
it claims the next segment number under an exclusive advisory ``flock``,
writes the records to a temporary file, fsyncs, and atomically renames it
into place (:func:`repro.utils.atomic.write_atomic`).  Concurrent writers (multiple campaigns, multiple processes)
therefore never interleave bytes, and a killed writer leaves at worst an
ignorable temp file.  Readers take **no locks**: segments are immutable once
renamed, so a reader scans the directory and loads any segment it has not
seen yet (:meth:`MeasurementStore.refresh`).

Corruption handling
-------------------
A truncated or bit-flipped record (killed writer, disk fault) is detected by
the per-record CRC frame; loading recovers the valid prefix of the segment
and emits a :class:`RuntimeWarning` — never a raw traceback and never silent
wrong data.  A store or segment whose fingerprint digest does not match the
simulator raises the typed :class:`StoreMismatchError` (mirroring
:class:`repro.runtime.checkpoint.CheckpointMismatchError`).

See ``docs/store.md`` for the full format specification.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.utils.atomic import write_atomic

try:  # POSIX advisory locking; unavailable on some exotic platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: On-disk format version (bumped on incompatible layout changes).
STORE_VERSION = 1

#: Column order of the stored metric rows — must match the row layout of
#: :meth:`repro.sim.simulator.Simulator._evaluate_encoded`.
METRIC_COLUMNS = ("ipc", "power_w", "area_mm2", "bips", "energy_per_instruction_nj")

_MANIFEST_NAME = "manifest.json"
_LOCK_NAME = ".lock"
_SEGMENT_GLOB = "seg-*.seg"
_SEGMENT_MAGIC = b"RMS1"

# Key-value type tags (one byte each, little-endian payloads).
_TAG_INT = 0  # int64
_TAG_FLOAT = 1  # raw IEEE-754 binary64 bits (bitwise round-trip)
_TAG_STR = 2  # u16 length + UTF-8 bytes
_TAG_BOOL = 3  # one byte

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class StoreMismatchError(RuntimeError):
    """A store (or segment) belongs to a different measurement fingerprint.

    Raised when opening a store whose manifest digest does not match the
    simulator's fingerprint, when the manifest is unreadable, or when a
    segment file carries a foreign digest.  Mirrors
    :class:`repro.runtime.checkpoint.CheckpointMismatchError`.
    """


def measurement_fingerprint(
    *,
    space,
    metrics: Sequence[str] = METRIC_COLUMNS,
    simpoint_phases: int,
    phase_seed: int,
    technology,
) -> dict:
    """Identity of a measurement stream, as a JSON-serialisable dict.

    Two simulators produce interchangeable (bitwise identical) metric rows
    if and only if these fields agree: the design-space spec (parameter
    names and candidate values — the encoded-config key layout), the metric
    row layout, the SimPoint phase count and phase seed (which determine
    the per-workload phase decompositions) and the technology constants.
    Workload identity is part of the record *key*, not the fingerprint, so
    campaigns over different workload subsets of the same suite share one
    store.  ``"noise_free": True`` is a constant: simulation has been
    deterministic since measurement noise was removed, and the field keeps
    the digest of every existing store.
    """
    return {
        "store_version": STORE_VERSION,
        "space": {p.name: list(p.values) for p in space.parameters},
        "metrics": list(metrics),
        "simpoint_phases": int(simpoint_phases),
        "phase_seed": int(phase_seed),
        "technology": dataclasses.asdict(technology),
        "noise_free": True,
    }


def fingerprint_digest(fingerprint: dict) -> str:
    """Canonical SHA-256 digest of a fingerprint dict."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- record codec ------------------------------------------------------------
def encode_record(workload: str, key: tuple, row: np.ndarray) -> bytes:
    """Serialise one ``(workload, key, metric row)`` record payload.

    Key values may be ints, floats, strings, or bools (every designspace
    parameter kind).  Floats — both key values and the metric row — are
    written as raw IEEE-754 binary64 bits, so they round-trip bitwise
    (including NaN payloads and signed zeros).
    """
    parts = [_encode_str(workload), _U16.pack(len(key))]
    for value in key:
        # bool first: isinstance(True, int) is True.
        if isinstance(value, (bool, np.bool_)):
            parts.append(_U8.pack(_TAG_BOOL) + _U8.pack(int(value)))
        elif isinstance(value, (int, np.integer)):
            parts.append(_U8.pack(_TAG_INT) + _I64.pack(int(value)))
        elif isinstance(value, (float, np.floating)):
            parts.append(_U8.pack(_TAG_FLOAT) + _F64.pack(float(value)))
        elif isinstance(value, str):
            parts.append(_U8.pack(_TAG_STR) + _encode_str(value))
        else:
            raise TypeError(
                f"unsupported key value type {type(value).__name__!r} "
                f"(supported: int, float, str, bool)"
            )
    values = np.ascontiguousarray(row, dtype="<f8")
    if values.ndim != 1:
        raise ValueError(f"metric row must be one-dimensional, got shape {values.shape}")
    parts.append(_U16.pack(values.shape[0]))
    parts.append(values.tobytes())
    return b"".join(parts)


def decode_record(payload: bytes) -> tuple[str, tuple, np.ndarray]:
    """Inverse of :func:`encode_record` (raises ``ValueError`` on bad data)."""
    workload, offset = _decode_str(payload, 0)
    (n_values,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    key = []
    for _ in range(n_values):
        (tag,) = _U8.unpack_from(payload, offset)
        offset += _U8.size
        if tag == _TAG_INT:
            (value,) = _I64.unpack_from(payload, offset)
            offset += _I64.size
        elif tag == _TAG_FLOAT:
            (value,) = _F64.unpack_from(payload, offset)
            offset += _F64.size
        elif tag == _TAG_STR:
            value, offset = _decode_str(payload, offset)
        elif tag == _TAG_BOOL:
            (raw,) = _U8.unpack_from(payload, offset)
            offset += _U8.size
            value = bool(raw)
        else:
            raise ValueError(f"unknown key value tag {tag}")
        key.append(value)
    (n_metrics,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    end = offset + 8 * n_metrics
    if end != len(payload):
        raise ValueError("record payload length does not match its metric count")
    row = np.frombuffer(payload, dtype="<f8", count=n_metrics, offset=offset).copy()
    return workload, tuple(key), row


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for record format ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _decode_str(payload: bytes, offset: int) -> tuple[str, int]:
    (length,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    raw = payload[offset : offset + length]
    if len(raw) != length:
        raise ValueError("truncated string in record payload")
    return raw.decode("utf-8"), offset + length


def _frame_record(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_header(digest: str) -> bytes:
    raw = digest.encode("ascii")
    return _SEGMENT_MAGIC + _U16.pack(STORE_VERSION) + _U16.pack(len(raw)) + raw


@dataclass(frozen=True)
class StoreStats:
    """Summary of a store's on-disk and in-index state."""

    path: str
    digest: str
    num_records: int
    num_segments: int
    num_workloads: int
    total_bytes: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class MeasurementStore:
    """Append-only measurement store: binary segment log + in-memory index.

    Parameters
    ----------
    path:
        Store directory.  Created (with a manifest) on first write-mode
        open; a missing directory in read-only mode yields an empty store.
    fingerprint:
        The measurement fingerprint this store must match (see
        :func:`measurement_fingerprint`).  Required when creating a new
        store; validated against the manifest of an existing one
        (:class:`StoreMismatchError` on mismatch).  Use
        :meth:`open_existing` to open a store under its own manifest
        fingerprint (the CLI inspection path).
    read_only:
        Read-only handles never create files, never take locks, and reject
        :meth:`put_batch` / :meth:`compact`.  Unpickled stores are always
        read-only — that is how ProcessExecutor workers see prior
        measurements without write access.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        fingerprint: dict,
        *,
        read_only: bool = False,
    ) -> None:
        self._path = Path(path)
        self._fingerprint = fingerprint
        self._digest = fingerprint_digest(fingerprint)
        self._read_only = bool(read_only)
        self._index: dict[tuple[str, tuple], np.ndarray] = {}
        self._loaded: set[str] = set()
        if not self._read_only:
            self._path.mkdir(parents=True, exist_ok=True)
            with self._locked():
                self._init_manifest()
        elif self._path.exists():
            self._validate_manifest()
        self.refresh()

    @classmethod
    def open_existing(
        cls, path: "str | os.PathLike", *, read_only: bool = False
    ) -> "MeasurementStore":
        """Open an existing store under its own manifest fingerprint."""
        manifest = cls._read_manifest(Path(path))
        return cls(path, manifest["fingerprint"], read_only=read_only)

    # -- identity -----------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def digest(self) -> str:
        return self._digest

    @property
    def fingerprint(self) -> dict:
        return self._fingerprint

    @property
    def read_only(self) -> bool:
        return self._read_only

    def require_fingerprint(self, fingerprint: dict) -> None:
        """Raise :class:`StoreMismatchError` unless *fingerprint* matches."""
        digest = fingerprint_digest(fingerprint)
        if digest != self._digest:
            raise StoreMismatchError(
                f"measurement store {self._path} belongs to a different "
                f"fingerprint (store digest {self._digest[:12]}…, "
                f"requested {digest[:12]}…); it cannot serve this simulator"
            )

    # -- manifest -----------------------------------------------------------
    @staticmethod
    def _read_manifest(path: Path) -> dict:
        manifest_path = path / _MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise StoreMismatchError(
                f"{path} is not a measurement store (no {_MANIFEST_NAME})"
            ) from None
        except (OSError, json.JSONDecodeError) as error:
            raise StoreMismatchError(
                f"unreadable store manifest {manifest_path}: {error}"
            ) from None
        if not isinstance(manifest, dict) or "fingerprint" not in manifest:
            raise StoreMismatchError(f"malformed store manifest {manifest_path}")
        return manifest

    def _init_manifest(self) -> None:
        """Create the manifest if absent, else validate it (lock held)."""
        manifest_path = self._path / _MANIFEST_NAME
        if manifest_path.exists():
            self._validate_manifest()
            return
        manifest = {
            "version": STORE_VERSION,
            "digest": self._digest,
            "fingerprint": self._fingerprint,
        }
        write_atomic(
            manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )

    def _validate_manifest(self) -> None:
        manifest = self._read_manifest(self._path)
        digest = fingerprint_digest(manifest["fingerprint"])
        if digest != self._digest:
            raise StoreMismatchError(
                f"measurement store {self._path} belongs to a different "
                f"fingerprint (manifest digest {digest[:12]}…, expected "
                f"{self._digest[:12]}…): design space, metric set and simulator "
                f"settings must all match"
            )

    # -- locking ------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Exclusive advisory lock serialising writers (no-op without fcntl)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self._path / _LOCK_NAME, "a+b") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- reading ------------------------------------------------------------
    def get(self, workload: str, key: tuple) -> Optional[np.ndarray]:
        """Metric row for ``(workload, key)``, or ``None`` if absent."""
        return self._index.get((workload, key))

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, workload_key: tuple[str, tuple]) -> bool:
        return workload_key in self._index

    def _segment_paths(self) -> list[Path]:
        if not self._path.exists():
            return []
        return sorted(self._path.glob(_SEGMENT_GLOB))

    def refresh(self) -> int:
        """Load segments appended by other writers since the last scan.

        Segments are immutable once renamed into place, so the scan takes
        no locks; already-loaded segments are skipped by name.  Returns the
        number of records added to the index.
        """
        added = 0
        for segment in self._segment_paths():
            if segment.name in self._loaded:
                continue
            added += self._load_segment(segment)
            self._loaded.add(segment.name)
        return added

    def _load_segment(
        self, segment: Path, *, issues: Optional[list[str]] = None, index=None
    ) -> int:
        """Load one segment into the index, recovering the valid prefix.

        With *issues*, problems are appended there (the :meth:`verify`
        path); otherwise recoverable problems emit a ``RuntimeWarning`` and
        a foreign digest raises :class:`StoreMismatchError`.
        """

        def report(message: str) -> None:
            if issues is not None:
                issues.append(f"{segment.name}: {message}")
            else:
                warnings.warn(
                    f"measurement store segment {segment}: {message}",
                    RuntimeWarning,
                    stacklevel=3,
                )

        if index is None:
            index = self._index
        data = segment.read_bytes()
        offset = len(_SEGMENT_MAGIC) + 2 * _U16.size
        if len(data) < offset or data[: len(_SEGMENT_MAGIC)] != _SEGMENT_MAGIC:
            report("not a measurement segment (bad header); skipped")
            return 0
        (version,) = _U16.unpack_from(data, len(_SEGMENT_MAGIC))
        (digest_len,) = _U16.unpack_from(data, len(_SEGMENT_MAGIC) + _U16.size)
        digest = data[offset : offset + digest_len].decode("ascii", errors="replace")
        offset += digest_len
        if version != STORE_VERSION:
            report(f"unsupported segment version {version}; skipped")
            return 0
        if digest != self._digest:
            message = (
                f"segment {segment} carries a foreign fingerprint digest "
                f"({digest[:12]}…, expected {self._digest[:12]}…)"
            )
            if issues is not None:
                issues.append(f"{segment.name}: foreign fingerprint digest")
                return 0
            raise StoreMismatchError(message)

        loaded = 0
        while offset < len(data):
            if offset + _FRAME.size > len(data):
                report(f"truncated record frame at byte {offset}; recovered {loaded} records")
                break
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            payload = data[start : start + length]
            if len(payload) != length or zlib.crc32(payload) != crc:
                report(f"truncated or corrupt record at byte {offset}; recovered {loaded} records")
                break
            try:
                workload, key, row = decode_record(payload)
            except (ValueError, UnicodeDecodeError) as error:
                report(f"undecodable record at byte {offset} ({error}); recovered {loaded} records")
                break
            row.flags.writeable = False
            index[(workload, key)] = row
            loaded += 1
            offset = start + length
        return loaded

    # -- writing ------------------------------------------------------------
    def _require_writable(self, operation: str) -> None:
        if self._read_only:
            raise RuntimeError(
                f"measurement store {self._path} is read-only; {operation} "
                f"requires a writable handle"
            )

    def _next_segment_path(self) -> Path:
        existing = self._segment_paths()
        if existing:
            last = existing[-1].name[len("seg-") : -len(".seg")]
            next_index = int(last) + 1
        else:
            next_index = 1
        return self._path / f"seg-{next_index:08d}.seg"

    def _write_segment(self, target: Path, records: Iterable[tuple[str, tuple, np.ndarray]]) -> None:
        """Publish *records* as the segment file *target*, atomically."""
        blob = [_segment_header(self._digest)]
        blob.extend(
            _frame_record(encode_record(workload, key, row))
            for workload, key, row in records
        )
        write_atomic(target, b"".join(blob))

    def put_batch(self, records: Sequence[tuple[str, tuple, np.ndarray]]) -> int:
        """Append records as one new segment (atomic; safe under concurrency).

        *records* is a sequence of ``(workload, key, metric row)`` tuples.
        The segment number is claimed and the file renamed into place under
        the store's exclusive advisory lock, so concurrent writers never
        collide; readers pick the new segment up on their next
        :meth:`refresh`.  Returns the number of records appended.
        """
        self._require_writable("put_batch")
        records = list(records)
        if not records:
            return 0
        with self._locked():
            self._write_segment(self._next_segment_path(), records)
        self.refresh()
        return len(records)

    def compact(self) -> tuple[int, int]:
        """Merge all segments into one deduplicated segment.

        Runs under the exclusive lock: concurrent appends wait, and any
        segment that landed before the lock was acquired is folded in.
        Returns ``(segments before, segments after)``.
        """
        self._require_writable("compact")
        with self._locked():
            self.refresh()
            old = self._segment_paths()
            if not old:
                return (0, 0)
            records = [
                (workload, key, row) for (workload, key), row in self._index.items()
            ]
            target = self._next_segment_path()
            if records:
                self._write_segment(target, records)
            for segment in old:
                segment.unlink()
                self._loaded.discard(segment.name)
            if records:
                self._loaded.add(target.name)
        return (len(old), 1 if records else 0)

    # -- inspection ---------------------------------------------------------
    def stats(self) -> StoreStats:
        """Summary statistics of the store (after an implicit refresh)."""
        self.refresh()
        segments = self._segment_paths()
        workloads = {workload for workload, _ in self._index}
        return StoreStats(
            path=str(self._path),
            digest=self._digest,
            num_records=len(self._index),
            num_segments=len(segments),
            num_workloads=len(workloads),
            total_bytes=sum(segment.stat().st_size for segment in segments),
        )

    def verify(self) -> list[str]:
        """Full scan of every segment; returns a list of issues (empty = OK).

        Re-reads every record from disk into a scratch index, checking
        header magic/version/digest and per-record CRC frames.  Problems
        are reported as strings, never raised (except that the manifest
        itself must be readable to have a store at all).
        """
        issues: list[str] = []
        manifest = self._read_manifest(self._path)
        digest = fingerprint_digest(manifest["fingerprint"])
        if digest != self._digest:
            issues.append(f"{_MANIFEST_NAME}: fingerprint digest mismatch")
        scratch: dict[tuple[str, tuple], np.ndarray] = {}
        for segment in self._segment_paths():
            self._load_segment(segment, issues=issues, index=scratch)
        return issues

    # -- pickling (ProcessExecutor workers) ---------------------------------
    def __getstate__(self) -> dict:
        """Workers reopen the store from its path — read-only, by design."""
        return {"path": str(self._path), "fingerprint": self._fingerprint}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"], state["fingerprint"], read_only=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "ro" if self._read_only else "rw"
        return (
            f"MeasurementStore({str(self._path)!r}, records={len(self._index)}, "
            f"mode={mode})"
        )
