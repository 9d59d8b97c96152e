"""JSONL trace sink: atomic publication, NaN-safe encoding, tolerant reads.

A trace is a JSON-Lines file.  The first record is a ``meta`` line, the
last a ``end`` line carrying the span book-keeping that lets
:func:`validate_trace` prove every span was closed; in between come
``span``, ``event`` and ``counters`` records.

Writes follow the measurement-store discipline (``repro.store``): each
flush renders the *complete* record list and publishes it with
:func:`repro.utils.atomic.write_atomic` (a temporary file in the
destination directory, fsynced at close, ``os.replace``d over the trace
path).  A reader therefore never observes a torn line from a live writer;
:func:`read_trace` additionally tolerates a truncated *tail* (a crash or
an external ``head -c``) by recovering the decodable prefix with a
warning, exactly like the store's segment recovery.

JSON forbids ``NaN``/``Infinity``; campaign quality streams contain both
(a single-objective hypervolume is ``NaN`` by contract — see
docs/benchmarks.md).  Non-finite floats are encoded reversibly as
``{"$float": "nan" | "inf" | "-inf"}`` so every line is strict JSON and
the round trip is exact.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro.utils.atomic import write_atomic

#: Schema version stamped into the ``meta`` record.
TRACE_VERSION = 1

#: Record types a valid trace may contain.
RECORD_TYPES = frozenset({"meta", "span", "event", "counters", "end"})

_NONFINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def _sanitize(value):
    """Make *value* strict-JSON encodable without losing information."""
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:
            return {"$float": "nan"}
        if value == float("inf"):
            return {"$float": "inf"}
        if value == float("-inf"):
            return {"$float": "-inf"}
        return value
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _restore(value):
    """Inverse of :func:`_sanitize` (non-finite floats come back as floats)."""
    if isinstance(value, dict):
        if len(value) == 1 and "$float" in value:
            tag = value["$float"]
            if tag in _NONFINITE:
                return _NONFINITE[tag]
        return {key: _restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item) for item in value]
    return value


def encode_record(record: dict) -> str:
    """One trace record as a single strict-JSON line (no trailing newline).

    Most records are plain str/int/finite-float dicts, so try the direct
    dump first; non-finite floats (``ValueError``) and numpy scalars or
    other foreign objects (``TypeError``) take the :func:`_sanitize` path.
    """
    try:
        return json.dumps(record, allow_nan=False, separators=(",", ":"))
    except (TypeError, ValueError):
        return json.dumps(_sanitize(record), allow_nan=False, separators=(",", ":"))


def decode_record(line: str) -> dict:
    """Inverse of :func:`encode_record`."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"trace line is not an object: {line!r}")
    return _restore(record)


class TraceSink:
    """Append-only record buffer published atomically on every flush."""

    #: Minimum seconds between non-durable publications.  Every flush
    #: rewrites the complete file (that is what makes publication atomic),
    #: so flushing at each top-level span close would turn a busy campaign
    #: into O(spans) full rewrites; rate-limiting bounds the rewrite work
    #: without giving up mid-run progress visibility.
    MIN_FLUSH_INTERVAL = 0.25

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lines: list[str] = []
        self._flushed = 0
        self._last_publish = 0.0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._lines)

    def append(self, record: dict) -> None:
        """Buffer *record*; it reaches disk at the next :meth:`flush`."""
        self._lines.append(encode_record(record))

    def flush(self, durable: bool = True) -> None:
        """Publish the complete line list via temp + rename.

        The atomic ``os.replace`` alone guarantees readers never see a torn
        line; ``durable=True`` additionally fsyncs before the rename so the
        payload survives an OS crash.  Mid-run progress flushes pass
        ``durable=False`` — a trace is telemetry, not a ledger, and paying
        an fsync per top-level span would show up in the overhead budget —
        and are additionally rate-limited to one publication per
        :data:`MIN_FLUSH_INTERVAL`; :meth:`close` always publishes, durably.
        """
        if self._flushed == len(self._lines) and self.path.exists():
            return
        if not durable:
            now = time.monotonic()
            if now - self._last_publish < self.MIN_FLUSH_INTERVAL:
                return
            self._last_publish = now
        payload = "".join(line + "\n" for line in self._lines)
        write_atomic(self.path, payload.encode("utf-8"), durable=durable)
        self._flushed = len(self._lines)

    def close(self) -> None:
        self.flush(durable=True)


def read_trace(path) -> list[dict]:
    """Decode a trace file, tolerating a truncated tail.

    A line that fails to decode is accepted only when it is the *last*
    non-empty line (a torn tail from a crash or truncation): the decodable
    prefix is returned with a :class:`RuntimeWarning`.  A corrupt line in
    the middle of the file raises ``ValueError`` — that is damage, not
    truncation.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    records: list[dict] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(decode_record(line))
        except ValueError as error:
            if any(later.strip() for later in lines[index + 1 :]):
                raise ValueError(
                    f"corrupt trace line {index + 1} in {path}: {line[:80]!r}"
                ) from error
            warnings.warn(
                f"truncated trace tail in {path}: dropped undecodable final "
                f"line {index + 1}",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    return records


def validate_trace(records: list[dict]) -> dict[int, dict]:
    """Structural validation; returns ``{span id: span record}``.

    Raises ``ValueError`` unless: the trace opens with a versioned ``meta``
    record and ends with an ``end`` record; every span has a unique
    positive id, a wall-clock interval with ``t_start <= t_end``, and a
    parent that is ``None`` or another span's id; every event's parent
    (when set) resolves; and the ``end`` book-keeping matches — exactly as
    many spans as recorded, with zero left open.  Because sessions emit
    spans only when they close, "zero open" certifies every span closed.
    """
    if not records:
        raise ValueError("empty trace")
    meta = records[0]
    if meta.get("type") != "meta":
        raise ValueError("trace does not start with a meta record")
    if meta.get("version") != TRACE_VERSION:
        raise ValueError(f"unsupported trace version: {meta.get('version')!r}")
    end = records[-1]
    if end.get("type") != "end":
        raise ValueError("trace does not finish with an end record (truncated?)")

    spans: dict[int, dict] = {}
    events: list[dict] = []
    for record in records:
        kind = record.get("type")
        if kind not in RECORD_TYPES:
            raise ValueError(f"unknown record type: {kind!r}")
        if kind == "span":
            span_id = record.get("id")
            if not isinstance(span_id, int) or span_id < 1:
                raise ValueError(f"bad span id: {span_id!r}")
            if span_id in spans:
                raise ValueError(f"duplicate span id: {span_id}")
            if not isinstance(record.get("name"), str) or not record["name"]:
                raise ValueError(f"span {span_id} has no name")
            if record.get("t_end") < record.get("t_start"):
                raise ValueError(f"span {span_id} closes before it opens")
            spans[span_id] = record
        elif kind == "event":
            events.append(record)

    for record in spans.values():
        parent = record.get("parent")
        if parent is not None and parent not in spans:
            raise ValueError(
                f"span {record['id']} has unknown parent {parent!r}"
            )
    for record in events:
        parent = record.get("parent")
        if parent is not None and parent not in spans:
            raise ValueError(f"event {record.get('name')!r} has unknown parent")

    if end.get("spans") != len(spans):
        raise ValueError(
            f"end record claims {end.get('spans')} spans, trace has {len(spans)}"
        )
    if end.get("open") != 0:
        raise ValueError(f"{end.get('open')} span(s) never closed")
    return spans
