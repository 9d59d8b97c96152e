"""Read-side rollups for ``repro trace summarize | timeline``.

Pure functions over the record list :func:`repro.obs.read_trace` returns:
no I/O, no globals, so the CLI smoke tests and the headline campaign test
can both drive them directly.
"""

from __future__ import annotations


def _span_records(records):
    return [record for record in records if record.get("type") == "span"]


def summarize_trace(records: list[dict]) -> dict:
    """Aggregate rollups: per-span-name, per-workload, rounds, counters."""
    spans = _span_records(records)
    by_name: dict[str, dict] = {}
    for record in spans:
        row = by_name.setdefault(
            record["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += record["dur"]
        row["max_s"] = max(row["max_s"], record["dur"])
    for row in by_name.values():
        row["mean_s"] = row["total_s"] / row["count"]

    by_workload: dict[str, dict[str, float]] = {}
    for record in spans:
        workload = (record.get("attrs") or {}).get("workload")
        if workload is None:
            continue
        row = by_workload.setdefault(str(workload), {})
        row[record["name"]] = row.get(record["name"], 0.0) + record["dur"]

    rounds = []
    for record in records:
        if record.get("type") == "event" and record.get("name") == "campaign.quality":
            rounds.append(dict(record.get("attrs") or {}))

    counters: dict[str, float] = {}
    for record in records:
        if record.get("type") == "counters":
            counters.update(record.get("counters") or {})

    meta = records[0] if records and records[0].get("type") == "meta" else {}
    end = records[-1] if records and records[-1].get("type") == "end" else {}
    wall = None
    if "t_start" in meta and "t_end" in end:
        wall = end["t_end"] - meta["t_start"]
    return {
        "spans": dict(sorted(by_name.items(), key=lambda kv: -kv[1]["total_s"])),
        "workloads": dict(sorted(by_workload.items())),
        "rounds": rounds,
        "counters": counters,
        "span_count": len(spans),
        "worker_span_count": sum(1 for record in spans if record.get("worker")),
        "event_count": sum(1 for r in records if r.get("type") == "event"),
        "wall_seconds": wall,
    }


def timeline_rows(records: list[dict]) -> list[dict]:
    """Spans as ``{depth, offset_s, dur_s, name, worker, attrs}`` rows.

    Rows come out in start order; depth is the length of the parent chain,
    offsets are relative to the earliest span start, so the rows render
    directly as an indented timeline.
    """
    spans = {record["id"]: record for record in _span_records(records)}
    if not spans:
        return []

    def depth(record) -> int:
        level = 0
        parent = record.get("parent")
        while parent is not None:
            level += 1
            parent = spans[parent].get("parent") if parent in spans else None
        return level

    origin = min(record["t_start"] for record in spans.values())
    rows = []
    for record in sorted(spans.values(), key=lambda r: (r["t_start"], r["id"])):
        rows.append(
            {
                "depth": depth(record),
                "offset_s": record["t_start"] - origin,
                "dur_s": record["dur"],
                "name": record["name"],
                "worker": bool(record.get("worker")),
                "attrs": record.get("attrs") or {},
            }
        )
    return rows


def _format_attrs(attrs: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def render_summary(summary: dict) -> str:
    """Human-readable ``repro trace summarize`` output."""
    lines = []
    if summary["wall_seconds"] is not None:
        lines.append(f"wall time: {summary['wall_seconds']:.3f}s")
    lines.append(
        f"spans: {summary['span_count']} "
        f"({summary['worker_span_count']} worker-side), "
        f"events: {summary['event_count']}"
    )
    lines.append("")
    lines.append("per-span rollup (by total time):")
    for name, row in summary["spans"].items():
        lines.append(
            f"  {name:<28} n={row['count']:<5} total={row['total_s']:.3f}s "
            f"mean={row['mean_s'] * 1e3:.2f}ms max={row['max_s'] * 1e3:.2f}ms"
        )
    if summary["workloads"]:
        lines.append("")
        lines.append("per-workload time by span:")
        for workload, row in summary["workloads"].items():
            parts = ", ".join(
                f"{name}={seconds:.3f}s" for name, seconds in sorted(row.items())
            )
            lines.append(f"  {workload}: {parts}")
    if summary["rounds"]:
        lines.append("")
        lines.append("round quality stream:")
        for entry in summary["rounds"]:
            parts = " ".join(f"{key}={value}" for key, value in entry.items())
            lines.append(f"  {parts}")
    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in summary["counters"].items():
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name}: {rendered}")
    return "\n".join(lines)


def render_timeline(rows: list[dict]) -> str:
    """Human-readable ``repro trace timeline`` output."""
    lines = []
    for row in rows:
        indent = "  " * row["depth"]
        marker = "~" if row["worker"] else "-"
        attrs = _format_attrs(row["attrs"])
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{row['offset_s']:9.3f}s {marker} {indent}{row['name']} "
            f"({row['dur_s'] * 1e3:.2f}ms){suffix}"
        )
    return "\n".join(lines)
