#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark (``make bench-pairs``).

    python3 tools/bench_pairs.py --parent ../parent --workload explore-nsga2 \\
        --seed 9 --pairs 10 --claim wall_s

Runs ``perfbench/run.py`` (the ``command`` of ``BENCHMARK.json``, for its
``run_seconds``) once in each checkout per pair, swapping which side goes
first in every pair, so drift in the machine's load lands on both sides
alike.  For every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the pairs the change won and the metric's
status against its bound.  With ``--claim METRIC`` it also says whether the
gain counts: the change wins at least nine tenths of the pairs (ties count
for neither) and the gap between the medians exceeds the parent's
interquartile range.  It reports whether the repetition digests of the two
sides match.  ``BENCHMARK.json`` is only read.

The verdict is the pure function :func:`verdict`, unit-tested on fabricated
runs.  The last line of standard output is the verdict as JSON.  The exit
status is 1 when a repetition failed or a metric breached its bound, 2 on a
usage error, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(metric: dict, change: float, parent: float) -> bool:
    if metric["better"] == "lower":
        return change < parent
    return change > parent


def verdict(runs: dict[str, list[dict]], end_to_end: list[dict], claim=None) -> dict:
    """Judge paired runs of one workload.

    *runs* maps ``"parent"`` and ``"change"`` to equally long lists in pair
    order; each run is ``{"metrics": {name: value}, "failed": int,
    "attempted": int, "digests": [str, ...]}`` (a run that produced no
    result has empty ``metrics`` and counts one failure).  *end_to_end* is
    the ``end_to_end`` list of ``BENCHMARK.json``.  A metric's status is
    ``"breach"`` when the change's median is worse than the parent's by
    more than ``bound`` times the parent's median, ``"unresolved"`` when
    either side's interquartile range is wider than that margin (unless
    every change run beats every parent run), and ``"ok"`` otherwise.
    """
    pairs = len(runs["parent"])
    if len(runs["change"]) != pairs:
        raise ValueError("parent and change need the same number of runs")
    report = {"pairs": pairs, "metrics": {}, "failed": {}, "attempted": {}}
    for side in SIDES:
        report["failed"][side] = sum(run["failed"] for run in runs[side])
        report["attempted"][side] = sum(run["attempted"] for run in runs[side])
    for metric in end_to_end:
        name = metric["name"]
        paired = [
            (parent["metrics"][name], change["metrics"][name])
            for parent, change in zip(runs["parent"], runs["change"])
            if name in parent["metrics"] and name in change["metrics"]
        ]
        if not paired:
            report["metrics"][name] = {"status": "missing"}
            continue
        parent_values = [parent for parent, _ in paired]
        change_values = [change for _, change in paired]
        parent_q = quartiles(parent_values)
        change_q = quartiles(change_values)
        wins = sum(_better(metric, change, parent) for parent, change in paired)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse_by = sign * (change_q[1] - parent_q[1])
        margin = metric["bound"] * abs(parent_q[1])
        spread = max(parent_q[2] - parent_q[0], change_q[2] - change_q[0])
        all_better = all(
            _better(metric, change, parent)
            for change in change_values
            for parent in parent_values
        )
        if worse_by > margin:
            status = "breach"
        elif spread > margin and not all_better:
            status = "unresolved"
        else:
            status = "ok"
        report["metrics"][name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent_q,
            "change": change_q,
            "wins": wins,
            "compared": len(paired),
            "status": status,
        }
    digests = {side: sorted({d for run in runs[side] for d in run["digests"]}) for side in SIDES}
    report["digests"] = digests
    report["digests_match"] = (
        len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    )
    if claim is not None:
        entry = report["metrics"].get(claim)
        if entry is None or entry["status"] == "missing":
            report["claim"] = {"metric": claim, "met": False, "why": "no paired values"}
        else:
            parent_iqr = entry["parent"][2] - entry["parent"][0]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            gain = sign * (entry["parent"][1] - entry["change"][1])
            enough_wins = 10 * entry["wins"] >= 9 * pairs
            report["claim"] = {
                "metric": claim,
                "met": enough_wins and gain > parent_iqr,
                "wins": entry["wins"],
                "pairs": pairs,
                "median_gain": gain,
                "parent_iqr": parent_iqr,
            }
    report["ok"] = not any(report["failed"].values()) and not any(
        entry["status"] == "breach" for entry in report["metrics"].values()
    )
    return report


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """One ``perfbench/run.py`` run in *checkout*, reduced to what the verdict reads."""
    process = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["perfbench"]
    except (IndexError, KeyError, ValueError):
        tail = process.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"metrics": {}, "failed": 1, "attempted": 1, "digests": [], "error": tail[0]}
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digests": [rep["digest"] for rep in record["repetitions"] if rep.get("ok")],
    }


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict, claim) -> None:
    print(f"{'metric':12s} {'better':6s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  {'bound':>5s}  status")
    for name, entry in report["metrics"].items():
        if entry["status"] == "missing":
            print(f"{name:12s} no paired values")
            continue
        sides = [
            f"{_format(q[1])} [{_format(q[0])}, {_format(q[2])}]"
            for q in (entry["parent"], entry["change"])
        ]
        print(f"{name:12s} {entry['better']:6s} {sides[0]:34s} {sides[1]:34s} "
              f"{entry['wins']:>3d}/{entry['compared']:<3d}  {entry['bound']:5.0%}  "
              f"{entry['status']}")
    print("failed repetitions: " + ", ".join(
        f"{side} {report['failed'][side]} of {report['attempted'][side]}" for side in SIDES
    ))
    print("repetition digests: " + ("equal" if report["digests_match"] else "DIFFER") + " ("
          + ", ".join(f"{side} {len(report['digests'][side])} distinct" for side in SIDES) + ")")
    if claim is not None:
        result = report["claim"]
        if "why" in result:
            print(f"claim {claim}: not met ({result['why']})")
        else:
            print(f"claim {claim}: {'met' if result['met'] else 'NOT met'} "
                  f"({result['wins']}/{result['pairs']} wins, need 9/10 of the pairs; "
                  f"median gain {_format(result['median_gain'])} vs parent IQR "
                  f"{_format(result['parent_iqr'])})")


def _usage(message: str) -> int:
    print(f"bench_pairs: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=REPO_ROOT,
                        help="checkout of the change (default: this repository)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="end-to-end metric whose gain is claimed")
    args = parser.parse_args(argv)

    try:
        texts = [(path / "BENCHMARK.json").read_text() for path in (args.parent, args.change)]
    except OSError as error:
        return _usage(f"cannot read BENCHMARK.json: {error}")
    if texts[0] != texts[1]:
        return _usage("BENCHMARK.json differs between the checkouts")
    benchmark = json.loads(texts[1])
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    if args.workload not in workloads:
        return _usage(f"--workload must be one of {workloads}")
    if args.claim is not None and args.claim not in metrics:
        return _usage(f"--claim must be one of {metrics}")
    if args.pairs < 1:
        return _usage("--pairs must be >= 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], benchmark["command"], args.workload,
                           args.seed, benchmark["run_seconds"])
            runs[side].append(run)
            shown = run["metrics"].get("wall_s", float("nan"))
            print(f"bench_pairs: pair {pair + 1}/{args.pairs} {side}: wall_s {shown:.3f}"
                  + (f" ({run['error']})" if "error" in run else ""), file=sys.stderr)

    report = verdict(runs, benchmark["end_to_end"], args.claim)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} alternating pairs, "
          f"{benchmark['run_seconds']} s per run")
    print_report(report, args.claim)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report,
                      "runs": runs}))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
