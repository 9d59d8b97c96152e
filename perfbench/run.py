#!/usr/bin/env python3
"""The repository benchmark: one workload at one seed, in fresh processes.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Every repetition is a fresh interpreter (``rep.py``) launched with the hash
seed and the BLAS thread counts pinned.  Untraced repetitions run until
``--seconds`` have passed (at least one); ``--trace 1`` adds one traced
repetition first, whose per-layer ledger is reported.  Set-up time is
sampled at least ``SETUP_SAMPLES`` times (extra set-up-only processes when
the repetitions are fewer).  All repetitions of a run must produce the
same output digest; a repetition that raises, fails its own checks or
disagrees counts as failed.

The last line of standard output is the result: medians of the untraced
repetitions (``--trace 0``) or the traced ledger (``--trace 1``).  The line
before it records the host, the versions, the pinned environment and every
repetition, so a drifting set of runs can be explained from the output.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment every repetition runs under (per-process allocator state
#: and thread counts otherwise vary run to run; see README.md).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-up time is the median of at least this many set-ups.
SETUP_SAMPLES = 3

#: Wall-clock budget of one run; repetitions that would overrun it are skipped.
RUN_LIMIT_S = 170.0

WORKLOADS = ("pipeline", "explore-nsga2", "explore-wide")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fresh_sims": "sims",
    "hypervolume": "IPC.W",
    "ipc_rmse": "IPC",
    "power_rmse": "W",
}

#: Deterministic outputs: identical in every repetition with one digest.
QUALITY = ("fresh_sims", "hypervolume", "ipc_rmse", "power_rmse")

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    **ledger.METRIC_UNITS,
    "obs.overhead_ratio": "ratio",
    "host.cpu_s": "s",
    "host.sys_s": "s",
    "host.minor_faults": "count",
    "host.steal_s": "s",
}


def launch(args, deadline: float, *, trace_path=None, setup_only=False):
    """Run one repetition; return ``(record or None, error or None, seconds)``."""
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    if setup_only:
        command.append("--setup-only")
    if args.tiny:
        command.append("--tiny")
    started = time.monotonic()
    try:
        process = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - started
    seconds = time.monotonic() - started
    if process.returncode != 0:
        tail = process.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit {process.returncode}: {tail[0]}", seconds
    try:
        return json.loads(process.stdout.strip().splitlines()[-1]), None, seconds
    except (IndexError, ValueError):
        return None, "no result line", seconds


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record() -> dict:
    """Host, versions and pinned environment (read after the repetitions)."""
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "pinned_env": PINNED_ENV,
    }
    try:
        import numpy

        record["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError, ValueError) as error:
        record.setdefault("numpy", f"unavailable ({error})")
    return record


def check_digests(reps: list[dict]) -> list[str]:
    """Mark every repetition whose digest differs from the first one's.

    Returns one message per mismatch; a mismatching repetition's ``ok``
    flag is cleared, so it counts as failed.
    """
    messages = []
    for index, rep in enumerate(reps[1:], start=1):
        if rep["digest"] != reps[0]["digest"]:
            rep["ok"] = False
            messages.append(
                f"repetition {index} ({rep['kind']}): digest {rep['digest'][:12]} "
                f"!= {reps[0]['digest'][:12]}"
            )
    return messages


def run(args) -> tuple[dict, dict]:
    """All repetitions of one run; returns ``(result, run record)``."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".perfbench"
    created = not workdir.exists()
    workdir.mkdir(parents=True, exist_ok=True)
    trace_path = workdir / f"run-{os.getpid()}.trace.jsonl"

    reps: list[dict] = []
    errors: list[str] = []
    setups: list[float] = []
    durations: list[float] = []
    lost = 0  # launches that returned no result

    def attempt(kind: str, **options) -> None:
        nonlocal lost
        record, error, seconds = launch(args, deadline, **options)
        durations.append(seconds)
        print(f"perfbench: {kind} repetition took {seconds:.1f} s"
              + (f" ({error})" if error else ""), file=sys.stderr)
        if record is None:
            lost += 1
            errors.append(f"{kind}: {error}")
            return
        setups.append(record["setup_s"])
        if kind != "setup":
            errors.extend(f"{kind}: {message}" for message in record["errors"])
            reps.append({"kind": kind, "ok": not record["errors"], **record})

    try:
        if args.trace:
            attempt("traced", trace_path=trace_path)
        started = time.monotonic()
        untraced = 0
        while untraced == 0 or time.monotonic() - started < args.seconds:
            if untraced and time.monotonic() + max(durations) > deadline:
                break
            attempt("untraced")
            untraced += 1
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 10 < deadline:
            attempt("setup", setup_only=True)
    finally:
        trace_path.unlink(missing_ok=True)
        if created:
            try:
                workdir.rmdir()
            except OSError:
                pass

    errors.extend(check_digests([rep for rep in reps if rep["ok"]]))
    failed = lost + sum(not rep["ok"] for rep in reps)
    good = [rep for rep in reps if rep["ok"]]
    plain = [rep for rep in good if rep["kind"] == "untraced"]
    traced = [rep for rep in good if rep["kind"] == "traced"]

    metrics: dict[str, dict] = {}
    if plain and setups and (traced or not args.trace):
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
            **{name: plain[0][name] for name in QUALITY},
        }
        units = END_TO_END
        if args.trace:
            values = {
                **traced[0]["layers"],
                **traced[0]["host"],
                "obs.overhead_ratio": traced[0]["wall_s"] / values["wall_s"],
            }
            units = PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": lost + len(setups),  # every launch yields one set-up or is lost
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "setup_samples": setups,
        "repetitions": [
            {key: value for key, value in rep.items() if key != "layers"} for rep in reps
        ],
        "errors": errors,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="MetaDSE repository benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting untraced repetitions for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    result, record = run(args)
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
