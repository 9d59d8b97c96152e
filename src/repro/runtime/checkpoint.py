"""Per-round campaign checkpoints (the resumable-campaign substrate).

A multi-round cross-workload campaign spends almost all of its time in
simulation and surrogate refits; the checkpoint records exactly what that
money bought — per completed round: the measured union configurations,
each workload's measured objective rows, and each workload's acquisition
picks.  Everything else (candidate pools, RNG positions, surrogate state)
is deliberately *not* stored: the campaign driver re-derives it by
replaying the cheap sampling steps for completed rounds, which keeps the
file format small and the resumed RNG streams bit-identical to an
uninterrupted run (see ``docs/runtime.md`` for the format and the replay
argument).

Checkpoints are JSON (finite ``float64`` values round-trip exactly through
``json``) and published with :func:`repro.utils.atomic.write_atomic`
(fsynced temp file + ``os.replace``), so a campaign killed mid-write never
leaves a truncated checkpoint behind.  A
``fingerprint`` of the campaign specification is validated on resume:
resuming with different workloads, objectives or budgets raises
:class:`CheckpointMismatchError` instead of silently mixing campaigns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.utils.atomic import write_atomic

#: Format version written to (and required from) every checkpoint file.
CHECKPOINT_VERSION = 1


class CheckpointMismatchError(RuntimeError):
    """The checkpoint on disk belongs to a different campaign specification."""


def _jsonify(value: Any) -> Any:
    """Coerce NumPy scalars to plain Python so ``json`` can serialise them."""
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class RoundRecord:
    """Everything one completed round contributed to the campaign state."""

    #: Round number; ``-1`` is the initial-samples round.
    round_index: int
    #: The measured union of this round's per-workload selections.
    union_configs: list[dict]
    #: Per-workload pick positions into ``union_configs``.
    selections: dict[str, list[int]]
    #: Per-workload measured objective matrices over ``union_configs``.
    measured: dict[str, np.ndarray]
    #: Candidate-pool indices the union came from (sorted; empty for the
    #: initial-samples round, which has no pool).  On resume the campaign
    #: driver replays the round's pool and cross-checks
    #: ``pool[union_pool_indices] == union_configs`` — the guard that
    #: catches an engine rebuilt with the wrong seed for *every* campaign
    #: shape, including the default single-round one.
    union_pool_indices: list[int] = field(default_factory=list)
    #: Per-workload strategy-arm names (strategy-portfolio campaigns only;
    #: empty otherwise).  On resume the driver replays the bandit and
    #: cross-checks its selections against these — the guard that catches a
    #: portfolio rebuilt with different arms or bandit knobs.
    arms: dict[str, str] = field(default_factory=dict)
    #: Per-workload candidate-pool sizes (per-workload-pool campaigns only;
    #: empty for shared-pool rounds, whose pool replays from the sampler).
    #: Restores the ``candidates_screened`` accounting without re-proposing
    #: restored rounds.
    pool_sizes: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = {
            "round_index": self.round_index,
            "union_configs": [
                {name: _jsonify(value) for name, value in config.items()}
                for config in self.union_configs
            ],
            "union_pool_indices": [int(i) for i in self.union_pool_indices],
            "selections": {
                workload: [int(i) for i in picks]
                for workload, picks in self.selections.items()
            },
            "measured": {
                workload: [[float(v) for v in row] for row in rows]
                for workload, rows in self.measured.items()
            },
        }
        if self.arms:
            payload["arms"] = {
                workload: str(arm) for workload, arm in self.arms.items()
            }
        if self.pool_sizes:
            payload["pool_sizes"] = {
                workload: int(size) for workload, size in self.pool_sizes.items()
            }
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "RoundRecord":
        return cls(
            round_index=int(payload["round_index"]),
            union_configs=[dict(config) for config in payload["union_configs"]],
            selections={
                workload: [int(i) for i in picks]
                for workload, picks in payload["selections"].items()
            },
            measured={
                workload: np.asarray(rows, dtype=np.float64)
                for workload, rows in payload["measured"].items()
            },
            union_pool_indices=[int(i) for i in payload["union_pool_indices"]],
            arms={
                workload: str(arm)
                for workload, arm in payload.get("arms", {}).items()
            },
            pool_sizes={
                workload: int(size)
                for workload, size in payload.get("pool_sizes", {}).items()
            },
        )


@dataclass
class CampaignCheckpoint:
    """Append-only record of a campaign's completed rounds."""

    path: Path
    fingerprint: dict
    rounds: list[RoundRecord] = field(default_factory=list)

    @classmethod
    def resume_or_start(
        cls, path: "str | Path", fingerprint: Mapping
    ) -> "CampaignCheckpoint":
        """Load the checkpoint at *path*, or start a fresh one.

        An existing file must match *fingerprint* exactly — a mismatch
        means the caller is trying to resume a different campaign into
        this file, which raises rather than corrupts.
        """
        path = Path(path)
        fingerprint = dict(fingerprint)
        if not path.exists():
            return cls(path=path, fingerprint=fingerprint)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            raise CheckpointMismatchError(
                f"{path}: not a readable campaign checkpoint ({error})"
            ) from error
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"{path}: checkpoint version {payload.get('version')!r} != "
                f"{CHECKPOINT_VERSION}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise CheckpointMismatchError(
                f"{path}: checkpoint belongs to a different campaign "
                f"specification\n  on disk:   {payload.get('fingerprint')}\n"
                f"  requested: {fingerprint}"
            )
        try:
            rounds = [RoundRecord.from_json(entry) for entry in payload["rounds"]]
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointMismatchError(
                f"{path}: malformed campaign checkpoint ({error!r})"
            ) from error
        return cls(path=path, fingerprint=fingerprint, rounds=rounds)

    def completed(self) -> dict[int, RoundRecord]:
        """Completed rounds keyed by round index."""
        return {record.round_index: record for record in self.rounds}

    def record_round(self, record: RoundRecord) -> None:
        """Append a completed round and persist the file atomically."""
        self.rounds.append(record)
        self.write()

    def write(self) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "rounds": [record.to_json() for record in self.rounds],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(
            self.path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        )


def campaign_fingerprint(
    *,
    workloads: Sequence[str],
    objective_names: Sequence[str],
    maximize: Sequence[bool],
    simulation_budget: int,
    rounds: int,
    initial_samples: int,
    refit: bool,
    generator: str,
    acquisition: str,
    surrogates: Mapping[str, str],
) -> dict:
    """The campaign-specification fingerprint stored in every checkpoint.

    The strategy objects are identified by descriptor strings (class
    names): coarse, but enough to refuse resuming a checkpoint under a
    different acquisition policy or surrogate family — mixed-policy
    results would match neither the original nor an uninterrupted run.
    """
    return {
        "workloads": list(workloads),
        "objectives": list(objective_names),
        "maximize": [bool(flag) for flag in maximize],
        "simulation_budget": int(simulation_budget),
        "rounds": int(rounds),
        "initial_samples": int(initial_samples),
        "refit": bool(refit),
        "generator": generator,
        "acquisition": acquisition,
        "surrogates": dict(surrogates),
    }
