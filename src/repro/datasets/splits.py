"""Workload-level dataset splits.

The paper "iteratively and randomly designated seven datasets for training,
five for validation, and five for testing".  :func:`paper_split` is the
split whose test set is the five workloads that Table II averages over; the
other twelve are partitioned 7/5 at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.utils.rng import SeedLike, as_rng
from repro.workloads.spec2017 import SPEC2017_WORKLOAD_NAMES, TABLE2_TEST_WORKLOADS

#: The paper's split sizes (train / validation / test workload counts).
PAPER_SPLIT_SIZES = (7, 5, 5)


@dataclass(frozen=True)
class WorkloadSplit:
    """A partition of workload names into train / validation / test sets."""

    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self) -> None:
        overlap = (
            set(self.train) & set(self.validation)
            | set(self.train) & set(self.test)
            | set(self.validation) & set(self.test)
        )
        if overlap:
            raise ValueError(f"split sets overlap on {sorted(overlap)}")
        if not self.train or not self.test:
            raise ValueError("train and test sets must be non-empty")

    @property
    def all_workloads(self) -> tuple[str, ...]:
        """Every workload mentioned by the split."""
        return self.train + self.validation + self.test

    def describe(self) -> str:
        """Readable one-line-per-set description."""
        return (
            f"train({len(self.train)}): {', '.join(self.train)}\n"
            f"validation({len(self.validation)}): {', '.join(self.validation)}\n"
            f"test({len(self.test)}): {', '.join(self.test)}"
        )


def paper_split(
    workloads: Sequence[str] = SPEC2017_WORKLOAD_NAMES,
    *,
    seed: SeedLike = 0,
) -> WorkloadSplit:
    """The split whose test set matches Table II's five test workloads.

    The remaining twelve workloads are partitioned 7/5 into train and
    validation sets (deterministically for a given seed).
    """
    test = tuple(TABLE2_TEST_WORKLOADS)
    remaining = [w for w in workloads if w not in test]
    rng = as_rng(seed)
    order = [remaining[int(i)] for i in rng.permutation(len(remaining))]
    return WorkloadSplit(
        train=tuple(order[:PAPER_SPLIT_SIZES[0]]),
        validation=tuple(order[PAPER_SPLIT_SIZES[0]:]),
        test=test,
    )
