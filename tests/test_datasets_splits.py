"""Tests for repro.datasets.splits."""

import numpy as np
import pytest

from repro.datasets.splits import PAPER_SPLIT_SIZES, WorkloadSplit, paper_split
from repro.workloads.spec2017 import SPEC2017_WORKLOAD_NAMES, TABLE2_TEST_WORKLOADS


class TestWorkloadSplit:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            WorkloadSplit(train=("a", "b"), validation=("b",), test=("c",))

    def test_validation_test_overlap_rejected(self):
        with pytest.raises(ValueError, match=r"overlap on \['c'\]"):
            WorkloadSplit(train=("a",), validation=("c",), test=("c",))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSplit(train=(), validation=("a",), test=("b",))

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            WorkloadSplit(train=("a",), validation=("b",), test=())

    def test_empty_validation_allowed(self):
        split = WorkloadSplit(train=("a",), validation=(), test=("b",))
        assert split.all_workloads == ("a", "b")

    def test_all_workloads(self):
        split = WorkloadSplit(train=("a",), validation=("b",), test=("c",))
        assert split.all_workloads == ("a", "b", "c")

    def test_describe(self):
        split = WorkloadSplit(train=("a",), validation=("b",), test=("c",))
        text = split.describe()
        assert "train(1)" in text and "test(1)" in text


class TestPaperSplit:
    def test_test_set_is_table2(self):
        assert set(paper_split().test) == set(TABLE2_TEST_WORKLOADS)

    def test_no_leakage(self):
        split = paper_split(seed=1)
        assert not (set(split.train) & set(split.test))
        assert len(split.train) == 7

    def test_sizes_match_paper(self):
        split = paper_split(seed=2)
        sizes = (len(split.train), len(split.validation), len(split.test))
        assert sizes == PAPER_SPLIT_SIZES == (7, 5, 5)

    def test_every_workload_lands_in_exactly_one_set(self):
        split = paper_split(seed=3)
        assert sorted(split.all_workloads) == sorted(SPEC2017_WORKLOAD_NAMES)

    def test_deterministic_for_a_seed(self):
        assert paper_split(seed=4) == paper_split(seed=4)

    def test_seed_moves_workloads_between_train_and_validation(self):
        splits = {paper_split(seed=seed).train for seed in range(5)}
        assert len(splits) > 1
        assert {paper_split(seed=seed).test for seed in range(5)} == {
            tuple(TABLE2_TEST_WORKLOADS)
        }

    def test_generator_seed_accepted(self):
        assert paper_split(seed=np.random.default_rng(5)) == paper_split(seed=5)
