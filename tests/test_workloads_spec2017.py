"""Tests for repro.workloads.spec2017."""

import pytest

from repro.workloads.spec2017 import (
    SPEC2017_WORKLOAD_NAMES,
    TABLE2_TEST_WORKLOADS,
    WorkloadSuite,
    build_spec2017_profiles,
    spec2017_suite,
)


class TestProfilesTable:
    def test_seventeen_workloads(self):
        assert len(SPEC2017_WORKLOAD_NAMES) == 17
        assert len(build_spec2017_profiles()) == 17

    def test_names_match_paper_figures(self):
        profiles = build_spec2017_profiles()
        for name in ("605.mcf_s", "625.x264_s", "998.specrand_is"):
            assert name in profiles

    def test_table2_test_workloads_are_a_subset(self):
        assert set(TABLE2_TEST_WORKLOADS) <= set(SPEC2017_WORKLOAD_NAMES)
        assert len(TABLE2_TEST_WORKLOADS) == 5

    def test_profiles_are_diverse_in_memory_boundedness(self):
        profiles = build_spec2017_profiles()
        boundedness = [p.memory_boundedness for p in profiles.values()]
        assert max(boundedness) > 0.8
        assert min(boundedness) < 0.1

    def test_fp_workloads_have_fp_instructions(self):
        profiles = build_spec2017_profiles()
        for name, profile in profiles.items():
            if profile.category == "fp":
                assert profile.mix.fp_fraction > 0.2, name

    def test_tournament_never_worse_than_bimode(self):
        for profile in build_spec2017_profiles().values():
            assert (
                profile.branch.tournament_mispredict_rate
                <= profile.branch.bimode_mispredict_rate
            )


class TestWorkloadSuite:
    def test_full_suite(self):
        suite = spec2017_suite()
        assert len(suite) == 17
        assert suite.names == list(SPEC2017_WORKLOAD_NAMES)

    def test_lookup(self):
        suite = spec2017_suite()
        assert suite["605.mcf_s"].name == "605.mcf_s"
        assert "605.mcf_s" in suite

    def test_unknown_lookup(self):
        with pytest.raises(KeyError, match="unknown workload"):
            spec2017_suite()["503.bwaves_r"]

    def test_subset_preserves_order(self):
        suite = spec2017_suite()
        subset = suite.subset(["625.x264_s", "605.mcf_s"])
        assert subset.names == ["625.x264_s", "605.mcf_s"]

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSuite({})
