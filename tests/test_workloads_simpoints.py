"""Tests for repro.workloads.simpoints."""

import numpy as np
import pytest

from repro.workloads.simpoints import (
    INSTRUCTIONS_PER_CLUSTER,
    MAX_SIMPOINT_CLUSTERS,
    PHASE_DIVERSITY,
    SimPoint,
    SimPointSet,
    generate_simpoints,
)
from repro.workloads.spec2017 import build_spec2017_profiles


@pytest.fixture(scope="module")
def profile():
    return build_spec2017_profiles()["602.gcc_s"]


class TestGenerateSimpoints:
    def test_weights_sum_to_one(self, profile):
        simpoints = generate_simpoints(profile, seed=0)
        assert np.isclose(simpoints.weights.sum(), 1.0)

    def test_respects_max_clusters(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=6, seed=0)
        assert 1 <= len(simpoints) <= 6

    def test_paper_limit_is_default(self, profile):
        simpoints = generate_simpoints(profile, seed=1)
        assert len(simpoints) <= MAX_SIMPOINT_CLUSTERS

    def test_deterministic_for_seed(self, profile):
        a = generate_simpoints(profile, seed=42)
        b = generate_simpoints(profile, seed=42)
        np.testing.assert_allclose(a.weights, b.weights)
        assert [p.profile.ideal_ipc for p in a] == [p.profile.ideal_ipc for p in b]

    def test_phases_are_perturbations_of_the_profile(self, profile):
        simpoints = generate_simpoints(profile, seed=3)
        for point in simpoints:
            assert 0.5 * profile.ideal_ipc < point.profile.ideal_ipc < 2.0 * profile.ideal_ipc

    def test_phases_are_perturbed_at_the_fixed_diversity(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=8, seed=5)
        # Replay the draws: phase count, weights, then one perturbation per
        # phase at PHASE_DIVERSITY.
        rng = np.random.default_rng(5)
        high = max(4, int(round(8 * (0.4 + 0.6 * profile.memory.access_irregularity))))
        count = int(rng.integers(4, high + 1))
        assert count == len(simpoints)
        np.testing.assert_array_equal(rng.dirichlet(np.full(count, 2.0)), simpoints.weights)
        for point in simpoints:
            expected = profile.perturbed(rng, scale=PHASE_DIVERSITY)
            assert point.profile.ideal_ipc == expected.ideal_ipc
            assert point.profile.mix == expected.mix

    def test_invalid_max_clusters(self, profile):
        with pytest.raises(ValueError):
            generate_simpoints(profile, max_clusters=0)

    def test_total_instructions(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=5, seed=0)
        total = sum(point.instructions for point in simpoints)
        assert total == len(simpoints) * INSTRUCTIONS_PER_CLUSTER


class TestSimPointSet:
    def test_weights_must_sum_to_one(self, profile):
        points = (SimPoint(index=0, weight=0.5, profile=profile),)
        with pytest.raises(ValueError):
            SimPointSet(workload_name=profile.name, points=points)

    def test_empty_rejected(self, profile):
        with pytest.raises(ValueError):
            SimPointSet(workload_name=profile.name, points=())

    def test_sequence_protocol_and_weights(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=8, seed=5)
        points = list(simpoints)
        assert len(points) == len(simpoints) == simpoints.weights.shape[0]
        np.testing.assert_array_equal(simpoints.weights, [point.weight for point in points])
        assert [point.index for point in points] == list(range(len(points)))

    def test_phases_are_named_after_their_workload(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=5, seed=2)
        assert simpoints.workload_name == profile.name
        assert [point.profile.name for point in simpoints] == [
            f"{profile.name}#sp{i}" for i in range(len(simpoints))
        ]

    def test_one_cluster_is_the_whole_run(self, profile):
        simpoints = generate_simpoints(profile, max_clusters=1, seed=0)
        assert len(simpoints) == 1
        assert simpoints.weights[0] == pytest.approx(1.0)

    def test_irregular_workloads_may_use_more_phases(self):
        profiles = build_spec2017_profiles()
        regular, irregular = sorted(
            profiles.values(), key=lambda p: p.memory.access_irregularity
        )[:: len(profiles) - 1]
        counts = {
            name: max(len(generate_simpoints(p, seed=seed)) for seed in range(20))
            for name, p in (("regular", regular), ("irregular", irregular))
        }
        assert 4 <= counts["regular"] < counts["irregular"] <= MAX_SIMPOINT_CLUSTERS

