"""Tests for repro.designspace.sampling."""

import numpy as np
import pytest

from repro.designspace.sampling import (
    FocusedSampler,
    LatinHypercubeSampler,
    OrthogonalArraySampler,
    RandomSampler,
    make_sampler,
)
from repro.designspace.spec import build_table1_space


@pytest.fixture(scope="module")
def space():
    return build_table1_space()


class TestRandomSampler:
    def test_count(self, space):
        assert len(RandomSampler(space, seed=0).sample(25)) == 25

    def test_zero(self, space):
        assert RandomSampler(space, seed=0).sample(0) == []

    def test_negative_rejected(self, space):
        with pytest.raises(ValueError):
            RandomSampler(space, seed=0).sample(-1)

    def test_all_valid(self, space):
        for config in RandomSampler(space, seed=1).sample(30):
            assert space.validate(config) == config

    def test_deterministic(self, space):
        a = RandomSampler(space, seed=5).sample(10)
        b = RandomSampler(space, seed=5).sample(10)
        assert a == b


class TestLatinHypercubeSampler:
    def test_count_and_validity(self, space):
        configs = LatinHypercubeSampler(space, seed=0).sample(32)
        assert len(configs) == 32
        assert all(space.validate(c) == c for c in configs)

    def test_stratification_of_wide_parameter(self, space):
        # With n samples, an LHS should cover the ROB range far more evenly
        # than the worst case; check that we see many distinct levels.
        configs = LatinHypercubeSampler(space, seed=3).sample(60)
        rob_values = {c["rob_size"] for c in configs}
        assert len(rob_values) >= 10

    def test_zero(self, space):
        assert LatinHypercubeSampler(space, seed=0).sample(0) == []


class TestOrthogonalArraySampler:
    def test_level_balance(self, space):
        sampler = OrthogonalArraySampler(space, seed=0)
        configs = sampler.sample(48)
        # The cache line parameter has 2 levels; each should appear ~24 times.
        values = [c["cacheline_bytes"] for c in configs]
        assert abs(values.count(32) - values.count(64)) <= 2


class TestMakeSampler:
    @pytest.mark.parametrize("kind,cls", [
        ("random", RandomSampler),
        ("lhs", LatinHypercubeSampler),
        ("oa", OrthogonalArraySampler),
    ])
    def test_factory(self, space, kind, cls):
        assert isinstance(make_sampler(kind, space, seed=0), cls)

    def test_unknown_kind(self, space):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("sobol", space)


class TestFocusedSampler:
    def _scores(self, space, seed=0):
        return np.random.default_rng(seed).random(space.num_parameters)

    def test_keep_fraction_one_matches_random_sampler_bitwise(self, space):
        # The equivalence FocusedPool(keep_fraction=1.0) builds on: with
        # every parameter focused, the sampler consumes its RNG stream
        # exactly like RandomSampler, so the draws are bitwise identical.
        reference = RandomSampler(space, seed=42).sample(60)
        focused = FocusedSampler(
            space, self._scores(space), keep_fraction=1.0, seed=42
        ).sample(60)
        assert focused == reference

    def test_count_validity_determinism(self, space):
        sampler = FocusedSampler(
            space, self._scores(space), keep_fraction=0.4, seed=3
        )
        configs = sampler.sample(30)
        assert len(configs) == 30
        assert all(space.validate(c) == c for c in configs)
        again = FocusedSampler(
            space, self._scores(space), keep_fraction=0.4, seed=3
        ).sample(30)
        assert configs == again

    def test_unfocused_parameters_clamped_to_median(self, space):
        sampler = FocusedSampler(
            space, self._scores(space), keep_fraction=0.3, coarse_levels=1, seed=1
        )
        indices = np.array(
            [space.to_indices(c) for c in sampler.sample(40)]
        )
        for position, (focused, parameter) in enumerate(
            zip(sampler.focused_mask, space.parameters)
        ):
            if not focused:
                assert set(indices[:, position]) == {parameter.cardinality // 2}

    def test_coarse_grid_membership_and_extremes(self, space):
        sampler = FocusedSampler(
            space, self._scores(space), keep_fraction=0.3, coarse_levels=3, seed=2
        )
        indices = np.array(
            [space.to_indices(c) for c in sampler.sample(80)]
        )
        for position, (focused, parameter) in enumerate(
            zip(sampler.focused_mask, space.parameters)
        ):
            if focused:
                continue
            levels = sampler._levels[position]
            assert len(levels) <= 3
            assert levels[0] == 0 and levels[-1] == parameter.cardinality - 1
            assert set(indices[:, position]) <= set(levels.tolist())

    def test_focus_count_and_tiebreak(self, space):
        num = space.num_parameters
        uniform = np.ones(num)
        sampler = FocusedSampler(space, uniform, keep_fraction=0.5, seed=0)
        expected = int(np.ceil(0.5 * num))
        assert sampler.focused_mask.sum() == expected
        # Equal scores break ties towards the earlier declaration.
        assert sampler.focused_mask[:expected].all()

    def test_focus_follows_descending_scores(self, space):
        num = space.num_parameters
        scores = np.ones(num)
        scores[5] = 5.0
        scores[3] = scores[7] = 2.0
        # Highest score first; of the tied pair the earlier position wins;
        # at least one parameter always stays focused.
        for keep, expected in ((0.01, [5]), (1.5 / num, [3, 5]), (2.5 / num, [3, 5, 7])):
            sampler = FocusedSampler(space, scores, keep_fraction=keep, seed=0)
            assert np.flatnonzero(sampler.focused_mask).tolist() == expected

    def test_accepts_importance_profile(self, space):
        from repro.meta.wam import ImportanceProfile

        profile = ImportanceProfile(scores=self._scores(space) + 0.01)
        by_profile = FocusedSampler(
            space, profile, keep_fraction=0.4, seed=7
        ).sample(10)
        by_array = FocusedSampler(
            space, profile.scores, keep_fraction=0.4, seed=7
        ).sample(10)
        assert by_profile == by_array

    def test_validation(self, space):
        scores = self._scores(space)
        with pytest.raises(ValueError, match="keep_fraction"):
            FocusedSampler(space, scores, keep_fraction=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            FocusedSampler(space, scores, keep_fraction=1.5)
        with pytest.raises(ValueError, match="coarse_levels"):
            FocusedSampler(space, scores, coarse_levels=0)
        with pytest.raises(ValueError, match="entries"):
            FocusedSampler(space, scores[:-1])
        bad = scores.copy()
        bad[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            FocusedSampler(space, bad)


class TestVectorisedDraw:
    """A pool is one ``rng.integers`` call that consumes the generator exactly
    as one scalar draw per parameter per configuration, row by row, would."""

    @staticmethod
    def _scalar_loop(space, levels, rng, count):
        """The per-parameter reference: one ``rng.integers(0, L_i)`` each."""
        return [
            space.from_indices(
                [int(options[int(rng.integers(0, len(options)))]) for options in levels]
            )
            for _ in range(count)
        ]

    @staticmethod
    def _assert_same_stream(sampler_rng, reference_rng):
        assert sampler_rng.bit_generator.state == reference_rng.bit_generator.state
        np.testing.assert_array_equal(
            sampler_rng.integers(0, 1000, 8), reference_rng.integers(0, 1000, 8)
        )

    @pytest.mark.parametrize("count", (0, 1, 4000))
    @pytest.mark.parametrize("seed", (0, 77))
    def test_random_sampler_equals_scalar_loop(self, space, count, seed):
        sampler = RandomSampler(space, seed=seed)
        reference_rng = np.random.default_rng(seed)
        levels = [np.arange(p.cardinality) for p in space.parameters]
        assert sampler.sample(count) == self._scalar_loop(
            space, levels, reference_rng, count
        )
        self._assert_same_stream(sampler.rng, reference_rng)

    @pytest.mark.parametrize("count", (0, 1, 4000))
    @pytest.mark.parametrize(
        "keep_fraction, coarse_levels", ((0.3, 1), (0.5, 3), (0.05, 1), (1.0, 1))
    )
    def test_focused_sampler_equals_scalar_loop(
        self, space, count, keep_fraction, coarse_levels
    ):
        scores = np.random.default_rng(4).random(space.num_parameters)
        sampler = FocusedSampler(
            space, scores, keep_fraction=keep_fraction,
            coarse_levels=coarse_levels, seed=9,
        )
        if coarse_levels == 1 and keep_fraction < 1.0:
            # Clamped parameters keep a single level and draw nothing.
            assert any(len(levels) == 1 for levels in sampler._levels)
        reference_rng = np.random.default_rng(9)
        assert sampler.sample(count) == self._scalar_loop(
            space, sampler._levels, reference_rng, count
        )
        self._assert_same_stream(sampler.rng, reference_rng)

    def test_consecutive_pools_continue_the_stream(self, space):
        sampler = RandomSampler(space, seed=3)
        reference_rng = np.random.default_rng(3)
        levels = [np.arange(p.cardinality) for p in space.parameters]
        for count in (5, 0, 17):
            assert sampler.sample(count) == self._scalar_loop(
                space, levels, reference_rng, count
            )
        self._assert_same_stream(sampler.rng, reference_rng)
