"""Tests for repro.utils.rng."""

import zlib

import numpy as np
import pytest

from repro.utils.rng import as_rng, keyed_rng, seed_entropy


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(as_rng(1).random(8), as_rng(2).random(8))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_matches_default_rng(self):
        sequence = np.random.SeedSequence(11)
        np.testing.assert_array_equal(
            as_rng(sequence).random(4), np.random.default_rng(np.random.SeedSequence(11)).random(4)
        )


class TestSeedEntropy:
    def test_int_passes_through(self):
        assert seed_entropy(1234) == 1234
        assert isinstance(seed_entropy(np.int64(7)), int)

    def test_seed_sequence_collapses_deterministically(self):
        first = seed_entropy(np.random.SeedSequence(5))
        assert first == seed_entropy(np.random.SeedSequence(5))
        assert first != seed_entropy(np.random.SeedSequence(6))
        assert first == int(np.random.SeedSequence(5).generate_state(1, np.uint64)[0])

    def test_none_draws_fresh_integer_entropy(self):
        draws = {seed_entropy(None) for _ in range(3)}
        assert all(isinstance(value, int) and value >= 0 for value in draws)
        assert len(draws) == 3

    def test_generator_rejected(self):
        with pytest.raises(TypeError, match="mutable state"):
            seed_entropy(np.random.default_rng(0))


class TestKeyedRng:
    def test_pure_function_of_entropy_and_keys(self):
        a = keyed_rng(3, "605.mcf_s", 2).random(6)
        b = keyed_rng(3, "605.mcf_s", 2).random(6)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "other",
        [(4, "605.mcf_s", 2), (3, "620.omnetpp_s", 2), (3, "605.mcf_s", 3), (3, "605.mcf_s")],
        ids=["entropy", "workload", "round", "fewer-keys"],
    )
    def test_any_changed_component_changes_the_stream(self, other):
        reference = keyed_rng(3, "605.mcf_s", 2).random(6)
        assert not np.array_equal(reference, keyed_rng(*other).random(6))

    def test_string_keys_hash_with_crc32(self):
        np.testing.assert_array_equal(
            keyed_rng(9, "605.mcf_s").random(4),
            keyed_rng(9, zlib.crc32(b"605.mcf_s")).random(4),
        )

    def test_stream_ignores_how_much_another_stream_consumed(self):
        untouched = keyed_rng(1, "a", 0).random(5)
        busy = keyed_rng(1, "b", 0)
        busy.random(1000)
        again = keyed_rng(1, "a", 0).random(5)
        np.testing.assert_array_equal(untouched, again)

    def test_entropy_from_seed_entropy_round_trips(self):
        entropy = seed_entropy(np.random.SeedSequence(21))
        np.testing.assert_array_equal(
            keyed_rng(entropy, 0).integers(0, 100, 8),
            keyed_rng(entropy, 0).integers(0, 100, 8),
        )
