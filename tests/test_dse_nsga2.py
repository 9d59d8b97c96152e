"""Tests for the NSGA-II surrogate-driven explorer."""

import numpy as np
import pytest

from repro.designspace.parameters import ParameterError
from repro.dse import nsga2
from repro.dse.nsga2 import NSGA2Explorer, fast_non_dominated_sort
from repro.dse.pareto import _pareto_mask_scan, pareto_mask, to_minimization


class TestFastNonDominatedSort:
    def test_known_fronts(self):
        objectives = np.array(
            [
                [1.0, 1.0],  # front 0
                [2.0, 2.0],  # front 1 (dominated by row 0)
                [0.5, 3.0],  # front 0
                [3.0, 3.0],  # front 2
            ]
        )
        fronts = fast_non_dominated_sort(objectives)
        assert sorted(fronts[0].tolist()) == [0, 2]
        assert fronts[1].tolist() == [1]
        assert fronts[2].tolist() == [3]

    def test_every_index_appears_exactly_once(self):
        rng = np.random.default_rng(0)
        objectives = rng.normal(size=(40, 3))
        fronts = fast_non_dominated_sort(objectives)
        flattened = sorted(int(i) for front in fronts for i in front)
        assert flattened == list(range(40))

    def test_first_front_is_the_pareto_mask(self):
        rng = np.random.default_rng(1)
        objectives = rng.normal(size=(30, 2))
        fronts = fast_non_dominated_sort(objectives)
        assert set(fronts[0].tolist()) == set(np.nonzero(pareto_mask(objectives))[0].tolist())

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.zeros((0, 2)))


def _surrogates(space):
    """Deterministic toy objectives over the encoded features."""

    def ipc(features):
        return features.sum(axis=1) / features.shape[1]

    def power(features):
        return features[:, 0] * 2.0 + features[:, 1] + 1.0

    return {"ipc": ipc, "power": power}


class TestNSGA2Explorer:
    def test_explore_returns_valid_configurations(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=16, generations=3, seed=0)
        result = explorer.explore(_surrogates(table1_space))
        assert len(result.configs) == 16
        for config in result.configs:
            assert table1_space.validate(config) == config
        assert result.objectives.shape == (16, 2)
        assert result.objective_names == ("ipc", "power")
        assert result.evaluations == 16 * (3 + 1)
        assert len(result.front_sizes) == 3

    def test_pareto_indices_are_non_dominated(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=12, generations=2, seed=1)
        result = explorer.explore(_surrogates(table1_space))
        minimised = to_minimization(result.objectives, [True, False])
        mask = pareto_mask(minimised)
        assert set(result.pareto_indices.tolist()) == set(np.nonzero(mask)[0].tolist())
        assert len(result.pareto_configs) == len(result.pareto_indices)
        assert result.pareto_objectives.shape[0] == len(result.pareto_indices)

    def test_search_improves_over_the_initial_population(self, table1_space):
        """The genetic loop pushes the predicted-IPC maximum upward."""
        surrogates = _surrogates(table1_space)
        short = NSGA2Explorer(table1_space, population_size=16, generations=1, seed=3)
        long = NSGA2Explorer(table1_space, population_size=16, generations=12, seed=3)
        best_short = short.explore(surrogates).objectives[:, 0].max()
        best_long = long.explore(surrogates).objectives[:, 0].max()
        assert best_long >= best_short

    def test_single_objective_search(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=8, generations=2, seed=0)
        result = explorer.explore({"ipc": _surrogates(table1_space)["ipc"]})
        assert result.objectives.shape == (8, 1)
        assert len(result.pareto_indices) >= 1

    def test_maximize_override(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=8, generations=1, seed=0)
        surrogates = _surrogates(table1_space)
        result = explorer.explore(surrogates, maximize={"ipc": False, "power": False})
        minimised = to_minimization(result.objectives, [False, False])
        assert set(result.pareto_indices.tolist()) == set(
            np.nonzero(pareto_mask(minimised))[0].tolist()
        )

    def test_empty_predictors_raise(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=8, generations=1)
        with pytest.raises(ValueError):
            explorer.explore({})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"population_size": 7},
            {"generations": 0},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"tournament_size": 1},
        ],
    )
    def test_invalid_constructor_arguments(self, table1_space, kwargs):
        with pytest.raises(ValueError):
            NSGA2Explorer(table1_space, **kwargs)

    def test_mutation_stays_inside_the_space(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=8, generations=1, seed=5,
                                 mutation_rate=1.0)
        cardinalities = table1_space.cardinalities()
        individual = np.zeros(table1_space.num_parameters, dtype=np.int64)
        for _ in range(20):
            mutated = explorer._mutate(individual)
            assert np.all(mutated >= 0)
            assert np.all(mutated < cardinalities)

    def test_crossover_mixes_parents(self, table1_space):
        explorer = NSGA2Explorer(table1_space, population_size=8, generations=1, seed=7,
                                 crossover_rate=1.0)
        parent_a = np.zeros(table1_space.num_parameters, dtype=np.int64)
        parent_b = np.ones(table1_space.num_parameters, dtype=np.int64)
        child = explorer._crossover(parent_a, parent_b)
        assert set(np.unique(child).tolist()) <= {0, 1}


class TestFeaturesFromIndices:
    """The index gather must equal decoding and re-encoding, bitwise."""

    @staticmethod
    def _decoded(space, rows):
        return space.batch_to_features([space.from_indices(row) for row in rows])

    def test_every_ordinal_of_every_parameter(self, table1_space):
        cardinalities = table1_space.cardinalities()
        # Row k holds ordinal k of every parameter that has one.
        rows = np.minimum.outer(np.arange(cardinalities.max()), cardinalities - 1)
        np.testing.assert_array_equal(
            table1_space.features_from_indices(rows), self._decoded(table1_space, rows)
        )

    def test_random_matrix_and_leading_axes(self, table1_space):
        cardinalities = table1_space.cardinalities()
        rows = np.random.default_rng(0).integers(
            0, cardinalities, size=(200, table1_space.num_parameters)
        )
        features = table1_space.features_from_indices(rows)
        np.testing.assert_array_equal(features, self._decoded(table1_space, rows))
        np.testing.assert_array_equal(
            table1_space.features_from_indices(rows.reshape(4, 50, -1)),
            features.reshape(4, 50, -1),
        )
        np.testing.assert_array_equal(
            table1_space.features_from_indices(rows[0]),
            table1_space.to_features(table1_space.from_indices(rows[0])),
        )

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (0,)])
    def test_wrong_shape_raises(self, table1_space, shape):
        with pytest.raises(ValueError, match="index vectors"):
            table1_space.features_from_indices(np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_indices_raise(self, table1_space, dtype):
        rows = np.ones((2, table1_space.num_parameters), dtype=dtype)
        with pytest.raises(ValueError, match="integer index vectors"):
            table1_space.features_from_indices(rows)

    @pytest.mark.parametrize("position", [0, -1])
    @pytest.mark.parametrize("past_the_end", [False, True])
    def test_out_of_range_index_raises(self, table1_space, position, past_the_end):
        rows = np.zeros((3, table1_space.num_parameters), dtype=np.int64)
        parameter = table1_space.parameters[position]
        rows[1, position] = parameter.cardinality if past_the_end else -1
        with pytest.raises(ParameterError, match=parameter.name):
            table1_space.features_from_indices(rows)


def _rounded(predictors):
    """Tie-heavy objectives: the same surrogates on a coarse grid."""
    return {
        name: (lambda features, fn=fn: np.round(fn(features) * 4.0) / 4.0)
        for name, fn in predictors.items()
    }


def _predictor_sets(space):
    two = _surrogates(space)
    three = {**two, "area": lambda features: (features[:, 2:6] ** 2).sum(axis=1)}
    return {
        "one": {"ipc": two["ipc"]},
        "two": two,
        "three": three,
        "ties": _rounded(two),
    }


class TestNSGA2Bitwise:
    """NSGA-II equals its scan + decode/encode formulation bitwise."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("objectives", ["one", "two", "three", "ties"])
    def test_explore_matches_the_scan_and_decode_path(
        self, table1_space, monkeypatch, objectives, seed
    ):
        predictors = _predictor_sets(table1_space)[objectives]

        def search():
            explorer = NSGA2Explorer(
                table1_space, population_size=24, generations=8, seed=seed
            )
            return explorer.explore(predictors)

        fast = search()
        monkeypatch.setattr(
            nsga2, "pareto_mask",
            lambda matrix: _pareto_mask_scan(np.asarray(matrix, dtype=np.float64)),
        )
        monkeypatch.setattr(
            table1_space, "features_from_indices",
            lambda rows: table1_space.batch_to_features(
                [table1_space.from_indices(row) for row in rows]
            ),
        )
        slow = search()
        assert fast.configs == slow.configs
        assert fast.objectives.tobytes() == slow.objectives.tobytes()
        assert fast.pareto_indices.tolist() == slow.pareto_indices.tolist()
        assert fast.front_sizes == slow.front_sizes
        assert fast.evaluations == slow.evaluations
