"""Tests for the DSE utilities (Pareto analysis and one-workload screening)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dse import pareto
from repro.dse.engine import CampaignEngine, ObjectiveSet
from repro.dse.pareto import (
    _pareto_mask_scan,
    crowding_distance,
    hypervolume_2d,
    pareto_front,
    pareto_mask,
    to_minimization,
)
from repro.dse.surrogates import CallableSurrogate


class TestParetoMask:
    def test_simple_domination(self):
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        mask = pareto_mask(objectives)
        assert mask.tolist() == [True, False, True]

    def test_all_non_dominated_on_a_line(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert pareto_mask(objectives).all()

    def test_duplicates_are_kept(self):
        objectives = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert pareto_mask(objectives).sum() >= 1

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pareto_mask(np.array([1.0, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(2, 3)),
                   elements=st.floats(-10, 10)),
    )
    def test_front_members_are_mutually_non_dominated(self, objectives):
        front = pareto_front(objectives)
        selected = objectives[front]
        for i in range(len(selected)):
            for j in range(len(selected)):
                if i == j:
                    continue
                dominates = np.all(selected[j] <= selected[i]) and np.any(
                    selected[j] < selected[i]
                )
                assert not dominates


def _scan_front(objectives):
    """The front by the generic scan, in first-objective order."""
    indices = np.nonzero(_pareto_mask_scan(objectives))[0]
    return indices[np.argsort(objectives[indices, 0])]


class TestOneParetoMask:
    """pareto_mask's O(n log n) 2-D sweep must equal the generic scan."""

    @staticmethod
    def _assert_matches_scan(objectives):
        np.testing.assert_array_equal(
            pareto_mask(objectives), _pareto_mask_scan(objectives)
        )
        np.testing.assert_array_equal(pareto_front(objectives), _scan_front(objectives))

    def test_matches_scan_on_ties_and_duplicates(self):
        objectives = np.array(
            [
                [1.0, 1.0], [1.0, 1.0],   # exact duplicates: both kept
                [1.0, 2.0],               # same x, worse y: dominated
                [0.5, 1.0],               # dominates nothing with smaller y...
                [0.5, 3.0],
                [2.0, 0.5], [2.0, 0.5],
                [3.0, 0.5],               # same y as a smaller x: dominated
            ]
        )
        self._assert_matches_scan(objectives)

    def test_three_objectives_take_the_scan(self):
        self._assert_matches_scan(np.random.default_rng(0).normal(size=(40, 3)))

    def test_nan_rows_take_the_scan(self):
        self._assert_matches_scan(np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 0.0]]))

    def test_inf_rows_take_the_scan(self):
        # +inf is a natural sentinel for an infeasible or failed point; it
        # would collide with the sweep's own inf seed and silently drop
        # rows whose second objective is +inf in the lowest first-objective
        # group.
        for objectives in (
            np.array([[1.0, np.inf]]),
            np.array([[1.0, np.inf], [2.0, 3.0]]),
            np.array([[np.inf, np.inf], [np.inf, 1.0], [0.0, 2.0]]),
            np.array([[-np.inf, 1.0], [0.0, -np.inf], [1.0, 1.0]]),
        ):
            self._assert_matches_scan(objectives)

    def test_no_rows_give_an_empty_mask_and_front(self):
        objectives = np.empty((0, 2))
        assert pareto_mask(objectives).shape == (0,)
        assert pareto_front(objectives).shape == (0,)

    def test_only_finite_two_objective_rows_take_the_sweep(self, monkeypatch):
        def refuse(objectives):
            raise AssertionError("wrong path")

        finite = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        monkeypatch.setattr(pareto, "_pareto_mask_scan", refuse)
        assert pareto_mask(finite).tolist() == [True, True, False]
        monkeypatch.undo()
        monkeypatch.setattr(pareto, "_pareto_mask_2d", refuse)
        for objectives in (
            np.empty((0, 2)),
            np.array([[0.0, np.inf], [1.0, 0.0]]),
            np.array([[0.0, 1.0, 2.0]]),
        ):
            pareto_mask(objectives)

    def test_requires_2d_matrix(self):
        with pytest.raises(ValueError):
            pareto_front(np.array([1.0, 2.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 60), st.just(2)),
                   elements=st.floats(-10, 10)),
    )
    def test_exactly_equals_the_scan(self, objectives):
        self._assert_matches_scan(objectives)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                   elements=st.integers(-3, 3).map(float)),
    )
    def test_exactly_equals_the_scan_with_heavy_ties(self, objectives):
        self._assert_matches_scan(objectives)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d(np.array([[0.0, 0.0]]), [1.0, 1.0]) == pytest.approx(1.0)

    def test_two_points(self):
        front = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert hypervolume_2d(front, [1.0, 1.0]) == pytest.approx(0.75)

    def test_points_beyond_reference_ignored(self):
        front = np.array([[2.0, 2.0]])
        assert hypervolume_2d(front, [1.0, 1.0]) == 0.0

    def test_dominated_points_do_not_add_volume(self):
        base = hypervolume_2d(np.array([[0.0, 0.0]]), [1.0, 1.0])
        extended = hypervolume_2d(np.array([[0.0, 0.0], [0.5, 0.5]]), [1.0, 1.0])
        assert extended == pytest.approx(base)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((2, 3)), [1, 1, 1])


class TestToMinimization:
    def test_negates_maximised_columns(self):
        values = np.array([[1.0, 2.0]])
        out = to_minimization(values, [True, False])
        np.testing.assert_allclose(out, [[-1.0, 2.0]])

    def test_flag_length_check(self):
        with pytest.raises(ValueError):
            to_minimization(np.zeros((2, 2)), [True])


class TestCrowdingDistance:
    def test_extremes_are_infinite(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objectives)
        assert np.isinf(distance[0]) and np.isinf(distance[-1])
        assert np.all(np.isfinite(distance[1:-1]))

    def test_empty(self):
        assert crowding_distance(np.empty((0, 2))).size == 0


class TestScreeningCampaign:
    """Screen-then-simulate as a one-workload campaign (``repro dse`` on one workload)."""

    @pytest.fixture(scope="class")
    def engine(self, table1_space, fast_simulator):
        return CampaignEngine(
            table1_space, fast_simulator, ObjectiveSet.from_names(("ipc", "power")), seed=0
        )

    @staticmethod
    def _screen(engine, workload, predictors, pool, budget):
        return engine.run_campaign(
            [workload],
            {workload: CallableSurrogate(predictors)},
            candidate_pool=pool,
            simulation_budget=budget,
        )[workload]

    def test_budget_accounting(self, engine):
        linear = {"ipc": lambda x: x.sum(axis=1), "power": lambda x: x[:, 0]}
        result = self._screen(engine, "625.x264_s", linear, pool=40, budget=10)
        assert result.simulations_used == 10
        assert result.measured_objectives.shape == (10, 2)
        assert result.candidates_screened == 40
        assert len(result.pareto_indices) >= 1

    def test_guided_exploration_with_oracle_predictors(self, engine, fast_simulator, table1_space):
        """With oracle predictors the guided front must beat random search."""
        from repro.designspace.encoding import OrdinalEncoder

        encoder = OrdinalEncoder(table1_space)

        def oracle(metric):
            def predict(features):
                values = []
                for row in features:
                    config = encoder.decode(row)
                    result = fast_simulator.run(config, "625.x264_s")
                    values.append(result.ipc if metric == "ipc" else result.power_w)
                return np.array(values)
            return predict

        guided = self._screen(
            engine,
            "625.x264_s",
            {"ipc": oracle("ipc"), "power": oracle("power")},
            pool=60,
            budget=12,
        )
        assert guided.simulations_used <= 12
        assert guided.candidates_screened == 60
        # The best measured IPC among simulated points should be near the pool's top.
        assert guided.measured_objectives[:, 0].max() > 1.0

    def test_screening_requires_predictors(self):
        with pytest.raises(ValueError):
            CallableSurrogate({})

    def test_pareto_configs_accessor(self, engine):
        linear = {"ipc": lambda x: x[:, 1], "power": lambda x: x[:, 2]}
        result = self._screen(engine, "605.mcf_s", linear, pool=30, budget=6)
        assert len(result.pareto_configs) == len(result.pareto_indices)
        assert result.pareto_objectives.shape[0] == len(result.pareto_indices)
