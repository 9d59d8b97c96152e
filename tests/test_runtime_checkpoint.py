"""Tests for campaign checkpoints and resumable campaigns."""

import json
import os
from functools import partial

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.dse.engine import CampaignEngine, ObjectiveSet
from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    CheckpointMismatchError,
    RoundRecord,
    campaign_fingerprint,
)
from repro.runtime.dag import JobFailedError
from repro.runtime.executors import SerialExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s")

CAMPAIGN = dict(
    candidate_pool=30,
    simulation_budget=4,
    rounds=3,
    initial_samples=4,
    refit=True,
)


def make_engine(seed=5) -> CampaignEngine:
    simulator = Simulator(simpoint_phases=2, seed=11, evaluation_cache=True)
    return CampaignEngine(
        simulator.space,
        simulator,
        ObjectiveSet.from_names(("ipc", "power")),
        seed=seed,
    )


def surrogates():
    factory = partial(GradientBoostingRegressor, n_estimators=5, max_depth=2, seed=2)
    return {
        workload: TreeEnsembleSurrogate(factory, ("ipc", "power"))
        for workload in WORKLOADS
    }


def _sum_features(features):
    return features.sum(axis=1)


def _sum_squares(features):
    return (features ** 2).sum(axis=1)


def callable_surrogates():
    return {
        workload: CallableSurrogate(
            {"ipc": _sum_features, "power": _sum_squares}
        )
        for workload in WORKLOADS
    }


def fingerprint(**overrides):
    payload = dict(
        workloads=list(WORKLOADS),
        objective_names=("ipc", "power"),
        maximize=(True, False),
        simulation_budget=4,
        rounds=3,
        initial_samples=4,
        refit=True,
        generator="RandomPool(size=30)",
        acquisition="ParetoRankAcquisition",
        surrogates={workload: "TreeEnsembleSurrogate" for workload in WORKLOADS},
    )
    payload.update(overrides)
    return campaign_fingerprint(**payload)


class TestCheckpointFile:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint.resume_or_start(path, fingerprint())
        record = RoundRecord(
            round_index=0,
            union_configs=[{"core_frequency_ghz": 2.0, "branch_predictor": "TournamentBP"}],
            selections={workload: [0] for workload in WORKLOADS},
            measured={
                workload: np.array([[0.1234567890123456789, 3.3e-7]])
                for workload in WORKLOADS
            },
        )
        checkpoint.record_round(record)

        loaded = CampaignCheckpoint.resume_or_start(path, fingerprint())
        assert len(loaded.rounds) == 1
        restored = loaded.rounds[0]
        assert restored.round_index == 0
        assert restored.union_configs == record.union_configs
        assert restored.selections == record.selections
        for workload in WORKLOADS:
            # JSON round-trips finite float64 exactly — bitwise, not approx.
            np.testing.assert_array_equal(
                restored.measured[workload], record.measured[workload]
            )

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "campaign.json"
        CampaignCheckpoint.resume_or_start(path, fingerprint()).write()
        with pytest.raises(CheckpointMismatchError, match="different campaign"):
            CampaignCheckpoint.resume_or_start(path, fingerprint(rounds=7))

    def test_version_one_file_is_refused(self, tmp_path):
        # Version 1 ordered a shared pool's union by pool index; its rows
        # would still pass the replay check but resume in the wrong order.
        path = tmp_path / "campaign.json"
        CampaignCheckpoint.resume_or_start(path, fingerprint()).write()
        payload = json.loads(path.read_text())
        assert payload["version"] == CHECKPOINT_VERSION == 2
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointMismatchError, match="version 1 != 2"):
            CampaignCheckpoint.resume_or_start(path, fingerprint())

    def test_missing_file_starts_fresh(self, tmp_path):
        checkpoint = CampaignCheckpoint.resume_or_start(
            tmp_path / "absent.json", fingerprint()
        )
        assert checkpoint.rounds == []

    def test_corrupt_file_raises_mismatch_not_a_raw_traceback(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("this is not json {")
        with pytest.raises(CheckpointMismatchError, match="campaign checkpoint"):
            CampaignCheckpoint.resume_or_start(path, fingerprint())
        # OS-level failures (e.g. the path is a directory) too.
        with pytest.raises(CheckpointMismatchError, match="campaign checkpoint"):
            CampaignCheckpoint.resume_or_start(tmp_path, fingerprint())
        # Valid JSON but not a checkpoint: still the mismatch error.
        path.write_text('{"version": %d, "fingerprint": %s, "rounds": [{}]}'
                        % (CHECKPOINT_VERSION, json.dumps(fingerprint())))
        with pytest.raises(CheckpointMismatchError, match="malformed"):
            CampaignCheckpoint.resume_or_start(path, fingerprint())

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint.resume_or_start(path, fingerprint())
        checkpoint.write()
        # The temporary file was renamed into place: nothing else is left.
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_rename_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint.resume_or_start(path, fingerprint())
        checkpoint.write()
        before = path.read_bytes()

        def failing_replace(source, target):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            checkpoint.record_round(
                RoundRecord(
                    round_index=-1,
                    union_configs=[],
                    selections={workload: [] for workload in WORKLOADS},
                    measured={workload: np.empty((0, 2)) for workload in WORKLOADS},
                )
            )
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestResumableCampaign:
    def _interrupt_after(self, engine, sweeps_before_failure):
        """Make the engine's simulator fail its Nth ``run_sweep`` call."""
        state = {"calls": 0}
        original = engine.simulator.run_sweep

        def failing_run_sweep(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] > sweeps_before_failure:
                raise ConnectionError("simulated crash")
            return original(*args, **kwargs)

        engine.simulator.run_sweep = failing_run_sweep

    def test_interrupted_campaign_resumes_bitwise_identical(self, tmp_path):
        checkpoint = tmp_path / "campaign.json"
        uninterrupted = make_engine().run_campaign(
            WORKLOADS, surrogates(), executor=SerialExecutor(), **CAMPAIGN
        )

        # Kill the campaign after the initial-sample sweep and round 0's
        # union sweep: rounds -1 and 0 are checkpointed, round 1 dies.
        interrupted = make_engine()
        self._interrupt_after(interrupted, sweeps_before_failure=2)
        with pytest.raises(JobFailedError, match="measure@round1") as info:
            interrupted.run_campaign(
                WORKLOADS,
                surrogates(),
                executor=SerialExecutor(),
                checkpoint=checkpoint,
                **CAMPAIGN,
            )
        assert isinstance(info.value.__cause__, ConnectionError)
        persisted = CampaignCheckpoint.resume_or_start(
            checkpoint, _any_fingerprint(checkpoint)
        )
        assert [record.round_index for record in persisted.rounds] == [-1, 0]

        # A fresh engine (same seed) resumes from the checkpoint and ends
        # bitwise identical to the uninterrupted campaign.
        resumed = make_engine().run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                uninterrupted[workload].measured_objectives,
                resumed[workload].measured_objectives,
            )
            assert (
                uninterrupted[workload].selected_indices
                == resumed[workload].selected_indices
            )
            assert (
                uninterrupted[workload].hypervolume_history()
                == resumed[workload].hypervolume_history()
            )
            assert (
                uninterrupted[workload].simulated_configs
                == resumed[workload].simulated_configs
            )
            np.testing.assert_array_equal(
                uninterrupted[workload].predicted, resumed[workload].predicted
            )
        assert uninterrupted.total_simulations == resumed.total_simulations

    def test_completed_campaign_rebuilds_from_checkpoint_without_simulating(
        self, tmp_path
    ):
        checkpoint = tmp_path / "campaign.json"
        first = make_engine().run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        # Re-running the finished campaign replays sampling only: the
        # simulator is never invoked again.
        engine = make_engine()
        self._interrupt_after(engine, sweeps_before_failure=0)
        rebuilt = engine.run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                first[workload].measured_objectives,
                rebuilt[workload].measured_objectives,
            )
            # The final round's screening is re-run (simulation-free), so
            # even `predicted` survives a full-checkpoint rebuild.
            np.testing.assert_array_equal(
                first[workload].predicted, rebuilt[workload].predicted
            )
            assert (
                first[workload].selected_indices
                == rebuilt[workload].selected_indices
            )

    def test_resume_with_a_different_seed_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "campaign.json"
        make_engine(seed=5).run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        # A different engine seed produces different initial samples; the
        # replay cross-check refuses to mix the streams.
        with pytest.raises(CheckpointMismatchError, match="same seed"):
            make_engine(seed=99).run_campaign(
                WORKLOADS,
                surrogates(),
                executor=SerialExecutor(),
                checkpoint=checkpoint,
                **CAMPAIGN,
            )

    def test_wrong_seed_rejected_for_default_single_round_shape(self, tmp_path):
        # The default campaign shape (rounds=1, no initial samples — what
        # MetaDSE.explore and the CLI produce) has no initial-sample check
        # to fall back on; the per-round pool replay cross-check must catch
        # the wrong seed on its own.
        checkpoint = tmp_path / "campaign.json"
        kwargs = dict(candidate_pool=30, simulation_budget=4)
        make_engine(seed=5).run_campaign(
            WORKLOADS,
            callable_surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **kwargs,
        )
        with pytest.raises(CheckpointMismatchError, match="same seed"):
            make_engine(seed=99).run_campaign(
                WORKLOADS,
                callable_surrogates(),
                executor=SerialExecutor(),
                checkpoint=checkpoint,
                **kwargs,
            )

    def test_resume_with_different_acquisition_is_rejected(self, tmp_path):
        from repro.dse.acquisition import GreedyTopK

        checkpoint = tmp_path / "campaign.json"
        make_engine().run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        # Resuming under a different acquisition policy would mix policies
        # across rounds; the fingerprint names the strategy and refuses.
        with pytest.raises(CheckpointMismatchError):
            make_engine().run_campaign(
                WORKLOADS,
                surrogates(),
                acquisition=GreedyTopK(),
                executor=SerialExecutor(),
                checkpoint=checkpoint,
                **CAMPAIGN,
            )

    def test_noisy_simulator_rejected_for_checkpointed_campaigns(self, tmp_path):
        # Resume restores measurements without replaying the noise RNG
        # stream, so a checkpointed noisy campaign could silently diverge
        # from an uninterrupted one; the driver fails fast instead.
        noisy = Simulator(simpoint_phases=1, noise_std=0.05, seed=1)
        from repro.dse.engine import CampaignEngine as Engine

        engine = Engine(
            noisy.space,
            noisy,
            make_engine().objectives,
            seed=5,
        )
        with pytest.raises(ValueError, match="noise-free"):
            engine.run_campaign(
                WORKLOADS,
                callable_surrogates(),
                executor=SerialExecutor(),
                checkpoint=tmp_path / "campaign.json",
                candidate_pool=20,
                simulation_budget=3,
            )

    def test_resume_with_different_spec_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "campaign.json"
        make_engine().run_campaign(
            WORKLOADS,
            surrogates(),
            executor=SerialExecutor(),
            checkpoint=checkpoint,
            **CAMPAIGN,
        )
        different = dict(CAMPAIGN, simulation_budget=9)
        with pytest.raises(CheckpointMismatchError):
            make_engine().run_campaign(
                WORKLOADS,
                surrogates(),
                executor=SerialExecutor(),
                checkpoint=checkpoint,
                **different,
            )


def _any_fingerprint(path):
    """Read the fingerprint stored in a checkpoint file."""
    import json

    with open(path) as handle:
        return json.load(handle)["fingerprint"]
