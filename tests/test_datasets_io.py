"""Tests for dataset archive save/load round-tripping."""

from pathlib import Path

import numpy as np
import pytest

from repro.datasets.generation import DSEDataset, WorkloadDataset
from repro.datasets.io import FORMAT_VERSION, load_dataset, save_dataset
from repro.designspace.parameters import categorical
from repro.designspace.space import DesignSpace


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "dataset.npz")
        restored = load_dataset(path)
        assert restored.workloads == small_dataset.workloads
        assert restored.num_points == small_dataset.num_points
        for name in small_dataset.workloads:
            original = small_dataset[name]
            loaded = restored[name]
            assert np.allclose(original.features, loaded.features)
            assert set(original.labels) == set(loaded.labels)
            for metric in original.labels:
                assert np.allclose(original.metric(metric), loaded.metric(metric))
            assert len(loaded.configs) == len(original.configs)
            assert loaded.configs[0] == original.configs[0]

    def test_roundtrip_without_configs(self, small_dataset, tmp_path):
        stripped = DSEDataset(
            space=small_dataset.space,
            per_workload={
                name: WorkloadDataset(
                    workload=name,
                    features=data.features,
                    labels=dict(data.labels),
                    configs=[],
                )
                for name, data in small_dataset.per_workload.items()
            },
        )
        path = save_dataset(stripped, tmp_path / "no_configs.npz")
        restored = load_dataset(path)
        assert restored["605.mcf_s"].configs == []
        assert np.allclose(
            restored["605.mcf_s"].features, small_dataset["605.mcf_s"].features
        )

    def test_save_creates_parent_directories(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "nested" / "deep" / "data.npz")
        assert path.exists()

    def test_suffix_is_appended_and_returned(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "dataset")
        assert path == tmp_path / "dataset.npz"
        assert load_dataset(path).workloads == small_dataset.workloads

    def test_interrupted_save_keeps_the_previous_archive(
        self, small_dataset, tmp_path, monkeypatch
    ):
        path = save_dataset(small_dataset, tmp_path / "dataset.npz")
        before = path.read_bytes()

        def torn_savez_compressed(file, **arrays):
            # Write part of an archive, then fail as a killed or full-disk
            # save would.
            if hasattr(file, "write"):
                file.write(b"PK\x03\x04 partial archive")
            else:
                Path(file).write_bytes(b"PK\x03\x04 partial archive")
            raise OSError("interrupted")

        monkeypatch.setattr(np, "savez_compressed", torn_savez_compressed)
        with pytest.raises(OSError, match="interrupted"):
            save_dataset(small_dataset, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.npz"]

    def test_loaded_dataset_feeds_the_existing_pipeline(self, small_dataset, tmp_path):
        from repro.datasets.tasks import TaskSampler

        path = save_dataset(small_dataset, tmp_path / "pipeline.npz")
        restored = load_dataset(path)
        sampler = TaskSampler(restored, support_size=5, query_size=10, seed=0)
        task = sampler.sample_task("605.mcf_s")
        assert task.support_x.shape == (5, restored.space.num_parameters)


class TestErrors:
    def test_empty_dataset_refused(self, small_dataset, tmp_path):
        empty = DSEDataset(space=small_dataset.space, per_workload={})
        with pytest.raises(ValueError):
            save_dataset(empty, tmp_path / "empty.npz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "does_not_exist.npz")

    def test_space_mismatch_is_detected(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "mismatch.npz")
        other_space = DesignSpace(
            [categorical("only_parameter", "a lone knob", (1, 2, 3))], name="tiny"
        )
        with pytest.raises(ValueError):
            load_dataset(path, space=other_space)

    def test_version_mismatch_is_detected(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "versioned.npz")
        archive = dict(np.load(path, allow_pickle=False))
        archive["format_version"] = np.array([FORMAT_VERSION + 1], dtype=np.int64)
        np.savez_compressed(path, **archive)
        with pytest.raises(ValueError):
            load_dataset(path)
