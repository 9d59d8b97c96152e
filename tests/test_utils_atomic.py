"""Tests for the shared atomic-publish helper (``repro.utils.atomic``)."""

import os

import pytest

from repro.utils.atomic import write_atomic


def test_replaces_the_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "payload.bin"
    write_atomic(path, b"first")
    write_atomic(path, b"second")
    assert path.read_bytes() == b"second"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("durable, fsyncs", [(True, 1), (False, 0)])
def test_fsyncs_unless_not_durable(tmp_path, monkeypatch, durable, fsyncs):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
    write_atomic(tmp_path / "payload.bin", b"data", durable=durable)
    assert len(calls) == fsyncs


def test_failed_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "payload.bin"
    with pytest.raises(TypeError):
        write_atomic(path, "text, not bytes")
    assert list(tmp_path.iterdir()) == []
