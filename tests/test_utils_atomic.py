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


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_published_file_gets_the_mode_open_would_give(tmp_path, umask, mode):
    path = tmp_path / "payload.bin"
    previous = os.umask(umask)
    try:
        write_atomic(path, b"data")
        replaced = tmp_path / "replaced.bin"
        replaced.write_bytes(b"old")
        replaced.chmod(0o600 if mode == 0o644 else 0o644)
        write_atomic(replaced, b"new")
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == mode
    # Replacing a file does not inherit its old mode either.
    assert replaced.stat().st_mode & 0o777 == mode
