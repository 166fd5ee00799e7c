"""Shared fixtures: world configs and a session-wide simulation campaign."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from tandem import cli
from tandem.config import load_world_config, make_world_config


@pytest.fixture(scope="session")
def default_config():
    return load_world_config()


@pytest.fixture(scope="session")
def quiet_config():
    """Default workcell with all duration noise disabled."""
    tasks = {task_id: {"cv": 0.0} for task_id in load_world_config().tasks}
    return make_world_config({"tasks": tasks})


@pytest.fixture
def file_reads(monkeypatch):
    """Paths read with Path.read_bytes during the test, one entry per read."""
    paths = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        paths.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    return paths


@pytest.fixture(scope="session")
def campaign(tmp_path_factory):
    """One 50-plan campaign with estimates, exactly as the CLI runs it.

    Returns the store path plus the wall-clock seconds the simulate and
    estimate commands took together.
    """
    store = tmp_path_factory.mktemp("campaign")
    t0 = time.monotonic()
    assert cli.main(["simulate", "--plans", "50", "--seed", "1", "--store", str(store)]) == 0
    assert cli.main(["estimate", "--store", str(store)]) == 0
    elapsed = time.monotonic() - t0
    return store, elapsed
