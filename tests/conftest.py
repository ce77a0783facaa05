"""Shared fixtures: clusters, clients, deterministic RNGs."""

from __future__ import annotations

import os
import random

import pytest

from repro.client.api import FileClient
from repro.testbed import Cluster, build_cluster


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA0EBA)


@pytest.fixture(params=["sim", "disk"])
def disk_backend(request, tmp_path):
    """File-system parametrisation: tests taking this fixture run once with
    the disks on the in-memory kernel (``sim``) and once on real files in
    a tmpdir (``disk``).

    Returns a zero-argument callable producing ``StablePair`` keyword
    arguments; each call hands out a fresh data directory so tests that
    build several pairs don't collide.
    """
    import itertools

    counter = itertools.count(1)

    def kwargs() -> dict:
        if request.param == "sim":
            return {"data_dir": None}
        return {"data_dir": str(tmp_path / f"disk{next(counter)}")}

    return kwargs


@pytest.fixture
def soak_seed() -> int:
    """Seed for the soak/exploration tests.

    Defaults to 1; set ``REPRO_SOAK_SEED=N`` to re-run the deterministic
    suite under a different interleaving (e.g. to bisect a CI failure:
    the failing run prints the exact seed to replay).
    """
    return int(os.environ.get("REPRO_SOAK_SEED", "1"))


@pytest.fixture
def cluster() -> Cluster:
    """A single-server deployment."""
    return build_cluster(servers=1, seed=7)


@pytest.fixture
def cluster2() -> Cluster:
    """A two-server (replicated) deployment."""
    return build_cluster(servers=2, seed=7)


@pytest.fixture
def fs(cluster: Cluster):
    return cluster.fs()


@pytest.fixture
def client(cluster: Cluster) -> FileClient:
    return FileClient(cluster.network, "host0", cluster.service_port)
