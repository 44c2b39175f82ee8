"""Shared pytest fixtures.

Fixtures build the small, fast objects most tests need: a deterministic RNG,
a small video catalog, a campus map, a populated digital-twin manager and a
tiny simulator.  Everything is seeded so the suite is reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility import CampusConfig, CampusMap
from repro.sim import SimulationConfig, StreamingSimulator
from repro.video import CatalogConfig, VideoCatalog


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_catalog() -> VideoCatalog:
    """A 30-video catalog shared across the session (it is never mutated)."""
    return VideoCatalog.generate(CatalogConfig(num_videos=30, seed=7))


@pytest.fixture(scope="session")
def campus() -> CampusMap:
    """A small campus graph shared across the session."""
    return CampusMap.generate(CampusConfig(num_buildings=10), seed=3)


@pytest.fixture
def tiny_sim_config() -> SimulationConfig:
    """A simulation configuration small enough for per-test use."""
    return SimulationConfig(
        num_users=8,
        num_videos=25,
        interval_s=60.0,
        num_base_stations=2,
        campus=CampusConfig(num_buildings=8),
        seed=11,
    )


@pytest.fixture
def tiny_simulator(tiny_sim_config) -> StreamingSimulator:
    return StreamingSimulator(tiny_sim_config)


@pytest.fixture
def populated_simulator(tiny_simulator) -> StreamingSimulator:
    """A simulator that has already run one interval (twins populated)."""
    grouping = {0: tiny_simulator.user_ids()[:4], 1: tiny_simulator.user_ids()[4:]}
    tiny_simulator.run_interval(grouping)
    return tiny_simulator
