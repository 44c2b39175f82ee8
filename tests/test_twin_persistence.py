"""Unit tests for digital-twin persistence (serialisation round-trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.behavior import WatchRecord
from repro.twin import (
    DigitalTwinManager,
    TimeSeriesStore,
    UserDigitalTwin,
    load_manager,
    manager_from_dict,
    manager_to_dict,
    save_manager,
    standard_attributes,
    twin_from_dict,
    twin_to_dict,
)
from repro.twin.attributes import CHANNEL_CONDITION, LOCATION, PREFERENCE
from repro.twin.persistence import store_from_dict, store_to_dict


def make_twin(user_id: int = 3) -> UserDigitalTwin:
    twin = UserDigitalTwin(user_id, attributes=standard_attributes(num_categories=4))
    twin.record_batch(CHANNEL_CONDITION, [0.0, 1.0], [[11.5], [12.5]])
    twin.record_batch(LOCATION, [0.0], [[100.0, 200.0]])
    twin.record_batch(PREFERENCE, [0.0], [[0.4, 0.3, 0.2, 0.1]])
    twin.record_watches(
        [WatchRecord(user_id, 7, "News", 4.0, 10.0, swiped=True, timestamp_s=2.0)]
    )
    return twin


class TestStoreRoundTrip:
    def test_values_and_timestamps_preserved(self):
        store = TimeSeriesStore(dimension=2)
        store.append_batch([0.0, 1.5], [[1.0, 2.0], [3.0, 4.0]])
        restored = store_from_dict(store_to_dict(store))
        np.testing.assert_allclose(restored.timestamps(), store.timestamps())
        np.testing.assert_allclose(restored.values(), store.values())
        assert restored.dimension == 2

    def test_empty_store_roundtrip(self):
        store = TimeSeriesStore(dimension=3)
        restored = store_from_dict(store_to_dict(store))
        assert len(restored) == 0
        assert restored.dimension == 3


class TestTwinRoundTrip:
    def test_twin_roundtrip_preserves_everything(self):
        twin = make_twin()
        restored = twin_from_dict(twin_to_dict(twin))
        assert restored.user_id == twin.user_id
        assert set(restored.attributes) == set(twin.attributes)
        np.testing.assert_allclose(
            restored.store(CHANNEL_CONDITION).values(),
            twin.store(CHANNEL_CONDITION).values(),
        )
        assert restored.watch_records() == twin.watch_records()

    def test_feature_matrix_identical_after_roundtrip(self):
        twin = make_twin()
        restored = twin_from_dict(twin_to_dict(twin))
        original = twin.feature_matrix(0.0, 10.0, num_steps=8)
        rebuilt = restored.feature_matrix(0.0, 10.0, num_steps=8)
        np.testing.assert_allclose(rebuilt, original)


class TestManagerRoundTrip:
    def make_manager(self) -> DigitalTwinManager:
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=4))
        for uid in range(3):
            twin = manager.register_user(uid)
            twin.record_batch(CHANNEL_CONDITION, [0.0], [[float(uid)]])
            twin.record_watches(
                [WatchRecord(uid, uid + 10, "Music", 2.0, 8.0, swiped=True, timestamp_s=1.0)]
            )
        return manager

    def test_dict_roundtrip(self):
        manager = self.make_manager()
        restored = manager_from_dict(manager_to_dict(manager))
        assert restored.user_ids() == manager.user_ids()
        for uid in manager.user_ids():
            np.testing.assert_allclose(
                restored.twin(uid).store(CHANNEL_CONDITION).values(),
                manager.twin(uid).store(CHANNEL_CONDITION).values(),
            )
        assert len(restored.watch_records()) == len(manager.watch_records())

    def test_file_roundtrip(self, tmp_path):
        manager = self.make_manager()
        path = save_manager(manager, tmp_path / "twins.json")
        restored = load_manager(path)
        assert restored.user_ids() == manager.user_ids()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manager(tmp_path / "missing.json")

    def test_roundtrip_from_simulation(self, populated_simulator, tmp_path):
        """Twins filled by the simulator survive a save/load cycle."""
        manager = populated_simulator.twins
        path = save_manager(manager, tmp_path / "sim_twins.json")
        restored = load_manager(path)
        assert restored.user_ids() == manager.user_ids()
        uid = manager.user_ids()[0]
        assert len(restored.twin(uid).watch_records()) == len(
            manager.twin(uid).watch_records()
        )
