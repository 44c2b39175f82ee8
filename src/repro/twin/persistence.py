"""Digital-twin persistence.

Digital twins live on the edge server, but edge servers restart and users
hand over between edge sites; in both cases the twin state (attribute time
series, watch records) must be serialised and restored.  This module
round-trips twins and whole twin registries through plain dictionaries /
JSON files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.twin.attributes import AttributeSpec
from repro.twin.manager import DigitalTwinManager
from repro.twin.timeseries import TimeSeriesStore
from repro.twin.udt import UserDigitalTwin


# ------------------------------------------------------------------ building blocks
def attribute_to_dict(spec: AttributeSpec) -> dict:
    return {
        "name": spec.name,
        "dimension": spec.dimension,
        "collection_period_s": spec.collection_period_s,
        "description": spec.description,
    }


def attribute_from_dict(data: dict) -> AttributeSpec:
    return AttributeSpec(
        name=str(data["name"]),
        dimension=int(data["dimension"]),
        collection_period_s=float(data["collection_period_s"]),
        description=str(data.get("description", "")),
    )


def store_to_dict(store: TimeSeriesStore) -> dict:
    return {
        "dimension": store.dimension,
        "timestamps": store.timestamps().tolist(),
        "values": store.values().tolist(),
    }


def _samples(data: dict) -> tuple:
    """``(timestamps, values)`` of a store serialised by :func:`store_to_dict`."""
    values = np.asarray(data.get("values", []), dtype=np.float64)
    return data.get("timestamps", []), values.reshape(-1, int(data["dimension"]))


def store_from_dict(data: dict) -> TimeSeriesStore:
    store = TimeSeriesStore(dimension=int(data["dimension"]))
    store.append_batch(*_samples(data))
    return store


def watch_record_to_dict(record: WatchRecord) -> dict:
    return {
        "user_id": record.user_id,
        "video_id": record.video_id,
        "category": record.category,
        "watch_duration_s": record.watch_duration_s,
        "video_duration_s": record.video_duration_s,
        "swiped": record.swiped,
        "timestamp_s": record.timestamp_s,
    }


def watch_record_from_dict(data: dict) -> WatchRecord:
    return WatchRecord(
        user_id=int(data["user_id"]),
        video_id=int(data["video_id"]),
        category=str(data["category"]),
        watch_duration_s=float(data["watch_duration_s"]),
        video_duration_s=float(data["video_duration_s"]),
        swiped=bool(data["swiped"]),
        timestamp_s=float(data.get("timestamp_s", 0.0)),
    )


# --------------------------------------------------------------------------- twins
def twin_to_dict(twin: UserDigitalTwin) -> dict:
    """Serialise one user digital twin (attributes, time series, watch records)."""
    return {
        "user_id": twin.user_id,
        "attributes": {name: attribute_to_dict(spec) for name, spec in twin.attributes.items()},
        "stores": {name: store_to_dict(twin.store(name)) for name in twin.attributes},
        "watch_records": [watch_record_to_dict(record) for record in twin.watch_records()],
    }


def twin_from_dict(data: dict) -> UserDigitalTwin:
    """Rebuild a user digital twin serialised by :func:`twin_to_dict`."""
    attributes = {
        name: attribute_from_dict(spec) for name, spec in data.get("attributes", {}).items()
    }
    twin = UserDigitalTwin(int(data["user_id"]), attributes=attributes)
    for name, store_data in data.get("stores", {}).items():
        twin.record_batch(name, *_samples(store_data))
    # Watch records are re-attached directly: the mirrored watching-duration
    # series was restored with the other stores, so bypass record_watches.
    twin._watch_records.extend(
        watch_record_from_dict(record) for record in data.get("watch_records", [])
    )
    return twin


# ------------------------------------------------------------------------- manager
def manager_to_dict(manager: DigitalTwinManager) -> dict:
    """Serialise a whole twin registry."""
    return {
        "attributes": {
            name: attribute_to_dict(spec) for name, spec in manager.attributes.items()
        },
        "twins": [manager_twin for manager_twin in (
            twin_to_dict(manager.twin(uid)) for uid in manager.user_ids()
        )],
    }


def manager_from_dict(data: dict) -> DigitalTwinManager:
    attributes = {
        name: attribute_from_dict(spec) for name, spec in data.get("attributes", {}).items()
    }
    manager = DigitalTwinManager(attributes=attributes or None)
    for twin_data in data.get("twins", []):
        twin = twin_from_dict(twin_data)
        manager._twins[twin.user_id] = twin
    return manager


def save_manager(manager: DigitalTwinManager, path: Union[str, Path]) -> Path:
    """Write a twin registry to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(manager_to_dict(manager), handle)
    return path


def load_manager(path: Union[str, Path]) -> DigitalTwinManager:
    """Load a twin registry previously written by :func:`save_manager`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"twin snapshot {path} does not exist")
    with path.open("r", encoding="utf-8") as handle:
        return manager_from_dict(json.load(handle))
