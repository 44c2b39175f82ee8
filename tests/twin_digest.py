"""One sha256 over every twin's contents, shared by the twin-content pins.

A playback run's ``RunResult`` export holds no twin data, so its digest
cannot see a collection change; this hash can.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.twin.manager import DigitalTwinManager


def twin_contents_sha256(twins: DigitalTwinManager) -> str:
    """sha256 of every twin's attribute stores and watch records."""
    digest = hashlib.sha256()
    for uid in twins.user_ids():
        twin = twins.twin(uid)
        digest.update(f"user {uid}".encode())
        for name in sorted(twin.attributes):
            store = twin.store(name)
            digest.update(name.encode())
            digest.update(store.timestamps().tobytes())
            digest.update(store.values().tobytes())
        for record in twin.watch_records():
            digest.update(repr(dataclasses.astuple(record)).encode())
    return digest.hexdigest()
