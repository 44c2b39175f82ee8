"""Base stations and user association.

A base station has a position, a transmit power, a carrier bandwidth and a
resource-block budget.  Users associate with the base station offering the
strongest mean SNR (distance-based), which mirrors standard max-RSRP cell
selection and determines which BS each multicast group hangs off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.net.channel import ChannelConfig, ChannelModel


@dataclass
class BaseStationConfig:
    """Static parameters of a base station."""

    tx_power_dbm: float = 43.0
    bandwidth_hz: float = 20e6
    resource_block_bandwidth_hz: float = 180e3
    num_resource_blocks: int = 100

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0 or self.resource_block_bandwidth_hz <= 0:
            raise ValueError("bandwidths must be positive")
        if self.num_resource_blocks <= 0:
            raise ValueError("num_resource_blocks must be positive")


@dataclass
class BaseStation:
    """A cellular base station serving multicast groups."""

    bs_id: int
    position: np.ndarray
    config: BaseStationConfig = field(default_factory=BaseStationConfig)
    channel: Optional[ChannelModel] = None

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (2,):
            raise ValueError("position must be a 2-D coordinate")
        if self.channel is None:
            self.channel = ChannelModel(
                ChannelConfig(bandwidth_hz=self.config.resource_block_bandwidth_hz)
            )

    def distance_to(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=np.float64)
        return float(np.linalg.norm(self.position - point))

    def distances_to(self, points) -> np.ndarray:
        """Euclidean distance to each row of ``points`` (shape ``(n, 2)``)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        dx = points[:, 0] - self.position[0]
        dy = points[:, 1] - self.position[1]
        return np.sqrt(dx * dx + dy * dy)

    def mean_snr_db(self, point: Sequence[float]) -> float:
        """Average SNR a user at ``point`` would see from this BS."""
        assert self.channel is not None
        return self.channel.mean_snr_db(self.config.tx_power_dbm, self.distance_to(point))

    def mean_snr_db_batch(self, points) -> np.ndarray:
        """Vectorized :meth:`mean_snr_db` over ``(n, 2)`` points."""
        assert self.channel is not None
        return self.channel.mean_snr_db_batch(
            self.config.tx_power_dbm, self.distances_to(points)
        )

    def sample_snr_db(self, point: Sequence[float], rng: np.random.Generator) -> float:
        """Instantaneous SNR sample for a user at ``point``."""
        assert self.channel is not None
        return self.channel.sample_snr_db(
            self.config.tx_power_dbm, self.distance_to(point), rng=rng
        )

    def sample_snr_db_batch(self, points, rng: np.random.Generator) -> np.ndarray:
        """Vectorized :meth:`sample_snr_db` over ``(n, 2)`` points (see
        :meth:`repro.net.channel.ChannelModel.sample_snr_db_batch`)."""
        assert self.channel is not None
        return self.channel.sample_snr_db_batch(
            self.config.tx_power_dbm, self.distances_to(points), rng=rng
        )

    def sample_snr_traces(
        self,
        points_block: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One SNR trace per user from a ``(users, times, 2)`` position block.

        Flattens the block row-major, draws the shadowing and fading for
        *all* ``users x times`` samples as two whole-array calls against the
        explicitly supplied ``rng`` and reshapes back to ``(users, times)``.
        This is the interval engine's stage-1 primitive: one call per
        (group, serving station) block, against the group's channel stream.
        """
        block = np.asarray(points_block, dtype=np.float64)
        if block.ndim != 3 or block.shape[-1] != 2:
            raise ValueError("points_block must have shape (users, times, 2)")
        num_users, num_times = block.shape[:2]
        flat = block.reshape(num_users * num_times, 2)
        traces = self.sample_snr_db_batch(flat, rng=rng)
        return traces.reshape(num_users, num_times)


def associate_users(positions, base_stations: Sequence[BaseStation]) -> np.ndarray:
    """Id of the strongest-mean-SNR base station for each of ``(n, 2)`` positions.

    One mean-SNR evaluation per station over all positions; ``argmax`` keeps
    the first best station on ties, as ``max`` over ``base_stations`` would.
    """
    if not base_stations:
        raise ValueError("need at least one base station")
    snr = np.stack([bs.mean_snr_db_batch(positions) for bs in base_stations], axis=1)
    return np.array([bs.bs_id for bs in base_stations])[np.argmax(snr, axis=1)]


def place_base_stations(
    count: int,
    width_m: float,
    height_m: float,
    config: Optional[BaseStationConfig] = None,
) -> List[BaseStation]:
    """Place ``count`` base stations on a regular grid covering the area."""
    if count <= 0:
        raise ValueError("count must be positive")
    if width_m <= 0 or height_m <= 0:
        raise ValueError("area dimensions must be positive")
    config = config if config is not None else BaseStationConfig()
    columns = int(np.ceil(np.sqrt(count)))
    rows = int(np.ceil(count / columns))
    stations: List[BaseStation] = []
    for index in range(count):
        row, column = divmod(index, columns)
        x = (column + 0.5) * width_m / columns
        y = (row + 0.5) * height_m / rows
        stations.append(BaseStation(bs_id=index, position=np.array([x, y]), config=config))
    return stations
