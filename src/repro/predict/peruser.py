"""Per-user (unicast) demand prediction baseline.

The ablation "group-based vs per-user prediction" needs a predictor that
ignores multicast grouping entirely: every user is served by their own
unicast stream and their demand is predicted from their own digital-twin
data only.  Summing the per-user predictions gives the total radio demand
this strategy would reserve — typically far above the multicast figure,
because shared transmissions are not exploited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.net.mcs import spectral_efficiency
from repro.net.multicast import resource_blocks_for_traffic
from repro.numeric import ordered_sum
from repro.sim.config import SimulationConfig
from repro.twin.attributes import CHANNEL_CONDITION
from repro.twin.manager import DigitalTwinManager
from repro.video.catalog import VideoCatalog


@dataclass
class PerUserPrediction:
    """Predicted unicast demand of a single user for the next interval."""

    user_id: int
    expected_videos: float
    expected_traffic_bits: float
    resource_blocks: float
    efficiency_bps_hz: float


class PerUserDemandPredictor:
    """Predicts each user's unicast radio demand from their own twin.

    The link, interval and viewing settings are the simulator's own
    (``sim_config``), as for the group predictor.
    """

    def __init__(self, catalog: VideoCatalog, sim_config: SimulationConfig) -> None:
        self.catalog = catalog
        self.sim_config = sim_config

    def predict_user(
        self,
        user_id: int,
        twins: DigitalTwinManager,
        start_s: float,
        end_s: float,
    ) -> PerUserPrediction:
        """Predict one user's next-interval unicast demand from window ``[start, end)``."""
        config = self.sim_config
        twin = twins.twin(user_id)
        records = twin.watch_records(start_s, end_s)

        # Radio link: mean of the user's recent channel-condition samples.
        snr_samples = twin.store(CHANNEL_CONDITION).window_values(start_s, end_s)
        mean_snr = float(snr_samples.mean()) if snr_samples.size else 0.0
        efficiency = spectral_efficiency(mean_snr, implementation_loss=config.implementation_loss)
        ladder = self.catalog.reference_ladder()
        representation = ladder.best_fitting(efficiency * config.stream_bandwidth_hz)

        # Behaviour: mean watch duration and mean bits per watched video.
        if records:
            mean_watch = float(np.mean([r.watch_duration_s for r in records]))
            mean_bits = float(
                np.mean(
                    [
                        self.catalog.get(r.video_id).bits_watched(
                            representation, r.watch_duration_s
                        )
                        for r in records
                        if r.video_id in self.catalog
                    ]
                )
            )
        else:
            mean_watch = 10.0
            mean_bits = representation.bits_for_duration(mean_watch)

        slot = max(mean_watch + config.swipe_gap_s, 1e-3)
        expected_videos = config.interval_s / slot
        traffic = expected_videos * mean_bits
        blocks = resource_blocks_for_traffic(
            traffic,
            efficiency,
            rb_bandwidth_hz=config.rb_bandwidth_hz,
            interval_s=config.interval_s,
        )
        return PerUserPrediction(
            user_id=user_id,
            expected_videos=expected_videos,
            expected_traffic_bits=traffic,
            resource_blocks=blocks,
            efficiency_bps_hz=efficiency,
        )

    def predict_all(
        self, twins: DigitalTwinManager, start_s: float, end_s: float
    ) -> Dict[int, PerUserPrediction]:
        return {
            uid: self.predict_user(uid, twins, start_s, end_s) for uid in twins.user_ids()
        }

    def total_resource_blocks(self, predictions: Dict[int, PerUserPrediction]) -> float:
        finite = [p.resource_blocks for p in predictions.values() if np.isfinite(p.resource_blocks)]
        return float(ordered_sum(finite))
