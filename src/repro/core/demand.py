"""Group-based radio and computing resource demand prediction.

From each multicast group's abstracted information — swiping-probability
distribution, mean watched fractions, mean preference, recent channel
conditions — the predictor estimates what the group will consume in the
*next* reservation interval:

* **Radio demand**: expected multicast traffic (bits) divided by what one
  resource block carries at the group's predicted spectral efficiency.
* **Computing demand**: CPU cycles to transcode the expected stream down to
  the representation the group can sustain.

The expectation is computed by Monte-Carlo rollout of the group's shared
stream using only the abstracted group-level statistics (never the
individual users' ground-truth behaviour models), which is the paper's
"analyze multicast groups' average engagement time, video traffic, and
computing consumption" step made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import SchemeConfig
from repro.core.swiping import GroupSwipingProfile
from repro.edge.transcoding import TranscodingCostModel
from repro.net.mcs import spectral_efficiency
from repro.net.multicast import resource_blocks_for_traffic
from repro.numeric import ordered_sum
from repro.sim.config import SimulationConfig
from repro.sim.rng import derive_stream, window_token
from repro.twin.attributes import CHANNEL_CONDITION
from repro.twin.manager import DigitalTwinManager
from repro.video.catalog import VideoCatalog
from repro.video.popularity import sample_index, sampling_cdf


@dataclass
class GroupDemandPrediction:
    """Predicted next-interval demand of one multicast group."""

    group_id: int
    member_ids: List[int]
    expected_traffic_bits: float
    expected_engagement_s: float
    expected_videos: float
    radio_resource_blocks: float
    computing_cycles: float
    efficiency_bps_hz: float
    representation_name: str


#: Concentration ``alpha + beta`` of the Beta law a rollout draws each
#: swiping member's watched fraction from, around the group's mean.
BETA_CONCENTRATION = 4.0


class GroupDemandPredictor:
    """Predicts per-group radio and computing demand from abstracted group info.

    The link, interval, viewing and transcoding settings are the
    simulator's own (``sim_config``, whose ``edge_server`` gives the
    cycles per pixel), so the prediction models the network it predicts.
    ``scheme_config`` gives the number of Monte-Carlo rollouts and the
    seed their streams derive from.
    """

    def __init__(
        self,
        catalog: VideoCatalog,
        sim_config: SimulationConfig,
        scheme_config: SchemeConfig,
    ) -> None:
        self.catalog = catalog
        self.sim_config = sim_config
        self.scheme_config = scheme_config
        self.transcoder = TranscodingCostModel(
            cycles_per_pixel=sim_config.edge_server.cycles_per_pixel
        )

    def _rollout_rng(
        self, group_id: int, window_start_s: Optional[float]
    ) -> np.random.Generator:
        """Deterministic per-call generator derived from ``(seed, group, window)``.

        Drawing every group's rollouts from one shared generator would make a
        group's prediction depend on how many groups were predicted before
        it; a per-call generator keyed on the group and window makes
        predictions order-independent and reproducible.  The derivation
        goes through :mod:`repro.sim.rng` — the same canonical
        ``SeedSequence`` registry the grouped simulation engine keys its
        playback streams from — with the historical ``(seed, group,
        window)`` entropy preserved word-for-word, so existing rollout
        streams are unchanged.
        """
        return derive_stream(
            (self.scheme_config.seed, group_id, window_token(window_start_s))
        )

    # ---------------------------------------------------------- link state
    def predict_link_state(
        self,
        member_ids: Sequence[int],
        twins: DigitalTwinManager,
        start_s: Optional[float],
        end_s: Optional[float],
    ) -> tuple:
        """``(efficiency, representation)`` predicted from recent channel conditions.

        Each member's channel is the mean of their channel-condition samples
        in ``[start_s, end_s)``, or of all their samples when the window
        holds none (or is not given), 0 dB without samples; the group's is
        the worst member's.  The means are gathered from the twin tables for
        the whole group at once.
        """
        ids = np.asarray(member_ids, dtype=np.int64)
        windowed = start_s is not None and end_s is not None
        if windowed:
            means, counts = twins.window_means(CHANNEL_CONDITION, ids, start_s, end_s)
            empty = counts == 0
            if empty.any():
                means[empty] = twins.window_means(CHANNEL_CONDITION, ids[empty])[0]
        else:
            means = twins.window_means(CHANNEL_CONDITION, ids)[0]
        worst = float(means.min()) if means.size else 0.0
        efficiency = spectral_efficiency(
            worst, implementation_loss=self.sim_config.implementation_loss
        )
        ladder = self.catalog.reference_ladder()
        representation = ladder.best_fitting(efficiency * self.sim_config.stream_bandwidth_hz)
        return efficiency, representation

    # ----------------------------------------------------------- behaviour
    def _swiped_fraction_mean(self, profile: GroupSwipingProfile, category: str) -> float:
        """Mean watched fraction conditioned on swiping, derived from the profile.

        The profile stores the overall mean fraction ``f`` and the swipe
        probability ``p``; since completed viewings have fraction 1,
        ``f = (1 - p) + p * f_swiped`` and therefore
        ``f_swiped = (f - (1 - p)) / p``.
        """
        p = profile.swipe_probability.get(category, 0.5)
        f = profile.mean_watched_fraction.get(category, 0.5)
        if p <= 1e-6:
            return 0.5
        swiped = (f - (1.0 - p)) / p
        return float(min(max(swiped, 0.05), 0.95))

    def _rollout(
        self,
        profile: GroupSwipingProfile,
        video_ids: np.ndarray,
        cumulative_probabilities: np.ndarray,
        representation,
        rng: np.random.Generator,
    ) -> tuple:
        """One Monte-Carlo rollout of the group's shared stream for one interval."""
        config = self.sim_config
        group_size = len(profile.member_ids)
        kappa = BETA_CONCENTRATION

        now = 0.0
        traffic = 0.0
        cycles = 0.0
        engagement = 0.0
        videos = 0
        while now < config.interval_s:
            # Inverse-CDF draw against the precomputed cumulative distribution
            # (rng.choice re-validates the probability vector on every call).
            video = self.catalog.get(int(video_ids[sample_index(cumulative_probabilities, rng)]))
            category = video.category
            p_swipe = profile.swipe_probability.get(category, 0.5)
            swiped_mean = self._swiped_fraction_mean(profile, category)
            alpha = swiped_mean * kappa
            beta = (1.0 - swiped_mean) * kappa
            fractions = np.where(
                rng.random(group_size) < p_swipe,
                rng.beta(alpha, beta, size=group_size),
                1.0,
            )
            remaining = config.interval_s - now
            transmitted = min(float(fractions.max()) * video.duration_s, remaining)
            traffic += video.bits_watched(representation, transmitted)
            cycles += self.transcoder.video_cycles(video, representation, transmitted)
            engagement += float(
                np.minimum(fractions * video.duration_s, remaining).sum()
            )
            videos += 1
            now += transmitted + config.swipe_gap_s
        return traffic, cycles, engagement, videos

    # ------------------------------------------------------------ prediction
    def predict_group(
        self,
        profile: GroupSwipingProfile,
        twins: DigitalTwinManager,
        window_start_s: Optional[float] = None,
        window_end_s: Optional[float] = None,
    ) -> GroupDemandPrediction:
        """Predict one group's next-interval demand from its abstracted profile."""
        config = self.sim_config
        rollouts = self.scheme_config.mc_rollouts
        efficiency, representation = self.predict_link_state(
            profile.member_ids, twins, window_start_s, window_end_s
        )
        video_ids = self.catalog.sampling_arrays()[0]
        probabilities = self.catalog.sampling_probabilities(
            profile.mean_preference, config.recommendation_popularity_weight
        )
        cumulative = sampling_cdf(probabilities)

        rng = self._rollout_rng(profile.group_id, window_start_s)
        totals = np.zeros(4)
        for _ in range(rollouts):
            totals += np.array(
                self._rollout(profile, video_ids, cumulative, representation, rng)
            )
        traffic, cycles, engagement, videos = totals / rollouts

        blocks = resource_blocks_for_traffic(
            traffic,
            efficiency,
            rb_bandwidth_hz=config.rb_bandwidth_hz,
            interval_s=config.interval_s,
        )
        return GroupDemandPrediction(
            group_id=profile.group_id,
            member_ids=list(profile.member_ids),
            expected_traffic_bits=float(traffic),
            expected_engagement_s=float(engagement),
            expected_videos=float(videos),
            radio_resource_blocks=float(blocks),
            computing_cycles=float(cycles),
            efficiency_bps_hz=float(efficiency),
            representation_name=representation.name,
        )

    @staticmethod
    def total_radio_blocks(predictions: Mapping[int, GroupDemandPrediction]) -> float:
        """Sum of predicted resource blocks over groups with *finite* demand.

        Convention: outage groups (``radio_resource_blocks == inf``) are
        excluded so the total stays a schedulable quantity; they stay visible
        as their own infinite ``radio_resource_blocks`` rather than being
        silently dropped.
        """
        finite = [
            p.radio_resource_blocks
            for p in predictions.values()
            if np.isfinite(p.radio_resource_blocks)
        ]
        return float(ordered_sum(finite))

    @staticmethod
    def total_computing_cycles(predictions: Mapping[int, GroupDemandPrediction]) -> float:
        return float(ordered_sum(p.computing_cycles for p in predictions.values()))

    @staticmethod
    def radio_blocks_by_cell(
        predictions: Mapping[int, GroupDemandPrediction],
        cell_of_group: Mapping[int, int],
    ) -> Dict[int, float]:
        """Finite predicted resource blocks summed per serving cell.

        ``cell_of_group`` maps scoped group ids to cells (the RAN
        controller's :meth:`~repro.net.controller.RanController.preview_scope`
        output); predictions for groups without a cell mapping — e.g. in
        boundary mode — are skipped, as are predicted-outage groups
        (infinite block demand), mirroring
        :meth:`IntervalResult.rb_demand_by_cell` on the actual side.
        """
        totals: Dict[int, float] = {}
        for group_id, prediction in predictions.items():
            cell_id = cell_of_group.get(group_id)
            if cell_id is not None and np.isfinite(prediction.radio_resource_blocks):
                totals[cell_id] = totals.get(cell_id, 0.0) + prediction.radio_resource_blocks
        return totals
