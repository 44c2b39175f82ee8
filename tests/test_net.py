"""Unit tests for the wireless network substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import (
    BaseStation,
    ChannelConfig,
    ChannelModel,
    MCS_TABLE,
    ResourceGrid,
    associate_users,
    group_spectral_efficiency,
    resource_blocks_for_traffic,
    select_mcs,
    snr_db_to_linear,
    snr_linear_to_db,
    spectral_efficiency,
)
from repro.net.basestation import place_base_stations
from repro.sim.config import SimulationConfig


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestConversions:
    def test_db_linear_roundtrip(self):
        assert snr_linear_to_db(snr_db_to_linear(7.3)) == pytest.approx(7.3)

    def test_zero_db_is_unity(self):
        assert snr_db_to_linear(0.0) == pytest.approx(1.0)

    def test_negative_linear_rejected(self):
        with pytest.raises(ValueError):
            snr_linear_to_db(0.0)


class TestChannelModel:
    def test_path_loss_increases_with_distance(self):
        channel = ChannelModel(ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=False))
        assert channel.path_loss_db(500.0) > channel.path_loss_db(50.0)

    def test_mean_snr_decreases_with_distance(self):
        channel = ChannelModel(ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=False))
        assert channel.mean_snr_db(43.0, 100.0) > channel.mean_snr_db(43.0, 800.0)

    def test_deterministic_channel_equals_mean(self, rng):
        channel = ChannelModel(ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=False))
        sample = channel.sample_snr_db(43.0, 200.0, rng=rng)
        assert sample == pytest.approx(channel.mean_snr_db(43.0, 200.0))

    def test_fading_adds_variance(self, rng):
        config = ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=True)
        channel = ChannelModel(config)
        samples = [channel.sample_snr_db(43.0, 200.0, rng=rng) for _ in range(300)]
        assert np.std(samples) > 1.0

    def test_snr_series_length(self, rng):
        channel = ChannelModel()
        series = channel.sample_snr_db_batch(43.0, [100.0, 200.0, 300.0], rng=rng)
        assert series.shape == (3,)

    def test_sampling_requires_an_explicit_stream(self):
        channel = ChannelModel()
        bs = BaseStation(bs_id=0, position=np.array([0.0, 0.0]))
        with pytest.raises(TypeError):
            channel.sample_snr_db(43.0, 200.0)
        with pytest.raises(TypeError):
            channel.sample_snr_db_batch(43.0, [100.0, 200.0])
        with pytest.raises(TypeError):
            bs.sample_snr_db([10.0, 0.0])
        with pytest.raises(TypeError):
            bs.sample_snr_db_batch([[10.0, 0.0]])

    def test_minimum_distance_clamped(self):
        channel = ChannelModel(ChannelConfig(min_distance_m=5.0, shadowing_std_db=0.0, rayleigh_fading=False))
        assert channel.path_loss_db(0.01) == pytest.approx(channel.path_loss_db(5.0))

    def test_shannon_rate_positive_and_increasing(self):
        channel = ChannelModel()
        assert channel.shannon_rate_bps(20.0) > channel.shannon_rate_bps(0.0) > 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ChannelConfig(path_loss_exponent=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(bandwidth_hz=0.0)


class TestMcs:
    def test_table_thresholds_increase_with_efficiency(self):
        thresholds = [entry.min_snr_db for entry in MCS_TABLE]
        efficiencies = [entry.spectral_efficiency_bps_hz for entry in MCS_TABLE]
        assert thresholds == sorted(thresholds)
        assert efficiencies == sorted(efficiencies)

    def test_select_mcs_outage(self):
        assert select_mcs(-20.0) is None
        assert spectral_efficiency(-20.0) == 0.0

    def test_select_mcs_top_of_table(self):
        entry = select_mcs(40.0)
        assert entry is not None
        assert entry.index == 15

    def test_spectral_efficiency_monotone_in_snr(self):
        values = [spectral_efficiency(snr) for snr in np.arange(-10.0, 30.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_implementation_loss_scales(self):
        assert spectral_efficiency(20.0, implementation_loss=0.5) == pytest.approx(
            0.5 * spectral_efficiency(20.0)
        )

    def test_invalid_implementation_loss(self):
        for loss in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="implementation_loss"):
                SimulationConfig(implementation_loss=loss)
        assert SimulationConfig(implementation_loss=1.0).implementation_loss == 1.0


class TestBaseStations:
    def test_distance_and_snr(self):
        bs = BaseStation(bs_id=0, position=np.array([0.0, 0.0]))
        assert bs.distance_to([3.0, 4.0]) == pytest.approx(5.0)
        assert bs.mean_snr_db([10.0, 0.0]) > bs.mean_snr_db([500.0, 0.0])

    def test_association_picks_nearest(self):
        stations = [
            BaseStation(bs_id=0, position=np.array([0.0, 0.0])),
            BaseStation(bs_id=1, position=np.array([1000.0, 0.0])),
        ]
        association = associate_users(np.array([[10.0, 0.0], [990.0, 0.0]]), stations)
        assert association.tolist() == [0, 1]

    def test_association_requires_stations(self):
        with pytest.raises(ValueError):
            associate_users(np.array([[0.0, 0.0]]), [])

    @pytest.mark.parametrize("num_cells", [2, 3, 4])
    def test_association_matches_max_over_stations(self, num_cells):
        """The batched rule picks the station a scalar ``max`` over the
        station list picks (first best on ties), on the simulator's grids."""
        width, height = 1000.0, 800.0
        stations = place_base_stations(num_cells, width, height)
        rng = np.random.default_rng(1900 + num_cells)
        points = rng.uniform((0.0, 0.0), (width, height), size=(10_000, 2))
        expected = [max(stations, key=lambda bs: bs.mean_snr_db(p)).bs_id for p in points]
        assert associate_users(points, stations).tolist() == expected

    def test_place_base_stations_grid(self):
        stations = place_base_stations(4, 1000.0, 1000.0)
        assert len(stations) == 4
        for bs in stations:
            assert 0.0 <= bs.position[0] <= 1000.0
            assert 0.0 <= bs.position[1] <= 1000.0

    def test_place_base_stations_invalid(self):
        with pytest.raises(ValueError):
            place_base_stations(0, 100.0, 100.0)

    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError):
            BaseStation(bs_id=0, position=np.array([1.0, 2.0, 3.0]))


class TestMulticast:
    def test_group_efficiency_is_worst_member(self):
        snrs = [25.0, 10.0, 3.0]
        efficiency = group_spectral_efficiency(snrs, implementation_loss=1.0)
        assert efficiency == pytest.approx(spectral_efficiency(3.0))

    def test_group_efficiency_empty_rejected(self):
        with pytest.raises(ValueError):
            group_spectral_efficiency([], implementation_loss=0.9)

    def test_resource_blocks_for_traffic(self):
        blocks = resource_blocks_for_traffic(1e9, 2.0, rb_bandwidth_hz=180e3, interval_s=300.0)
        assert blocks == pytest.approx(1e9 / (2.0 * 180e3 * 300.0))

    def test_resource_blocks_zero_traffic(self):
        blocks = resource_blocks_for_traffic(0.0, 2.0, rb_bandwidth_hz=180e3, interval_s=300.0)
        assert blocks == 0.0

    def test_resource_blocks_outage_is_infinite(self):
        blocks = resource_blocks_for_traffic(1e6, 0.0, rb_bandwidth_hz=180e3, interval_s=300.0)
        assert np.isinf(blocks)

    def test_resource_blocks_invalid_args(self):
        with pytest.raises(ValueError):
            resource_blocks_for_traffic(-1.0, 2.0, rb_bandwidth_hz=180e3, interval_s=300.0)
        with pytest.raises(ValueError):
            resource_blocks_for_traffic(1.0, 2.0, rb_bandwidth_hz=180e3, interval_s=0.0)


class TestResources:
    def test_grid_over_and_under_provisioning(self):
        grid = ResourceGrid()
        grid.record_interval(0, reserved={0: 50.0, 1: 20.0}, used={0: 30.0, 1: 25.0})
        grid.record_interval(1, reserved={0: 40.0}, used={0: 40.0})
        assert grid.history[0].over_provisioned_blocks() == pytest.approx(20.0)
        assert grid.history[0].under_provisioned_blocks() == pytest.approx(5.0)
        assert grid.mean_over_provisioning() == pytest.approx(10.0)
        assert grid.mean_under_provisioning() == pytest.approx(2.5)
        assert grid.under_provisioned_fraction() == pytest.approx(0.5)
