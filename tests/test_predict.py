"""Unit tests for the baseline predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predict import (
    EwmaPredictor,
    LastValuePredictor,
    LinearTrendPredictor,
    MeanPredictor,
    MovingAveragePredictor,
    PerUserDemandPredictor,
)


class TestSeriesPredictors:
    def test_last_value(self):
        assert LastValuePredictor().predict_next([1.0, 2.0, 7.0]) == 7.0

    def test_mean(self):
        assert MeanPredictor().predict_next([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_moving_average_window(self):
        predictor = MovingAveragePredictor(window=2)
        assert predictor.predict_next([10.0, 1.0, 3.0]) == pytest.approx(2.0)

    def test_moving_average_shorter_history(self):
        predictor = MovingAveragePredictor(window=5)
        assert predictor.predict_next([4.0]) == pytest.approx(4.0)

    def test_ewma_weights_recent_values_more(self):
        predictor = EwmaPredictor(alpha=0.9)
        assert predictor.predict_next([0.0, 0.0, 10.0]) > 8.0

    def test_ewma_constant_series(self):
        assert EwmaPredictor(alpha=0.3).predict_next([5.0, 5.0, 5.0]) == pytest.approx(5.0)

    def test_linear_trend_extrapolates(self):
        predictor = LinearTrendPredictor(window=4)
        assert predictor.predict_next([1.0, 2.0, 3.0, 4.0]) == pytest.approx(5.0, abs=1e-6)

    def test_linear_trend_never_negative(self):
        predictor = LinearTrendPredictor(window=3)
        assert predictor.predict_next([3.0, 2.0, 0.1]) >= 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            LastValuePredictor().predict_next([])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MovingAveragePredictor(window=0)
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            LinearTrendPredictor(window=1)

    def test_predict_series_walk_forward(self):
        series = [1.0, 2.0, 3.0, 4.0]
        predictions = LastValuePredictor().predict_series(series, warmup=1)
        np.testing.assert_allclose(predictions, [1.0, 2.0, 3.0])

    def test_predict_series_requires_enough_data(self):
        with pytest.raises(ValueError):
            LastValuePredictor().predict_series([1.0], warmup=1)

    def test_constant_series_perfectly_predicted(self):
        series = [7.0] * 6
        for predictor in (LastValuePredictor(), MeanPredictor(), MovingAveragePredictor(3), EwmaPredictor(0.5)):
            predictions = predictor.predict_series(series, warmup=2)
            np.testing.assert_allclose(predictions, 7.0)


class TestPerUserPredictor:
    def test_predictions_for_all_users(self, populated_simulator):
        sim = populated_simulator
        predictor = PerUserDemandPredictor(sim.catalog, sim.config)
        predictions = predictor.predict_all(sim.twins, 0.0, sim.config.interval_s)
        assert set(predictions) == set(sim.user_ids())
        for prediction in predictions.values():
            assert prediction.expected_videos > 0.0
            assert prediction.expected_traffic_bits > 0.0
        total = predictor.total_resource_blocks(predictions)
        assert total > 0.0

    def test_unicast_total_exceeds_multicast_actual(self, populated_simulator):
        """Per-user (unicast) reservations should cost more than the multicast actual usage."""
        sim = populated_simulator
        predictor = PerUserDemandPredictor(sim.catalog, sim.config)
        predictions = predictor.predict_all(sim.twins, 0.0, sim.config.interval_s)
        unicast_total = predictor.total_resource_blocks(predictions)
        multicast_actual = sim.history[0].total_resource_blocks
        assert unicast_total > multicast_actual * 0.8
