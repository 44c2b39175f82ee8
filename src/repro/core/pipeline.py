"""End-to-end DT-assisted resource demand prediction scheme.

:class:`DTResourcePredictionScheme` wires the whole pipeline of Fig. 2
together and drives it against the ground-truth simulator, interval by
interval:

1. a short warm-up phase fills the digital twins and trains the 1D-CNN
   compressor and the DDQN grouping-number selector on the collected data,
2. before every subsequent reservation interval the scheme compresses the
   twins' time series, constructs multicast groups, abstracts each group's
   swiping profile and predicts its radio and computing demand,
3. the simulator then plays the interval out under that grouping, and the
   predicted demand is scored against the actual usage.

:meth:`DTResourcePredictionScheme.step` is the one predict-then-play step:
the scenario runner and the reservation planner both drive it, so predictive
placement always packs against the twin's forecast.  The scheme does not own
the simulator's worker pool; ``with simulator:`` does.

The per-interval records and the accuracy summary are what the benchmark
harnesses print (Fig. 3(b) and the headline 95.04 % figure).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.accuracy import (
    mean_prediction_accuracy,
    prediction_accuracy,
    prediction_accuracy_series,
)
from repro.core.config import SchemeConfig
from repro.core.demand import GroupDemandPrediction, GroupDemandPredictor
from repro.core.features import CompressorConfig, UDTFeatureCompressor
from repro.core.grouping import GroupingResult, MulticastGroupConstructor
from repro.core.swiping import GroupSwipingProfile, abstract_group_swiping
from repro.sim.simulator import IntervalResult, StreamingSimulator, round_robin_grouping


@dataclass
class IntervalEvaluation:
    """Prediction versus actual usage for one reservation interval."""

    interval_index: int
    grouping: GroupingResult
    profiles: Dict[int, GroupSwipingProfile]
    predictions: Dict[int, GroupDemandPrediction]
    actual: IntervalResult
    predicted_radio_blocks: float
    actual_radio_blocks: float
    predicted_computing_cycles: float
    actual_computing_cycles: float
    #: Per-cell predicted/actual radio demand (handover mode only; empty in
    #: boundary mode).  ``profiles`` / ``predictions`` are keyed by the
    #: controller's scoped (per-cell) group ids there, and ``cell_of_group``
    #: maps those ids to serving cells.
    predicted_radio_by_cell: Dict[int, float] = field(default_factory=dict)
    actual_radio_by_cell: Dict[int, float] = field(default_factory=dict)
    cell_of_group: Dict[int, int] = field(default_factory=dict)

    @property
    def radio_accuracy(self) -> float:
        return prediction_accuracy(self.predicted_radio_blocks, self.actual_radio_blocks)

    @property
    def computing_accuracy(self) -> float:
        return prediction_accuracy(
            self.predicted_computing_cycles, self.actual_computing_cycles
        )

    def to_dict(self) -> dict:
        """JSON-canonical export of this interval's prediction-vs-actual record.

        The one per-interval shape every exporter shares:
        :meth:`EvaluationResult.to_dict`, the analysis runners'
        ``Fig3Result.to_dict`` / ``demand_rows`` and the scenario runner's
        ``RunResult`` all consume it, so a record written by any entry point
        compares equal to the same interval written by any other.  Mapping
        keys are strings and every value a plain Python scalar/container, so
        ``json.loads(json.dumps(d)) == d`` holds.
        """
        return {
            "interval_index": int(self.interval_index),
            "num_groups": int(self.grouping.num_groups),
            "group_sizes": {
                str(gid): int(size)
                for gid, size in sorted(self.grouping.group_sizes().items())
            },
            "predicted_radio_blocks": float(self.predicted_radio_blocks),
            "actual_radio_blocks": float(self.actual_radio_blocks),
            "radio_accuracy": float(self.radio_accuracy),
            "predicted_computing_cycles": float(self.predicted_computing_cycles),
            "actual_computing_cycles": float(self.actual_computing_cycles),
            "computing_accuracy": float(self.computing_accuracy),
            "predicted_radio_by_cell": {
                str(cell): float(value)
                for cell, value in sorted(self.predicted_radio_by_cell.items())
            },
            "actual_radio_by_cell": {
                str(cell): float(value)
                for cell, value in sorted(self.actual_radio_by_cell.items())
            },
        }


@dataclass
class EvaluationResult:
    """Aggregate outcome of running the scheme over several intervals."""

    intervals: List[IntervalEvaluation] = field(default_factory=list)

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    def to_dict(self) -> dict:
        """Plain-dictionary export (per-interval series plus summary) for JSON dumps.

        Per-interval records are exactly :meth:`IntervalEvaluation.to_dict`
        and the whole payload is JSON-canonical (string mapping keys, plain
        scalars): ``json.loads(json.dumps(d)) == d``.
        """
        return {
            "intervals": [e.to_dict() for e in self.intervals],
            "summary": (
                {
                    "mean_radio_accuracy": float(self.mean_radio_accuracy()),
                    "max_radio_accuracy": float(self.max_radio_accuracy()),
                    "mean_computing_accuracy": float(self.mean_computing_accuracy()),
                    "mean_radio_accuracy_by_cell": {
                        str(cell): float(value)
                        for cell, value in sorted(self.mean_radio_accuracy_by_cell().items())
                    },
                }
                if self.intervals
                else {}
            ),
        }

    def predicted_radio_series(self) -> np.ndarray:
        return np.array([e.predicted_radio_blocks for e in self.intervals])

    def actual_radio_series(self) -> np.ndarray:
        return np.array([e.actual_radio_blocks for e in self.intervals])

    def predicted_computing_series(self) -> np.ndarray:
        return np.array([e.predicted_computing_cycles for e in self.intervals])

    def actual_computing_series(self) -> np.ndarray:
        return np.array([e.actual_computing_cycles for e in self.intervals])

    def radio_accuracy_series(self) -> np.ndarray:
        return np.array([e.radio_accuracy for e in self.intervals])

    # --------------------------------------------------- per-cell series
    def cells(self) -> List[int]:
        """Cells that carried predicted or actual demand (handover mode)."""
        cell_ids: set = set()
        for e in self.intervals:
            cell_ids.update(e.predicted_radio_by_cell)
            cell_ids.update(e.actual_radio_by_cell)
        return sorted(cell_ids)

    def predicted_radio_series_by_cell(self) -> Dict[int, np.ndarray]:
        """Per-cell predicted radio demand, one aligned series per cell."""
        return {
            cell_id: np.array(
                [e.predicted_radio_by_cell.get(cell_id, 0.0) for e in self.intervals]
            )
            for cell_id in self.cells()
        }

    def actual_radio_series_by_cell(self) -> Dict[int, np.ndarray]:
        """Per-cell actual radio demand, one aligned series per cell."""
        return {
            cell_id: np.array(
                [e.actual_radio_by_cell.get(cell_id, 0.0) for e in self.intervals]
            )
            for cell_id in self.cells()
        }

    def radio_accuracy_series_by_cell(self) -> Dict[int, np.ndarray]:
        """Per-cell predicted-vs-actual accuracy series (handover mode)."""
        predicted = self.predicted_radio_series_by_cell()
        actual = self.actual_radio_series_by_cell()
        return {
            cell_id: prediction_accuracy_series(predicted[cell_id], actual[cell_id])
            for cell_id in predicted
        }

    def mean_radio_accuracy_by_cell(self) -> Dict[int, float]:
        return {
            cell_id: float(series.mean())
            for cell_id, series in self.radio_accuracy_series_by_cell().items()
        }

    def computing_accuracy_series(self) -> np.ndarray:
        return np.array([e.computing_accuracy for e in self.intervals])

    def mean_radio_accuracy(self) -> float:
        if not self.intervals:
            raise ValueError("no intervals evaluated")
        return mean_prediction_accuracy(
            self.predicted_radio_series(), self.actual_radio_series()
        )

    def max_radio_accuracy(self) -> float:
        if not self.intervals:
            raise ValueError("no intervals evaluated")
        return float(self.radio_accuracy_series().max())

    def mean_computing_accuracy(self) -> float:
        if not self.intervals:
            raise ValueError("no intervals evaluated")
        return mean_prediction_accuracy(
            self.predicted_computing_series(), self.actual_computing_series()
        )


class DTResourcePredictionScheme:
    """The paper's DT-assisted scheme, end to end; ``config`` sets it up, K selection included."""

    def __init__(
        self,
        simulator: StreamingSimulator,
        config: Optional[SchemeConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config if config is not None else SchemeConfig()
        sim_config = simulator.config

        num_channels = sum(
            spec.dimension for spec in simulator.twins.attributes.values()
        )
        self.compressor = UDTFeatureCompressor(
            CompressorConfig(
                num_steps=self.config.feature_steps,
                num_channels=num_channels,
                epochs=self.config.cnn_epochs,
                seed=self.config.seed,
            )
        )
        # Small populations cannot support the configured group-number range;
        # clamp it so the scheme still works down to a single user.
        max_groups = max(min(self.config.max_groups, sim_config.num_users), 1)
        min_groups = min(self.config.min_groups, max_groups)
        self.constructor = MulticastGroupConstructor(
            min_groups=min_groups,
            max_groups=max_groups,
            seed=self.config.seed,
        )
        self.demand_predictor = GroupDemandPredictor(simulator.catalog, sim_config, self.config)
        self.warmed_up = False
        self._warmup_snapshots: List[np.ndarray] = []
        #: Scoped-group → cell map of the most recent prediction (written by
        #: predict_next_interval, consumed by step; empty in boundary mode).
        self._last_cell_of_group: Dict[int, int] = {}
        #: Accumulated wall-time of the prediction pipeline (warm-up twin
        #: tensors + per-step predictions), exported by the scenario runner
        #: as ``RunResult.timing["predict_s"]``.
        self.timing: Dict[str, float] = {"predict_s": 0.0}

    # --------------------------------------------------------------- warm-up
    def _history_window(self) -> tuple:
        """``(start_s, end_s)`` of the last played interval: the next prediction's window."""
        interval_s = self.simulator.config.interval_s
        end_s = self.simulator.clock.current_interval * interval_s
        start_s = max(end_s - interval_s, 0.0)
        return start_s, end_s

    def warm_up(self) -> None:
        """Fill the digital twins and train the learning components.

        Runs ``warmup_intervals`` reservation intervals under a simple
        round-robin grouping, then fits the 1D-CNN compressor on the
        collected twin data and trains the DDQN grouping-number selector on
        the compressed snapshots.
        """
        if self.warmed_up:
            return
        interval_s = self.simulator.config.interval_s
        for _ in range(self.config.warmup_intervals):
            grouping = round_robin_grouping(self.simulator.user_ids(), self.config.min_groups)
            self.simulator.run_interval(grouping)
            end_s = self.simulator.clock.current_interval * interval_s
            start_s = end_s - interval_s
            # One snapshot per warm-up interval: the interval just played,
            # resampled for every user in one batched feature_tensor call.
            tensor_started = time.perf_counter()
            tensor = self.simulator.twins.feature_tensor(
                start_s,
                end_s,
                num_steps=self.config.feature_steps,
                user_ids=self.simulator.user_ids(),
            )
            self.timing["predict_s"] += time.perf_counter() - tensor_started
            self._warmup_snapshots.append(tensor)

        training_tensor = np.concatenate(self._warmup_snapshots, axis=0)
        self.compressor.fit(training_tensor)
        compressed_snapshots = [
            self.compressor.compress(tensor) for tensor in self._warmup_snapshots
        ]
        if self.config.k_strategy == "ddqn":
            self.constructor.train(
                snapshots=compressed_snapshots, episodes=self.config.ddqn_episodes
            )
        self.warmed_up = True

    # ------------------------------------------------------------ prediction
    def predict_next_interval(self) -> tuple:
        """Construct groups and predict their demand for the upcoming interval.

        Returns ``(grouping_result, profiles, predictions)`` without running
        the simulator, so callers can inspect the prediction before the
        interval plays out.

        Under ``controller_mode="handover"`` the logical groups are first
        mapped through the controller's current associations
        (:meth:`~repro.sim.simulator.StreamingSimulator.preview_scoped_grouping`),
        and ``profiles`` / ``predictions`` are keyed by the *scoped*
        (per-cell) group ids the simulator will actually play — a multicast
        channel, and hence the worst-member rule the demand prediction
        models, spans a single base station.  In boundary mode the scoped
        ids equal the logical ids and nothing changes.
        """
        if not self.warmed_up:
            raise RuntimeError("call warm_up() before predicting")
        start_s, end_s = self._history_window()
        user_ids = self.simulator.user_ids()
        tensor = self.simulator.twins.feature_tensor(
            start_s, end_s, num_steps=self.config.feature_steps, user_ids=user_ids
        )
        features = self.compressor.compress(tensor)
        grouping = self.constructor.construct(
            features,
            user_ids,
            num_groups=self.config.fixed_k,
            k_strategy=self.config.k_strategy,
        )
        scoped_groups, cell_of_group = self.simulator.preview_scoped_grouping(
            grouping.groups()
        )
        # Stashed for step(): associations only change through handover
        # events applied at the end of the next interval, so this preview is
        # exactly the scoping run_interval will play.
        self._last_cell_of_group = cell_of_group
        categories = list(self.simulator.config.categories)
        profiles: Dict[int, GroupSwipingProfile] = {}
        predictions: Dict[int, GroupDemandPrediction] = {}
        for group_id, member_ids in scoped_groups.items():
            profile = abstract_group_swiping(
                group_id,
                member_ids,
                self.simulator.twins,
                categories,
                start_s=start_s,
                end_s=end_s,
            )
            profiles[group_id] = profile
            predictions[group_id] = self.demand_predictor.predict_group(
                profile, self.simulator.twins, start_s, end_s
            )
        return grouping, profiles, predictions

    def step(self) -> IntervalEvaluation:
        """Predict, run one interval, and score the prediction.

        In handover mode the per-cell split of the prediction (scoped group
        → serving cell) is captured before the interval runs, and the
        evaluation carries per-cell predicted/actual radio demand alongside
        the population totals.
        """
        predict_started = time.perf_counter()
        grouping, profiles, predictions = self.predict_next_interval()
        self.timing["predict_s"] += time.perf_counter() - predict_started
        cell_of_group = self._last_cell_of_group
        if self.simulator.placement is not None:
            # Predictive placement packs against exactly the per-group
            # computing demand the twin predicted for this interval
            # (predictions are keyed by the scoped group ids the interval
            # will play).
            self.simulator.placement.set_forecast(
                {gid: p.computing_cycles for gid, p in predictions.items()}
            )
        actual = self.simulator.run_interval(grouping.groups())
        predicted_radio = GroupDemandPredictor.total_radio_blocks(predictions)
        predicted_compute = GroupDemandPredictor.total_computing_cycles(predictions)
        return IntervalEvaluation(
            interval_index=actual.interval_index,
            grouping=grouping,
            profiles=profiles,
            predictions=predictions,
            actual=actual,
            predicted_radio_blocks=predicted_radio,
            actual_radio_blocks=actual.total_resource_blocks,
            predicted_computing_cycles=predicted_compute,
            actual_computing_cycles=actual.total_computing_cycles,
            predicted_radio_by_cell=GroupDemandPredictor.radio_blocks_by_cell(
                predictions, cell_of_group
            ),
            actual_radio_by_cell=dict(actual.rb_demand_by_cell),
            cell_of_group=cell_of_group,
        )

    def run(self, num_intervals: int) -> EvaluationResult:
        """Warm up (if needed) and evaluate the scheme over ``num_intervals``."""
        if num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        self.warm_up()
        result = EvaluationResult()
        for _ in range(num_intervals):
            result.intervals.append(self.step())
        return result
