"""The paper's contribution: DT-assisted resource demand prediction.

The pipeline mirrors Fig. 2 of the paper:

1. :mod:`repro.core.features` -- a 1D-CNN compresses each user's
   digital-twin time series into a compact feature vector.
2. :mod:`repro.core.grouping` -- a DDQN agent chooses the number of
   multicast groups and K-means++ clusters the compressed features
   (two-step multicast group construction).
3. :mod:`repro.core.swiping` -- each group's swiping-probability
   distribution is abstracted from the watching durations in the UDTs.
4. :meth:`repro.video.catalog.VideoCatalog.sampling_probabilities` -- the
   videos a group is served, mixed from popularity and group preference.
5. :mod:`repro.core.demand` -- group-level radio (resource blocks) and
   computing (CPU cycles) demand prediction from the abstracted
   information.
6. :mod:`repro.core.pipeline` -- the end-to-end
   :class:`DTResourcePredictionScheme` that runs the whole loop against the
   simulator and evaluates prediction accuracy
   (:mod:`repro.core.accuracy`).
"""

from repro.core.accuracy import (
    mean_absolute_percentage_error,
    mean_prediction_accuracy,
    prediction_accuracy,
    prediction_accuracy_series,
    root_mean_squared_error,
)
from repro.core.config import SchemeConfig
from repro.core.features import CompressorConfig, UDTFeatureCompressor
from repro.core.grouping import GroupingResult, MulticastGroupConstructor
from repro.core.swiping import GroupSwipingProfile, abstract_group_swiping
from repro.core.demand import GroupDemandPrediction, GroupDemandPredictor
from repro.core.pipeline import (
    DTResourcePredictionScheme,
    EvaluationResult,
    IntervalEvaluation,
)
from repro.core.reservation import (
    AdmissionController,
    AdmissionResult,
    ReservationPlanner,
    ReservationPolicy,
)

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "CompressorConfig",
    "DTResourcePredictionScheme",
    "ReservationPlanner",
    "ReservationPolicy",
    "EvaluationResult",
    "GroupDemandPrediction",
    "GroupDemandPredictor",
    "GroupSwipingProfile",
    "GroupingResult",
    "IntervalEvaluation",
    "MulticastGroupConstructor",
    "SchemeConfig",
    "UDTFeatureCompressor",
    "abstract_group_swiping",
    "mean_absolute_percentage_error",
    "mean_prediction_accuracy",
    "prediction_accuracy",
    "prediction_accuracy_series",
    "root_mean_squared_error",
]
