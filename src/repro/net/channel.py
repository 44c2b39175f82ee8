"""Downlink channel model.

Per-user SNR is computed from transmit power, log-distance path loss,
log-normal shadowing and (optionally) Rayleigh fast fading over thermal
noise.  The resulting SNR time series is exactly the "channel condition"
attribute the user digital twins collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

#: Thermal noise power spectral density in dBm/Hz at 290 K.
THERMAL_NOISE_DBM_PER_HZ = -174.0


def snr_db_to_linear(snr_db: float) -> float:
    """Convert a dB value to linear scale."""
    return float(10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0))


def snr_linear_to_db(snr_linear: float) -> float:
    """Convert a linear SNR to dB (raises on non-positive input)."""
    snr_linear = float(snr_linear)
    if snr_linear <= 0:
        raise ValueError("linear SNR must be positive")
    return float(10.0 * np.log10(snr_linear))


@dataclass
class ChannelConfig:
    """Parameters of the path-loss / shadowing / fading channel."""

    carrier_frequency_ghz: float = 2.6
    path_loss_exponent: float = 3.5
    reference_distance_m: float = 1.0
    shadowing_std_db: float = 6.0
    rayleigh_fading: bool = True
    noise_figure_db: float = 7.0
    bandwidth_hz: float = 180e3  # one resource block
    min_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.carrier_frequency_ghz <= 0:
            raise ValueError("carrier_frequency_ghz must be positive")
        if self.path_loss_exponent < 2.0:
            raise ValueError("path_loss_exponent below free-space (2.0) is not physical")
        if self.reference_distance_m <= 0 or self.min_distance_m <= 0:
            raise ValueError("distances must be positive")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be non-negative")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def noise_power_dbm(self) -> float:
        """Total noise power over ``bandwidth_hz`` including the noise figure."""
        return (
            THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * np.log10(self.bandwidth_hz)
            + self.noise_figure_db
        )


def fading_db(gains: np.ndarray) -> np.ndarray:
    """Rayleigh fading terms in dB of unit-mean exponential power gains.

    Gains are floored at 1e-6 (-60 dB) first.  The one home of this
    arithmetic: per-sample SNRs and the twin collector's blocks both use it.
    """
    return 10.0 * np.log10(np.maximum(gains, 1e-6))


class SnrFades(NamedTuple):
    """The random draws of a batch of SNR samples.

    ``shadowing_db`` is the log-normal shadowing in dB and ``fading_gains``
    the Rayleigh power gains (see :func:`fading_db`); a term the channel
    config turns off is ``None``.  A sample's SNR is its mean SNR plus the
    shadowing, then plus the fading in dB.
    """

    shadowing_db: Optional[np.ndarray]
    fading_gains: Optional[np.ndarray]


class ChannelModel:
    """Stochastic downlink channel producing per-sample SNR values.

    The model holds no generator: every sampling call draws from the
    ``rng`` its caller passes, a keyed stream of :mod:`repro.sim.rng`.
    """

    def __init__(self, config: Optional[ChannelConfig] = None) -> None:
        self.config = config if config is not None else ChannelConfig()

    # ------------------------------------------------------------ path loss
    def _reference_loss_db(self) -> float:
        """Free-space path loss at the reference distance."""
        config = self.config
        return (
            20.0 * np.log10(config.reference_distance_m)
            + 20.0 * np.log10(config.carrier_frequency_ghz * 1e9)
            - 147.55
        )

    def path_loss_db(self, distance_m: float) -> float:
        """Log-distance path loss with a free-space reference term."""
        config = self.config
        distance_m = max(float(distance_m), config.min_distance_m)
        return float(
            self._reference_loss_db()
            + 10.0 * config.path_loss_exponent * np.log10(distance_m / config.reference_distance_m)
        )

    def path_loss_db_batch(self, distances_m) -> np.ndarray:
        """Vectorized :meth:`path_loss_db` over an array of distances."""
        config = self.config
        distances = np.maximum(
            np.asarray(distances_m, dtype=np.float64), config.min_distance_m
        )
        return self._reference_loss_db() + 10.0 * config.path_loss_exponent * np.log10(
            distances / config.reference_distance_m
        )

    # ------------------------------------------------------------------ SNR
    def mean_snr_db(self, tx_power_dbm: float, distance_m: float) -> float:
        """Average SNR (no shadowing / fading) at ``distance_m``."""
        received = tx_power_dbm - self.path_loss_db(distance_m)
        return float(received - self.config.noise_power_dbm)

    def sample_snr_db(
        self, tx_power_dbm: float, distance_m: float, rng: np.random.Generator
    ) -> float:
        """Sample an instantaneous SNR including shadowing and fast fading."""
        snr_db = self.mean_snr_db(tx_power_dbm, distance_m)
        if self.config.shadowing_std_db > 0:
            snr_db += float(rng.normal(0.0, self.config.shadowing_std_db))
        if self.config.rayleigh_fading:
            # Rayleigh fading: exponential power gain with unit mean.
            fading_gain = float(rng.exponential(1.0))
            fading_gain = max(fading_gain, 1e-6)
            snr_db += 10.0 * np.log10(fading_gain)
        return float(snr_db)

    def mean_snr_db_batch(self, tx_power_dbm: float, distances_m) -> np.ndarray:
        """Vectorized :meth:`mean_snr_db` over an array of distances."""
        received = tx_power_dbm - self.path_loss_db_batch(distances_m)
        return received - self.config.noise_power_dbm

    def sample_snr_db_batch(
        self, tx_power_dbm: float, distances_m, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one instantaneous SNR per distance (vectorized hot path).

        Draws all shadowing values as one array call, then all fading
        values as another: the same per-sample distributions as
        :meth:`sample_snr_db`, but a different walk of the generator than a
        loop of scalar calls for more than one sample.
        """
        distances = np.asarray(distances_m, dtype=np.float64).reshape(-1)
        snr_db = self.mean_snr_db_batch(tx_power_dbm, distances)
        count = distances.shape[0]
        if count == 0:
            return snr_db
        shadowing, gains = self.draw_fades(count, rng)
        if shadowing is not None:
            snr_db = snr_db + shadowing
        if gains is not None:
            snr_db = snr_db + fading_db(gains)
        return snr_db

    def draw_fades(self, count: int, rng: np.random.Generator) -> SnrFades:
        """The shadowing and fading draws of ``count`` SNR samples.

        All shadowing values are one array call, then all fading gains
        another; a term the config turns off draws nothing.  The draws do not
        depend on where the samples are, so a caller can draw them before it
        knows the mean SNR they are added to.
        """
        config = self.config
        shadowing = None
        gains = None
        if config.shadowing_std_db > 0:
            shadowing = rng.normal(0.0, config.shadowing_std_db, size=count)
        if config.rayleigh_fading:
            gains = rng.exponential(1.0, size=count)
        return SnrFades(shadowing, gains)

    def shannon_rate_bps(self, snr_db: float, bandwidth_hz: Optional[float] = None) -> float:
        """Shannon capacity at the given SNR (upper bound used in sanity checks)."""
        bandwidth = bandwidth_hz if bandwidth_hz is not None else self.config.bandwidth_hz
        return float(bandwidth * np.log2(1.0 + snr_db_to_linear(snr_db)))
