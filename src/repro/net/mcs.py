"""SNR to spectral-efficiency mapping (CQI / MCS table).

The table follows the 15-level LTE CQI table (QPSK .. 64QAM with varying
code rates).  ``select_mcs`` picks the highest entry whose SNR threshold the
reported SNR satisfies; ``spectral_efficiency`` additionally applies an
implementation-loss factor so realised rates sit below Shannon capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding-scheme level."""

    index: int
    spectral_efficiency_bps_hz: float
    min_snr_db: float


#: LTE CQI table (index 1..15: QPSK for 1-6, 16QAM for 7-9, 64QAM for 10-15)
#: with approximate SNR switching thresholds.
MCS_TABLE: List[McsEntry] = [
    McsEntry(1, 0.1523, -6.7),
    McsEntry(2, 0.2344, -4.7),
    McsEntry(3, 0.3770, -2.3),
    McsEntry(4, 0.6016, 0.2),
    McsEntry(5, 0.8770, 2.4),
    McsEntry(6, 1.1758, 4.3),
    McsEntry(7, 1.4766, 5.9),
    McsEntry(8, 1.9141, 8.1),
    McsEntry(9, 2.4063, 10.3),
    McsEntry(10, 2.7305, 11.7),
    McsEntry(11, 3.3223, 14.1),
    McsEntry(12, 3.9023, 16.3),
    McsEntry(13, 4.5234, 18.7),
    McsEntry(14, 5.1152, 21.0),
    McsEntry(15, 5.5547, 22.7),
]


def select_mcs(snr_db: float) -> Optional[McsEntry]:
    """Highest MCS whose threshold is satisfied, or ``None`` when in outage."""
    feasible = [entry for entry in MCS_TABLE if snr_db >= entry.min_snr_db]
    if not feasible:
        return None
    return max(feasible, key=lambda entry: entry.spectral_efficiency_bps_hz)


def spectral_efficiency(snr_db: float, implementation_loss: float = 1.0) -> float:
    """Achievable spectral efficiency (bit/s/Hz) at ``snr_db``.

    Returns zero when the SNR is below the lowest MCS threshold (outage).
    ``implementation_loss`` in (0, 1] scales the tabulated efficiency;
    :class:`~repro.sim.config.SimulationConfig` checks the range.
    """
    entry = select_mcs(snr_db)
    if entry is None:
        return 0.0
    return entry.spectral_efficiency_bps_hz * implementation_loss
