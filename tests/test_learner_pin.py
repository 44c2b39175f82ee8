"""Pin the scheme's two trained learners: the 1D-CNN and the DDQN.

The export digests see a learner only through the groups it picks, and at
the scheme pins' two intervals a changed gradient can leave every group as
it was.  This test reads the learners themselves: a fixed feature tensor
fits a :class:`UDTFeatureCompressor`, its two halves are compressed, and a
:class:`MulticastGroupConstructor` trains its DDQN on those two snapshots.
Twenty numbers are compared: each epoch loss, the summed magnitude of each
half's features and of each online Q-network array, and each episode
return.

The expected values were taken before the learning stack lost its unused
layers and knobs.  Across the OpenBLAS kernel families tried (the default,
SkylakeX, Haswell, Sandybridge, Nehalem and Prescott) these numbers spread
by at most 1.35e-9 relative, so a 1e-6 tolerance holds on any of them,
while a change to what the DDQN learns from moves several by more.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import CompressorConfig, UDTFeatureCompressor
from repro.core.grouping import MulticastGroupConstructor

SEED = 11
EPOCHS = 4
EPISODES = 8

EXPECTED = {
    "epoch_losses": [
        1.2820470300098317,
        1.1053176629517558,
        1.016291007378319,
        0.9746631069083399,
    ],
    "feature_abs_sums": [
        284.54491489495956,
        302.1093626450979,
    ],
    "q_network_abs_sums": [
        113.17214407017723,
        0.2561805122554603,
        218.3709049333451,
        0.2326596895796914,
        33.89720244260032,
        0.1483266827597447,
    ],
    "episode_returns": [
        2.221232769230614,
        2.0195384031055514,
        2.9307517730031645,
        2.26070164825711,
        2.293389483463181,
        2.3731416937780874,
        1.9743435236892188,
        2.066295818697074,
    ],
}


def _feature_tensor() -> np.ndarray:
    """96 users x 32 steps x 12 channels from three interleaved profiles."""
    rng = np.random.default_rng(2023)
    profiles = rng.normal(0.0, 1.5, size=(3, 1, 12))
    users = profiles[np.arange(96) % 3] + rng.normal(0.0, 0.6, size=(96, 32, 12))
    return users + rng.normal(0.0, 0.2, size=(96, 1, 12))


def learner_numbers() -> dict:
    tensor = _feature_tensor()
    compressor = UDTFeatureCompressor(
        CompressorConfig(num_steps=32, num_channels=12, epochs=EPOCHS, seed=SEED)
    )
    history = compressor.fit(tensor)
    halves = [compressor.compress(tensor[:48]), compressor.compress(tensor[48:])]
    constructor = MulticastGroupConstructor(2, 6, seed=SEED)
    result = constructor.train(snapshots=halves, episodes=EPISODES)
    return {
        "epoch_losses": list(history.train_loss),
        "feature_abs_sums": [float(np.abs(half).sum()) for half in halves],
        "q_network_abs_sums": [
            float(np.abs(param.value).sum()) for param in constructor.agent.online.parameters()
        ],
        "episode_returns": list(result.episode_returns),
    }


def test_learners_train_to_the_pinned_state():
    numbers = learner_numbers()
    assert [len(values) for values in numbers.values()] == [EPOCHS, 2, 6, EPISODES]
    for name, expected in EXPECTED.items():
        np.testing.assert_allclose(numbers[name], expected, rtol=1e-6, atol=0, err_msg=name)
