"""Unit tests for the RL substrate: replay, policies, DDQN, environments, training."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.cluster.metrics
import repro.rl.env

from repro.rl import (
    DDQNAgent,
    DDQNConfig,
    Environment,
    GroupingEnvConfig,
    GroupingEnvironment,
    LinearEpsilonDecay,
    ReplayBuffer,
    SnapshotReplayEnvironment,
    StepResult,
    grouping_state,
    train_agent,
)
from repro.rl.env import STATE_DIM, _population_terms
from population_terms_reference import reference_population_terms


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestReplayBuffer:
    def test_push_and_len(self):
        buffer = ReplayBuffer(capacity=4)
        for i in range(3):
            buffer.push(np.array([float(i)]), 0, 1.0, np.array([float(i + 1)]), False)
        assert len(buffer) == 3

    def test_capacity_evicts_oldest(self):
        buffer = ReplayBuffer(capacity=2)
        for i in range(5):
            buffer.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        assert len(buffer) == 2 == buffer.capacity

    def test_sample_shapes(self, rng):
        buffer = ReplayBuffer(capacity=16)
        for i in range(10):
            buffer.push(np.array([float(i), 0.0]), i % 3, float(i), np.array([0.0, 1.0]), i % 2 == 0)
        batch = buffer.sample(4, rng=rng)
        assert batch.states.shape == (4, 2)
        assert batch.actions.shape == (4,)
        assert batch.rewards.shape == (4,)
        assert batch.next_states.shape == (4, 2)
        assert batch.dones.shape == (4,)
        assert len(batch) == 4

    def test_sample_more_than_stored_raises(self, rng):
        buffer = ReplayBuffer(capacity=8)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError):
            buffer.sample(4, rng=rng)

    def test_sample_requires_rng(self):
        buffer = ReplayBuffer(capacity=8)
        for _ in range(4):
            buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError, match="requires an explicit rng"):
            buffer.sample(4)

    def test_full_buffer_keeps_the_newest(self, rng):
        buffer = ReplayBuffer(capacity=2)
        for i in range(5):
            buffer.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        batch = buffer.sample(2, rng=rng)
        assert sorted(batch.rewards) == [3.0, 4.0]

    def test_push_stores_copies_of_the_states(self, rng):
        buffer = ReplayBuffer(capacity=4)
        state, next_state = np.zeros(2), np.ones(2)
        buffer.push(state, 1, 0.5, next_state, True)
        state += 7.0
        next_state += 7.0
        batch = buffer.sample(1, rng=rng)
        np.testing.assert_array_equal(batch.states, [[0.0, 0.0]])
        np.testing.assert_array_equal(batch.next_states, [[1.0, 1.0]])

    def test_rejects_non_positive_capacity_and_batch(self, rng):
        with pytest.raises(ValueError, match="capacity"):
            ReplayBuffer(capacity=0)
        buffer = ReplayBuffer(capacity=4)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError, match="batch_size"):
            buffer.sample(0, rng=rng)


class TestEpsilonSchedules:
    def test_linear_decay_endpoints(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.1, decay_steps=100)
        assert schedule.value(0) == pytest.approx(1.0)
        assert schedule.value(100) == pytest.approx(0.1)
        assert schedule.value(1_000) == pytest.approx(0.1)

    def test_linear_decay_monotone(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.05, decay_steps=50)
        values = [schedule.value(step) for step in range(0, 60, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class _LineEnvironment(Environment):
    """Tiny deterministic MDP: action 1 is always better than action 0."""

    def __init__(self) -> None:
        self.state_dim = 2
        self.num_actions = 2
        self._step = 0

    def reset(self, rng=None):
        self._step = 0
        return np.array([0.0, 1.0])

    def step(self, action: int) -> StepResult:
        reward = 1.0 if action == 1 else -1.0
        self._step += 1
        done = self._step >= 10
        return StepResult(state=np.array([float(self._step) / 10.0, 1.0]), reward=reward, done=done, info={})


class TestDDQNAgent:
    def make_agent(self, **overrides):
        config = DDQNConfig(
            state_dim=2,
            num_actions=2,
            hidden_sizes=(16,),
            batch_size=8,
            min_replay_size=8,
            replay_capacity=256,
            target_update_interval=20,
            learning_rate=5e-3,
            seed=0,
            **overrides,
        )
        return DDQNAgent(config, epsilon_schedule=LinearEpsilonDecay(1.0, 0.05, 150))

    def test_q_values_shape(self):
        agent = self.make_agent()
        assert agent.q_values(np.array([0.0, 1.0])).shape == (2,)

    def test_q_values_rejects_wrong_dim(self):
        agent = self.make_agent()
        with pytest.raises(ValueError):
            agent.q_values(np.zeros(3))

    def test_observe_rejects_invalid_action(self):
        agent = self.make_agent()
        with pytest.raises(ValueError):
            agent.observe(np.zeros(2), 5, 0.0, np.zeros(2), False)

    def test_learning_starts_after_min_replay(self):
        agent = self.make_agent()
        losses = []
        for _ in range(12):
            loss = agent.observe(np.zeros(2), 0, 0.0, np.zeros(2), False)
            losses.append(loss)
        assert all(loss is None for loss in losses[:7])
        assert any(loss is not None for loss in losses[8:])

    def test_agent_learns_better_action(self):
        agent = self.make_agent()
        env = _LineEnvironment()
        train_agent(agent, env, episodes=30, rng=np.random.default_rng(0))
        state = env.reset()
        q = agent.q_values(state)
        assert q[1] > q[0]

    def test_greedy_policy_matches_argmax(self):
        agent = self.make_agent()
        state = np.array([0.2, 0.8])
        action = agent.select_action(state, greedy=True)
        assert action == int(agent.q_values(state).argmax())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DDQNConfig(state_dim=0, num_actions=2)
        with pytest.raises(ValueError):
            DDQNConfig(state_dim=2, num_actions=2, min_replay_size=4, batch_size=8)


class TestGroupingEnvironment:
    def test_state_dimension(self, rng):
        env = GroupingEnvironment(GroupingEnvConfig(seed=1))
        state = env.reset(rng)
        assert state.shape == (STATE_DIM,)

    def test_step_before_reset_raises(self):
        env = GroupingEnvironment()
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_episode_terminates(self, rng):
        config = GroupingEnvConfig(episode_length=3, seed=1)
        env = GroupingEnvironment(config)
        env.reset(rng)
        dones = [env.step(0).done for _ in range(3)]
        assert dones == [False, False, True]

    def test_action_to_k_mapping(self):
        config = GroupingEnvConfig(min_groups=2, max_groups=5)
        assert config.num_actions == 4
        assert config.action_to_k(0) == 2
        assert config.action_to_k(3) == 5
        with pytest.raises(ValueError):
            config.action_to_k(4)

    def test_reward_penalises_more_groups_for_two_blob_data(self, rng):
        """With two clear blobs, K=2 should out-reward the maximum K."""

        def two_blobs(generator):
            a = generator.normal(0.0, 0.3, size=(10, 4)) + 5.0
            b = generator.normal(0.0, 0.3, size=(10, 4)) - 5.0
            return np.vstack([a, b])

        config = GroupingEnvConfig(min_groups=2, max_groups=6, seed=2)
        env = GroupingEnvironment(config, feature_provider=two_blobs)
        env.reset(rng)
        reward_k2 = env.step(0).reward
        env.reset(rng)
        reward_kmax = env.step(config.num_actions - 1).reward
        assert reward_k2 > reward_kmax

    def test_invalid_k_penalised(self, rng):
        def tiny(generator):
            return generator.normal(size=(3, 4))

        config = GroupingEnvConfig(min_groups=2, max_groups=8, invalid_penalty=-1.0, seed=0)
        env = GroupingEnvironment(config, feature_provider=tiny)
        env.reset(rng)
        outcome = env.step(config.num_actions - 1)  # K=8 > 3 users
        assert outcome.reward == pytest.approx(-1.0)

    def test_grouping_state_permutation_invariant(self, rng):
        features = rng.normal(size=(12, 5))
        state_a = grouping_state(features, 3, 0.5, 8)
        state_b = grouping_state(features[rng.permutation(12)], 3, 0.5, 8)
        np.testing.assert_allclose(state_a, state_b, rtol=1e-9)

    def test_snapshot_replay_environment_cycles(self, rng):
        snapshots = [rng.normal(size=(8, 4)), rng.normal(size=(10, 4))]
        env = SnapshotReplayEnvironment(snapshots=snapshots, config=GroupingEnvConfig(episode_length=4))
        state = env.reset(rng)
        assert state.shape == (STATE_DIM,)
        outcome = env.step(0)
        assert np.isfinite(outcome.reward)


class TestSnapshotReplay:
    """Replaying snapshots trains as drawing them would, measuring each once."""

    @staticmethod
    def snapshots():
        """6 users in 2 blobs (so K = 7, 8 are invalid), then 28 users in 4 blobs."""
        cases = np.random.default_rng(11)
        return [
            np.vstack(
                [
                    centre + cases.normal(0.0, 0.4, size=(per_blob, 4))
                    for centre in cases.normal(0.0, 3.0, size=(blobs, 4))
                ]
            )
            for blobs, per_blob in ((2, 3), (4, 7))
        ]

    @staticmethod
    def train(env):
        agent = DDQNAgent(
            DDQNConfig(
                state_dim=STATE_DIM,
                num_actions=env.num_actions,
                hidden_sizes=(16,),
                batch_size=8,
                min_replay_size=8,
                seed=4,
            )
        )
        return agent, train_agent(agent, env, episodes=3, rng=np.random.default_rng(7))

    def test_replay_equals_per_draw_and_measures_each_snapshot_once(self, monkeypatch):
        calls = []
        original = repro.cluster.metrics.pairwise_euclidean

        def counting(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(repro.cluster.metrics, "pairwise_euclidean", counting)
        monkeypatch.setattr(repro.rl.env, "pairwise_euclidean", counting, raising=False)
        snapshots = self.snapshots()
        config = GroupingEnvConfig(min_groups=2, max_groups=8, episode_length=8, seed=1)

        replay_agent, replayed = self.train(SnapshotReplayEnvironment(snapshots, config))
        assert calls == [6, 28]

        calls.clear()
        position = itertools.count()
        per_draw = GroupingEnvironment(
            config, feature_provider=lambda rng: snapshots[next(position) % len(snapshots)]
        )
        draw_agent, drawn = self.train(per_draw)
        assert len(calls) == 3 * config.episode_length

        assert replayed.episode_returns == drawn.episode_returns
        assert replayed.episode_lengths == drawn.episode_lengths == [8, 8, 8]
        for mine, theirs in zip(
            replay_agent.online.get_weights(), draw_agent.online.get_weights()
        ):
            np.testing.assert_array_equal(mine, theirs)
        assert replay_agent.diagnostics.target_updates == draw_agent.diagnostics.target_updates


class TestTrainingLoop:
    def test_train_agent_returns_per_episode_data(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        result = train_agent(
            agent, _LineEnvironment(), episodes=5, rng=np.random.default_rng(0)
        )
        assert result.num_episodes == 5
        assert len(result.episode_lengths) == 5
        assert all(length == 10 for length in result.episode_lengths)

    def test_train_agent_dimension_mismatch_raises(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=3, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        with pytest.raises(ValueError):
            train_agent(
                agent, _LineEnvironment(), episodes=1, rng=np.random.default_rng(0)
            )

    def test_episode_returns_sum_the_step_rewards(self):
        class _RecordingLine(_LineEnvironment):
            def __init__(self):
                super().__init__()
                self.rewards = []

            def reset(self, rng=None):
                self.rewards.append([])
                return super().reset(rng)

            def step(self, action):
                outcome = super().step(action)
                self.rewards[-1].append(outcome.reward)
                return outcome

        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        env = _RecordingLine()
        result = train_agent(agent, env, episodes=6, rng=np.random.default_rng(0))
        assert result.episode_returns == [sum(rewards) for rewards in env.rewards]
        assert result.episode_lengths == [len(rewards) for rewards in env.rewards]

    def test_train_agent_rejects_non_positive_episodes(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        with pytest.raises(ValueError, match="episodes"):
            train_agent(agent, _LineEnvironment(), episodes=0, rng=np.random.default_rng(0))

    def test_train_agent_requires_rng(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        with pytest.raises(ValueError, match="explicit rng"):
            train_agent(agent, _LineEnvironment(), episodes=1)

    def test_evaluate_agent_uses_greedy_policy(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        train_agent(
            agent, _LineEnvironment(), episodes=20, rng=np.random.default_rng(0)
        )
        env = _LineEnvironment()
        returns = []
        for _ in range(3):
            state, episode_return, done = env.reset(), 0.0, False
            while not done:
                outcome = env.step(agent.select_action(state, greedy=True))
                state, done = outcome.state, outcome.done
                episode_return += outcome.reward
            returns.append(episode_return)
        # A trained greedy agent should always pick action 1 and earn +10.
        assert np.mean(returns) > 0


# ------------------------------------------------- blocked population terms
@settings(max_examples=150, deadline=None)
@given(
    num_users=st.integers(0, 50),
    dim=st.integers(1, 19),
    block_rows=st.one_of(st.none(), st.integers(1, 60)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    duplicates=st.booleans(),
)
@example(num_users=0, dim=3, block_rows=1, seed=0, scale=1.0, duplicates=False)
@example(num_users=1, dim=3, block_rows=1, seed=0, scale=1.0, duplicates=False)
@example(num_users=2, dim=3, block_rows=1, seed=0, scale=1.0, duplicates=False)
@example(num_users=2, dim=3, block_rows=5, seed=0, scale=1.0, duplicates=False)
@example(num_users=9, dim=8, block_rows=1, seed=1, scale=1.0, duplicates=True)
@example(num_users=9, dim=8, block_rows=10, seed=1, scale=1.0, duplicates=False)
def test_blocked_population_terms_equal_the_whole_tensor(
    num_users, dim, block_rows, seed, scale, duplicates
):
    """Row blocks of any size give the whole-tensor tuple exactly."""
    features = np.random.default_rng(seed).normal(size=(num_users, dim)) * scale
    if duplicates and num_users > 1:
        features[1::2] = features[0]
    assert _population_terms(features, block_rows) == reference_population_terms(features)


def test_default_blocks_split_a_large_population():
    # 700 users x 8 dims is several default blocks.
    features = np.random.default_rng(3).normal(size=(700, 8))
    rows = repro.rl.env._BLOCK_BYTES // (8 * 700 * 8)
    assert 1 < rows < 700
    assert _population_terms(features) == reference_population_terms(features)
