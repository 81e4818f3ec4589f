import math
import tracemalloc

import numpy as np
import pytest

from microreserve.claims import censor
from microreserve.env import EnvConfig, ZeroPolicy, rollout_calendar
from microreserve.errors import ConfigError
from microreserve.nets import AdamState, FeatureScaler, Mlp, adam_step, forward, init_mlp
from microreserve.sac import (
    ReplayBuffer,
    SacAgent,
    SacConfig,
    fit_state_scaler,
    gaussian_tanh_log_prob,
    load_agent,
    sample_action,
    save_agent,
    squashed_draw,
    train_sac,
)

from conftest import build_claim, build_dataset
from test_nets import reference_adam_step, reference_backward, reference_forward

LN2 = math.log(2.0)


def constant_actor(mean: float, log_std: float, dim: int = 3) -> Mlp:
    net = Mlp(sizes=[dim, 2])
    net.biases[0][...] = [mean, log_std]
    return net


def unit_scaler(dim: int) -> FeatureScaler:
    return FeatureScaler(
        shift=np.zeros(dim), scale=np.ones(dim), currency=np.zeros(dim, dtype=bool)
    )


class TestSquashedDraw:
    def test_same_bits_and_stream_as_the_inline_draw(self):
        mean = np.array([0.3, -1.0, 2.0, 0.0])
        raw = np.array([-25.0, 0.5, 3.0, -20.0])
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        log_std, std, eps, u = squashed_draw(mean, raw, rng)
        want_log_std = np.clip(raw, -20.0, 2.0)
        want_eps = ref.standard_normal(mean.shape)
        want_u = mean + np.exp(want_log_std) * want_eps
        assert log_std.tobytes() == want_log_std.tobytes()
        assert std.tobytes() == np.exp(want_log_std).tobytes()
        assert eps.tobytes() == want_eps.tobytes() and u.tobytes() == want_u.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSampleAction:
    def test_deterministic_zero_mean(self):
        a = sample_action(constant_actor(0.0, 0.0), np.zeros(3), LN2, deterministic=True)
        assert a == 0.0

    def test_saturation_at_bound(self):
        a = sample_action(constant_actor(50.0, 0.0), np.zeros(3), LN2, deterministic=True)
        assert a == pytest.approx(LN2)

    def test_stochastic_symmetry(self):
        # Oracle: Monte Carlo symmetry of the squashed Gaussian.
        zeros = np.zeros(100_000)
        _, _, eps, u = squashed_draw(zeros, zeros, np.random.default_rng(0))
        a = LN2 * np.tanh(u)
        assert abs(float(np.mean(a))) < 0.01
        assert np.all(np.abs(a) <= LN2)
        # The draws are standard normal pre-squash values with a finite log-density.
        want = np.random.default_rng(0).standard_normal(u.shape)
        assert u.tobytes() == eps.tobytes() == want.tobytes()
        logp = gaussian_tanh_log_prob(zeros, zeros, u, LN2)
        assert np.all(np.isfinite(logp))

    def test_a_drawn_action_is_the_squashed_first_draw(self):
        a = sample_action(constant_actor(0.0, 0.0), np.zeros(3), LN2, rng=np.random.default_rng(0))
        u = np.random.default_rng(0).standard_normal(1)
        assert a == float((LN2 * np.tanh(u))[0])

    def test_log_prob_integrates_to_one(self):
        # Numeric integration in the pre-squash variable.
        mean, log_std = 0.3, math.log(0.8)
        u = np.linspace(-10.0, 10.0, 200_001)
        logp = gaussian_tanh_log_prob(mean, np.full_like(u, log_std), u, LN2)
        da_du = LN2 * (1.0 - np.tanh(u) ** 2)
        mass = np.trapezoid(np.exp(logp) * da_du, u)
        assert mass == pytest.approx(1.0, abs=1e-3)


def tiny_env_dataset():
    claims = [
        build_claim(
            f"c{k}",
            1 + k % 3,
            [
                (1.4 + (k % 3), "Ma", 0.0, 80.0),
                (2.6 + (k % 3), "P", 30.0, 50.0),
                (4.5 + (k % 3), "PMa", 80.0, 0.0),
            ],
        )
        for k in range(12)
    ]
    return build_dataset(claims)


def make_agent(seed=0, **cfg_kwargs) -> SacAgent:
    env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)
    cfg = SacConfig(seed=seed, batch_size=4, warmup_steps=0, hidden=(8, 8), **cfg_kwargs)
    return SacAgent(env_cfg, cfg, unit_scaler(4))


def fill_buffer(agent: SacAgent, n=32, reward=1.0, done_every=4, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    for i in range(n):
        done = i % done_every == 0
        agent.buffer.add(
            rng.normal(size=4),
            float(rng.uniform(-1, 1)),
            reward,
            None if done else rng.normal(size=4),
            done,
        )


def batch_of(agent: SacAgent, rows) -> np.ndarray:
    """Replay rows (s, a, r, s_next, done) laid out as the agent's buffer samples them."""
    buf = ReplayBuffer(None, agent.dim)
    for row in rows:
        buf.add(*row)
    return buf.rows[: len(rows)].copy()


class TestCriticTargets:
    def test_done_transition_is_reward_only(self):
        agent = make_agent()
        y = agent.critic_targets(batch_of(agent, [(np.zeros(4), 0.0, 3.5, None, True)]), gamma=0.99)
        assert y[0] == pytest.approx(3.5)

    def test_gamma_zero_is_reward(self):
        agent = make_agent()
        s_next = np.random.default_rng(0).normal(size=(2, 4))
        rows = [(np.zeros(4), 0.0, r, s, False) for r, s in zip([2.0, -1.0], s_next)]
        y = agent.critic_targets(batch_of(agent, rows), gamma=0.0)
        assert np.allclose(y, [2.0, -1.0])

    def test_hand_built_single_transition(self):
        # Oracle: scalar arithmetic with constant critics and actor.
        agent = make_agent()
        for net in (agent.target1, agent.target2, agent.actor):
            net.flat[...] = 0.0
        agent.target1.biases[-1][...] = 2.0
        agent.target2.biases[-1][...] = 5.0
        agent.actor.biases[-1][...] = np.array([0.4, -40.0])  # tight std
        batch = batch_of(agent, [(np.zeros(4), 0.0, 1.0, np.ones(4), False)])
        agent.rng = np.random.default_rng(123)
        y = agent.critic_targets(batch, gamma=0.5)
        eps = np.random.default_rng(123).standard_normal(1)[0]
        u = 0.4 + math.exp(-20.0) * eps
        logp = gaussian_tanh_log_prob(0.4, -20.0, u, agent.env_cfg.ln_k)
        expected = 1.0 + 0.5 * (2.0 - agent.temperature * logp)
        assert y[0] == pytest.approx(expected, rel=1e-6)
        # The next action fills the slot after the next state: the target critics' input.
        buf = agent.buffer
        assert batch[0, buf.slot] == np.tanh(u)
        assert np.array_equal(batch[:, buf.target_in], [[1.0, 1.0, 1.0, 1.0, np.tanh(u)]])


class TestUpdate:
    def test_fixed_transition_critics_converge_to_reward(self):
        agent = make_agent(rho=0.9)
        state = np.array([0.2, -0.1, 0.4, 1.0])
        for _ in range(8):
            agent.buffer.add(state, 0.1, 2.5, None, True)
        for _ in range(800):
            agent.update()
        x = np.concatenate([state, [0.1]])[None, :]
        q1, _ = forward(agent.critic1, x)
        assert q1[0, 0] == pytest.approx(2.5, abs=1e-2)

    def test_rho_one_rejected(self):
        with pytest.raises(ConfigError):
            SacConfig(rho=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replay_capacity": 127, "batch_size": 128},  # no update would ever run
            {"warmup_steps": -1},
            {"actor_lr": 0.0},
            {"critic_lr": -1e-3},
            {"temp_lr": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SacConfig(**kwargs)

    def test_ring_as_large_as_a_batch_trains(self):
        agent = make_agent(replay_capacity=4)
        fill_buffer(agent, n=10)
        assert len(agent.buffer) == 4
        agent.update()
        assert agent.n_updates == 1

    def test_seeded_runs_identical(self):
        def run():
            agent = make_agent(seed=3)
            fill_buffer(agent)
            return [agent.update()["critic_loss"] for _ in range(20)]

        assert run() == run()

    def test_target_polyak_lag(self):
        agent = make_agent(rho=0.995)
        fill_buffer(agent)
        before = agent.target1.flat.copy()
        agent.update()
        expected = 0.995 * before + 0.005 * agent.critic1.flat
        assert np.allclose(agent.target1.flat, expected, atol=1e-12)

    def test_buffer_actions_within_bounds(self):
        agent = make_agent()
        fill_buffer(agent)
        actions = agent.buffer.rows[: len(agent.buffer), agent.buffer.action]
        assert np.all(np.abs(actions) <= 1.0)  # normalized by ln K


class TestReplayBuffer:
    def test_capacity_ring(self):
        buf = ReplayBuffer(capacity=4, dim=2)
        for i in range(10):
            buf.add(np.full(2, i), 0.0, float(i), None, True)
        assert len(buf) == 4
        rewards = buf.sample(4, np.random.default_rng(0))[:, buf.reward]
        assert sorted(rewards.tolist()) == [6.0, 7.0, 8.0, 9.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=None, dim=2)
        for i in range(8):
            buf.add(np.full(2, i), 0.0, float(i), None, True)
        rewards = buf.sample(8, np.random.default_rng(0))[:, buf.reward]
        assert sorted(rewards.tolist()) == [float(i) for i in range(8)]

    def test_row_layout_and_column_blocks(self):
        buf = ReplayBuffer(capacity=None, dim=3)
        buf.add(np.array([1.0, 2.0, 3.0]), 0.5, -7.0, np.array([4.0, 5.0, 6.0]), False)
        buf.add(np.array([9.0, 9.0, 9.0]), -0.25, 1.5, None, True)
        assert buf.rows[:2].tolist() == [
            [1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0, 0.0, -7.0, 0.0],
            [9.0, 9.0, 9.0, -0.25, 0.0, 0.0, 0.0, 0.0, 1.5, 1.0],
        ]
        row = buf.rows[0]
        assert row[buf.critic_in].tolist() == [1.0, 2.0, 3.0, 0.5]
        assert row[buf.target_in].tolist() == [4.0, 5.0, 6.0, 0.0]
        assert row[buf.state].tolist() == [1.0, 2.0, 3.0]
        assert row[buf.next_state].tolist() == [4.0, 5.0, 6.0]

    def test_a_batch_is_one_reused_gather(self):
        buf = ReplayBuffer(capacity=None, dim=2)
        for i in range(10):
            buf.add(np.full(2, i), 0.0, float(i), None, True)
        first = buf.sample(4, np.random.default_rng(0))
        want = buf.rows[np.random.default_rng(0).choice(10, size=4, replace=False)]
        assert first.tobytes() == want.tobytes()
        assert buf.sample(4, np.random.default_rng(1)) is first  # valid until the next sample
        assert not np.shares_memory(first, buf.rows)


class TestTrain:
    def test_empty_dataset_rejected(self):
        from microreserve.claims import Dataset
        from microreserve.errors import DataError

        with pytest.raises(DataError):
            train_sac(
                Dataset(claims=[], max_calendar_period=4),
                {},
                EnvConfig(state_profile="minimal", s_scale=1.0),
                SacConfig(seed=0),
            )

    def test_training_log_and_determinism(self):
        data = tiny_env_dataset()
        env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)

        def run():
            cfg = SacConfig(seed=11, batch_size=4, warmup_steps=2, hidden=(8, 8))
            init = {c.claim_no: 80.0 for c in data.claims}
            agent = train_sac(data, init, env_cfg, cfg)
            return agent, agent.training_log

        agent1, log1 = run()
        agent2, log2 = run()
        assert len(log1) > 0
        assert [r["critic_loss"] for r in log1] == [r["critic_loss"] for r in log2]
        assert np.array_equal(agent1.actor.flat, agent2.actor.flat)

    def test_updates_only_consume_buffered_transitions(self):
        # Off-policy legality: the learner reads transitions through the
        # buffer; live rollout objects are never handed to update().
        data = tiny_env_dataset()
        env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)
        cfg = SacConfig(seed=1, batch_size=4, warmup_steps=2, hidden=(8, 8))
        init = {c.claim_no: 80.0 for c in data.claims}
        agent = train_sac(data, init, env_cfg, cfg)
        assert len(agent.buffer) > 0
        assert agent.buffer.cursor == len(agent.buffer)
        # The update's network buffers go with the training pass.
        for net in (agent.actor, agent.critic1, agent.critic2, agent.target1, agent.target2):
            assert net.workspaces == {}


class TestPersistence:
    def test_save_load_reproduces_actions(self, tmp_path):
        data = tiny_env_dataset()
        env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)
        cfg = SacConfig(seed=5, batch_size=4, warmup_steps=2, hidden=(8, 8))
        init = {c.claim_no: 80.0 for c in data.claims}
        agent = train_sac(data, init, env_cfg, cfg)
        save_agent(agent, str(tmp_path / "ckpt"))
        again = load_agent(str(tmp_path / "ckpt"))
        state = np.array([1.0, 2.0, 50.0, 10.0])
        assert again.act(state) == agent.act(state)
        assert again.env_cfg == agent.env_cfg

    def test_loaded_targets_copy_the_loaded_critics(self, tmp_path):
        agent = make_agent(seed=4)
        fill_buffer(agent)
        for _ in range(5):
            agent.update()
        save_agent(agent, str(tmp_path / "ckpt"))
        again = load_agent(str(tmp_path / "ckpt"))
        for critic, target in ((again.critic1, again.target1), (again.critic2, again.target2)):
            assert np.array_equal(target.flat, critic.flat)
            assert not np.shares_memory(target.flat, critic.flat)
        assert np.array_equal(again.critic1.flat, agent.critic1.flat)
        # The targets are a vector of their own, so writing one leaves its critic alone.
        before = again.critics.copy()
        again.target1.flat[...] += 1.0
        again.target2.weights[0][0, 0] = 99.0
        assert again.critics.tobytes() == before.tobytes()

    def test_loaded_temperature_and_scaler_are_bitwise_equal(self, tmp_path):
        agent = make_agent(seed=4)
        agent.scaler = FeatureScaler(
            shift=np.array([0.1, -2.0, 3.5, 1e-300]),
            scale=np.array([1.0, 0.3, 7.0, 2.0]),
            currency=np.array([False, False, True, True]),
        )
        fill_buffer(agent)
        for _ in range(5):
            agent.update()  # auto_temp moves the temperature off its start
        assert agent.temperature != agent.cfg.init_temp
        save_agent(agent, str(tmp_path / "ckpt"))
        again = load_agent(str(tmp_path / "ckpt"))
        assert again.temperature == agent.temperature
        assert again._log_temp_arr.tobytes() == agent._log_temp_arr.tobytes()
        for name in ("shift", "scale", "currency"):
            got, want = getattr(again.scaler, name), getattr(agent.scaler, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- oracles: the list buffer and the per-array Adam and Polyak loops ---------


class ListReplayBuffer:
    """The list-of-rows replay buffer that the array buffer replaced."""

    def __init__(self, capacity, dim):
        self.capacity = capacity
        self.dim = dim
        self.rows = []
        self.cursor = 0

    def add(self, s, a, r, s_next, done) -> None:
        s_next = np.zeros(self.dim) if s_next is None else s_next
        row = (s, float(a), float(r), s_next, 1.0 if done else 0.0)
        if self.capacity is None or len(self.rows) < self.capacity:
            self.rows.append(row)
        else:
            self.rows[self.cursor % self.capacity] = row
        self.cursor += 1

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self.rows), size=batch_size, replace=False)
        picked = [self.rows[i] for i in idx]
        return (
            np.stack([p[0] for p in picked]),
            np.array([p[1] for p in picked]),
            np.array([p[2] for p in picked]),
            np.stack([p[3] for p in picked]),
            np.array([p[4] for p in picked]),
        )


def per_array_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step, array by array, in place."""
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * g * g
        m_hat = mm / (1.0 - beta1**t)
        v_hat = vv / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def arrays(net):
    """The parameter arrays in layout order: w1, b1, w2, b2, ..."""
    return [a for pair in zip(net.weights, net.biases) for a in pair]


def adam_layout(net, grads):
    """The parameters and per-array gradients in the form ``adam_step`` takes.

    Covers both parameter layouts, one flat vector and a list of per-layer
    arrays, so the oracle checks whichever ``nets`` implementation it runs on.
    """
    if hasattr(net, "flat"):
        return net.flat, np.concatenate([g.ravel() for g in grads])
    return net.parameters(), grads


def columns(buf, rows):
    """A batch's (states, actions, rewards, next_states, dones), as the field buffers gave them."""
    return tuple(rows[:, c] for c in (buf.state, buf.action, buf.reward, buf.next_state, buf.done))


def replay_rows(rng, n, dim):
    for i in range(n):
        done = i % 3 == 0
        yield (
            rng.normal(size=dim),
            float(rng.uniform(-1, 1)),
            float(rng.normal()),
            None if done else rng.normal(size=dim),
            done,
        )


class TestLearnerOracles:
    def assert_same_sample(self, buf, ref, batch, seed):
        got = columns(buf, buf.sample(batch, np.random.default_rng(seed)))
        want = ref.sample(batch, np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("capacity, n, batch", [(4, 10, 3), (None, 300, 64)])
    def test_buffer_matches_list_buffer(self, capacity, n, batch):
        # (4, 10): the ring wraps twice; (None, 300): growth past the first
        # allocation. Samples are compared after every add.
        buf = ReplayBuffer(capacity=capacity, dim=5)
        ref = ListReplayBuffer(capacity, dim=5)
        for k, row in enumerate(replay_rows(np.random.default_rng(4), n, 5)):
            buf.add(*row)
            ref.add(*row)
            assert len(buf) == len(ref.rows)
            if len(buf) >= batch:
                self.assert_same_sample(buf, ref, batch, seed=k)
        states, actions, rewards = columns(buf, buf.rows[: len(buf)])[:3]
        assert np.array_equal(states, np.stack([r[0] for r in ref.rows]))
        assert np.array_equal(actions, [r[1] for r in ref.rows])
        assert np.array_equal(rewards, [r[2] for r in ref.rows])

    def test_adam_matches_per_array_loop(self):
        # 50 steps on SAC-shaped nets: an actor and a critic over 21 inputs.
        rng = np.random.default_rng(9)
        for sizes, lr in (([21, 64, 64, 2], 3e-4), ([22, 64, 64, 1], 1e-3)):
            net = init_mlp(sizes, rng)
            ref = [a.copy() for a in arrays(net)]
            m = [np.zeros_like(a) for a in ref]
            v = [np.zeros_like(a) for a in ref]
            opt = None
            for t in range(1, 51):
                grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=a.shape) for a in ref]
                params, flat_grads = adam_layout(net, grads)
                if opt is None:
                    opt = AdamState.for_params(params, lr)
                adam_step(opt, params, flat_grads)
                per_array_adam(ref, grads, m, v, t, lr)
                for got, want in zip(arrays(net), ref):
                    assert np.array_equal(got, want)

    def test_polyak_matches_per_array_loop(self):
        agent = make_agent(seed=2, rho=0.95)
        fill_buffer(agent, n=40)
        pairs = [(agent.critic1, agent.target1), (agent.critic2, agent.target2)]
        refs = [[a.copy() for a in arrays(target)] for _, target in pairs]
        for _ in range(20):
            agent.update()
            for (critic, target), ref in zip(pairs, refs):
                for p_t, p_c in zip(ref, arrays(critic)):
                    p_t *= 0.95
                    p_t += (1.0 - 0.95) * p_c
                for got, want in zip(arrays(target), ref):
                    assert np.array_equal(got, want)


# -- the learner before the shared critic vector, the row buffer and the workspaces --


class FieldReplayBuffer:
    """The replay buffer with one preallocated array per field."""

    FIRST_ROWS = 64

    def __init__(self, capacity, dim):
        self.capacity = capacity
        self.cursor = 0
        rows = self.FIRST_ROWS if capacity is None else min(capacity, self.FIRST_ROWS)
        self._fields = [np.zeros((rows, dim)), np.zeros(rows), np.zeros(rows),
                        np.zeros((rows, dim)), np.zeros(rows)]

    def __len__(self):
        return self.cursor if self.capacity is None else min(self.cursor, self.capacity)

    def add(self, s, a, r, s_next, done):
        i = self.cursor if self.capacity is None else self.cursor % self.capacity
        allocated = len(self._fields[0])
        if i == allocated:
            rows = 2 * allocated if self.capacity is None else min(2 * allocated, self.capacity)
            self._fields = [
                np.concatenate([f, np.zeros((rows - allocated,) + f.shape[1:])])
                for f in self._fields
            ]
        row = (s, a, r, 0.0 if s_next is None else s_next, 1.0 if done else 0.0)
        for f, value in zip(self._fields, row):
            f[i] = value
        self.cursor += 1

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return tuple(f[idx] for f in self._fields)


class ReferenceLearner:
    """``SacAgent``'s update as it was: a net, an Adam step and a Polyak step per
    critic, concatenated inputs, and networks that allocate every array."""

    def __init__(self, agent: SacAgent):
        cfg = self.cfg = agent.cfg
        self.env_cfg = agent.env_cfg
        self.rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 77]))
        for name in ("actor", "critic1", "critic2", "target1", "target2"):
            net = getattr(agent, name)
            setattr(self, name, Mlp(list(net.sizes), net.flat.copy()))
        self.actor_opt = AdamState.for_params(self.actor.flat, cfg.actor_lr)
        self.critic1_opt = AdamState.for_params(self.critic1.flat, cfg.critic_lr)
        self.critic2_opt = AdamState.for_params(self.critic2.flat, cfg.critic_lr)
        self._log_temp_arr = agent._log_temp_arr.copy()
        self.temp_opt = AdamState.for_params(self._log_temp_arr, cfg.temp_lr)
        self.buffer = FieldReplayBuffer(cfg.replay_capacity, agent.dim)
        self.n_updates = 0
        self.training_log = []

    @property
    def temperature(self):
        return float(np.exp(self._log_temp_arr[0]))

    def critic_targets(self, rewards, next_states, dones, gamma):
        out, _ = reference_forward(self.actor, next_states)
        mean = out[:, 0]
        log_std = np.clip(out[:, 1], -20.0, 2.0)
        u = mean + np.exp(log_std) * self.rng.standard_normal(mean.shape)
        a_norm = np.tanh(u)
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)
        x = np.concatenate([next_states, a_norm[:, None]], axis=1)
        q1, _ = reference_forward(self.target1, x)
        q2, _ = reference_forward(self.target2, x)
        q_min = np.minimum(q1[:, 0], q2[:, 0])
        return rewards + gamma * (1.0 - dones) * (q_min - self.temperature * logp)

    def update(self):
        states, actions, rewards, next_states, dones = self.buffer.sample(
            self.cfg.batch_size, self.rng
        )
        bsz = states.shape[0]
        y = self.critic_targets(rewards, next_states, dones, self.env_cfg.gamma)

        x = np.concatenate([states, actions[:, None]], axis=1)
        critic_losses = []
        for critic, opt in ((self.critic1, self.critic1_opt), (self.critic2, self.critic2_opt)):
            q, cache = reference_forward(critic, x)
            err = q[:, 0] - y
            critic_losses.append(float(np.mean(err**2)))
            grad, _ = reference_backward(critic, cache, (2.0 * err / bsz)[:, None])
            reference_adam_step(opt, critic.flat, grad)

        out, actor_cache = reference_forward(self.actor, states)
        mean = out[:, 0]
        log_std_raw = out[:, 1]
        log_std = np.clip(log_std_raw, -20.0, 2.0)
        std = np.exp(log_std)
        eps = self.rng.standard_normal(mean.shape)
        u = mean + std * eps
        tanh_u = np.tanh(u)
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)

        xa = np.concatenate([states, tanh_u[:, None]], axis=1)
        q1, cache1 = reference_forward(self.critic1, xa)
        q2, cache2 = reference_forward(self.critic2, xa)
        use1 = q1[:, 0] <= q2[:, 0]
        q_min = np.where(use1, q1[:, 0], q2[:, 0])
        ones = np.ones((bsz, 1))
        _, in_grad1 = reference_backward(self.critic1, cache1, ones, param_grads=False)
        _, in_grad2 = reference_backward(self.critic2, cache2, ones, param_grads=False)
        dq_da = np.where(use1, in_grad1[:, -1], in_grad2[:, -1])

        temp = self.temperature
        sech2 = 1.0 - tanh_u**2
        dlogp_du = 2.0 * tanh_u
        dl_dmean = (temp * dlogp_du - dq_da * sech2) / bsz
        dl_dlogstd = dl_dmean * std * eps + temp * (-1.0) / bsz
        clip_mask = (log_std_raw > -20.0) & (log_std_raw < 2.0)
        dl_dlogstd = np.where(clip_mask, dl_dlogstd, 0.0)
        upstream = np.stack([dl_dmean, dl_dlogstd], axis=1)
        actor_grad, _ = reference_backward(self.actor, actor_cache, upstream)
        reference_adam_step(self.actor_opt, self.actor.flat, actor_grad)
        actor_loss = float(np.mean(temp * logp - q_min))

        if self.cfg.auto_temp:
            grad = np.array([-(float(np.mean(logp)) + self.cfg.entropy_target) * 1.0])
            reference_adam_step(self.temp_opt, self._log_temp_arr, grad)

        for critic, target in ((self.critic1, self.target1), (self.critic2, self.target2)):
            target.flat *= self.cfg.rho
            target.flat += (1.0 - self.cfg.rho) * critic.flat

        self.n_updates += 1
        diag = {
            "update": self.n_updates,
            "critic_loss": 0.5 * (critic_losses[0] + critic_losses[1]),
            "actor_loss": actor_loss,
            "temperature": self.temperature,
            "buffer": len(self.buffer),
        }
        self.training_log.append(diag)
        return diag


def sac_shaped_agent(seed=0, **cfg_kwargs) -> SacAgent:
    """An agent of the default run's shape: the full splice state, 64x64 nets, batch 128."""
    env_cfg = EnvConfig(s_scale=50.0)
    cfg = SacConfig(seed=seed, warmup_steps=0, **cfg_kwargs)
    agent = SacAgent(env_cfg, cfg, None)
    agent.scaler = unit_scaler(agent.dim)
    return agent


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestUpdateOracle:
    @pytest.mark.parametrize("capacity", [None, 200])
    def test_200_updates_match_the_reference_bit_for_bit(self, capacity):
        # The buffer grows (None) or wraps (200) while it trains, as in a rollout.
        agent = sac_shaped_agent(seed=6, replay_capacity=capacity, rho=0.95)
        ref = ReferenceLearner(agent)
        rows = replay_rows(np.random.default_rng(8), 128 + 200, agent.dim)
        for k, row in enumerate(rows):
            agent.buffer.add(*row)
            ref.buffer.add(*row)
            if k >= 128:
                agent.update()
                ref.update()
        assert agent.n_updates == ref.n_updates == 200
        for name in ("actor", "critic1", "critic2", "target1", "target2"):
            assert bits(getattr(agent, name).flat) == bits(getattr(ref, name).flat), name
        for got, want in (
            (agent.actor_opt, [ref.actor_opt]),
            (agent.critic_opt, [ref.critic1_opt, ref.critic2_opt]),
            (agent.temp_opt, [ref.temp_opt]),
        ):
            assert got.step == want[0].step == 200
            assert bits(got.m) == bits(np.concatenate([w.m for w in want]))
            assert bits(got.v) == bits(np.concatenate([w.v for w in want]))
        assert bits(agent._log_temp_arr) == bits(ref._log_temp_arr)
        assert agent.rng.bit_generator.state == ref.rng.bit_generator.state
        assert [list(row) for row in agent.training_log] == [list(row) for row in ref.training_log]
        for got, want in zip(agent.training_log, ref.training_log):
            assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]

    def test_warm_updates_allocate_little(self):
        agent = sac_shaped_agent(seed=2)
        for row in replay_rows(np.random.default_rng(3), 300, agent.dim):
            agent.buffer.add(*row)
        for _ in range(5):
            agent.update()
        tracemalloc.start()
        try:
            for _ in range(20):
                agent.update()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The allocating update peaked near 900 KB: its products, inputs and Polyak step.
        # What is left is mostly the 64 KB buffer numpy makes for a broadcast bias add;
        # a fresh 89 KB Polyak product on top of it would cross the bound.
        assert peak < 100 * 1024, peak

    def test_the_critics_share_one_vector_and_one_adam_step(self):
        agent = sac_shaped_agent()
        half = agent.critics.size // 2
        for k, (critic, target) in enumerate(
            ((agent.critic1, agent.target1), (agent.critic2, agent.target2))
        ):
            assert critic.flat.base is agent.critics and target.flat.base is agent.targets
            assert np.shares_memory(critic.flat, agent.critics[k * half : (k + 1) * half])
        assert not np.shares_memory(agent.critics, agent.targets)
        assert agent.critic_opt.m.shape == agent.critics.shape


class TestStateScaling:
    @staticmethod
    def setting():
        data = tiny_env_dataset()
        env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)
        init = {c.claim_no: 80.0 for c in data.claims}
        return data, env_cfg, init

    def test_a_rollout_with_a_scaler_holds_the_transforms_of_its_raw_states(self):
        data, env_cfg, init = self.setting()
        scaler = fit_state_scaler(data, init, env_cfg)
        assert not np.array_equal(scaler.shift, 0.0) and not np.array_equal(scaler.scale, 1.0)
        raw = rollout_calendar(data, ZeroPolicy(), init, env_cfg)
        scaled = rollout_calendar(data, ZeroPolicy(), init, env_cfg, scaler=scaler)
        assert len(scaled.transitions) == len(raw.transitions) > 0
        for got, want in zip(scaled.transitions, raw.transitions):
            assert got.state.tobytes() == scaler.transform(want.state).tobytes()
            assert (got.next_state is None) == (want.next_state is None)
            if want.next_state is not None:
                assert got.next_state.tobytes() == scaler.transform(want.next_state).tobytes()
        assert scaled.reserves == raw.reserves

    def test_training_scales_each_state_once_and_buffers_it_as_it_is(self, monkeypatch):
        data, env_cfg, init = self.setting()
        cfg = SacConfig(seed=11, batch_size=4, warmup_steps=2, hidden=(8, 8))
        scaled, acted, observed = [], [], []
        transform, act, observe = FeatureScaler.transform, SacAgent.act, SacAgent.observe

        def counted(self, x):
            scaled.append(transform(self, x))
            return scaled[-1]

        def acting(self, state, **kwargs):
            acted.append(state)
            return act(self, state, **kwargs)

        def recorded(self, txn):
            observed.append(txn)
            return observe(self, txn)

        monkeypatch.setattr(FeatureScaler, "transform", counted)
        monkeypatch.setattr(SacAgent, "act", acting)
        monkeypatch.setattr(SacAgent, "observe", recorded)
        agent = train_sac(data, init, env_cfg, cfg)
        # One transform per state the rollout builds, and the policy acts on that array.
        assert len(scaled) == len(acted) == agent.env_steps > 0
        assert all(s is a for s, a in zip(scaled, acted))
        # Every claim here settles, so each state is the state of one transition.
        assert [id(txn.state) for txn in observed] == [id(s) for s in scaled]
        buf = agent.buffer
        assert len(buf) == len(observed)
        for row, txn in zip(buf.rows, observed):
            assert row[buf.state].tobytes() == txn.state.tobytes()
            want = np.zeros(agent.dim) if txn.next_state is None else txn.next_state
            assert row[buf.next_state].tobytes() == want.tobytes()

    def test_targets_of_a_small_batch_after_an_update_match_a_fresh_agent(self):
        agent = make_agent(seed=4)
        fill_buffer(agent)
        agent.update()
        fresh = make_agent(seed=4)
        for name in ("actor", "target1", "target2"):
            getattr(fresh, name).flat[...] = getattr(agent, name).flat
        fresh._log_temp_arr[...] = agent._log_temp_arr
        fresh.rng.bit_generator.state = agent.rng.bit_generator.state
        rng = np.random.default_rng(9)
        rows = [(rng.normal(size=4), 0.5, 1.0, rng.normal(size=4), False) for _ in range(3)]
        batches = [batch_of(agent, rows) for _ in range(2)]
        y = agent.critic_targets(batches[0], gamma=0.9)
        want = fresh.critic_targets(batches[1], gamma=0.9)
        assert len(y) == 3 < agent.cfg.batch_size
        assert y.tobytes() == want.tobytes()
        assert batches[0].tobytes() == batches[1].tobytes()
        assert agent.rng.bit_generator.state == fresh.rng.bit_generator.state
