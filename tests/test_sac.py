import math

import numpy as np
import pytest

from microreserve.claims import censor
from microreserve.env import EnvConfig, Transition
from microreserve.errors import ConfigError
from microreserve.nets import AdamState, FeatureScaler, Mlp, adam_step, forward, init_mlp
from microreserve.sac import (
    ReplayBuffer,
    SacAgent,
    SacConfig,
    gaussian_tanh_log_prob,
    load_agent,
    sample_action,
    save_agent,
    squashed_draw,
    train_sac,
)

from conftest import build_claim, build_dataset

LN2 = math.log(2.0)


def constant_actor(mean: float, log_std: float, dim: int = 3) -> Mlp:
    net = Mlp(sizes=[dim, 2], activations=["identity"])
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
        rng = np.random.default_rng(0)
        actor = constant_actor(0.0, 0.0)
        states = np.zeros((100_000, 3))
        a = sample_action(actor, states, LN2, rng=rng)
        assert abs(float(np.mean(a))) < 0.01
        assert np.all(np.abs(a) <= LN2)
        # The same draws, as pre-squash values: their log-density is finite.
        u = np.random.default_rng(0).standard_normal(a.shape)
        assert a.tobytes() == (LN2 * np.tanh(u)).tobytes()
        logp = gaussian_tanh_log_prob(np.zeros_like(u), np.zeros_like(u), u, LN2)
        assert np.all(np.isfinite(logp))

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


class TestCriticTargets:
    def test_done_transition_is_reward_only(self):
        agent = make_agent()
        y = agent.critic_targets(
            np.array([3.5]), np.zeros((1, 4)), np.array([1.0]), gamma=0.99
        )
        assert y[0] == pytest.approx(3.5)

    def test_gamma_zero_is_reward(self):
        agent = make_agent()
        y = agent.critic_targets(
            np.array([2.0, -1.0]), np.random.default_rng(0).normal(size=(2, 4)),
            np.zeros(2), gamma=0.0,
        )
        assert np.allclose(y, [2.0, -1.0])

    def test_hand_built_single_transition(self):
        # Oracle: scalar arithmetic with constant critics and actor.
        agent = make_agent()
        for net in (agent.target1, agent.target2, agent.actor):
            net.flat[...] = 0.0
        agent.target1.biases[-1][...] = 2.0
        agent.target2.biases[-1][...] = 5.0
        agent.actor.biases[-1][...] = np.array([0.4, -40.0])  # tight std
        s_next = np.ones((1, 4))
        agent.rng = np.random.default_rng(123)
        y = agent.critic_targets(np.array([1.0]), s_next, np.array([0.0]), gamma=0.5)
        eps = np.random.default_rng(123).standard_normal(1)[0]
        u = 0.4 + math.exp(-20.0) * eps
        logp = gaussian_tanh_log_prob(0.4, -20.0, u, agent.env_cfg.ln_k)
        expected = 1.0 + 0.5 * (2.0 - agent.temperature * logp)
        assert y[0] == pytest.approx(expected, rel=1e-6)


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
        assert all(abs(a) <= 1.0 for a in agent.buffer.actions)  # normalized by ln K


class TestReplayBuffer:
    def test_capacity_ring(self):
        buf = ReplayBuffer(capacity=4, dim=2)
        for i in range(10):
            buf.add(np.full(2, i), 0.0, float(i), None, True)
        assert len(buf) == 4
        assert sorted(r for r in buf.rewards) == [6.0, 7.0, 8.0, 9.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=None, dim=2)
        for i in range(8):
            buf.add(np.full(2, i), 0.0, float(i), None, True)
        _, _, rewards, _, _ = buf.sample(8, np.random.default_rng(0))
        assert sorted(rewards.tolist()) == [float(i) for i in range(8)]


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
            agent, log = train_sac(data, init, env_cfg, cfg)
            return agent, log

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
        agent, _ = train_sac(data, init, env_cfg, cfg)
        assert len(agent.buffer) > 0
        assert agent.buffer.cursor == len(agent.buffer.states)

    def test_observe_skips_truncated_transitions(self):
        agent = make_agent()
        txn = Transition(
            claim_no="x", accident_period=1, dev_period=2, tau=3,
            state=np.zeros(4), action=0.0, reward=0.0,
            next_state=None, done=False, pred_ocl=1.0,
        )
        agent.observe(txn)
        assert len(agent.buffer) == 0


class TestPersistence:
    def test_save_load_reproduces_actions(self, tmp_path):
        data = tiny_env_dataset()
        env_cfg = EnvConfig(state_profile="minimal", s_scale=50.0)
        cfg = SacConfig(seed=5, batch_size=4, warmup_steps=2, hidden=(8, 8))
        init = {c.claim_no: 80.0 for c in data.claims}
        agent, _ = train_sac(data, init, env_cfg, cfg)
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
        got = buf.sample(batch, np.random.default_rng(seed))
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
        assert np.array_equal(buf.states, np.stack([r[0] for r in ref.rows]))
        assert np.array_equal(buf.actions, [r[1] for r in ref.rows])
        assert np.array_equal(buf.rewards, [r[2] for r in ref.rows])

    def test_adam_matches_per_array_loop(self):
        # 50 steps on SAC-shaped nets: an actor and a critic over 21 inputs.
        rng = np.random.default_rng(9)
        for sizes, lr in (([21, 64, 64, 2], 3e-4), ([22, 64, 64, 1], 1e-3)):
            net = init_mlp(sizes, ["relu", "relu", "identity"], rng)
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
