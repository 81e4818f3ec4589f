"""Soft actor-critic for the bounded continuous reserving action.

Squashed-Gaussian actor (action = ln K * tanh(u)), twin critics with
Polyak-averaged targets, a uniform replay buffer, and optional automatic
entropy-temperature tuning. Training is a single chronological pass over
the calendar rollout: every environment transition is appended to the
buffer and followed by a fixed number of gradient updates, so the agent
learns while claims are still developing.

Acting, the Bellman targets and the actor step each draw the pre-squash
sample through ``squashed_draw``. ``save_agent`` checkpoints the networks as
JSON, the configs, and the scaler with the log temperature as an extra
array; ``load_agent`` rebuilds the agent around the loaded scaler.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .claims import Dataset, write_table
from .env import (
    EnvConfig,
    Transition,
    ZeroPolicy,
    currency_mask,
    mean_training_ocl,
    rollout_calendar,
    state_dim,
)
from .errors import ConfigError, DataError, NumericFault, check_config
from .nets import (
    AdamState,
    FeatureScaler,
    Mlp,
    adam_step,
    backward,
    forward,
    hidden_sizes,
    init_mlp,
    load_config_json,
    load_mlp,
    save_mlp,
)

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


@dataclass(frozen=True)
class SacConfig:
    replay_capacity: int | None = None  # None keeps every transition
    batch_size: int = 128
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    temp_lr: float = 3e-4
    rho: float = 0.995  # share of the old target kept per update
    entropy_target: float = -1.0
    auto_temp: bool = True
    init_temp: float = 0.2
    updates_per_step: int = 1
    warmup_steps: int = 1000
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(self, batch_size="[1, inf)", actor_lr="(0, inf)", critic_lr="(0, inf)",
                     temp_lr="(0, inf)", rho="(0, 1)", init_temp="(0, inf)",
                     updates_per_step="[0, inf)", warmup_steps="[0, inf)")
        if self.replay_capacity is not None and self.replay_capacity < self.batch_size:
            raise ConfigError("replay_capacity must be >= batch_size, or no update ever runs")
        object.__setattr__(self, "hidden", hidden_sizes(self.hidden))


class ReplayBuffer:
    """Uniform replay over (state, action, reward, next_state, done) rows.

    The rows live in preallocated float64 arrays, one per field. They start
    at ``FIRST_ROWS`` rows and double whenever they fill, up to
    ``capacity``; once that many rows are held, each new row overwrites the
    oldest (a ring). ``capacity=None`` keeps every row. ``states``,
    ``actions`` and ``rewards`` are views trimmed to the rows held.
    """

    FIRST_ROWS = 64

    def __init__(self, capacity: int | None, dim: int):
        self.capacity = capacity
        self.cursor = 0
        rows = self.FIRST_ROWS if capacity is None else min(capacity, self.FIRST_ROWS)
        self._fields = [np.zeros((rows, dim)), np.zeros(rows), np.zeros(rows),
                        np.zeros((rows, dim)), np.zeros(rows)]

    def __len__(self) -> int:
        return self.cursor if self.capacity is None else min(self.cursor, self.capacity)

    @property
    def states(self) -> np.ndarray:
        return self._fields[0][: len(self)]

    @property
    def actions(self) -> np.ndarray:
        return self._fields[1][: len(self)]

    @property
    def rewards(self) -> np.ndarray:
        return self._fields[2][: len(self)]

    def add(self, s, a, r, s_next, done) -> None:
        i = self.cursor if self.capacity is None else self.cursor % self.capacity
        allocated = len(self._fields[0])
        if i == allocated:  # every row is full and capacity allows more
            rows = 2 * allocated if self.capacity is None else min(2 * allocated, self.capacity)
            self._fields = [
                np.concatenate([f, np.zeros((rows - allocated,) + f.shape[1:])])
                for f in self._fields
            ]
        row = (s, a, r, 0.0 if s_next is None else s_next, 1.0 if done else 0.0)
        for f, value in zip(self._fields, row):
            f[i] = value
        self.cursor += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return tuple(f[idx] for f in self._fields)


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)), stable for large |u|
    return 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def gaussian_tanh_log_prob(mean, log_std, u, ln_k: float):
    """Log-density of a = ln_k * tanh(u) under u ~ N(mean, exp(log_std))."""
    std = np.exp(log_std)
    base = -0.5 * ((u - mean) / std) ** 2 - log_std - 0.5 * math.log(2.0 * math.pi)
    return base - _log1m_tanh_sq(u) - math.log(ln_k)


def squashed_draw(mean: np.ndarray, raw_log_std: np.ndarray, rng: np.random.Generator):
    """Reparameterised draw of the pre-squash ``u = mean + std * eps``.

    Clips the log-std to [LOG_STD_MIN, LOG_STD_MAX] and makes one
    ``standard_normal`` call of ``mean``'s shape. Returns (log_std, std, eps, u).
    """
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    eps = rng.standard_normal(mean.shape)
    return log_std, std, eps, mean + std * eps


def sample_action(
    actor: Mlp,
    state_scaled: np.ndarray,
    ln_k: float,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
):
    """Draw an action from the squashed-Gaussian head.

    Deterministic mode returns ln_k * tanh(mean). The density of a drawn
    action is ``gaussian_tanh_log_prob``; the updates compute it themselves.
    """
    out, _ = forward(actor, state_scaled)
    single = out.ndim == 1
    out2 = out.reshape(1, -1) if single else out
    mean = out2[:, 0]
    if not np.all(np.isfinite(mean)):
        raise NumericFault("actor produced non-finite mean")
    u = mean if deterministic else squashed_draw(mean, out2[:, 1], rng)[3]
    a = ln_k * np.tanh(u)
    return float(a[0]) if single else a


class SacAgent:
    """Owns the networks, buffer and generators for one training run."""

    def __init__(self, env_cfg: EnvConfig, cfg: SacConfig, scaler: FeatureScaler):
        self.env_cfg = env_cfg
        self.cfg = cfg
        self.scaler = scaler
        self.rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 77]))
        dim = state_dim(env_cfg.state_profile, env_cfg.n_past)
        self.dim = dim
        hid = list(cfg.hidden)
        acts = ["relu"] * len(hid) + ["identity"]
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
        self.actor = init_mlp([dim] + hid + [2], acts, init_rng)
        self.critic1 = init_mlp([dim + 1] + hid + [1], acts, init_rng)
        self.critic2 = init_mlp([dim + 1] + hid + [1], acts, init_rng)
        self.target1 = self.critic1.copy()
        self.target2 = self.critic2.copy()
        self.actor_opt = AdamState.for_params(self.actor.flat, cfg.actor_lr)
        self.critic1_opt = AdamState.for_params(self.critic1.flat, cfg.critic_lr)
        self.critic2_opt = AdamState.for_params(self.critic2.flat, cfg.critic_lr)
        self._log_temp_arr = np.array([math.log(cfg.init_temp)])
        self.temp_opt = AdamState.for_params(self._log_temp_arr, cfg.temp_lr)
        self.buffer = ReplayBuffer(cfg.replay_capacity, dim)
        self.env_steps = 0
        self.n_updates = 0
        self.training_log: list[dict] = []

    @property
    def temperature(self) -> float:
        return float(np.exp(self._log_temp_arr[0]))

    # -- policy interface used by rollout_calendar ---------------------------

    def act(self, state: np.ndarray, explore: bool = False, **_) -> float:
        scaled = self.scaler.transform(state)
        if explore:
            self.env_steps += 1
            if self.env_steps <= self.cfg.warmup_steps:
                return float(self.rng.uniform(-self.env_cfg.ln_k, self.env_cfg.ln_k))
            return sample_action(self.actor, scaled, self.env_cfg.ln_k, rng=self.rng)
        return sample_action(self.actor, scaled, self.env_cfg.ln_k, deterministic=True)

    def observe(self, txn: Transition) -> None:
        """Buffer a finished transition, then run the scheduled updates."""
        if txn.next_state is None and not txn.done:
            return
        self.buffer.add(
            self.scaler.transform(txn.state),
            txn.action / self.env_cfg.ln_k,
            txn.reward,
            None if txn.next_state is None else self.scaler.transform(txn.next_state),
            txn.done,
        )
        if len(self.buffer) < self.cfg.batch_size or self.env_steps <= self.cfg.warmup_steps:
            return
        for _ in range(self.cfg.updates_per_step):
            self.update()

    # -- learning steps -------------------------------------------------------

    def critic_targets(self, rewards, next_states, dones, gamma: float):
        """Bellman targets y = r + gamma (1-done)(min Q' - temp * log pi)."""
        out, _ = forward(self.actor, next_states)
        mean = out[:, 0]
        log_std, _, _, u = squashed_draw(mean, out[:, 1], self.rng)
        a_norm = np.tanh(u)
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)
        x = np.concatenate([next_states, a_norm[:, None]], axis=1)
        q1, _ = forward(self.target1, x)
        q2, _ = forward(self.target2, x)
        q_min = np.minimum(q1[:, 0], q2[:, 0])
        return rewards + gamma * (1.0 - dones) * (q_min - self.temperature * logp)

    def update(self) -> dict:
        if len(self.buffer) < self.cfg.batch_size:
            raise DataError("buffer smaller than one batch")
        states, actions, rewards, next_states, dones = self.buffer.sample(
            self.cfg.batch_size, self.rng
        )
        bsz = states.shape[0]
        gamma = self.env_cfg.gamma
        y = self.critic_targets(rewards, next_states, dones, gamma)

        # Critic regression toward the Bellman targets.
        x = np.concatenate([states, actions[:, None]], axis=1)
        critic_losses = []
        for critic, opt in (
            (self.critic1, self.critic1_opt),
            (self.critic2, self.critic2_opt),
        ):
            q, cache = forward(critic, x)
            err = q[:, 0] - y
            critic_losses.append(float(np.mean(err**2)))
            upstream = (2.0 * err / bsz)[:, None]
            grad, _ = backward(critic, cache, upstream)
            adam_step(opt, critic.flat, grad)

        # Actor: maximise min-Q of a reparameterised sample minus entropy cost.
        out, actor_cache = forward(self.actor, states)
        mean = out[:, 0]
        log_std_raw = out[:, 1]
        log_std, std, eps, u = squashed_draw(mean, log_std_raw, self.rng)
        tanh_u = np.tanh(u)
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)

        xa = np.concatenate([states, tanh_u[:, None]], axis=1)
        q1, cache1 = forward(self.critic1, xa)
        q2, cache2 = forward(self.critic2, xa)
        use1 = q1[:, 0] <= q2[:, 0]
        q_min = np.where(use1, q1[:, 0], q2[:, 0])

        ones = np.ones((bsz, 1))
        _, in_grad1 = backward(self.critic1, cache1, ones, param_grads=False)
        _, in_grad2 = backward(self.critic2, cache2, ones, param_grads=False)
        dq_da = np.where(use1, in_grad1[:, -1], in_grad2[:, -1])

        temp = self.temperature
        sech2 = 1.0 - tanh_u**2
        dlogp_du = 2.0 * tanh_u
        dl_dmean = (temp * dlogp_du - dq_da * sech2) / bsz
        dl_du = dl_dmean  # same path via u for the chain below
        dl_dlogstd = dl_du * std * eps + temp * (-1.0) / bsz
        clip_mask = (log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX)
        dl_dlogstd = np.where(clip_mask, dl_dlogstd, 0.0)
        upstream = np.stack([dl_dmean, dl_dlogstd], axis=1)
        actor_grad, _ = backward(self.actor, actor_cache, upstream)
        adam_step(self.actor_opt, self.actor.flat, actor_grad)
        actor_loss = float(np.mean(temp * logp - q_min))

        if self.cfg.auto_temp:
            grad = np.array([-(float(np.mean(logp)) + self.cfg.entropy_target) * 1.0])
            adam_step(self.temp_opt, self._log_temp_arr, grad)

        for critic, target in (
            (self.critic1, self.target1),
            (self.critic2, self.target2),
        ):
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
        if not all(math.isfinite(v) for v in diag.values() if isinstance(v, float)):
            raise NumericFault("non-finite loss during training")
        self.training_log.append(diag)
        return diag


CHECKPOINT_NETS = ("actor", "critic1", "critic2")


def save_agent(agent: SacAgent, directory: str) -> None:
    """Checkpoint networks, scaler (with the log temperature) and both configs for scoring."""
    os.makedirs(directory, exist_ok=True)
    for name in CHECKPOINT_NETS:
        save_mlp(getattr(agent, name), os.path.join(directory, f"{name}.json"))
    agent.scaler.save(os.path.join(directory, "scaler.npz"), log_temp=agent._log_temp_arr)
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": asdict(agent.env_cfg), "sac": asdict(agent.cfg)}, fh, indent=1)


def load_agent(directory: str) -> SacAgent:
    """The agent ``save_agent`` wrote; its target critics are copies of the loaded critics.

    The scaler and each network must fit the saved configs' state layout and
    layer sizes; a damaged file is a DataError naming it.
    """
    cfgs = load_config_json(os.path.join(directory, "config.json"), env=EnvConfig, sac=SacConfig)
    width = state_dim(cfgs["env"].state_profile, cfgs["env"].n_past)
    scaler, extra = FeatureScaler.load(os.path.join(directory, "scaler.npz"), width, log_temp=(1,))
    agent = SacAgent(cfgs["env"], cfgs["sac"], scaler)
    for name in CHECKPOINT_NETS:
        path = os.path.join(directory, f"{name}.json")
        setattr(agent, name, load_mlp(path, like=getattr(agent, name)))
    agent.target1 = agent.critic1.copy()
    agent.target2 = agent.critic2.copy()
    agent._log_temp_arr[...] = extra["log_temp"]
    return agent


def fit_state_scaler(view: Dataset, init, env_cfg: EnvConfig, boundary: int) -> FeatureScaler:
    """Fit the feature scaler on a zero-action rollout over the window.

    Deterministic and leakage-safe: the zero policy keeps estimates at
    their initial values, so every visited state is a pure function of
    the training window.
    """
    probe = rollout_calendar(
        view, ZeroPolicy(), init, env_cfg, explore=False, boundary=boundary
    )
    rows = [txn.state for txn in probe.transitions]
    if not rows:
        raise DataError("no states available to fit the scaler")
    mask = currency_mask(env_cfg.state_profile, env_cfg.n_past)
    return FeatureScaler.fit(np.stack(rows), mask)


def train_sac(
    view: Dataset,
    init,
    env_cfg: EnvConfig,
    cfg: SacConfig,
    boundary: int | None = None,
) -> tuple[SacAgent, list[dict]]:
    """One chronological training pass; returns the frozen agent and log."""
    if not view.claims:
        raise DataError("empty training data")
    boundary = boundary if boundary is not None else view.max_calendar_period
    if env_cfg.s_scale is None:
        env_cfg = replace(env_cfg, s_scale=mean_training_ocl(view, boundary))
    scaler = fit_state_scaler(view, init, env_cfg, boundary)
    agent = SacAgent(env_cfg, cfg, scaler)
    rollout_calendar(
        view,
        agent,
        init,
        env_cfg,
        explore=True,
        boundary=boundary,
        on_transition=agent.observe,
    )
    return agent, agent.training_log


def predict_ocl_sac(
    agent: SacAgent,
    view: Dataset,
    init,
    boundary: int,
):
    """Deterministic replay over the window; returns the rollout result.

    The final prediction per open claim is its reserve estimate at the
    boundary.
    """
    return rollout_calendar(
        view, agent, init, agent.env_cfg, explore=False, boundary=boundary
    )


def write_training_log(log: list[dict], path: str) -> None:
    header = ["update", "critic_loss", "actor_loss", "temperature", "buffer"]
    write_table(path, header, ([row[name] for name in header] for row in log))
