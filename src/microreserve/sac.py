"""Soft actor-critic for the bounded continuous reserving action.

Squashed-Gaussian actor (action = ln K * tanh(u)), twin critics with
Polyak-averaged targets, a uniform replay buffer, and optional automatic
entropy-temperature tuning. Training is a single chronological pass over
the calendar rollout: every environment transition is appended to the
buffer and followed by a fixed number of gradient updates, so the agent
learns while claims are still developing.

``train_sac``, ``fit_state_scaler`` and ``predict_ocl_sac`` take the
rollout's ``init``, a ``{claim_no: OCL_0}`` map. ``train_sac`` returns the
trained agent, whose ``training_log`` holds one row per update. It and
``predict_ocl_sac`` pass the agent's scaler to ``rollout_calendar``, which
scales each state once where it builds it, so ``act`` and ``observe`` take
scaled states and the buffer stores them as they come. Only the
zero-action probe that fits the scaler sees raw states.

Acting, the Bellman targets and the actor step each draw the pre-squash
sample through ``squashed_draw``. ``save_agent`` checkpoints the configs as
JSON and every array in one ``model.npz``: the scaler, with the log
temperature and each network's flat parameters as extra arrays.

An update allocates nothing large once it is warm. The two critics are
views into one parameter vector, ``SacAgent.critics``, and the two target
critics into another, ``SacAgent.targets``: one Adam step moves both
critics, and one in-place Polyak pair moves both targets. The replay buffer
keeps every transition as one row of one array and gathers a batch with one
``take``; the critic, target and actor inputs are column views of that
batch, and the networks compute into their own workspaces (see ``nets``).
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
    """Uniform replay over rows ``[s, a, s', slot, r, done]`` of one float64 array.

    The array starts at ``FIRST_ROWS`` rows and doubles whenever it fills,
    up to ``capacity``; once that many rows are held, each new row
    overwrites the oldest (a ring). ``capacity=None`` keeps every row.

    ``sample`` gathers a batch's rows with one ``take`` into an array that
    it reuses, so a batch stays valid until the next sample. The learner
    reads the batch by column blocks: ``critic_in`` is (s, a) and
    ``target_in`` is (s', slot), where the slot, zero in the stored rows,
    takes the next action that the target critics score.
    """

    FIRST_ROWS = 64

    def __init__(self, capacity: int | None, dim: int):
        self.capacity = capacity
        self.cursor = 0
        self.state = slice(0, dim)
        self.action = dim
        self.critic_in = slice(0, dim + 1)
        self.next_state = slice(dim + 1, 2 * dim + 1)
        self.slot = 2 * dim + 1
        self.target_in = slice(dim + 1, 2 * dim + 2)
        self.reward = 2 * dim + 2
        self.done = 2 * dim + 3
        rows = self.FIRST_ROWS if capacity is None else min(capacity, self.FIRST_ROWS)
        self.rows = np.zeros((rows, 2 * dim + 4))
        self._batch: np.ndarray | None = None

    def __len__(self) -> int:
        return self.cursor if self.capacity is None else min(self.cursor, self.capacity)

    def add(self, s, a, r, s_next, done) -> None:
        i = self.cursor if self.capacity is None else self.cursor % self.capacity
        allocated = len(self.rows)
        if i == allocated:  # every row is full and capacity allows more
            n = 2 * allocated if self.capacity is None else min(2 * allocated, self.capacity)
            grown = np.zeros((n, self.rows.shape[1]))
            grown[:allocated] = self.rows
            self.rows = grown
        row = self.rows[i]
        row[self.state] = s
        row[self.action] = a
        row[self.next_state] = 0.0 if s_next is None else s_next
        row[self.reward] = r
        row[self.done] = 1.0 if done else 0.0
        self.cursor += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self), size=batch_size, replace=False)
        if self._batch is None or len(self._batch) != batch_size:
            self._batch = np.empty((batch_size, self.rows.shape[1]))
        # Every index is in range; "clip" takes no defensive copy, as "raise" does with out=.
        return np.take(self.rows, idx, axis=0, out=self._batch, mode="clip")


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))`` of a 1-D array, bit for bit, without its dispatch."""
    return float(np.add.reduce(x)) / x.size


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)), stable for large |u|
    return 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def gaussian_tanh_log_prob(mean, log_std, u, ln_k: float):
    """Log-density of a = ln_k * tanh(u) under u ~ N(mean, exp(log_std))."""
    std = np.exp(log_std)
    base = -0.5 * ((u - mean) / std) ** 2 - log_std - 0.5 * math.log(2.0 * math.pi)
    return base - _log1m_tanh_sq(u) - math.log(ln_k)


def squashed_draw(
    mean: np.ndarray,
    raw_log_std: np.ndarray,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
):
    """Reparameterised draw of the pre-squash ``u = mean + std * eps``.

    Clips the log-std to [LOG_STD_MIN, LOG_STD_MAX] and makes one
    ``standard_normal`` call of ``mean``'s shape. Returns (log_std, std, eps,
    u), the four rows of ``out`` (shape ``(4,) + mean.shape``) if given.
    """
    log_std, std, eps, u = np.empty((4,) + mean.shape) if out is None else out
    np.minimum(np.maximum(raw_log_std, LOG_STD_MIN, out=log_std), LOG_STD_MAX, out=log_std)
    np.exp(log_std, out=std)
    rng.standard_normal(out=eps)
    np.multiply(std, eps, out=u)
    u += mean
    return log_std, std, eps, u


def sample_action(
    actor: Mlp,
    state_scaled: np.ndarray,
    ln_k: float,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
):
    """Draw an action for one 1-D state from the squashed-Gaussian head.

    Deterministic mode returns ln_k * tanh(mean). The density of a drawn
    action is ``gaussian_tanh_log_prob``; the updates compute it themselves.
    """
    out, _ = forward(actor, state_scaled.reshape(1, -1))
    mean = out[:, 0]
    u = mean if deterministic else squashed_draw(mean, out[:, 1], rng)[3]
    return float((ln_k * np.tanh(u))[0])


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
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
        self.actor = init_mlp([dim] + hid + [2], init_rng)
        critic_sizes = [dim + 1] + hid + [1]
        drawn = [init_mlp(critic_sizes, init_rng).flat for _ in range(2)]
        # critic1 and critic2 are the halves of one vector, target1 and target2 of another.
        self.critics = np.concatenate(drawn)
        self.targets = self.critics.copy()
        self.critic1, self.critic2 = (Mlp(list(critic_sizes), v) for v in np.split(self.critics, 2))
        self.target1, self.target2 = (Mlp(list(critic_sizes), v) for v in np.split(self.targets, 2))
        self._critic_grads = np.empty_like(self.critics)
        self._critic_grad_halves = np.split(self._critic_grads, 2)
        self.actor_opt = AdamState.for_params(self.actor.flat, cfg.actor_lr)
        self.critic_opt = AdamState.for_params(self.critics, cfg.critic_lr)
        self._log_temp_arr = np.array([math.log(cfg.init_temp)])
        self.temp_opt = AdamState.for_params(self._log_temp_arr, cfg.temp_lr)
        self.buffer = ReplayBuffer(cfg.replay_capacity, dim)
        self.env_steps = 0
        self.n_updates = 0
        self.training_log: list[dict] = []
        # Update buffers: the draws, the critics' unit upstream, the actor's
        # upstream and the temperature's gradient.
        self._draw = np.empty((4, cfg.batch_size))
        self._ones = np.ones((cfg.batch_size, 1))
        self._actor_upstream = np.empty((cfg.batch_size, 2))
        self._temp_grad = np.empty(1)

    @property
    def temperature(self) -> float:
        return float(np.exp(self._log_temp_arr[0]))

    # -- policy interface used by rollout_calendar ---------------------------

    def act(self, state: np.ndarray, explore: bool = False, **_) -> float:
        """The action at one scaled state; while exploring, uniform until the warmup ends."""
        if explore:
            self.env_steps += 1
            if self.env_steps <= self.cfg.warmup_steps:
                return float(self.rng.uniform(-self.env_cfg.ln_k, self.env_cfg.ln_k))
            return sample_action(self.actor, state, self.env_cfg.ln_k, rng=self.rng)
        return sample_action(self.actor, state, self.env_cfg.ln_k, deterministic=True)

    def observe(self, txn: Transition) -> None:
        """Buffer a finished transition of scaled states, then run the scheduled updates."""
        self.buffer.add(
            txn.state, txn.action / self.env_cfg.ln_k, txn.reward, txn.next_state, txn.done
        )
        if len(self.buffer) < self.cfg.batch_size or self.env_steps <= self.cfg.warmup_steps:
            return
        for _ in range(self.cfg.updates_per_step):
            self.update()

    # -- learning steps -------------------------------------------------------

    def critic_targets(self, batch: np.ndarray, gamma: float) -> np.ndarray:
        """Bellman targets y = r + gamma (1-done)(min Q' - temp * log pi) of a sampled batch.

        Each row's next action, drawn from the actor at its successor state,
        goes into the batch's slot column, so ``target_in`` is the input of
        both target critics.
        """
        buf = self.buffer
        x = batch[:, buf.target_in]
        out, _ = forward(self.actor, batch[:, buf.next_state])
        mean = out[:, 0]
        log_std, _, _, u = squashed_draw(mean, out[:, 1], self.rng, out=self._draw[:, : len(batch)])
        np.tanh(u, out=batch[:, buf.slot])
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)
        q1, _ = forward(self.target1, x)
        q2, _ = forward(self.target2, x)
        q_min = np.minimum(q1[:, 0], q2[:, 0])
        dones = batch[:, buf.done]
        return batch[:, buf.reward] + gamma * (1.0 - dones) * (q_min - self.temperature * logp)

    def update(self) -> dict:
        if len(self.buffer) < self.cfg.batch_size:
            raise DataError("buffer smaller than one batch")
        buf = self.buffer
        batch = buf.sample(self.cfg.batch_size, self.rng)
        bsz = batch.shape[0]
        y = self.critic_targets(batch, self.env_cfg.gamma)

        # Critic regression toward the Bellman targets: one Adam step moves both critics.
        x = batch[:, buf.critic_in]
        critic_losses = []
        for critic, grad in zip((self.critic1, self.critic2), self._critic_grad_halves):
            q, cache = forward(critic, x)
            err = q[:, 0] - y
            critic_losses.append(_mean(err**2))
            upstream = (2.0 * err / bsz)[:, None]
            backward(critic, cache, upstream, out=grad)
        adam_step(self.critic_opt, self.critics, self._critic_grads)

        # Actor: maximise min-Q of a reparameterised sample minus entropy cost.
        out, actor_cache = forward(self.actor, batch[:, buf.state])
        mean = out[:, 0]
        log_std_raw = out[:, 1]
        log_std, std, eps, u = squashed_draw(mean, log_std_raw, self.rng, out=self._draw)
        # The action column takes the sample, so critic_in becomes (s, tanh u).
        tanh_u = np.tanh(u, out=batch[:, buf.action])
        logp = gaussian_tanh_log_prob(mean, log_std, u, self.env_cfg.ln_k)

        q1, cache1 = forward(self.critic1, x)
        q2, cache2 = forward(self.critic2, x)
        use1 = q1[:, 0] <= q2[:, 0]
        q_min = np.where(use1, q1[:, 0], q2[:, 0])

        _, in_grad1 = backward(self.critic1, cache1, self._ones, param_grads=False)
        _, in_grad2 = backward(self.critic2, cache2, self._ones, param_grads=False)
        dq_da = np.where(use1, in_grad1[:, -1], in_grad2[:, -1])

        temp = self.temperature
        sech2 = 1.0 - tanh_u**2
        dlogp_du = 2.0 * tanh_u
        upstream = self._actor_upstream
        dl_dmean = np.divide(temp * dlogp_du - dq_da * sech2, bsz, out=upstream[:, 0])
        dl_du = dl_dmean  # same path via u for the chain below
        dl_dlogstd = dl_du * std * eps + temp * (-1.0) / bsz
        clip_mask = (log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX)
        upstream[:, 1] = np.where(clip_mask, dl_dlogstd, 0.0)
        actor_grad, _ = backward(self.actor, actor_cache, upstream)
        adam_step(self.actor_opt, self.actor.flat, actor_grad)
        actor_loss = _mean(temp * logp - q_min)

        if self.cfg.auto_temp:
            self._temp_grad[0] = -(_mean(logp) + self.cfg.entropy_target) * 1.0
            adam_step(self.temp_opt, self._log_temp_arr, self._temp_grad)

        # Both targets in one Polyak pair; the spent critic gradient takes the product.
        self.targets *= self.cfg.rho
        self.targets += np.multiply(1.0 - self.cfg.rho, self.critics, out=self._critic_grads)

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
    """Checkpoint both configs, and in ``model.npz`` the scaler, log temperature and networks."""
    os.makedirs(directory, exist_ok=True)
    nets = {name: getattr(agent, name).flat for name in CHECKPOINT_NETS}
    agent.scaler.save(os.path.join(directory, "model.npz"), log_temp=agent._log_temp_arr, **nets)
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": asdict(agent.env_cfg), "sac": asdict(agent.cfg)}, fh, indent=1)


def load_agent(directory: str) -> SacAgent:
    """The agent ``save_agent`` wrote; its target critics are copies of the loaded critics.

    ``model.npz`` must hold the scaler of the saved configs' state layout,
    the log temperature and each network's parameters at its layer sizes;
    a damaged file is a DataError naming it.
    """
    cfgs = load_config_json(os.path.join(directory, "config.json"), env=EnvConfig, sac=SacConfig)
    agent = SacAgent(cfgs["env"], cfgs["sac"], scaler=None)  # the scaler is in model.npz
    shapes = {name: getattr(agent, name).flat.shape for name in CHECKPOINT_NETS}
    agent.scaler, extra = FeatureScaler.load(
        os.path.join(directory, "model.npz"), agent.dim, log_temp=(1,), **shapes
    )
    for name in CHECKPOINT_NETS:
        getattr(agent, name).flat[...] = extra[name]
    agent.targets[...] = agent.critics
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
    return FeatureScaler.fit_in_place(np.stack(rows), mask)


def train_sac(
    view: Dataset,
    init,
    env_cfg: EnvConfig,
    cfg: SacConfig,
    boundary: int,
) -> SacAgent:
    """One chronological training pass from the ``{claim_no: OCL_0}`` map ``init``.

    Returns the frozen agent; its ``training_log`` holds one row per update.
    """
    if not view.claims:
        raise DataError("empty training data")
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
        scaler=agent.scaler,
    )
    # The update's network buffers would outlive training.
    for net in (agent.actor, agent.critic1, agent.critic2, agent.target1, agent.target2):
        net.workspaces.clear()
    return agent


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
        view, agent, init, agent.env_cfg, explore=False, boundary=boundary, scaler=agent.scaler
    )


def write_training_log(log: list[dict], path: str) -> None:
    header = ["update", "critic_loss", "actor_loss", "temperature", "buffer"]
    write_table(path, header, ([row[name] for name in header] for row in log))
