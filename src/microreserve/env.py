"""Claim-level reserving environment.

Each claim is an episode: from its notification period until one period
before settlement, the agent revises the outstanding-liability estimate
multiplicatively, ``OCL_j = OCL_{j-1} * exp(a)`` with the action clipped
to ``[-ln K, ln K]``. Rewards combine three parts:

* an accuracy score delivered with the final prediction, the discounted
  average of bounded symmetric errors ``h = 1 - sMAPE`` between the
  prediction path and the true outstanding amounts, scaled by ``C`` and
  importance-weighted so that high-liability periods dominate;
* a potential-based stability term on the implied ultimate
  ``UL = OCL + paid``, switched off in periods with payments;
* a smoothing penalty on the squared relative action size that ramps in
  over the first ``m_warmup`` predictions, also gated by payments.

Rollouts advance all claims in calendar order, so episodes interleave
exactly as an insurer would see them. A rollout makes one ``Transition``
per claim and period, so it and the per-claim records are slotted
dataclasses, without a ``__dict__`` each. A transition's importance weight
is set when its step is built, so a learner consuming the stream sees the
transition the log records. The rollout returns each claim's last estimate
as ``RolloutResult.reserves``. Given a ``scaler`` (a ``FeatureScaler``), it
scales each state once, where it builds it: the policy acts on that array,
and the step's ``Transition`` holds it as ``state`` and its predecessor as
``next_state``. Without one, every state stays raw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .claims import Claim, Dataset, DevelopmentRecord, type_set, write_table
from .credibility import InitTables, initialise_claim
from .errors import ConfigError, DataError, check_config

PROFILES = ("minimal", "cas", "splice_full")
ONE_HOT_TYPES = ("Mi", "Ma", "P", "PMi", "PMa")
# The splice one-hot of every type set, keyed by the records' shared sets.
_ONE_HOT = {
    type_set(types): [1.0 if typ in types else 0.0 for typ in ONE_HOT_TYPES]
    for n in range(len(ONE_HOT_TYPES) + 1)
    for types in itertools.combinations(ONE_HOT_TYPES, n)
}


@dataclass(frozen=True)
class EnvConfig:
    k: float = 2.0  # per-period bound: estimates change by at most factor k
    gamma: float = 0.99
    c_acc: float = 5.0  # accuracy reward scale
    m_warmup: int = 10  # smoothing ramp length
    n_past: int = 5  # past-prediction slots in the state
    alpha_w: float = 1.0  # importance-weight temperature
    s_scale: float | None = None  # weight scale; resolved to mean training OCL
    state_profile: str = "splice_full"

    def __post_init__(self) -> None:
        check_config(self, k="(1, inf)", gamma="(0, 1)", c_acc="(0, inf)", m_warmup="[1, inf)",
                     n_past="[0, inf)", alpha_w="[0, inf)", s_scale="(0, inf)")
        if self.state_profile not in PROFILES:
            raise ConfigError(f"unknown state profile {self.state_profile!r}")

    @property
    def ln_k(self) -> float:
        return math.log(self.k)


# Index of the previous estimate in every state layout; the supervised
# benchmark's features are the n_past=0 layout without this slot.
PREV_OCL_SLOT = 2


def currency_mask(profile: str, n_past: int) -> np.ndarray:
    """Boolean mask of state slots holding money amounts (log1p-scaled)."""
    mask = [False, False, True, True]  # ap, dp, prev_ocl, paid
    if profile in ("cas", "splice_full"):
        mask += [False]  # repdel
        mask += [True] * n_past
    if profile == "splice_full":
        mask += [False] * len(ONE_HOT_TYPES)
        mask += [False, False, False, True]  # n_pay, aq, dq, case
    return np.array(mask, dtype=bool)


def state_dim(profile: str, n_past: int) -> int:
    return currency_mask(profile, n_past).size


def state_features(
    claim: Claim,
    t: int,
    prev_ocl: float,
    past_preds: list[float],
    profile: str,
    n_past: int,
) -> list[float]:
    """Observation for one claim at the end of calendar period t.

    The last n_past predictions fill the past-prediction slots, zero-padded
    on the left while fewer have been made.
    """
    last = past_preds[max(len(past_preds) - n_past, 0) :]
    past = [0.0] * max(n_past - len(past_preds), 0) + last
    return state_rows(claim, [claim.record_at(t)], t, profile, [prev_ocl], past)


def state_rows(
    claim: Claim,
    records: list[DevelopmentRecord],
    t: int,
    profile: str,
    prev: list[float],
    past: list[float],
) -> list[float]:
    """The states of one claim at consecutive records, the first at period t.

    The rows are laid end to end in one flat list, so a long walk allocates
    no list per row. ``prev`` fills the previous-estimate slot (empty leaves
    the slot out) and ``past`` the past-prediction slots, the same in every
    row; the claim's static slots are computed once.
    """
    ap = claim.accident_period
    head = float(ap)
    middle = [float(claim.repdel), *past] if profile in ("cas", "splice_full") else []
    splice = profile == "splice_full"
    ap_quarter = float((ap - 1) % 4 + 1)
    rows: list[float] = []
    for rec in records:
        assert rec.dev_period == t + 1 - ap
        rows += (head, float(rec.dev_period), *prev, rec.cum_paid, *middle)
        if splice:
            rows += _ONE_HOT[rec.txn_types]
            rows += (
                float(rec.n_pay),
                ap_quarter,
                float((t - 1) % 4 + 1),
                rec.case if rec.case is not None else 0.0,
            )
        t += 1
    return rows


def apply_action(prev_ocl: float, action: float, k: float) -> tuple[float, float]:
    """Clip a to [-ln k, ln k]; returns (prev_ocl * exp(a), the clipped a)."""
    if prev_ocl <= 0:
        raise ValueError("previous OCL estimate must be strictly positive")
    bound = math.log(k)
    action = min(max(action, -bound), bound)
    return prev_ocl * math.exp(action), action


def smape_h(y: float, y_hat: float) -> float:
    """Bounded symmetric agreement score in [-1, 1]; 1 means exact.

    One minus the sMAPE summand |y_hat - y| / ((|y| + |y_hat|) / 2).
    Both arguments zero counts as perfect agreement.
    """
    denom = (abs(y) + abs(y_hat)) / 2.0
    if denom == 0.0:
        return 1.0
    return 1.0 - abs(y_hat - y) / denom


def reward_accuracy(
    ocl_path: "np.ndarray | list[float]",
    pred_path: "np.ndarray | list[float]",
    gamma: float,
    c: float,
    weights: "np.ndarray | list[float]",
) -> float:
    """Terminal accuracy reward over the whole prediction path.

    c * sum_tau w_tau gamma^(tau-1) h(ocl_tau, pred_tau) / sum_tau gamma^(tau-1);
    the normaliser deliberately excludes the importance weights w so that
    materiality differences between claims survive.
    """
    ocl = np.asarray(ocl_path, dtype=float)
    pred = np.asarray(pred_path, dtype=float)
    w = np.asarray(weights, dtype=float)
    if ocl.size == 0 or ocl.shape != pred.shape or w.shape != ocl.shape:
        raise DataError("accuracy reward needs equal-length non-empty paths and weights")
    disc = gamma ** np.arange(ocl.size)
    h = np.array([smape_h(y, p) for y, p in zip(ocl, pred)])
    return float(c * np.sum(w * disc * h) / np.sum(disc))


def reward_stability(
    tau: int,
    ul_path: "list[float] | np.ndarray",
    action: float,
    payment: bool,
    gamma: float,
    k: float,
    horizon: float,
) -> float:
    """Stability shaping at periods-since-notification tau.

    horizon is the claim's settlement periods-since-notification, so its
    last prediction step is horizon - 1; a claim still open has no last
    step (horizon math.inf). ul_path holds the implied ultimates
    UL_0..UL_tau. The first step
    penalises the squared relative action; interior steps take the
    potential difference gamma*h(UL_tau, UL_{tau-1}) - h(UL_{tau-1},
    UL_{tau-2}); the final prediction step drops the forward term. Any
    payment in the period gates the whole component to zero.
    """
    if not (1 <= tau <= horizon - 1):
        raise DataError(f"tau {tau} outside 1..{horizon - 1}")
    if payment:
        return 0.0
    if tau == 1:
        return -((abs(action) / math.log(k)) ** 2)
    backward = smape_h(ul_path[tau - 1], ul_path[tau - 2])
    if tau <= horizon - 2:
        return gamma * smape_h(ul_path[tau], ul_path[tau - 1]) - backward
    return -backward


def reward_smoothing(
    action: float, m: int, m_warmup: int, k: float, payment: bool
) -> float:
    """Quadratic action penalty ramping from 1/m_warmup up to full size.

    m counts predictions already made for the claim; payments lift the
    penalty entirely for that period.
    """
    if payment:
        return 0.0
    ramp = min(1.0, (m + 1) / m_warmup)
    return -ramp * (abs(action) / math.log(k)) ** 2


def importance_weight(inner: float, alpha: float, s: float) -> float:
    """Materiality weight (inner / s)^alpha; a non-positive ``inner`` weighs zero.

    ``inner`` is the outstanding amount: the realised one for a settled
    claim, and for an open claim the lower bound max(paid at the last
    period, initial ultimate) - paid at the step.
    """
    if s <= 0:
        raise ConfigError("weight scale s must be positive")
    if inner <= 0:
        return 0.0
    return (inner / s) ** alpha


def mean_training_ocl(dataset: Dataset, boundary: int) -> float:
    """Mean positive outstanding amount over settled claims' prediction periods."""
    total = 0.0
    n = 0
    for claim in dataset.settled_claims(by=boundary):
        for t in range(claim.notification_period, claim.settlement_period):
            ocl = claim.record_at(t).true_ocl
            if ocl > 0:
                total += ocl
                n += 1
    if n == 0:
        raise DataError("no settled prediction periods to compute the weight scale")
    return total / n


@dataclass(slots=True)
class RewardBreakdown:
    r_acc: float = 0.0
    r_stab: float = 0.0
    r_smooth: float = 0.0
    weight: float = 1.0


@dataclass(slots=True)
class Transition:
    claim_no: str
    accident_period: int
    dev_period: int
    tau: int
    state: np.ndarray
    action: float
    reward: float
    next_state: np.ndarray | None
    done: bool
    pred_ocl: float
    breakdown: RewardBreakdown = field(default_factory=RewardBreakdown)


class ZeroPolicy:
    """Keeps every estimate at its initial value."""

    def act(self, state, explore=False, **_):
        return 0.0


class ScriptedPolicy:
    """Replays a fixed action per (claim_no, tau); used by golden replays."""

    def __init__(self, actions: dict[tuple[str, int], float]):
        self.actions = actions

    def act(self, state, explore=False, claim_no=None, tau=None, **_):
        return self.actions[(claim_no, tau)]


@dataclass(slots=True)
class _Tracker:
    ocl: float
    ul0: float
    horizon: float  # settlement periods-since-notification; inf while open
    p_last: float | None  # paid at the rollout's last period; None if it settles by then
    preds: list[float] = field(default_factory=list)
    ul_path: list[float] = field(default_factory=list)
    true_ocl: list[float] = field(default_factory=list)  # settling claims only
    weights: list[float] = field(default_factory=list)  # settling claims only
    pending: Transition | None = None


@dataclass
class RolloutResult:
    transitions: list[Transition]
    reserves: dict[str, float]  # each claim's last estimate: its reserve at the end
    n_skipped: int


def rollout_calendar(
    dataset: Dataset,
    policy,
    init,
    cfg: EnvConfig,
    explore: bool = False,
    boundary: int | None = None,
    on_transition=None,
    scaler=None,
) -> RolloutResult:
    """Advance every claim in calendar order, producing transitions.

    ``init`` is an InitTables or a {claim_no: OCL_0} mapping. Claims
    settling in their notification period make no predictions and are
    counted in ``n_skipped``. Open claims at the boundary keep their final
    prediction but that last step has no observable successor state, so it
    is not emitted as a transition. Each transition leaves complete: its
    importance weight is set when its step is built, from the true OCL for
    a claim settling by the boundary and from the open-claim lower bound
    otherwise. The result's ``reserves`` holds each claim's last estimate.
    With ``explore=False`` and a deterministic policy the rollout is a pure
    function of its inputs.
    """
    if cfg.s_scale is None:
        raise ConfigError("s_scale must be resolved before rolling out")
    horizon = boundary if boundary is not None else dataset.max_calendar_period
    active = [c for c in dataset.claims if c.notification_period <= horizon]
    if not active:
        raise DataError("no claims notified inside the rollout window")

    schedule: dict[int, list[Claim]] = {}
    n_skipped = 0
    for claim in active:
        if not claim.dev_records:
            raise DataError(f"claim {claim.claim_no} has no development records")
        if claim.settled and claim.settlement_period == claim.notification_period:
            n_skipped += 1
            continue
        last = min(claim.settlement_period or horizon, horizon)
        for t in range(claim.notification_period, last + 1):
            schedule.setdefault(t, []).append(claim)

    trackers: dict[str, _Tracker] = {}
    transitions: list[Transition] = []

    def emit(txn: Transition) -> None:
        transitions.append(txn)
        if on_transition is not None:
            on_transition(txn)

    for t in sorted(schedule):
        for claim in sorted(schedule[t], key=lambda c: c.claim_no):
            tracker = trackers.get(claim.claim_no)
            if claim.settled and t == claim.settlement_period:
                _finalize_settlement(tracker, cfg, emit)
                continue

            if tracker is None:
                paid0 = claim.dev_records[0].cum_paid
                if isinstance(init, InitTables):
                    _, ocl0 = initialise_claim(claim.accident_period, paid0, init, k=cfg.k)
                else:
                    ocl0 = init[claim.claim_no]
                if ocl0 <= 0:
                    raise DataError(f"non-positive initial OCL for {claim.claim_no}")
                settles = claim.settled and claim.settlement_period <= horizon
                tracker = _Tracker(
                    ocl=ocl0,
                    ul0=ocl0 + paid0,
                    horizon=claim.psn_at(claim.settlement_period) if claim.settled else math.inf,
                    p_last=None if settles else claim.record_at(horizon).cum_paid,
                    ul_path=[ocl0 + paid0],
                )
                trackers[claim.claim_no] = tracker

            tau = claim.psn_at(t)
            state = np.array(
                state_features(claim, t, tracker.ocl, tracker.preds, cfg.state_profile, cfg.n_past),
                dtype=np.float64,
            )
            if scaler is not None:
                state = scaler.transform(state)
            if tracker.pending is not None:
                tracker.pending.next_state = state
                emit(tracker.pending)
                tracker.pending = None

            raw = policy.act(state, explore=explore, claim_no=claim.claim_no, tau=tau)
            new_ocl, action = apply_action(tracker.ocl, float(raw), cfg.k)
            rec = claim.record_at(t)
            payment = rec.has_payment

            tracker.ocl = new_ocl
            tracker.preds.append(new_ocl)
            tracker.ul_path.append(new_ocl + rec.cum_paid)
            if tracker.p_last is None:
                weight = importance_weight(rec.true_ocl, cfg.alpha_w, cfg.s_scale)
                tracker.true_ocl.append(rec.true_ocl)
                tracker.weights.append(weight)
            else:
                inner = max(tracker.p_last, tracker.ul0) - rec.cum_paid
                weight = importance_weight(inner, cfg.alpha_w, cfg.s_scale)

            r_stab = reward_stability(
                tau, tracker.ul_path, action, payment, cfg.gamma, cfg.k, tracker.horizon
            )
            r_smooth = reward_smoothing(action, tau - 1, cfg.m_warmup, cfg.k, payment)

            breakdown = RewardBreakdown(r_stab=r_stab, r_smooth=r_smooth, weight=weight)
            tracker.pending = Transition(
                claim_no=claim.claim_no,
                accident_period=claim.accident_period,
                dev_period=rec.dev_period,
                tau=tau,
                state=state,
                action=action,
                reward=r_stab + r_smooth,
                next_state=None,
                done=False,
                pred_ocl=new_ocl,
                breakdown=breakdown,
            )

    reserves = {claim_no: tracker.ocl for claim_no, tracker in trackers.items()}
    return RolloutResult(transitions=transitions, reserves=reserves, n_skipped=n_skipped)


def _finalize_settlement(tracker: _Tracker, cfg: EnvConfig, emit):
    """Close the episode: add r_acc to the last prediction step and emit it.

    Claims settling in their notification period are skipped before
    scheduling, so a settling claim always has a tracker and a pending step.
    """
    pending = tracker.pending
    r_acc = reward_accuracy(tracker.true_ocl, tracker.preds, cfg.gamma, cfg.c_acc, tracker.weights)
    pending.breakdown.r_acc = r_acc
    pending.reward += r_acc
    pending.done = True
    emit(pending)


def export_transition_log(transitions: list[Transition], path: str) -> None:
    """CSV log feeding the action-histogram and audit reports."""
    header = [
        "claim_no",
        "tau",
        "accident_period",
        "dev_period",
        "action",
        "exp_action",
        "r_acc",
        "r_stab",
        "r_smooth",
        "weight",
        "ocl_pred",
    ]
    rows = (
        [t.claim_no, t.tau, t.accident_period, t.dev_period, t.action, math.exp(t.action)]
        + [t.breakdown.r_acc, t.breakdown.r_stab, t.breakdown.r_smooth, t.breakdown.weight]
        + [t.pred_ocl]
        for t in transitions
    )
    write_table(path, header, rows)
