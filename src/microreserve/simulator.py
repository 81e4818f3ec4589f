"""Seeded synthetic claims portfolio generator.

Produces a transactional ledger (occurrence, notification, partial
payments, case-estimate revisions, settlement) compatible with the rich
ingestion schema. Two presets are shipped:

* ``complexity1``: stationary dynamics, no inflation of any kind, so the
  run-off pattern is stable across accident periods and a chain ladder
  on the aggregate triangles is the right model;
* ``complexity5``: base plus superimposed inflation and a structural
  break that speeds up settlement for claims notified after the break.

All distributional parameters are package-local choices documented on
``SimConfig``; only the qualitative behaviour (payment conservation,
size-duration correlation, the break) is contractual. Claims are
generated from per-claim substreams keyed by (seed, accident period,
index), so output is independent of iteration order and byte-identical
for a fixed seed.

Some draws go through cheaper calls that give the same bits from the same
stream: ``rng.random()`` for ``uniform(0, 1)`` (numpy computes
``low + (high - low) * u``, which is ``u``), and one ``standard_gamma`` per
shape for ``gamma(shape=shapes, scale=1.0)`` (numpy's gamma is
``scale * standard_gamma``). ``float(np.exp(x))`` must stay: ``math.exp``
differs from it in the last bit on some draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .claims import Claim, Dataset, Transaction, period_of
from .errors import ConfigError


@dataclass(frozen=True)
class SimConfig:
    """Generator knobs; defaults document the desk-scale complexity-1 mix.

    Sizes are lognormal, notification delays exponential, settlement
    delays lognormal with a log-size-dependent location (bigger claims
    run longer), payment counts Poisson in the claim duration, and the
    amount split Dirichlet-like with a heavier final payment.
    """

    n_accident_periods: int = 40
    mean_claims_per_period: float = 200.0
    size_log_mean: float = 10.0
    size_log_sigma: float = 1.0
    notif_delay_mean: float = 0.4
    settle_delay_log_mean: float = 1.55
    settle_delay_log_sigma: float = 0.45
    settle_size_slope: float = 0.30
    max_claim_duration: float = 33.0
    payment_intensity: float = 0.65
    first_payment_delay: float = 0.2
    final_payment_shape: float = 3.0
    minor_revision_rate: float = 0.30
    major_revision_rate: float = 0.08
    minor_at_payment_prob: float = 0.25
    major_at_payment_prob: float = 0.08
    case_initial_sigma: float = 0.45
    case_minor_sigma: float = 0.12
    case_major_sigma: float = 0.30
    base_inflation_rate: float = 0.0
    superimposed_inflation_rate: float = 0.0
    structural_break_period: int | None = None
    break_settlement_factor: float = 0.70
    seed: int = 0

    def validate(self) -> None:
        if self.n_accident_periods < 1:
            raise ConfigError("n_accident_periods must be >= 1")
        if self.mean_claims_per_period < 0:
            raise ConfigError("mean_claims_per_period must be >= 0")
        for name in (
            "size_log_sigma",
            "notif_delay_mean",
            "settle_delay_log_sigma",
            "payment_intensity",
            "final_payment_shape",
            "minor_revision_rate",
            "major_revision_rate",
            "case_initial_sigma",
            "case_minor_sigma",
            "case_major_sigma",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.final_payment_shape <= 0:
            raise ConfigError("final_payment_shape must be > 0")
        if self.max_claim_duration <= 1:
            raise ConfigError("max_claim_duration must exceed one period")
        if not math.isfinite(self.base_inflation_rate) or self.base_inflation_rate < 0:
            raise ConfigError("base_inflation_rate must be finite and >= 0")
        if (
            not math.isfinite(self.superimposed_inflation_rate)
            or self.superimposed_inflation_rate < 0
        ):
            raise ConfigError("superimposed_inflation_rate must be finite and >= 0")
        if self.structural_break_period is not None and not (
            1 <= self.structural_break_period <= self.n_accident_periods
        ):
            raise ConfigError("structural_break_period must lie within the horizon")
        if self.break_settlement_factor <= 0:
            raise ConfigError("break_settlement_factor must be > 0")


def preset(name: str) -> SimConfig:
    """Documented presets; raises ConfigError for unknown names."""
    if name == "complexity1":
        return SimConfig()
    if name == "complexity5":
        return SimConfig(
            base_inflation_rate=0.0075,
            superimposed_inflation_rate=0.005,
            structural_break_period=20,
        )
    raise ConfigError(f"unknown preset {name!r}")


def inflation_index(t: float, config: SimConfig) -> float:
    """Multiplicative price index at continuous time t (1.0 at t=0)."""
    return (1.0 + config.base_inflation_rate) ** t * (
        1.0 + config.superimposed_inflation_rate
    ) ** t


def _claim_rng(config: SimConfig, i: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, i, k]))


def _simulate_claim(config: SimConfig, i: int, k: int) -> Claim:
    rng = _claim_rng(config, i, k)
    claim_no = f"c{i}_{k}"
    occurrence = i - 1 + rng.random()
    size = float(np.exp(rng.normal(config.size_log_mean, config.size_log_sigma)))
    z_size = (math.log(size) - config.size_log_mean) / max(config.size_log_sigma, 1e-12)

    notify = occurrence + rng.exponential(config.notif_delay_mean)
    duration = float(
        np.exp(
            rng.normal(
                config.settle_delay_log_mean + config.settle_size_slope * z_size,
                config.settle_delay_log_sigma,
            )
        )
    )
    if (
        config.structural_break_period is not None
        and notify > config.structural_break_period
    ):
        duration *= config.break_settlement_factor
    duration = min(duration, config.max_claim_duration - (notify - occurrence))
    duration = max(duration, 0.05)
    settle = notify + duration

    n_extra = int(rng.poisson(config.payment_intensity * duration))
    # One early payment shortly after notification keeps the first
    # development column materially occupied; the rest spread uniformly.
    first = notify + min(rng.exponential(config.first_payment_delay), 0.9 * duration)
    mids = rng.uniform(notify, settle, size=n_extra).tolist()
    scheduled = sorted([(first, 1.5)] + [(t, 1.0) for t in mids])
    pay_times = [t for t, _ in scheduled] + [settle]
    shapes = [sh for _, sh in scheduled] + [config.final_payment_shape]
    weights = np.array([rng.standard_gamma(sh) for sh in shapes])
    weights = weights / weights.sum()
    real_payments = (weights * size).tolist()
    # Force exact conservation of the pre-inflation total.
    real_payments[-1] = size - sum(real_payments[:-1])

    # Case-estimate revision times between notification and settlement.
    events: list[tuple[float, str]] = [(t, "P") for t in pay_times]
    for rate, kind in (
        (config.minor_revision_rate, "Mi"),
        (config.major_revision_rate, "Ma"),
    ):
        n = int(rng.poisson(rate * duration))
        for t in rng.uniform(notify, settle, size=n):
            events.append((float(t), kind))
    events.sort(key=lambda e: e[0])

    inflated = [p * inflation_index(t, config) for p, t in zip(real_payments, pay_times)]
    ultimate = sum(inflated)

    def remaining(paid: float) -> float:
        return max(ultimate - paid, 0.0)

    txns: list[Transaction] = []
    cumpaid = 0.0
    pay_idx = 0
    # Notification transaction: first sight of the claim, opening estimate.
    case_ocl = remaining(0.0) * float(np.exp(rng.normal(0.0, config.case_initial_sigma)))
    txns.append(Transaction(claim_no, notify, "Ma", 0.0, i, size, case_ocl, case_ocl))
    for t, kind in events:
        if kind == "P":
            amount = inflated[pay_idx]
            pay_idx += 1
            cumpaid += amount
            if pay_idx == len(inflated):
                cumpaid = ultimate  # absorb float drift at settlement
                case_ocl = 0.0
                typ = "PMa"
            else:
                case_ocl = case_ocl - amount
                typ = "P"
                if rng.random() < config.major_at_payment_prob:
                    case_ocl = remaining(cumpaid) * float(
                        np.exp(rng.normal(0.0, config.case_major_sigma))
                    )
                    typ = "PMa"
                elif rng.random() < config.minor_at_payment_prob:
                    case_ocl = case_ocl * float(
                        np.exp(rng.normal(0.0, config.case_minor_sigma))
                    )
                    typ = "PMi"
                case_ocl = max(case_ocl, 0.01 * remaining(cumpaid) + 1.0)
        elif kind == "Mi":
            case_ocl = case_ocl * float(np.exp(rng.normal(0.0, config.case_minor_sigma)))
            typ = "Mi"
        else:
            case_ocl = remaining(cumpaid) * float(
                np.exp(rng.normal(0.0, config.case_major_sigma))
            )
            typ = "Ma"
        txns.append(Transaction(claim_no, t, typ, cumpaid, i, size, cumpaid + case_ocl, case_ocl))

    notif_period = period_of(notify)
    return Claim(
        claim_no=claim_no,
        accident_period=i,
        notification_period=notif_period,
        settlement_period=period_of(settle),
        repdel=notif_period - i,
        claim_size=size,
        transactions=txns,
    )


def simulate_portfolio(config: SimConfig) -> Dataset:
    """Generate a full portfolio; deterministic for a fixed config."""
    config.validate()
    claims: list[Claim] = []
    for i in range(1, config.n_accident_periods + 1):
        count_rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        n = int(count_rng.poisson(config.mean_claims_per_period))
        for k in range(n):
            claims.append(_simulate_claim(config, i, k))
    max_t = max((period_of(c.transactions[-1].txn_time) for c in claims), default=0)
    return Dataset(
        claims=claims,
        period_unit="quarter",
        schema="splice",
        max_calendar_period=max_t,
    )


def with_seed(config: SimConfig, seed: int) -> SimConfig:
    return replace(config, seed=seed)
