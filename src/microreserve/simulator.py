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

Each substream is the PCG64 stream of ``SeedSequence([seed, i, k])``.
Rather than build that generator per claim, ``pcg64_states`` derives
every claim's PCG64 ``(state, inc)`` of an accident period at once
(SeedSequence's hashing on arrays over k), and each claim loads its state
into one reused generator through ``bit_generator.state``.

Draws go through cheaper calls that give the same bits from the same
stream, since numpy forms its results from the standard draws the same way:
``rng.random()`` for ``uniform(0, 1)`` (``low + (high - low) * u`` is
``u``); ``low + (high - low) * u`` over ``rng.random(n)`` for
``uniform(low, high, size=n)``, with the span formed as ``high - low``;
``m + s * standard_normal()`` for ``normal(m, s)`` (``s * standard_normal()``
when ``m`` is 0 and the result only feeds ``exp``); ``s *
standard_exponential()`` for ``exponential(s)``; and one
``standard_gamma`` per shape for ``gamma(shape=shapes, scale=1.0)``, where
shape 1.0 is ``standard_exponential()``, the draw numpy makes for it.
``float(np.exp(x))`` must stay: ``math.exp`` differs from it in the last
bit on some draws.

The payments split the claim size in Python floats by the same rules: the
weights' total is ``pairwise_sum``, numpy's pairwise order for
``weights.sum()`` (left to right below 8 terms, eight accumulators up to
128, halves above), and ``w / total * size`` is numpy's ``weights / total *
size`` term by term. ``inflation_index`` is applied only when an inflation
rate is set: without one the index is 1.0, and ``p * 1.0`` is ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .claims import Claim, Dataset, Transaction
from .errors import ConfigError, check_config


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

    def __post_init__(self) -> None:
        check_seed(self.seed)
        # Every number is >= 0 unless named here.
        finite = "(-inf, inf)"
        check_config(self, "[0, inf)", n_accident_periods="[1, inf)", max_claim_duration="(1, inf)",
                     final_payment_shape="(0, inf)", break_settlement_factor="(0, inf)",
                     size_log_mean=finite, settle_delay_log_mean=finite, settle_size_slope=finite,
                     minor_at_payment_prob="[0, 1]", major_at_payment_prob="[0, 1]")
        if self.structural_break_period is not None and not (
            1 <= self.structural_break_period <= self.n_accident_periods
        ):
            raise ConfigError("structural_break_period must lie within the horizon")


def check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer, as SeedSequence needs."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


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


# SeedSequence's constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _entropy_words(n: int) -> list[int]:
    """A non-negative integer as SeedSequence's uint32 words, lowest first; 0 is one word."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def pcg64_states(seed: int, i: int, n: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence([seed, i, k])``, for each k < n.

    SeedSequence's pool mixing and ``generate_state(4, uint64)`` run on uint32
    arrays over k (every k < 2**32 is one entropy word, the last one), then
    PCG64's set-seed step runs on Python ints.
    """
    # uint32 array arithmetic wraps mod 2**32, as SeedSequence's does.
    entropy = [np.full(n, w, dtype=np.uint32) for w in _entropy_words(seed) + _entropy_words(i)]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zeros) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for j in range(8):
        value = pool[j % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state's uint64 words are little-endian pairs; PCG64 reads the
    # first two as the 128-bit seed and the last two as the stream, high word first.
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    # PCG64's set-seed step: inc = stream << 1 | 1, then two LCG steps from
    # state 0, with the seed added between them.
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of float64 ``values``, bit for bit, in numpy's pairwise order.

    Below 8 terms the sum runs left to right. Up to 128, eight accumulators
    take every eighth term, join as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7))``, and the terms past the last multiple of 8 follow one by one.
    Above 128, the halves (split at a multiple of 8) are summed apart and added.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    total = 0.0  # the reduction's start, so a sum of -0.0 terms is 0.0 as in numpy
    stop = n - n % 8
    if stop:
        acc = values[:8]
        for start in range(8, stop, 8):
            acc = [a + b for a, b in zip(acc, values[start:start + 8])]
        total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[stop:]:
        total += v
    return total


def _simulate_claim(config: SimConfig, i: int, k: int, rng: np.random.Generator) -> Claim:
    """One claim from ``rng``, already loaded with the claim's own substream."""
    random = rng.random
    standard_normal = rng.standard_normal
    standard_exponential = rng.standard_exponential
    poisson = rng.poisson
    standard_gamma = rng.standard_gamma
    exp = np.exp
    size_log_mean = config.size_log_mean
    size_log_sigma = config.size_log_sigma
    case_minor_sigma = config.case_minor_sigma
    case_major_sigma = config.case_major_sigma
    major_at_payment_prob = config.major_at_payment_prob
    minor_at_payment_prob = config.minor_at_payment_prob

    claim_no = f"c{i}_{k}"
    occurrence = i - 1 + random()
    size = float(exp(size_log_mean + size_log_sigma * standard_normal()))
    z_size = (math.log(size) - size_log_mean) / max(size_log_sigma, 1e-12)

    notify = occurrence + config.notif_delay_mean * standard_exponential()
    duration = float(
        exp(
            config.settle_delay_log_mean
            + config.settle_size_slope * z_size
            + config.settle_delay_log_sigma * standard_normal()
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
    span = settle - notify  # uniform(notify, settle)'s range, as numpy forms it

    n_extra = int(poisson(config.payment_intensity * duration))
    # One early payment shortly after notification keeps the first
    # development column materially occupied; the rest spread uniformly.
    first = notify + min(config.first_payment_delay * standard_exponential(), 0.9 * duration)
    # An empty draw consumes no bits, so skipping it keeps the stream.
    mids = [(notify + span * u, 1.0) for u in random(n_extra).tolist()] if n_extra else []
    scheduled = sorted([(first, 1.5)] + mids)
    pay_times = [t for t, _ in scheduled] + [settle]
    shapes = [sh for _, sh in scheduled] + [config.final_payment_shape]
    weights = [standard_exponential() if sh == 1.0 else standard_gamma(sh) for sh in shapes]
    total = pairwise_sum(weights)
    real_payments = [w / total * size for w in weights]
    # Force exact conservation of the pre-inflation total.
    real_payments[-1] = size - sum(real_payments[:-1])

    # Case-estimate revision times between notification and settlement.
    events: list[tuple[float, str]] = [(t, "P") for t in pay_times]
    for rate, kind in (
        (config.minor_revision_rate, "Mi"),
        (config.major_revision_rate, "Ma"),
    ):
        n = int(poisson(rate * duration))
        events += [(notify + span * u, kind) for u in random(n).tolist()] if n else []
    events.sort(key=itemgetter(0))

    inflated = real_payments  # inflation_index is 1.0 without inflation, and p * 1.0 is p
    if config.base_inflation_rate or config.superimposed_inflation_rate:
        inflated = [p * inflation_index(t, config) for p, t in zip(real_payments, pay_times)]
    ultimate = sum(inflated)
    n_payments = len(inflated)

    make = Transaction._make
    txns: list[Transaction] = []
    cumpaid = 0.0
    pay_idx = 0
    # Notification transaction: first sight of the claim, opening estimate.
    case_ocl = max(ultimate, 0.0) * float(exp(config.case_initial_sigma * standard_normal()))
    txns.append(make((claim_no, notify, "Ma", 0.0, i, size, case_ocl, case_ocl)))
    for t, kind in events:
        if kind == "P":
            amount = inflated[pay_idx]
            pay_idx += 1
            cumpaid += amount
            if pay_idx == n_payments:
                cumpaid = ultimate  # absorb float drift at settlement
                case_ocl = 0.0
                typ = "PMa"
            else:
                case_ocl = case_ocl - amount
                typ = "P"
                if random() < major_at_payment_prob:
                    case_ocl = max(ultimate - cumpaid, 0.0) * float(
                        exp(case_major_sigma * standard_normal())
                    )
                    typ = "PMa"
                elif random() < minor_at_payment_prob:
                    case_ocl = case_ocl * float(exp(case_minor_sigma * standard_normal()))
                    typ = "PMi"
                case_ocl = max(case_ocl, 0.01 * max(ultimate - cumpaid, 0.0) + 1.0)
        elif kind == "Mi":
            case_ocl = case_ocl * float(exp(case_minor_sigma * standard_normal()))
            typ = "Mi"
        else:
            case_ocl = max(ultimate - cumpaid, 0.0) * float(
                exp(case_major_sigma * standard_normal())
            )
            typ = "Ma"
        txns.append(make((claim_no, t, typ, cumpaid, i, size, cumpaid + case_ocl, case_ocl)))

    notif_period = math.ceil(notify)
    return Claim(
        claim_no=claim_no,
        accident_period=i,
        notification_period=notif_period,
        settlement_period=math.ceil(settle),
        repdel=notif_period - i,
        claim_size=size,
        transactions=txns,
    )


def simulate_portfolio(config: SimConfig) -> Dataset:
    """Generate a full portfolio; deterministic for a fixed config."""
    rng = np.random.Generator(np.random.PCG64(0))  # each claim loads its own state
    bit_generator = rng.bit_generator
    claims: list[Claim] = []
    for i in range(1, config.n_accident_periods + 1):
        count_rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        n = int(count_rng.poisson(config.mean_claims_per_period))
        for k, (state, inc) in enumerate(pcg64_states(config.seed, i, n)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            claims.append(_simulate_claim(config, i, k, rng))
    max_t = max((math.ceil(c.transactions[-1].txn_time) for c in claims), default=0)
    return Dataset(
        claims=claims,
        schema="splice",
        max_calendar_period=max_t,
    )


def with_seed(config: SimConfig, seed: int) -> SimConfig:
    return replace(config, seed=seed)
