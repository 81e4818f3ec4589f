import dataclasses
import math

import numpy as np
import pytest

from microreserve.claims import (
    PAYMENT_TYPES,
    Claim,
    Transaction,
    discretize,
    period_of,
    write_transactions,
)
from microreserve.errors import ConfigError
from microreserve.simulator import (
    SimConfig,
    inflation_index,
    pairwise_sum,
    pcg64_states,
    preset,
    simulate_portfolio,
    with_seed,
)

from conftest import as_cells


def small(cfg: SimConfig, aps=8, mean=25.0) -> SimConfig:
    brk = cfg.structural_break_period
    return dataclasses.replace(
        cfg,
        n_accident_periods=aps,
        mean_claims_per_period=mean,
        structural_break_period=min(brk, aps // 2) if brk else None,
    )


class TestPresets:
    def test_complexity1_is_inflation_free(self):
        cfg = preset("complexity1")
        assert cfg.base_inflation_rate == 0.0
        assert cfg.superimposed_inflation_rate == 0.0
        assert cfg.structural_break_period is None
        assert inflation_index(17.3, cfg) == 1.0

    def test_complexity5_breaks_at_twenty(self):
        cfg = preset("complexity5")
        assert cfg.structural_break_period == 20
        assert cfg.base_inflation_rate > 0
        assert cfg.superimposed_inflation_rate > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("complexity3")


class TestGeneration:
    def test_zero_claims(self):
        data = simulate_portfolio(small(preset("complexity1"), mean=0.0))
        assert len(data) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            simulate_portfolio(dataclasses.replace(preset("complexity1"), notif_delay_mean=-1.0))
        with pytest.raises(ConfigError):
            simulate_portfolio(
                dataclasses.replace(preset("complexity1"), structural_break_period=99)
            )
        # A negative scale used to reach numpy's exponential as a ValueError.
        with pytest.raises(ConfigError, match="first_payment_delay"):
            simulate_portfolio(dataclasses.replace(preset("complexity1"), first_payment_delay=-0.1))

    def test_conservation_without_inflation(self):
        data = simulate_portfolio(with_seed(small(preset("complexity1")), 7))
        for claim in data.claims:
            assert claim.settled
            assert claim.ultimate == pytest.approx(claim.claim_size, abs=1e-9)

    def test_conservation_deflated_with_inflation(self):
        cfg = with_seed(small(preset("complexity5")), 7)
        data = simulate_portfolio(cfg)
        for claim in data.claims:
            prev = 0.0
            real_total = 0.0
            for txn in claim.transactions:
                if txn.txn_type in PAYMENT_TYPES:
                    real_total += (txn.cumpaid - prev) / inflation_index(txn.txn_time, cfg)
                    prev = txn.cumpaid
            assert real_total == pytest.approx(claim.claim_size, rel=1e-9)

    def test_true_ocl_nonnegative(self):
        data = discretize(simulate_portfolio(with_seed(small(preset("complexity5")), 3)))
        for claim in data.claims:
            for rec in claim.dev_records:
                assert rec.true_ocl >= 0.0

    def test_every_claim_has_transactions_and_unique_no(self):
        data = simulate_portfolio(with_seed(small(preset("complexity1")), 1))
        assert len({c.claim_no for c in data.claims}) == len(data)
        for claim in data.claims:
            assert len(claim.transactions) >= 1
            assert claim.notification_period >= claim.accident_period
            assert claim.settlement_period >= claim.notification_period


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.0, "1", True])
    def test_bad_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            simulate_portfolio(with_seed(small(preset("complexity1")), seed))

    def test_numpy_integer_and_multi_word_seeds_accepted(self):
        for seed in (np.int64(3), 2**40 + 1):
            data = simulate_portfolio(with_seed(small(preset("complexity1"), aps=2, mean=3), seed))
            assert len(data) > 0


# -- per-claim substreams: states computed per accident period against numpy --------

MULTI_WORD = [0, 1, 7, 12345, 2**32 - 1, 2**32, 2**32 + 5, 2**64, 2**70 + 3]


@pytest.mark.parametrize("seed", MULTI_WORD)
@pytest.mark.parametrize("i", [1, 2, 40, 2**32, 2**33, 2**64 + 9])
def test_pcg64_states_equal_numpy_seeding(seed, i):
    states = pcg64_states(seed, i, 40)
    assert len(states) == 40
    for k in (0, 1, 2, 17, 39):
        want = np.random.PCG64(np.random.SeedSequence([seed, i, k])).state
        assert states[k] == (want["state"]["state"], want["state"]["inc"]), (seed, i, k)


def test_pcg64_states_of_an_empty_period():
    assert pcg64_states(1, 3, 0) == []


def loaded(state: int, inc: int) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@pytest.mark.parametrize("seed, i", [(1, 1), (2**40 + 1, 7), (5, 2**33)])
def test_loaded_generator_draws_like_a_fresh_one(seed, i):
    states = pcg64_states(seed, i, 6)
    # A used generator, reloaded, must forget its past draws (incl. a cached uint32).
    rng = loaded(*states[0])
    rng.integers(0, 2**32, dtype=np.uint32)
    for k, state in enumerate(states):
        rng.bit_generator.state = loaded(*state).bit_generator.state
        fresh = np.random.default_rng(np.random.SeedSequence([seed, i, k]))
        for draw in (
            lambda g: g.random(3),
            lambda g: g.standard_normal(3),
            lambda g: g.standard_exponential(3),
            lambda g: g.standard_gamma(1.5, 3),
            lambda g: g.poisson(2.5, 3),
            lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
        ):
            assert np.array_equal(draw(rng), draw(fresh)), (seed, i, k)


def test_same_bits_draw_rules():
    """The cheaper calls the generator makes give numpy's own results bit for bit."""
    params = np.random.default_rng(5)
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    for _ in range(2000):
        m, s, low = params.normal() * 10, params.random() * 3, params.random() * 40
        high = low + params.random() * 30
        assert a.normal(m, s).hex() == (m + s * b.standard_normal()).hex()
        assert a.exponential(s).hex() == (s * b.standard_exponential()).hex()
        want = [u.hex() for u in a.uniform(low, high, size=5).tolist()]
        assert want == [(low + (high - low) * u).hex() for u in b.random(5).tolist()]


class TestDeterminism:
    def test_identical_seed_byte_identical_export(self, tmp_path):
        paths = []
        for run in range(2):
            data = simulate_portfolio(with_seed(small(preset("complexity1")), 13))
            path = tmp_path / f"export_{run}.csv"
            write_transactions(data, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = simulate_portfolio(with_seed(small(preset("complexity1")), 1))
        b = simulate_portfolio(with_seed(small(preset("complexity1")), 2))
        assert [c.claim_size for c in a.claims[:5]] != [c.claim_size for c in b.claims[:5]]


class TestStatisticalTargets:
    def test_open_claims_larger_on_average(self):
        cfg = with_seed(preset("complexity1"), 3)
        cfg = dataclasses.replace(cfg, mean_claims_per_period=60.0)
        data = simulate_portfolio(cfg)
        t = 40
        open_u = [c.ultimate for c in data.claims if c.open_at(t)]
        settled_u = [c.ultimate for c in data.claims if c.settled_by(t)]
        assert np.mean(open_u) > np.mean(settled_u)

    def test_break_speeds_up_settlement(self):
        cfg = with_seed(preset("complexity5"), 5)
        cfg = dataclasses.replace(cfg, mean_claims_per_period=80.0)
        data = simulate_portfolio(cfg)
        pre, post = [], []
        for c in data.claims:
            dur = c.settlement_period - c.notification_period
            (pre if c.notification_period <= 20 else post).append(dur)
        assert np.mean(post) < np.mean(pre)

    def test_size_duration_correlation(self):
        data = simulate_portfolio(with_seed(small(preset("complexity1"), aps=10, mean=80.0), 2))
        sizes = np.array([c.claim_size for c in data.claims])
        durs = np.array(
            [c.settlement_period - c.notification_period for c in data.claims], dtype=float
        )
        assert np.corrcoef(np.log(sizes), durs)[0, 1] > 0.2


# -- the generator against a reference copy of its original draw path ------------------

TXN_FIELDS = (
    "claim_no",
    "txn_time",
    "txn_type",
    "cumpaid",
    "accident_period",
    "claim_size",
    "incurred",
    "case_ocl",
)
CLAIM_FIELDS = (
    "claim_no",
    "accident_period",
    "notification_period",
    "settlement_period",
    "repdel",
    "claim_size",
)


def reference_claim(config: SimConfig, i: int, k: int) -> Claim:
    """Reference: the generator as first written, with its ``uniform``, ``gamma``,
    ``normal`` and ``exponential`` draws, from a generator built per claim.

    Every draw comes from the claim's substream in the same order as in
    ``_simulate_claim``, so the two must agree bit for bit.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, i, k]))
    occurrence = i - 1 + rng.uniform(0.0, 1.0)
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
    if config.structural_break_period is not None and notify > config.structural_break_period:
        duration *= config.break_settlement_factor
    duration = min(duration, config.max_claim_duration - (notify - occurrence))
    duration = max(duration, 0.05)
    settle = notify + duration

    n_extra = int(rng.poisson(config.payment_intensity * duration))
    first = notify + min(rng.exponential(config.first_payment_delay), 0.9 * duration)
    mids = rng.uniform(notify, settle, size=n_extra).tolist()
    scheduled = sorted([(first, 1.5)] + [(t, 1.0) for t in mids])
    pay_times = [t for t, _ in scheduled] + [settle]
    shapes = [sh for _, sh in scheduled] + [config.final_payment_shape]
    weights = rng.gamma(shape=shapes, scale=1.0)
    weights = weights / weights.sum()
    real_payments = (weights * size).tolist()
    real_payments[-1] = size - sum(real_payments[:-1])

    events = [(t, "P") for t in pay_times]
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

    def remaining(paid):
        return max(ultimate - paid, 0.0)

    cumpaid = 0.0
    pay_idx = 0
    case_ocl = remaining(0.0) * float(np.exp(rng.normal(0.0, config.case_initial_sigma)))
    txns = [
        Transaction(
            claim_no=f"c{i}_{k}",
            txn_time=notify,
            txn_type="Ma",
            cumpaid=0.0,
            accident_period=i,
            claim_size=size,
            incurred=case_ocl,
            case_ocl=case_ocl,
        )
    ]
    for t, kind in events:
        if kind == "P":
            amount = inflated[pay_idx]
            pay_idx += 1
            cumpaid += amount
            if pay_idx == len(inflated):
                cumpaid = ultimate
                case_ocl = 0.0
                typ = "PMa"
            else:
                case_ocl = case_ocl - amount
                typ = "P"
                if rng.uniform() < config.major_at_payment_prob:
                    case_ocl = remaining(cumpaid) * float(
                        np.exp(rng.normal(0.0, config.case_major_sigma))
                    )
                    typ = "PMa"
                elif rng.uniform() < config.minor_at_payment_prob:
                    case_ocl = case_ocl * float(np.exp(rng.normal(0.0, config.case_minor_sigma)))
                    typ = "PMi"
                case_ocl = max(case_ocl, 0.01 * remaining(cumpaid) + 1.0)
        elif kind == "Mi":
            case_ocl = case_ocl * float(np.exp(rng.normal(0.0, config.case_minor_sigma)))
            typ = "Mi"
        else:
            case_ocl = remaining(cumpaid) * float(np.exp(rng.normal(0.0, config.case_major_sigma)))
            typ = "Ma"
        txns.append(
            Transaction(
                claim_no=f"c{i}_{k}",
                txn_time=t,
                txn_type=typ,
                cumpaid=cumpaid,
                accident_period=i,
                claim_size=size,
                incurred=cumpaid + case_ocl,
                case_ocl=case_ocl,
            )
        )

    notif_period = period_of(notify)
    return Claim(
        claim_no=f"c{i}_{k}",
        accident_period=i,
        notification_period=notif_period,
        settlement_period=period_of(settle),
        repdel=notif_period - i,
        claim_size=size,
        transactions=txns,
    )


def as_text(obj, names):
    """The named fields, floats as their round-trip text (so -0.0 != 0.0)."""
    return list(zip(names, as_cells(getattr(obj, name) for name in names)))


def test_pairwise_sum_equals_numpy_bit_for_bit():
    """Lengths on both sides of 8 and 128, terms of both signs and many magnitudes."""
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        for _ in range(4):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 12, size=n)
            assert pairwise_sum(values.tolist()).hex() == np.add.reduce(values).hex(), n
    for n in (1, 7, 8, 9, 128, 129, 300):
        zeros = np.full(n, -0.0)
        assert pairwise_sum(zeros.tolist()).hex() == np.add.reduce(zeros).hex(), n


def test_unit_shape_gamma_is_the_standard_exponential():
    """The payment weights' shape-1.0 draw: same value, same stream position."""
    a = np.random.default_rng(17)
    b = np.random.default_rng(17)
    for n in range(20_000):
        assert a.standard_gamma(1.0).hex() == b.standard_exponential().hex(), n
        if n % 7 == 0:  # the first and final payments' shapes, between them
            assert a.standard_gamma(1.5).hex() == b.standard_gamma(1.5).hex()
            assert a.standard_gamma(3.0).hex() == b.standard_gamma(3.0).hex()
    assert a.bit_generator.state == b.bit_generator.state


# Each preset at four seeds, and a case whose claims reach 8 payments and more,
# where the payment weights are summed with eight accumulators.
REFERENCE_CASES = [
    pytest.param(name, seed, {}, id=f"{seed}-{name}")
    for seed in (1, 2, 9, 31)
    for name in ("complexity1", "complexity5")
] + [pytest.param("complexity5", 4, {"payment_intensity": 3.0}, id="4-complexity5-intensity3")]


@pytest.mark.parametrize("name, seed, changes", REFERENCE_CASES)
def test_every_claim_equals_the_reference_draws(name, seed, changes):
    cfg = with_seed(small(dataclasses.replace(preset(name), **changes), aps=10, mean=12.0), seed)
    data = simulate_portfolio(cfg)
    assert len(data) > 60
    if changes:
        payments = [sum(t.txn_type in PAYMENT_TYPES for t in c.transactions) for c in data.claims]
        assert max(payments) >= 16 and sum(n >= 8 for n in payments) > 20
    if cfg.structural_break_period is not None:
        assert any(c.notification_period > cfg.structural_break_period for c in data.claims)
    for claim in data.claims:
        i, k = (int(part) for part in claim.claim_no[1:].split("_"))
        want = reference_claim(cfg, i, k)
        assert as_text(claim, CLAIM_FIELDS) == as_text(want, CLAIM_FIELDS), claim.claim_no
        assert len(claim.transactions) == len(want.transactions), claim.claim_no
        for got, ref in zip(claim.transactions, want.transactions):
            assert as_text(got, TXN_FIELDS) == as_text(ref, TXN_FIELDS), claim.claim_no
