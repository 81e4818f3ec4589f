import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreserve.claims import censor, discretize, load_transactions
from microreserve.credibility import build_init_tables, initial_reserves, initialise_claim
from microreserve.env import (
    EnvConfig,
    ScriptedPolicy,
    ZeroPolicy,
    apply_action,
    importance_weight,
    mean_training_ocl,
    reward_accuracy,
    reward_smoothing,
    reward_stability,
    rollout_calendar,
    smape_h,
    state_dim,
)
from microreserve.errors import ConfigError, DataError
from microreserve.simulator import preset, simulate_portfolio, with_seed

from conftest import build_claim, build_dataset, fixture_path

LN2 = math.log(2.0)


def golden_rows():
    with open(fixture_path("golden_claim_expected.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def golden_env(golden_config, **overrides) -> EnvConfig:
    keys = ("k", "gamma", "c_acc", "m_warmup", "alpha_w", "s_scale", "n_past", "state_profile")
    kwargs = {k: golden_config[k] for k in keys}
    kwargs.update(overrides)
    return EnvConfig(**kwargs)


class TestApplyAction:
    def test_golden_first_step(self):
        # prev 499175.5 -> 519377.1 back-solves to about +0.0397
        a = math.log(519377.1 / 499175.5)
        assert apply_action(499175.5, a, 2.0) == (pytest.approx(519377.1), a)
        assert a == pytest.approx(0.0397, abs=1e-4)

    def test_identity(self):
        assert apply_action(100.0, 0.0, 2.0) == (100.0, 0.0)

    def test_clipping_at_bound(self):
        # Oracle: clip then exp by hand; the clipped action comes back too.
        assert apply_action(100.0, 1.5, 2.0) == (pytest.approx(200.0), LN2)
        assert apply_action(100.0, -5.0, 2.0) == (pytest.approx(50.0), -LN2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            apply_action(0.0, 0.1, 2.0)


class TestSmapeH:
    def test_identity(self):
        assert smape_h(5.0, 5.0) == 1.0

    def test_zero_prediction_floor(self):
        assert smape_h(3.0, 0.0) == -1.0

    def test_worked_value(self):
        # Oracle: direct formula; pair taken from the golden claim's
        # implied-ultimate path.
        assert smape_h(495919.8, 490825.5) == pytest.approx(0.98967, abs=1e-5)

    def test_both_zero(self):
        assert smape_h(0.0, 0.0) == 1.0

    @given(
        st.floats(min_value=1e-6, max_value=1e9),
        st.floats(min_value=1e-6, max_value=1e9),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, y, y_hat):
        assert smape_h(y, y_hat) == pytest.approx(smape_h(y_hat, y))
        assert -1.0 <= smape_h(y, y_hat) <= 1.0


class TestRewardAccuracy:
    def test_single_perfect_step(self):
        assert reward_accuracy([7.0], [7.0], gamma=0.99, c=5.0, weights=[1.0]) == pytest.approx(5.0)

    def test_golden_unweighted(self, golden_config):
        # Oracle: spreadsheet-style recomputation over the 12 table rows,
        # frozen in the fixture config.
        rows = golden_rows()
        trues = [float(r["true_ocl"]) for r in rows]
        preds = [float(r["pred_ocl"]) for r in rows]
        got = reward_accuracy(trues, preds, gamma=0.99, c=5.0, weights=[1.0] * len(trues))
        assert got == pytest.approx(golden_config["racc_unweighted"], abs=1e-9)
        assert got == pytest.approx(2.8899689630676613)

    def test_golden_weighted(self, golden_config):
        rows = golden_rows()
        trues = [float(r["true_ocl"]) for r in rows]
        preds = [float(r["pred_ocl"]) for r in rows]
        weights = [t / golden_config["s_scale"] for t in trues]
        got = reward_accuracy(trues, preds, gamma=0.99, c=5.0, weights=weights)
        assert got == pytest.approx(3.7502, abs=1e-4)

    def test_empty_path_rejected(self):
        with pytest.raises(DataError):
            reward_accuracy([], [], gamma=0.99, c=5.0, weights=[])

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(DataError):
            reward_accuracy([1.0, 2.0], [1.0, 2.0], gamma=0.99, c=5.0, weights=[1.0])


class TestRewardStability:
    def test_payment_gate(self):
        assert reward_stability(3, [1.0, 2.0, 3.0, 4.0], 0.5, True, 0.99, 2.0, 9) == 0.0

    def test_golden_interior_row(self):
        # tau=3 of the worked claim: 0.99 h(495919.8, 490825.5) - h(490825.5, 519377.1)
        ul = [499175.5, 519377.1, 490825.5, 495919.8]
        got = reward_stability(3, ul, 0.0105, False, 0.99, 2.0, 13)
        assert got == pytest.approx(0.0363, abs=1e-4)

    def test_constant_path_interior(self):
        # Oracle: h(x, x) = 1 substitution gives gamma - 1.
        ul = [5.0, 5.0, 5.0, 5.0]
        got = reward_stability(2, ul, 0.0, False, 0.99, 2.0, 9)
        assert got == pytest.approx(-0.01)

    def test_first_step_quadratic(self):
        got = reward_stability(1, [10.0, 20.0], LN2 / 2.0, False, 0.99, 2.0, 5)
        assert got == pytest.approx(-0.25)

    def test_final_step_drops_forward_term(self):
        ul = [10.0, 12.0, 11.0]
        got = reward_stability(2, ul, 0.0, False, 0.99, 2.0, 3)
        assert got == pytest.approx(-smape_h(12.0, 10.0))

    def test_tau_out_of_range(self):
        with pytest.raises(DataError):
            reward_stability(5, [1.0] * 6, 0.0, False, 0.99, 2.0, 5)


class TestTelescoping:
    def test_shaping_sums_to_initial_potential(self):
        # Payment-free claims: the discounted shaping sum collapses to
        # -h(UL_1, UL_0) whatever the intermediate estimates were.
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            horizon = int(rng.integers(3, 12))
            ul = rng.uniform(10.0, 1e6, size=horizon)
            total = 0.0
            for tau in range(2, horizon):
                r = reward_stability(tau, ul[: tau + 1], 0.0, False, 0.99, 2.0, horizon)
                total += 0.99 ** (tau - 2) * r
            worst = max(worst, abs(total + smape_h(ul[1], ul[0])))
        assert worst < 1e-10


class TestRewardSmoothing:
    def test_payment_gate(self):
        assert reward_smoothing(0.5, 3, 10, 2.0, True) == 0.0

    def test_max_penalty_after_warmup(self):
        assert reward_smoothing(LN2, 15, 10, 2.0, False) == pytest.approx(-1.0)

    def test_golden_row(self):
        # tau=6 of the worked claim with the pinned warm-up length.
        a = math.log(277343.3 / 269355.0)
        got = reward_smoothing(a, 5, 10, 2.0, False)
        assert got == pytest.approx(-0.0011, abs=1e-4)

    def test_ramp(self):
        a = LN2
        assert reward_smoothing(a, 0, 10, 2.0, False) == pytest.approx(-0.1)
        assert reward_smoothing(a, 4, 10, 2.0, False) == pytest.approx(-0.5)


class TestImportanceWeight:
    def test_settled_at_scale(self):
        assert importance_weight(25.0, 0.7, 25.0) == pytest.approx(1.0)

    def test_settled_double_scale_alpha_one(self):
        assert importance_weight(20.0, 1.0, 10.0) == pytest.approx(2.0)

    def test_open_claim_lower_bound(self):
        # Oracle: direct formula, max(paid at the last period 50, UL_0 80)
        # minus the paid 30 at the step.
        assert importance_weight(max(50.0, 80.0) - 30.0, 1.0, 25.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("inner", [0.0, -0.0, -5.0])
    def test_non_positive_ocl_weighs_nothing(self, inner):
        assert importance_weight(inner, 1.0, 10.0) == 0.0

    def test_alpha_zero_is_unit(self):
        assert importance_weight(123.0, 0.0, 10.0) == 1.0

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            importance_weight(5.0, 1.0, 0.0)

    @given(st.floats(min_value=0.1, max_value=1e6), st.floats(min_value=0.2, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_ocl(self, ocl, alpha):
        assert importance_weight(ocl * 1.5, alpha, 100.0) > importance_weight(ocl, alpha, 100.0)


def posthoc_weights(dataset, init, cfg, horizon, transitions, actions) -> list[float]:
    """Each transition's importance weight as a pass after the rollout computed it.

    The reference for the weights the rollout sets when it builds a step. A
    claim settled by the horizon weighs each step by its true OCL. Any other
    claim weighs a step by the lower bound max(paid at its last prediction
    period, UL_0) minus the paid at the step. ``actions`` holds the policy's
    actions per claim, one per prediction, so the last prediction period is
    the notification period plus their count minus one.
    """
    weights = []
    for txn in transitions:
        claim = dataset.by_no(txn.claim_no)
        rec = claim.record_at(claim.notification_period + txn.tau - 1)
        if claim.settled and claim.settlement_period <= horizon:
            weights.append(importance_weight(rec.true_ocl, cfg.alpha_w, cfg.s_scale))
            continue
        last_t = claim.notification_period + len(actions[txn.claim_no]) - 1
        p_last = claim.record_at(last_t).cum_paid
        ul0 = init[txn.claim_no] + claim.dev_records[0].cum_paid
        weights.append(importance_weight(max(p_last, ul0) - rec.cum_paid, cfg.alpha_w, cfg.s_scale))
    return weights


class RecordingPolicy:
    """Seeded actions (or the wrapped policy's), recorded per claim in the order made."""

    def __init__(self, policy=None, seed=0):
        self.policy, self.rng, self.actions = policy, np.random.default_rng(seed), {}

    def act(self, state, explore=False, claim_no=None, tau=None, **_):
        if self.policy is None:
            action = float(self.rng.normal(0.0, 0.3))
        else:
            action = self.policy.act(state, explore=explore, claim_no=claim_no, tau=tau)
        self.actions.setdefault(claim_no, []).append(action)
        return action


def rollout_with_reference_weights(data, policy, init, cfg):
    """Roll out, checking every transition against the post-hoc reference as it arrives.

    The weight each transition carries when ``on_transition`` receives it
    must equal the reference bit for bit. A settled claim's accuracy reward
    must equal ``reward_accuracy`` over its true-OCL path and reference
    weights, and ``reserves`` must hold each scheduled claim's last estimate.
    """
    recorder = RecordingPolicy(policy)
    received = []
    result = rollout_calendar(
        data, recorder, init, cfg, on_transition=lambda txn: received.append((txn, txn.weight))
    )
    assert [txn for txn, _ in received] == result.transitions
    horizon = data.max_calendar_period
    want = posthoc_weights(data, init, cfg, horizon, result.transitions, recorder.actions)
    assert [w for _, w in received] == want
    paths: dict[str, list] = {}  # per claim: (true OCL, estimate, weight) per step
    for txn, w in zip(result.transitions, want):
        assert txn.weight == w
        claim = data.by_no(txn.claim_no)
        true_ocl = claim.record_at(claim.notification_period + txn.tau - 1).true_ocl
        paths.setdefault(txn.claim_no, []).append((true_ocl, txn.pred_ocl, w))
        if txn.done:
            ocl_path, preds, weights = zip(*paths[txn.claim_no])
            r_acc = reward_accuracy(ocl_path, preds, cfg.gamma, cfg.c_acc, weights)
            assert txn.r_acc == r_acc
    reserves = {}
    for claim_no, actions in recorder.actions.items():
        ocl = init[claim_no]
        for action in actions:
            ocl = apply_action(ocl, action, cfg.k)[0]
        reserves[claim_no] = ocl
    assert result.reserves == reserves
    return result


class TestRollout:
    def test_zero_policy_three_period_claim(self, three_period_claim):
        cfg = EnvConfig(state_profile="minimal", s_scale=100.0)
        result = rollout_calendar(three_period_claim, ZeroPolicy(), {"a1": 80.0}, cfg)
        assert len(result.transitions) == 2
        assert [t.pred_ocl for t in result.transitions] == [80.0, 80.0]
        assert result.reserves == {"a1": 80.0}
        assert result.transitions[-1].done
        assert result.n_skipped == 0

    def test_golden_replay_row_parity(self, golden_config):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        claim_no = data.claims[0].claim_no
        rows = golden_rows()
        cfg = golden_env(golden_config)
        policy = ScriptedPolicy({(claim_no, int(r["tau"])): float(r["action"]) for r in rows})
        result = rollout_calendar(data, policy, {claim_no: golden_config["ocl0"]}, cfg)
        assert len(result.transitions) == len(rows)
        for txn, row in zip(result.transitions, rows):
            assert txn.action == pytest.approx(float(row["action"]), abs=1e-12)
            assert txn.r_stab == pytest.approx(float(row["r_stab_exact"]), abs=1e-12)
            assert txn.r_smooth == pytest.approx(float(row["r_smooth_exact"]), abs=1e-12)
            if row["payment"] == "1":
                assert txn.r_stab == 0.0
                assert txn.r_smooth == 0.0
        assert result.transitions[-1].r_acc == pytest.approx(3.7502, abs=1e-4)

    @pytest.mark.parametrize("listed", [["o1", "o2"], ["o2", "o1"]], ids=["o1_first", "o2_first"])
    def test_overlapping_claims_interleave_in_calendar_order(self, listed):
        # Oracle: manual schedule on a 2-claim fixture. Claims act in
        # claim-number order within a period, whatever the dataset's order.
        c1 = build_claim(
            "o1",
            1,
            [(1.5, "Ma", 0.0, 50.0), (2.5, "P", 20.0, 30.0), (4.5, "PMa", 50.0, 0.0)],
        )
        c2 = build_claim(
            "o2",
            2,
            [(2.5, "Ma", 0.0, 40.0), (4.5, "PMa", 40.0, 0.0)],
        )
        claims = {"o1": c1, "o2": c2}
        data = build_dataset([claims[no] for no in listed])
        cfg = EnvConfig(state_profile="minimal", s_scale=10.0)
        result = rollout_calendar(data, ZeroPolicy(), {"o1": 50.0, "o2": 40.0}, cfg)
        order = [(t.claim_no, t.tau) for t in result.transitions]
        assert order == [("o1", 1), ("o1", 2), ("o2", 1), ("o1", 3), ("o2", 2)]
        taus = {}
        for txn in result.transitions:
            taus.setdefault(txn.claim_no, []).append(txn.tau)
        assert taus == {"o1": [1, 2, 3], "o2": [1, 2]}

    def test_skips_claims_settling_at_notification(self):
        quick = build_claim("q1", 1, [(1.2, "PMa", 10.0, 0.0)])
        other = build_claim(
            "q2", 1, [(1.5, "Ma", 0.0, 5.0), (2.5, "PMa", 5.0, 0.0)]
        )
        data = build_dataset([quick, other])
        cfg = EnvConfig(state_profile="minimal", s_scale=5.0)
        result = rollout_calendar(data, ZeroPolicy(), {"q1": 1.0, "q2": 5.0}, cfg)
        assert result.n_skipped == 1
        assert "q1" not in result.reserves

    def test_positivity_and_bound_under_wild_policy(self, three_period_claim):
        class Wild:
            def act(self, state, explore=False, **_):
                return 37.0  # far outside the admissible range

        cfg = EnvConfig(state_profile="minimal", s_scale=100.0)
        result = rollout_calendar(three_period_claim, Wild(), {"a1": 80.0}, cfg)
        for txn in result.transitions:
            assert abs(txn.action) <= math.log(2.0)
            assert txn.pred_ocl > 0

    def test_payment_periods_zero_both_shaping_terms(self, golden_config):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        cfg = golden_env(golden_config)
        result = rollout_calendar(data, ZeroPolicy(), {data.claims[0].claim_no: 499175.5}, cfg)
        for txn in result.transitions:
            rec = data.claims[0].dev_records[
                txn.tau - 1
            ]  # records start at notification
            if rec.has_payment:
                assert txn.r_stab == 0.0
                assert txn.r_smooth == 0.0

    @pytest.mark.parametrize("n_past", [0, 1, 5, 20])
    def test_every_state_has_state_dim_slots(self, golden_config, n_past):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        cfg = golden_env(golden_config, n_past=n_past)
        result = rollout_calendar(data, ZeroPolicy(), {data.claims[0].claim_no: 499175.5}, cfg)
        dim = state_dim(cfg.state_profile, n_past)
        assert dim == 14 + n_past
        assert {len(t.state) for t in result.transitions} == {dim}

    def test_stability_terms_follow_the_claim_horizon(self):
        # Oracle: potential differences recomputed from the logged estimates.
        # Notified in period 2 and settled in period 5, so the horizon is 4
        # and tau 3, a period without payments, is the last prediction step.
        claim = build_claim(
            "h1",
            1,
            [(1.5, "Ma", 0.0, 90.0), (2.5, "Ma", 0.0, 80.0), (4.5, "PMa", 100.0, 0.0)],
        )
        data = build_dataset([claim])
        cfg = EnvConfig(state_profile="minimal", s_scale=50.0, gamma=0.9)
        policy = ScriptedPolicy({("h1", 1): 0.1, ("h1", 2): -0.2, ("h1", 3): 0.3})
        result = rollout_calendar(data, policy, {"h1": 80.0}, cfg)
        ul = [80.0] + [t.pred_ocl for t in result.transitions]  # nothing paid yet
        assert [t.tau for t in result.transitions] == [1, 2, 3]
        interior, last = result.transitions[1], result.transitions[2]
        assert interior.r_stab == 0.9 * smape_h(ul[2], ul[1]) - smape_h(ul[1], ul[0])
        assert last.r_stab == -smape_h(ul[2], ul[1])
        assert last.reward == last.r_stab + last.r_smooth + last.r_acc

    def test_determinism(self, golden_config):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        cfg = golden_env(golden_config)
        claim_no = data.claims[0].claim_no
        runs = []
        for _ in range(2):
            result = rollout_calendar(data, ZeroPolicy(), {claim_no: 499175.5}, cfg)
            runs.append(
                [(t.tau, t.reward, tuple(t.state)) for t in result.transitions]
            )
        assert runs[0] == runs[1]

    def test_open_claim_gets_lower_bound_weights(self):
        claim = build_claim(
            "w1",
            1,
            [(1.5, "Ma", 0.0, 100.0), (2.5, "P", 30.0, 70.0), (5.5, "P", 50.0, 50.0)],
        )
        claim.settlement_period = None  # force open
        data = build_dataset([claim], max_t=6)
        cfg = EnvConfig(state_profile="minimal", s_scale=25.0, alpha_w=1.0)
        result = rollout_with_reference_weights(data, ZeroPolicy(), {"w1": 80.0}, cfg)
        # P_curr = 50, UL_0 = 80; tau=1 has P_tau=0 -> (80-0)/25
        assert result.transitions[0].weight == pytest.approx(80.0 / 25.0)
        # tau=2 has P_tau=30 -> (80-30)/25 = 2
        assert result.transitions[1].weight == pytest.approx(2.0)

    def test_step_weights_equal_the_posthoc_reference(self):
        # A complexity5 portfolio censored at several boundaries, so each rollout
        # has claims settled by the boundary and claims still open there.
        sim = dataclasses.replace(
            with_seed(preset("complexity5"), 3),
            n_accident_periods=12,
            mean_claims_per_period=15.0,
            structural_break_period=6,
        )
        data = discretize(simulate_portfolio(sim))
        n_open = n_settled = 0
        for boundary in (6, 9, 12, data.max_calendar_period):
            view = censor(data, boundary)
            tables = build_init_tables(view)
            init = {
                c.claim_no: initialise_claim(
                    c.accident_period, c.dev_records[0].cum_paid, tables, k=2.0
                )[1]
                for c in view.claims
            }
            assert initial_reserves(view, tables, k=2.0) == init
            for alpha_w in (1.0, 0.5):
                cfg = EnvConfig(s_scale=mean_training_ocl(view), alpha_w=alpha_w)
                result = rollout_with_reference_weights(view, None, init, cfg)
                settled = {t.claim_no for t in result.transitions if t.done}
                n_settled += len(settled)
                n_open += len(result.reserves) - len(settled)
        assert n_open > 100 and n_settled > 100

    def test_every_emitted_step_has_a_successor_or_is_done(self):
        # SacAgent.observe buffers each step it receives with no check of its
        # own, so a step with neither a next state nor done would be learned
        # from as an absorbing one. The view is censored while claims are open.
        sim = dataclasses.replace(
            with_seed(preset("complexity1"), 2), n_accident_periods=10, mean_claims_per_period=12.0
        )
        view = censor(discretize(simulate_portfolio(sim)), 7)
        init = {c.claim_no: 50.0 + c.dev_records[0].cum_paid for c in view.claims}
        received = []
        result = rollout_calendar(
            view, RecordingPolicy(seed=5), init, EnvConfig(s_scale=50.0),
            explore=True, on_transition=received.append,
        )
        assert received == result.transitions
        open_at_boundary = [no for no in result.reserves if not view.by_no(no).settled_by(7)]
        assert len(open_at_boundary) > 20 and len(received) > 100
        for txn in received:
            assert txn.next_state is not None or txn.done, (txn.claim_no, txn.tau)
            assert txn.next_state is None or len(txn.next_state) == len(txn.state)

    def test_mean_training_ocl(self, three_period_claim):
        # Claim pays 40 at tau=2 out of 100: OCL path is 100, 60.
        assert mean_training_ocl(three_period_claim) == pytest.approx(80.0)
