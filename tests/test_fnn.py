import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from microreserve.claims import censor, discretize
from microreserve.env import (
    ONE_HOT_TYPES,
    PREV_OCL_SLOT,
    PROFILES,
    currency_mask,
    ocl_importance_weight,
    state_features,
)
from microreserve.errors import ConfigError, DataError
from microreserve.fnn import (
    FnnConfig,
    FnnRows,
    build_training_rows,
    load_fnn,
    predict_ocl_fnn,
    row_features,
    save_fnn,
    train_fnn,
    weighted_mse,
)

from conftest import build_claim, build_dataset
from test_claims import ledger, load_ledger


def settled_fixture():
    claims = [
        # J - d = 4 rows: notified dev 2, settled dev 5.
        build_claim(
            "f1",
            1,
            [
                (1.5, "Ma", 0.0, 100.0),
                (2.5, "P", 40.0, 60.0),
                (4.5, "PMa", 100.0, 0.0),
            ],
        ),
        build_claim(
            "f2",
            2,
            [(2.4, "P", 10.0, 10.0), (3.5, "PMa", 20.0, 0.0)],
        ),
    ]
    return build_dataset(claims, max_t=5)


class TestRows:
    def test_row_count_is_dev_periods_minus_delay(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", alpha_w=1.0)
        rows = build_training_rows(data, 5, cfg)
        # f1: dev 2..5 -> 4 rows (J=5, d=1); f2: dev 2..3 -> 2 rows.
        assert rows.claim_nos.count("f1") == 4
        assert rows.claim_nos.count("f2") == 2

    def test_weight_at_scale_is_one(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", alpha_w=1.0, s_scale=60.0)
        rows = build_training_rows(data, 5, cfg)
        i = rows.targets.tolist().index(60.0)
        assert rows.weights[i] == pytest.approx(1.0)

    def test_zero_ocl_rows_weigh_nothing(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", alpha_w=1.0)
        rows = build_training_rows(data, 5, cfg)
        for y, w in zip(rows.targets, rows.weights):
            if y == 0.0:
                assert w == 0.0

    def test_alpha_zero_recovers_unit_weights(self):
        data = settled_fixture()
        rows = build_training_rows(data, 5, FnnConfig(state_profile="minimal", alpha_w=0.0))
        for y, w in zip(rows.targets, rows.weights):
            assert w == (1.0 if y > 0 else 0.0)

    def test_only_settled_claims_contribute(self):
        claims = [
            build_claim("s1", 1, [(1.5, "P", 5.0, 5.0), (2.5, "PMa", 10.0, 0.0)]),
            build_claim("o1", 1, [(1.5, "Ma", 0.0, 50.0), (2.5, "P", 10.0, 40.0)]),
        ]
        data = build_dataset(claims, max_t=3)
        rows = build_training_rows(data, 3, FnnConfig(state_profile="minimal"))
        assert set(rows.claim_nos) == {"s1"}

    def test_features_exclude_model_feedback(self):
        data = settled_fixture()
        claim = data.by_no("f1")
        feats = row_features(claim, 2, "minimal")
        assert len(feats) == currency_mask("minimal", 0).size - 1
        assert feats == [1.0, 2.0, 0.0]  # ap, dp, paid

    @pytest.mark.parametrize("profile", ["minimal", "cas", "splice_full"])
    def test_features_are_env_state_without_previous_estimate(self, profile):
        claim = settled_fixture().by_no("f1")
        for t in range(2, 6):
            state = state_features(claim, t, 123.0, [], profile, 0)
            assert state[PREV_OCL_SLOT] == 123.0
            assert row_features(claim, t, profile) == state[:PREV_OCL_SLOT] + state[PREV_OCL_SLOT + 1 :]


def reference_row_features(claim, t, profile):
    """The state layout at n_past=0 without the previous estimate, slot by slot."""
    rec = claim.record_at(t)
    assert rec.dev_period == t + 1 - claim.accident_period
    row = [float(claim.accident_period), float(rec.dev_period), rec.cum_paid]
    if profile in ("cas", "splice_full"):
        row.append(float(claim.repdel))
    if profile == "splice_full":
        row += [1.0 if typ in rec.txn_types else 0.0 for typ in ONE_HOT_TYPES]
        row += [float(rec.n_pay), float((claim.accident_period - 1) % 4 + 1)]
        row += [float((t - 1) % 4 + 1), rec.case if rec.case is not None else 0.0]
    return row


def reference_rows(train, cutoff, cfg):
    """The per-row loop: one row per settled claim and period, each read on its own."""
    feats, targets, claim_nos = [], [], []
    for claim in train.settled_claims(by=cutoff):
        for t in range(claim.notification_period, claim.settlement_period + 1):
            feats.append(reference_row_features(claim, t, cfg.state_profile))
            targets.append(claim.record_at(t).true_ocl)
            claim_nos.append(claim.claim_no)
    positive = [y for y in targets if y > 0]
    if not positive and cfg.s_scale is None:
        raise DataError("no rows, or no positive target")
    s = cfg.s_scale if cfg.s_scale is not None else float(np.mean(positive))
    weights = [ocl_importance_weight(True, cfg.alpha_w, s, ocl_tau=y) for y in targets]
    return feats, targets, weights, claim_nos, s


def assert_rows_match_reference(data, cutoff, cfg):
    try:
        feats, targets, weights, claim_nos, s = reference_rows(data, cutoff, cfg)
    except DataError:
        with pytest.raises(DataError):
            build_training_rows(data, cutoff, cfg)
        return
    rows = build_training_rows(data, cutoff, cfg)
    expected = np.array(feats, dtype=np.float64)
    assert rows.features.shape == expected.shape
    assert rows.features.tobytes() == expected.tobytes()
    assert rows.targets.tobytes() == np.array(targets).tobytes()
    assert rows.weights.tobytes() == np.array(weights).tobytes()
    assert rows.claim_nos == claim_nos
    assert rows.s_scale == s


class TestRowsAgainstThePerRowLoop:
    @given(ledger())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_ledgers(self, case):
        schema, lines, _ = case
        data = load_ledger(schema, lines)
        for boundary in range(1, data.max_calendar_period + 1):
            view = censor(data, boundary)
            for profile in PROFILES:
                assert_rows_match_reference(view, boundary, FnnConfig(state_profile=profile))

    def test_complexity5_portfolio(self):
        from microreserve.simulator import preset, simulate_portfolio, with_seed

        sim = dataclasses.replace(
            with_seed(preset("complexity5"), 3),
            n_accident_periods=12,
            mean_claims_per_period=15.0,
            structural_break_period=6,
        )
        data = discretize(simulate_portfolio(sim))
        for boundary in (6, 12, data.max_calendar_period):
            view = censor(data, boundary)
            for profile in PROFILES:
                for alpha_w, s_scale in ((1.0, None), (0.5, 2500.0)):
                    cfg = FnnConfig(state_profile=profile, alpha_w=alpha_w, s_scale=s_scale)
                    assert_rows_match_reference(view, boundary, cfg)


class TestWeightedMse:
    def test_unit_weights_plain_mse(self):
        assert weighted_mse([1.0, 3.0], [0.0, 0.0], [1.0, 1.0]) == pytest.approx(5.0)

    def test_perfect_predictions(self):
        assert weighted_mse([2.0, 4.0], [2.0, 4.0], [1.0, 5.0]) == 0.0

    def test_hand_weighted_two_rows(self):
        # Oracle: (1*4 + 3*0) / 4 = 1.
        assert weighted_mse([2.0, 5.0], [0.0, 5.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_zero_weight_total_rejected(self):
        with pytest.raises(DataError):
            weighted_mse([1.0], [0.0], [0.0])


def linear_rows(n=400, seed=0) -> FnnRows:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 4.0, size=n)
    y = np.expm1(1.0 + 0.5 * x)  # exactly linear on the log1p scale
    feats = np.stack([np.full(n, 1.0), x, np.zeros(n)], axis=1)
    return FnnRows(
        features=feats,
        targets=y,
        weights=np.ones(n),
        claim_nos=[f"r{i}" for i in range(n)],
        s_scale=float(y.mean()),
    )


class TestTrain:
    def test_learns_linear_relation(self):
        # Oracle: the relation is exactly linear on the log1p scale, so the
        # validation loss must fall from the first epoch to the last and the
        # in-sample median relative error over all rows must end below 0.1.
        rows = linear_rows()
        cfg = FnnConfig(
            state_profile="minimal", hidden=(16,), lr=3e-3, max_epochs=60, patience=10, seed=4
        )
        model = train_fnn(rows, cfg)
        assert model.history[0][1] > model.history[-1][1]
        preds = model.predict(rows.features)
        rel = np.abs(preds - rows.targets) / rows.targets
        assert float(np.median(rel)) < 0.1

    def test_output_bias_starts_at_weighted_mean_log_target(self, monkeypatch):
        # One claim: every row trains, none validates. With the Adam step
        # stubbed out, each parameter stays where it started.
        import microreserve.fnn as fnn

        monkeypatch.setattr(fnn, "adam_step", lambda state, params, grads: params)
        rows = linear_rows(n=50)
        rows.claim_nos = ["c0"] * 50
        rows.weights = rows.targets / rows.s_scale  # importance weights, alpha 1
        cfg = FnnConfig(state_profile="minimal", hidden=(8,), max_epochs=2, seed=3)
        model = train_fnn(rows, cfg)
        y = np.log1p(rows.targets)
        weighted = np.sum(rows.weights * y) / np.sum(rows.weights)
        assert model.history == []
        assert model.net.biases[-1][0] == pytest.approx(weighted, rel=1e-12)
        assert model.net.biases[-1][0] != pytest.approx(y.mean(), abs=0.1)

    def test_patience_zero_single_epoch(self):
        rows = linear_rows(n=60)
        cfg = FnnConfig(state_profile="minimal", patience=0, max_epochs=50, seed=1)
        model = train_fnn(rows, cfg)
        assert model.epochs_run == 1

    def test_same_seed_identical_weights(self):
        rows = linear_rows(n=80)
        cfg = FnnConfig(state_profile="minimal", max_epochs=5, patience=5, seed=9)
        m1 = train_fnn(rows, cfg)
        m2 = train_fnn(rows, cfg)
        assert np.array_equal(m1.net.flat, m2.net.flat)

    def test_split_is_by_claim(self):
        # Rows sharing a claim_no never straddle the early-stop split.
        from microreserve.fnn import _split_by_claim

        rows = linear_rows(n=40)
        rows.claim_nos = [f"c{i // 4}" for i in range(40)]
        train_mask, val_mask = _split_by_claim(rows, np.random.default_rng(0))
        for claim in set(rows.claim_nos):
            idx = [i for i, cn in enumerate(rows.claim_nos) if cn == claim]
            assert len({bool(val_mask[i]) for i in idx}) == 1

    def test_dropout_validated(self):
        with pytest.raises(ConfigError):
            FnnConfig(dropout=1.0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigError):
            FnnConfig(lr=lr)


def many_settled_claims(n: int):
    """n settled claims over six accident periods, 4 to 8 records each."""
    claims = []
    for k in range(n):
        ap, length = 1 + k % 6, 3 + k % 5
        txns = [(ap + 0.5, "Ma", 0.0, 100.0 + k)]
        txns += [
            (ap + j + 0.4, "P" if j % 2 else "Mi", 10.0 * j + k % 7, 90.0 - j)
            for j in range(1, length)
        ]
        txns.append((ap + length + 0.5, "PMa", 10.0 * length + k % 7 + 5.0, 0.0))
        claims.append(build_claim(f"m{k}", ap, txns))
    return build_dataset(claims)


def traced_peak(fn, *args):
    """fn's result and the peak of tracemalloc-traced memory it allocated.

    A first, untraced call does the lazy imports numpy's seeding makes.
    """
    import gc
    import tracemalloc

    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    """Peak allocations of the fit path, against the arrays it keeps."""

    def test_rows_peak_within_twice_the_returned_arrays(self):
        # The rows go into C doubles as they are built; a Python list of
        # every float and its copy into numpy took 2.8 times the arrays here.
        data = many_settled_claims(400)
        cfg = FnnConfig(state_profile="splice_full")
        rows, peak = traced_peak(build_training_rows, data, data.max_calendar_period, cfg)
        kept = rows.features.nbytes + rows.targets.nbytes + rows.weights.nbytes
        assert rows.features.shape[0] > 2000
        assert peak / kept <= 2.0

    def test_train_peak_within_two_and_a_half_feature_matrices(self):
        # One scaled copy of the features, split into training and validation
        # rows, then dropped; with a narrow net the copies set the peak.
        # Separate fit and transform copies and a kept unsplit matrix took
        # 3.1 times the features here.
        data = many_settled_claims(2000)
        cfg = FnnConfig(hidden=(4,), max_epochs=1, seed=2)
        rows = build_training_rows(data, data.max_calendar_period, cfg)
        _, peak = traced_peak(train_fnn, rows, cfg)
        assert peak / rows.features.nbytes <= 2.5


class TestPredict:
    def test_floor_at_zero(self):
        rows = linear_rows(n=60)
        cfg = FnnConfig(state_profile="minimal", max_epochs=1, patience=1, seed=2)
        model = train_fnn(rows, cfg)
        # Force a strongly negative output head.
        model.net.biases[-1][...] = -50.0
        model.net.weights[-1][...] = 0.0
        assert np.all(model.predict(rows.features[:5]) == 0.0)

    def test_open_claims_scored_at_valuation(self):
        claims = [
            build_claim("s1", 1, [(1.5, "P", 5.0, 5.0), (2.5, "PMa", 10.0, 0.0)]),
            build_claim("s2", 1, [(1.6, "P", 6.0, 6.0), (2.5, "PMa", 12.0, 0.0)]),
            build_claim("o1", 1, [(1.5, "Ma", 0.0, 50.0), (2.5, "P", 10.0, 40.0)]),
        ]
        data = build_dataset(claims, max_t=3)
        cfg = FnnConfig(state_profile="minimal", max_epochs=2, patience=2, seed=0)
        rows = build_training_rows(data, 3, cfg)
        model = train_fnn(rows, cfg)
        preds = predict_ocl_fnn(model, data, 3)
        assert set(preds) == {"o1"}
        assert preds["o1"] >= 0.0


    def test_open_claims_scored_as_single_rows(self):
        from microreserve.simulator import preset, simulate_portfolio, with_seed

        sim = dataclasses.replace(
            with_seed(preset("complexity1"), 4), n_accident_periods=8, mean_claims_per_period=15.0
        )
        data = discretize(simulate_portfolio(sim))
        view = censor(data, 8)
        cfg = FnnConfig(state_profile="minimal", max_epochs=2, patience=2, seed=1)
        model = train_fnn(build_training_rows(view, 8, cfg), cfg)
        preds = predict_ocl_fnn(model, view, 8)
        open_claims = view.open_claims(8)
        assert len(preds) == len(open_claims) > 20
        for claim in open_claims:
            row = np.array([row_features(claim, 8, "minimal")], dtype=np.float64)
            assert preds[claim.claim_no] == float(model.predict(row)[0]), claim.claim_no

    def test_no_open_claims_no_predictions(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", max_epochs=1, patience=1, seed=0)
        model = train_fnn(build_training_rows(data, 5, cfg), cfg)
        assert predict_ocl_fnn(model, data, 5) == {}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = linear_rows(n=60)
        cfg = FnnConfig(state_profile="minimal", max_epochs=3, patience=3, seed=6)
        model = train_fnn(rows, cfg)
        save_fnn(model, str(tmp_path / "fnn"))
        again = load_fnn(str(tmp_path / "fnn"))
        x = rows.features[:7]
        assert np.array_equal(model.predict(x), again.predict(x))
