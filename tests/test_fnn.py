import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from microreserve.claims import censor, discretize
from microreserve.env import (
    ONE_HOT_TYPES,
    PREV_OCL_SLOT,
    PROFILES,
    currency_mask,
    importance_weight,
    state_rows,
)
from microreserve.errors import ConfigError, DataError
from microreserve.fnn import (
    FnnConfig,
    FnnModel,
    FnnRows,
    _layout,
    build_training_rows,
    load_fnn,
    predict_ocl_fnn,
    row_features,
    save_fnn,
    train_fnn,
    weighted_mse,
)
from microreserve.nets import AdamState, FeatureScaler, adam_step, backward, forward, init_mlp

from conftest import build_claim, build_dataset
from test_claims import ledger, load_ledger
from test_nets import reference_fit


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
        rows = build_training_rows(data, cfg)
        # f1: dev 2..5 -> 4 rows (J=5, d=1); f2: dev 2..3 -> 2 rows.
        assert rows.claim_nos.count("f1") == 4
        assert rows.claim_nos.count("f2") == 2

    def test_weight_is_target_over_the_mean_positive_target(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", alpha_w=1.0)
        rows = build_training_rows(data, cfg)
        # Positive targets 100, 60, 60 (f1) and 10 (f2) have mean 57.5.
        assert sorted(rows.targets.tolist()) == [0.0, 0.0, 10.0, 60.0, 60.0, 100.0]
        assert rows.weights.tolist() == [y / 57.5 for y in rows.targets.tolist()]

    def test_zero_ocl_rows_weigh_nothing(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", alpha_w=1.0)
        rows = build_training_rows(data, cfg)
        for y, w in zip(rows.targets, rows.weights):
            if y == 0.0:
                assert w == 0.0

    def test_alpha_zero_recovers_unit_weights(self):
        data = settled_fixture()
        rows = build_training_rows(data, FnnConfig(state_profile="minimal", alpha_w=0.0))
        for y, w in zip(rows.targets, rows.weights):
            assert w == (1.0 if y > 0 else 0.0)

    def test_only_settled_claims_contribute(self):
        claims = [
            build_claim("s1", 1, [(1.5, "P", 5.0, 5.0), (2.5, "PMa", 10.0, 0.0)]),
            build_claim("o1", 1, [(1.5, "Ma", 0.0, 50.0), (2.5, "P", 10.0, 40.0)]),
        ]
        data = build_dataset(claims, max_t=3)
        rows = build_training_rows(data, FnnConfig(state_profile="minimal"))
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
            state = state_rows(claim, [claim.record_at(t)], t, profile, [123.0], [])
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
    if not positive:
        raise DataError("no rows, or no positive target")
    s = float(np.mean(positive))
    weights = [importance_weight(y, cfg.alpha_w, s) for y in targets]
    return feats, targets, weights, claim_nos


def assert_rows_match_reference(data, cutoff, cfg):
    try:
        feats, targets, weights, claim_nos = reference_rows(data, cutoff, cfg)
    except DataError:
        with pytest.raises(DataError):
            build_training_rows(data, cfg)
        return
    rows = build_training_rows(data, cfg)
    expected = np.array(feats, dtype=np.float64)
    shift, scale, scaled = reference_fit(expected, _layout(cfg)[0])
    assert rows.features.shape == expected.shape
    assert rows.features.tobytes() == scaled.tobytes()
    assert rows.scaler.shift.tobytes() == shift.tobytes()
    assert rows.scaler.scale.tobytes() == scale.tobytes()
    assert rows.targets.tobytes() == np.array(targets).tobytes()
    assert rows.weights.tobytes() == np.array(weights).tobytes()
    assert rows.claim_nos == claim_nos


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
                for alpha_w in (1.0, 0.5):
                    cfg = FnnConfig(state_profile=profile, alpha_w=alpha_w)
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


def predict(model, features: np.ndarray) -> np.ndarray:
    """The model's predictions for rows of unscaled features."""
    return model.predict_scaled(model.scaler.transform(features))


def scaled_rows(raw, targets, weights, claim_nos, profile="minimal") -> FnnRows:
    """Rows as ``build_training_rows`` returns them: a scaled copy of ``raw`` and its scaler."""
    features = np.array(raw, dtype=np.float64)
    scaler = FeatureScaler.fit_in_place(features, _layout(FnnConfig(state_profile=profile))[0])
    return FnnRows(features=features, scaler=scaler, targets=targets, weights=weights,
                   claim_nos=claim_nos)


def linear_rows(n=400, seed=0) -> FnnRows:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 4.0, size=n)
    y = np.expm1(1.0 + 0.5 * x)  # exactly linear on the log1p scale
    feats = np.stack([np.full(n, 1.0), x, np.zeros(n)], axis=1)
    return scaled_rows(feats, y, np.ones(n), [f"r{i}" for i in range(n)])


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
        preds = model.predict_scaled(rows.features)
        rel = np.abs(preds - rows.targets) / rows.targets
        assert float(np.median(rel)) < 0.1

    def test_output_bias_starts_at_weighted_mean_log_target(self, monkeypatch):
        # One claim: every row trains, none validates. With the Adam step
        # stubbed out, each parameter stays where it started.
        import microreserve.fnn as fnn

        monkeypatch.setattr(fnn, "adam_step", lambda state, params, grads: params)
        rows = linear_rows(n=50)
        rows.claim_nos = ["c0"] * 50
        rows.weights = rows.targets / rows.targets.mean()  # importance weights, alpha 1
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
        # The fit's buffers, the validation rows' among them, go with the fit.
        assert m1.net.workspaces == {}

    def test_split_is_by_claim(self):
        # Rows sharing a claim_no never straddle the early-stop split.
        from microreserve.fnn import _split_by_claim

        rows = linear_rows(n=40)
        rows.claim_nos = [f"c{i // 4}" for i in range(40)]
        train_idx, val_idx = _split_by_claim(rows, np.random.default_rng(0))
        assert sorted([*train_idx, *val_idx]) == list(range(40)) and val_idx.size == 8
        for claim in set(rows.claim_nos):
            idx = [i for i, cn in enumerate(rows.claim_nos) if cn == claim]
            assert len({i in val_idx for i in idx}) == 1

    def test_rows_scaled_for_another_profile_rejected(self):
        with pytest.raises(ConfigError):
            train_fnn(linear_rows(n=40), FnnConfig(state_profile="cas"))

    def test_dropout_validated(self):
        with pytest.raises(ConfigError):
            FnnConfig(dropout=1.0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigError):
            FnnConfig(lr=lr)


def copying_train_fnn(raw: np.ndarray, rows: FnnRows, cfg: FnnConfig,
                      score=weighted_mse) -> FnnModel:
    """``train_fnn`` as it was while it scaled a copy of the unscaled features.

    It fits the scaler on a log-scaled copy of ``raw``, gathers training
    and validation copies of the scaled rows by boolean masks, and scores
    every validation row in one forward; ``score`` takes the validation loss.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))
    mask, sizes = _layout(cfg)
    shift, scale, x_all = reference_fit(raw, mask)
    y_all = np.log1p(rows.targets)
    w_all = rows.weights

    claim_ids = sorted(set(rows.claim_nos))
    perm = rng.permutation(len(claim_ids))
    n_val = max(1, int(round(0.2 * len(claim_ids)))) if len(claim_ids) > 1 else 0
    val_claims = {claim_ids[i] for i in perm[:n_val]}
    val_mask = np.array([cn in val_claims for cn in rows.claim_nos])
    train_mask = ~val_mask
    x_tr, y_tr, w_tr = x_all[train_mask], y_all[train_mask], w_all[train_mask]
    has_val = val_mask.any() and w_all[val_mask].sum() > 0
    x_va, y_va, w_va = x_all[val_mask], y_all[val_mask], w_all[val_mask]

    net = init_mlp(sizes, rng)
    net.biases[-1][...] = np.sum(w_tr * y_tr) / np.sum(w_tr)
    opt = AdamState.for_params(net.flat, cfg.lr)
    model = FnnModel(net=net, scaler=FeatureScaler(shift, scale, mask), cfg=cfg)
    best, best_params, stale = math.inf, net.flat.copy(), 0
    n = x_tr.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb, wb = x_tr[idx], y_tr[idx], w_tr[idx]
            wsum = wb.sum()
            if wsum <= 0:
                continue
            out, cache = forward(net, xb, dropout=cfg.dropout, rng=rng)
            err = out[:, 0] - yb
            upstream = (2.0 * wb * err / wsum)[:, None]
            grad, _ = backward(net, cache, upstream)
            adam_step(opt, net.flat, grad)
        model.epochs_run = epoch
        if not has_val:
            continue
        v = score(forward(net, x_va)[0][:, 0], y_va, w_va)
        model.history.append((epoch, v))
        if v < best - 1e-12:
            best, best_params, stale = v, net.flat.copy(), 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break
    if has_val:
        net.flat[...] = best_params
    return model


def oracle_rows(n_rows: int, rows_per_claim: int = 1, seed: int = 0):
    """Unscaled splice_full rows with negative and zero currency cells, and the same rows scaled."""
    rng = np.random.default_rng(seed)
    currency = _layout(FnnConfig())[0]
    raw = rng.normal(2.0, 1.5, size=(n_rows, currency.size))
    raw[:, currency] = rng.lognormal(6.0, 2.0, size=(n_rows, int(currency.sum())))
    raw[::7, currency] = -raw[::7, currency]
    raw[::5, currency] = 0.0
    targets = np.expm1(0.3 * raw[:, 0] + rng.normal(8.0, 1.0, size=n_rows))
    targets[::9] = 0.0
    weights = targets / targets[targets > 0].mean()
    claim_nos = [f"c{i // rows_per_claim}" for i in range(n_rows)]
    return raw, scaled_rows(raw, targets, weights, claim_nos, profile="splice_full")


class TestFitAgainstTheCopyingFit:
    """The fit on scaled rows, index splits and chunked validation, bit for bit."""

    @staticmethod
    def assert_same_fit(raw, rows, cfg, monkeypatch):
        # Each validation loss's predictions too: a change in the last bit of
        # a few rows' predictions can round away in the loss.
        import microreserve.fnn as fnn

        scored = {"want": [], "got": []}

        def recorder(side):
            def score(preds, targets, weights):
                scored[side].append(np.array(preds).tobytes())
                return weighted_mse(preds, targets, weights)
            return score

        want = copying_train_fnn(raw, rows, cfg, score=recorder("want"))
        monkeypatch.setattr(fnn, "weighted_mse", recorder("got"))
        got = train_fnn(rows, cfg)
        assert scored["got"] == scored["want"]
        assert got.net.flat.tobytes() == want.net.flat.tobytes()
        assert got.scaler.shift.tobytes() == want.scaler.shift.tobytes()
        assert got.scaler.scale.tobytes() == want.scaler.scale.tobytes()
        assert [(e, v.hex()) for e, v in got.history] == [(e, v.hex()) for e, v in want.history]
        assert got.epochs_run == want.epochs_run
        return got

    # One row per claim, so the validation split holds round(0.2 n) rows:
    # 300 to 303 rows (0 to 3 mod 4) in two chunks, and 13 rows in one.
    @pytest.mark.parametrize("n_rows", [1500, 1505, 1510, 1515, 65])
    @pytest.mark.parametrize("batch_size", [128, 50])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_validation_sizes_batches_and_dropout(self, n_rows, batch_size, dropout, monkeypatch):
        raw, rows = oracle_rows(n_rows, seed=n_rows)
        cfg = FnnConfig(hidden=(16, 8), batch_size=batch_size, dropout=dropout,
                        max_epochs=3, patience=3, seed=7)
        model = self.assert_same_fit(raw, rows, cfg, monkeypatch)
        assert len(model.history) == 3

    def test_early_stopping(self, monkeypatch):
        # Claims of three rows; a large step overshoots, so the fit stops early
        # and keeps its best epoch's parameters.
        raw, rows = oracle_rows(1800, rows_per_claim=3, seed=11)
        cfg = FnnConfig(hidden=(16,), lr=0.05, max_epochs=40, patience=2, seed=3)
        model = self.assert_same_fit(raw, rows, cfg, monkeypatch)
        assert model.epochs_run < cfg.max_epochs


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
        # The rows go into C doubles as they are built and are scaled in
        # place, 1.54 times the arrays here; a Python list of every float and
        # its copy into numpy took 2.8 times.
        data = many_settled_claims(400)
        cfg = FnnConfig(state_profile="splice_full")
        rows, peak = traced_peak(build_training_rows, data, cfg)
        kept = rows.features.nbytes + rows.targets.nbytes + rows.weights.nbytes
        assert rows.features.shape[0] > 2000
        assert peak / kept <= 2.0

    def test_train_peak_within_half_a_feature_matrix(self):
        # The rows come scaled, the split is two index vectors and the
        # validation rows are scored in fixed chunks, so the fit's own
        # arrays are vectors of one value per row: 0.42 times the features
        # here. A scaled copy split into training and validation copies took
        # 2.25 times, and separate fit and transform copies 3.1 times.
        data = many_settled_claims(2000)
        cfg = FnnConfig(hidden=(4,), max_epochs=1, seed=2)
        rows = build_training_rows(data, cfg)
        _, peak = traced_peak(train_fnn, rows, cfg)
        assert peak / rows.features.nbytes <= 0.5


class TestWeightScale:
    @pytest.mark.parametrize("max_epochs", [8, 40])
    def test_scaling_every_weight_leaves_the_fit(self, max_epochs):
        # Every use of the weights divides by their sum (the loss, its
        # gradient, the validation loss, the bias start), so a common factor
        # cancels up to rounding and the weights need no scale of their own.
        data = many_settled_claims(60)
        cfg = FnnConfig(state_profile="cas", hidden=(8,), max_epochs=max_epochs, patience=3, seed=5)
        rows = build_training_rows(data, cfg)
        assert (rows.weights == 0.0).any() and len(set(rows.weights)) > 10
        base = train_fnn(rows, cfg)
        want = base.predict_scaled(rows.features)
        for c in (1e-3, 7.3, 1e4):
            model = train_fnn(dataclasses.replace(rows, weights=rows.weights * c), cfg)
            assert model.epochs_run == base.epochs_run
            got = model.predict_scaled(rows.features)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestPredict:
    def test_floor_at_zero(self):
        rows = linear_rows(n=60)
        cfg = FnnConfig(state_profile="minimal", max_epochs=1, patience=1, seed=2)
        model = train_fnn(rows, cfg)
        # Force a strongly negative output head.
        model.net.biases[-1][...] = -50.0
        model.net.weights[-1][...] = 0.0
        assert np.all(model.predict_scaled(rows.features[:5]) == 0.0)

    def test_open_claims_scored_at_valuation(self):
        claims = [
            build_claim("s1", 1, [(1.5, "P", 5.0, 5.0), (2.5, "PMa", 10.0, 0.0)]),
            build_claim("s2", 1, [(1.6, "P", 6.0, 6.0), (2.5, "PMa", 12.0, 0.0)]),
            build_claim("o1", 1, [(1.5, "Ma", 0.0, 50.0), (2.5, "P", 10.0, 40.0)]),
        ]
        data = build_dataset(claims, max_t=3)
        cfg = FnnConfig(state_profile="minimal", max_epochs=2, patience=2, seed=0)
        rows = build_training_rows(data, cfg)
        model = train_fnn(rows, cfg)
        preds = predict_ocl_fnn(model, data)
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
        model = train_fnn(build_training_rows(view, cfg), cfg)
        preds = predict_ocl_fnn(model, view)
        open_claims = view.open_claims(8)
        assert len(preds) == len(open_claims) > 20
        for claim in open_claims:
            row = np.array([row_features(claim, 8, "minimal")], dtype=np.float64)
            assert preds[claim.claim_no] == float(predict(model, row)[0]), claim.claim_no

    def test_no_open_claims_no_predictions(self):
        data = settled_fixture()
        cfg = FnnConfig(state_profile="minimal", max_epochs=1, patience=1, seed=0)
        model = train_fnn(build_training_rows(data, cfg), cfg)
        assert predict_ocl_fnn(model, data) == {}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = linear_rows(n=60)
        cfg = FnnConfig(state_profile="minimal", max_epochs=3, patience=3, seed=6)
        model = train_fnn(rows, cfg)
        save_fnn(model, str(tmp_path / "fnn"))
        again = load_fnn(str(tmp_path / "fnn"))
        x = rows.features[:7]
        assert np.array_equal(predict(model, x), predict(again, x))
