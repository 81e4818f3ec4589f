import numpy as np
import pytest

from microreserve.claims import censor
from microreserve.env import Transition
from microreserve.errors import ConfigError, DataError, LeakageError, NumericFault
from microreserve.evaluation import (
    Fold,
    guard_fnn_rows,
    guard_transitions,
    guard_validation,
    rsv_folds,
    split,
    tune,
)

from conftest import build_claim, build_dataset


def validation_fold() -> Fold:
    # Both claims are open at the fold boundary (period 2) with nothing paid,
    # so their true outstanding amounts are their ultimates, 10 and 20.
    claims = [
        build_claim("v1", 1, [(1.5, "Ma", 0.0, 10.0), (3.5, "PMa", 10.0, 0.0)]),
        build_claim("v2", 1, [(1.5, "Ma", 0.0, 20.0), (3.5, "PMa", 20.0, 0.0)]),
    ]
    data = build_dataset(claims)
    return Fold(index=1, boundary=2, next_boundary=4, train_view=data, validation_claims=data.claims)


PREDICTIONS = {
    "exact": {"v1": 10.0, "v2": 20.0},  # ratio 1, rmse 0
    "swapped": {"v1": 20.0, "v2": 10.0},  # ratio 1, rmse 10
    "high": {"v1": 20.0, "v2": 40.0},  # ratio 2
}


def scripted(fold, params):
    if "raise" in params:
        raise params["raise"]
    return PREDICTIONS[params["preds"]]


class TestTune:
    def test_ratio_error_decides_first(self):
        grid = [{"preds": "high"}, {"preds": "swapped"}]
        best, entries = tune(grid, [validation_fold()], scripted)
        assert best == {"preds": "swapped"}
        assert [e.mean_abs_ratio_error for e in entries] == [1.0, 0.0]

    def test_ties_break_on_rmse(self):
        grid = [{"preds": "swapped"}, {"preds": "exact"}]
        best, entries = tune(grid, [validation_fold()], scripted)
        assert best == {"preds": "exact"}
        assert [e.mean_rmse for e in entries] == [10.0, 0.0]

    def test_full_ties_break_on_grid_order(self):
        grid = [{"preds": "exact", "tag": 1}, {"preds": "exact", "tag": 2}]
        best, _ = tune(grid, [validation_fold()], scripted)
        assert best["tag"] == 1

    def test_data_error_marks_entry_invalid(self):
        grid = [{"raise": DataError("no rows")}, {"preds": "high"}]
        best, entries = tune(grid, [validation_fold()], scripted)
        assert best == {"preds": "high"}
        assert [e.valid for e in entries] == [False, True]

    @pytest.mark.parametrize(
        "exc, reason",
        [
            (DataError("no rows"), "DataError: no rows"),
            (ConfigError("bad lr"), "ConfigError: bad lr"),
            (NumericFault("loss is nan"), "NumericFault: loss is nan"),
        ],
    )
    def test_invalid_entry_records_why(self, exc, reason):
        grid = [{"raise": exc}, {"preds": "high"}]
        _, entries = tune(grid, [validation_fold()], scripted)
        assert [e.reason for e in entries] == [reason, ""]

    def test_every_entry_invalid_raises(self):
        with pytest.raises(DataError):
            tune([{"raise": DataError("no rows")}], [validation_fold()], scripted)

    @pytest.mark.parametrize("exc", [LeakageError("leak"), TypeError("bug")])
    def test_leaks_and_programming_errors_propagate(self, exc):
        grid = [{"preds": "exact"}, {"raise": exc}]
        with pytest.raises(type(exc)):
            tune(grid, [validation_fold()], scripted)


class TestSplit:
    def test_view_is_the_data_censored_at_the_boundary(self):
        data = validation_fold().train_view
        view = split(data, 2)
        assert [c.settlement_period for c in view.claims] == [None, None]
        assert view.max_calendar_period == censor(data, 2).max_calendar_period == 2

    @pytest.mark.parametrize("boundary", [0, 5])
    def test_boundary_outside_horizon_rejected(self, boundary):
        with pytest.raises(DataError):
            split(validation_fold().train_view, boundary)


def settles(claim_no, notified, settled):
    """A claim notified in one period that settles in another (or the same)."""
    return build_claim(
        claim_no, 1, [(notified - 0.5, "Ma", 0.0, 10.0), (settled - 0.5, "PMa", 10.0, 0.0)]
    )


def fold_portfolio(with_v6=True):
    """Ten periods; which claims validate depends on notification and settlement."""
    claims = [
        settles("v1", 2, 5),
        settles("v2", 3, 6),  # settles on the next boundary: inside (3, 6]
        settles("v3", 4, 5),  # settles in (3, 6] but notified after 3
        settles("v4", 1, 3),  # settles on the boundary itself
        settles("v5", 2, 10),  # settles in the last, widened interval
        build_claim("o1", 1, [(0.5, "Ma", 0.0, 10.0)]),  # never settles
    ]
    if with_v6:
        claims.append(settles("v6", 5, 7))
    return build_dataset(claims, max_t=10)


class TestRsvFolds:
    def test_width_and_remainder_absorbed_by_last_interval(self):
        folds = rsv_folds(fold_portfolio(), 3)
        # width 10 // 3 = 3: intervals 1..3, 4..6 and 7..10.
        assert [(f.index, f.boundary, f.next_boundary) for f in folds] == [(1, 3, 6), (2, 6, 10)]
        assert [f.train_view.max_calendar_period for f in folds] == [3, 6]

    def test_validation_claims_notified_by_b_and_settle_after_it(self):
        folds = rsv_folds(fold_portfolio(), 3)
        assert [sorted(c.claim_no for c in f.validation_claims) for f in folds] == [
            ["v1", "v2"],
            ["v5", "v6"],
        ]

    def test_window_end_limits_the_window(self):
        folds = rsv_folds(fold_portfolio(), 2, window_end=6)
        assert [(f.boundary, f.next_boundary) for f in folds] == [(3, 6)]

    def test_empty_interval_is_data_error(self):
        # Width 2: interval 4 (7..8) has no settling claim without v6.
        with pytest.raises(DataError, match="interval 4"):
            rsv_folds(fold_portfolio(with_v6=False), 5)

    @pytest.mark.parametrize("k, end", [(1, None), (4, 3)])
    def test_bad_fold_count_is_config_error(self, k, end):
        with pytest.raises(ConfigError):
            rsv_folds(fold_portfolio(), k, window_end=end)


def transition(claim_no, tau):
    return Transition(
        claim_no=claim_no,
        accident_period=1,
        dev_period=tau,
        tau=tau,
        state=np.zeros(1),
        action=0.0,
        reward=0.0,
        next_state=None,
        done=False,
        pred_ocl=1.0,
    )


class TestGuards:
    def test_transition_after_the_boundary_leaks(self):
        data = fold_portfolio()
        # v1 is notified in period 2, so tau 2 acts in period 3.
        guard_transitions([transition("v1", 1), transition("v1", 2)], data, 3)
        with pytest.raises(LeakageError, match="v1"):
            guard_transitions([transition("v1", 1), transition("v1", 3)], data, 3)

    def test_fnn_row_from_a_claim_open_at_the_boundary_leaks(self):
        data = fold_portfolio()
        guard_fnn_rows(["v4", "v4"], data, 3)
        with pytest.raises(LeakageError, match="v1"):
            guard_fnn_rows(["v4", "v1"], data, 3)
        with pytest.raises(LeakageError, match="o1"):
            guard_fnn_rows(["o1"], data, 10)

    @pytest.mark.parametrize("claim_no", ["v4", "o1"])
    def test_validation_claim_settled_by_the_boundary_or_open_leaks(self, claim_no):
        data = fold_portfolio()
        guard_validation([data.by_no("v1")], 3)
        with pytest.raises(LeakageError, match=claim_no):
            guard_validation([data.by_no("v1"), data.by_no(claim_no)], 3)
