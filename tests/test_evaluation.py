import pytest

from microreserve.claims import censor
from microreserve.errors import DataError, LeakageError
from microreserve.evaluation import Fold, split, tune

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
