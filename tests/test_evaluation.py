import csv
import math

import numpy as np
import pytest

from microreserve import chainladder, cli
from microreserve.claims import censor
from microreserve.env import Transition, apply_action
from microreserve.errors import ConfigError, DataError, LeakageError, NumericFault
from microreserve.evaluation import (
    MAX_PSN,
    Fold,
    MetricsReport,
    action_histogram,
    evaluate_chain_ladder,
    evaluate_predictions,
    group_sums,
    guard_fnn_rows,
    guard_transitions,
    guard_validation,
    rsv_folds,
    size_terciles,
    split,
    true_ocl_map,
    tune,
    write_metrics_csv,
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
    "unaligned": {"zz": 10.0},  # no validation claim
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

    def test_predictions_for_no_validation_claim_are_invalid(self):
        _, entries = tune([{"preds": "unaligned"}, {"preds": "high"}], [validation_fold()], scripted)
        assert [e.reason for e in entries] == ["DataError: no aligned claims to score", ""]

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
        folds = rsv_folds(censor(fold_portfolio(), 6), 2)
        assert [(f.boundary, f.next_boundary) for f in folds] == [(3, 6)]

    def test_empty_interval_is_data_error(self):
        # Width 2: interval 4 (7..8) has no settling claim without v6.
        with pytest.raises(DataError, match="interval 4"):
            rsv_folds(fold_portfolio(with_v6=False), 5)

    @pytest.mark.parametrize("k, end", [(1, 10), (4, 3)])
    def test_bad_fold_count_is_config_error(self, k, end):
        with pytest.raises(ConfigError):
            rsv_folds(censor(fold_portfolio(), end), k)


def transition(claim_no, tau, done=False, action=0.0):
    return Transition(
        claim_no=claim_no,
        accident_period=1,
        dev_period=tau,
        tau=tau,
        state=np.zeros(1),
        action=action,
        reward=0.0,
        next_state=None,
        done=done,
        pred_ocl=1.0,
    )


class TestGuards:
    def test_transition_after_the_boundary_leaks(self):
        data = fold_portfolio()
        # v1 is notified in period 2, so tau 2 acts in period 3.
        guard_transitions([transition("v1", 1), transition("v1", 2)], data, 3)
        with pytest.raises(LeakageError, match="v1"):
            guard_transitions([transition("v1", 1), transition("v1", 3)], data, 3)

    def test_episode_ending_after_the_boundary_leaks(self):
        data = fold_portfolio()
        # v4 settles in period 3 and v1 in period 5; each ends its episode
        # with a step acting at or before the boundary.
        guard_transitions([transition("v4", 2, done=True), transition("v1", 1)], data, 3)
        with pytest.raises(LeakageError, match="claim v1 ends its episode after boundary 3"):
            guard_transitions([transition("v1", 2, done=True)], data, 3)

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


# -- metrics -------------------------------------------------------------------


@pytest.mark.parametrize("k", [2.0, 2.5, 3.0, 10.0])
@pytest.mark.parametrize("by_psn", [False, True])
def test_action_histogram_counts_actions_at_the_bounds(k, by_psn):
    # exp(+-ln k) rounds just outside [1/k, k] for k = 2.5, 3 and 10. Each
    # action is clipped as the rollout clips it; one past the bound is not.
    actions = [apply_action(1.0, a, k)[1] for a in (-math.log(k), 0.0, math.log(k), 9.0)]
    txns = [transition("c", 1, action=a) for a in actions]
    txns.append(transition("c", 2, action=1.01 * math.log(k)))
    counts, edges = action_histogram(txns, k, by_psn=by_psn)
    assert (edges[0], edges[-1]) == (1.0 / k, k)
    if by_psn:
        assert sorted(counts) == list(range(1, MAX_PSN + 1))
        assert counts[1].sum() == 4 and counts[2].sum() == 0
        counts = counts[1]
    assert counts.sum() == 4 and counts[0] == 1 and counts[-1] == 2


VALUATION = 3


def scoring_portfolio():
    """Four claims open at period 3 that settle later, one never settles, one settled.

    At the valuation (claim: accident period, periods since notification,
    true OCL, ultimate): c1 1, 3, 40, 40; c2 1, 1, 10, 10; c3 2, 2, 60, 80;
    c4 3, 1, 0, 30 (paid in full, its case estimate closes at no cost).
    """
    return build_dataset(
        [
            build_claim("c1", 1, [(0.5, "Ma", 0.0, 40.0), (4.5, "PMa", 40.0, 0.0)]),
            build_claim("c2", 1, [(2.5, "Ma", 0.0, 10.0), (4.5, "PMa", 10.0, 0.0)]),
            build_claim(
                "c3", 2, [(1.5, "Ma", 0.0, 80.0), (2.5, "P", 20.0, 60.0), (4.5, "PMa", 80.0, 0.0)]
            ),
            build_claim(
                "c4", 3, [(2.5, "Ma", 0.0, 30.0), (2.6, "P", 30.0, 5.0), (3.5, "PMi", 30.0, 0.0)]
            ),
            build_claim("o1", 1, [(0.5, "Ma", 0.0, 10.0)]),
            build_claim("s1", 1, [(0.5, "Ma", 0.0, 10.0), (1.5, "PMa", 10.0, 0.0)]),
        ],
        max_t=5,
    )


ACTUALS = {"c1": 40.0, "c2": 10.0, "c3": 60.0, "c4": 0.0}
# Errors 10, 0, -30 and 5; o1 and s1 have no realised outstanding amount and
# "zz" is no claim at all, so none of the three is scored.
PREDS = {"c1": 50.0, "c2": 10.0, "c3": 30.0, "c4": 5.0, "o1": 2.0, "s1": 3.0, "zz": 1.0}


def test_true_ocl_map_keeps_open_claims_that_settle():
    assert true_ocl_map(scoring_portfolio(), VALUATION) == ACTUALS


def score(preds):
    data = scoring_portfolio()
    return evaluate_predictions(preds, true_ocl_map(data, VALUATION), data, VALUATION)


class TestEvaluatePredictions:
    def test_overall_ratio_and_rmse(self):
        report = score(PREDS)
        assert report.overall_ratio == 95.0 / 110.0
        assert report.rmse_overall == math.sqrt(1025.0 / 4)

    def test_accident_period_slices_drop_a_zero_ocl_group_from_ratios_only(self):
        report = score(PREDS)
        assert report.ratio_by_ap == {1: 60.0 / 50.0, 2: 0.5}
        assert report.rmse_by_ap == {1: math.sqrt(50.0), 2: 30.0, 3: 5.0}
        assert report.share_by_ap == [(1, 50.0 / 110.0), (2, 1.0), (3, 1.0)]

    def test_periods_since_notification_slices(self):
        report = score(PREDS)
        assert report.ratio_by_psn == {1: 1.5, 2: 0.5, 3: 1.25}
        assert report.rmse_by_psn == {1: math.sqrt(12.5), 2: 30.0, 3: 10.0}
        assert report.share_by_psn == [(1, 10.0 / 110.0), (2, 70.0 / 110.0), (3, 1.0)]

    def test_no_aligned_claims_is_data_error(self):
        with pytest.raises(DataError):
            score({"o1": 1.0, "zz": 2.0})

    def test_zero_aggregate_true_ocl_is_data_error(self):
        with pytest.raises(DataError):
            score({"c4": 5.0})


PAIRS = [(PREDS[k], ACTUALS[k]) for k in sorted(ACTUALS)]


class TestGroupSums:
    def test_overall_and_grouped_sums(self):
        assert group_sums(PAIRS, [None] * 4) == {None: [95.0, 110.0, 1025.0, 4]}
        assert group_sums(PAIRS, [1, 1, 2, 3]) == {
            1: [60.0, 50.0, 100.0, 2], 2: [30.0, 60.0, 900.0, 1], 3: [5.0, 0.0, 25.0, 1],
        }

    def test_sums_add_in_the_order_given(self):
        # Float addition is not associative: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
        pairs = [(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)]
        assert group_sums(pairs, "ggg")["g"][0] == (0.1 + 0.2) + 0.3
        assert group_sums(pairs[::-1], "ggg")["g"][0] == (0.3 + 0.2) + 0.1


class TestTerciles:
    def test_ties_go_to_the_lower_bucket(self):
        # Cut points 30 and 40: 30 is small and 40 medium.
        assert size_terciles([40.0, 10.0, 80.0, 30.0]) == ["medium", "small", "large", "small"]

    def test_equal_sizes_are_all_small(self):
        assert size_terciles([5.0, 5.0, 5.0]) == ["small"] * 3

    def test_run_writes_the_tercile_ratios(self, tmp_path):
        # c2 and c4 are small (15 against 10), c1 medium (50 against 40), c3 large.
        path = tmp_path / "terciles.csv"
        report = score(PREDS)
        assert report.ratio_by_tercile == {"small": 1.5, "medium": 1.25, "large": 0.5}
        cli._write_terciles(report, str(path))
        assert read_rows(path) == [
            ["tercile", "relative_ocl"], ["small", "1.5"], ["medium", "1.25"], ["large", "0.5"],
        ]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_metrics_csv_has_one_row_per_slice_and_key(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv(score(PREDS), "fnn", 7, str(path))
    rows = read_rows(path)
    assert rows[0] == ["model", "seed", "slice", "key", "relative_ocl", "rmse", "ocl_share"]
    assert rows[1] == ["fnn", "7", "overall", "", repr(95.0 / 110.0), repr(math.sqrt(256.25)), ""]
    assert [r[2:4] for r in rows[2:]] == [
        ["ap", "1"], ["ap", "2"], ["ap", "3"], ["psn", "1"], ["psn", "2"], ["psn", "3"],
    ]
    # Accident period 3 holds no true OCL: no ratio, but an rmse and a share.
    assert rows[4][4:] == ["", "5.0", "1.0"]


class TestChainLadderReport:
    @staticmethod
    def fake_result(rbns):
        n = len(rbns)
        return chainladder.ClResult(
            aps=[1, 2, 3],
            ultimate_paid=np.zeros(n),
            ultimate_count=np.ones(n),
            observed_count=np.ones(n),
            mu=np.zeros(n),
            scaling=chainladder.DelayScaling(np.ones(1)),
            ibnr=np.zeros(n),
            rbns_ocl=np.array(rbns),
            stable=np.ones(n, dtype=bool),
        )

    def cl_run(self, tmp_path, monkeypatch, data):
        """A cl-only seed run on ``data`` with the chain ladder's output fixed."""
        result = self.fake_result([55.0, 30.0, 7.0])
        monkeypatch.setattr(chainladder, "rbns_ocl", lambda view: result)
        cfg = {**cli.default_config(), "models": ["cl"]}
        acquired = (data, VALUATION, split(data, VALUATION))
        summary = cli.run_seed(cfg, 1, str(tmp_path), acquired)
        return summary, read_rows(tmp_path / "metrics_cl.csv")

    def test_overall_and_accident_period_ratios_only(self, tmp_path, monkeypatch):
        summary, rows = self.cl_run(tmp_path, monkeypatch, scoring_portfolio())
        # True OCL by accident period: 50, 60 and 0.
        assert summary["cl_ratio"] == 92.0 / 110.0
        assert rows[1:] == [
            ["cl", "1", "overall", "", repr(92.0 / 110.0), "", ""],
            ["cl", "1", "ap", "1", "1.1", "", ""],
            ["cl", "1", "ap", "2", "0.5", "", ""],
        ]

    def test_report_holds_the_aggregate_ratios_only(self):
        report = evaluate_chain_ladder(
            self.fake_result([55.0, 30.0, 7.0]), ACTUALS, scoring_portfolio()
        )
        assert report == MetricsReport(92.0 / 110.0, {1: 1.1, 2: 0.5})

    def test_zero_true_total_has_no_overall_ratio(self, tmp_path, monkeypatch):
        data = build_dataset(
            [c for c in scoring_portfolio().claims if c.claim_no in ("c4", "s1")], max_t=5
        )
        summary, rows = self.cl_run(tmp_path, monkeypatch, data)
        assert summary["cl_ratio"] is None
        assert rows[1:] == [["cl", "1", "overall", "", "", "", ""]]
