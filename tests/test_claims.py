import csv
import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreserve.claims import (
    PAYMENT_TYPES,
    Claim,
    Dataset,
    build_triangle,
    censor,
    discretize,
    format_number,
    load_transactions,
    period_of,
    type_set,
    write_table,
    write_transactions,
)
from microreserve.errors import DataError, IntegrityError, ParseError

from conftest import as_cells, build_claim, build_dataset, fixture_path


SPLICE_HEADER = "claim_no,claim_size,txn_time,txn_type,incurred,OCL,cumpaid,accident_period"
CAS_HEADER = "claim_no,claim_size,txn_time,cumpaid,accident_period"


def write_csv(tmp_path, rows, header=SPLICE_HEADER):
    path = tmp_path / "txns.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestLoad:
    def test_single_payment_claim(self, tmp_path):
        path = write_csv(tmp_path, ["x1,100.0,1.5,PMa,100.0,0.0,100.0,1"])
        data = load_transactions(path, "splice")
        assert len(data) == 1
        claim = data.by_no("x1")
        assert len(claim.transactions) == 1
        assert claim.settled and claim.settlement_period == 2
        assert claim.ultimate == 100.0

    def test_golden_claim_rows(self):
        data = load_transactions(fixture_path("golden_claim_txns.csv"), "splice")
        claim = data.claims[0]
        assert claim.accident_period == 34
        assert claim.repdel == 1
        assert claim.notification_period == 35
        assert claim.transactions[-1].cumpaid == pytest.approx(364472.9)

    def test_decreasing_cumpaid_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "x1,100.0,1.5,P,100.0,50.0,50.0,1",
                "x1,100.0,2.5,P,100.0,70.0,30.0,1",
            ],
        )
        with pytest.raises(IntegrityError, match="x1"):
            load_transactions(path, "splice")

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "x1,100.0,1.5,P,100.0,50.0,50.0,1",
                "x2,100.0,oops,P,100.0,50.0,50.0,1",
            ],
        )
        with pytest.raises(ParseError, match="row 3"):
            load_transactions(path, "splice")

    def test_missing_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["x1,1.5,100.0,1"], header="claim_no,txn_time,cumpaid,accident_period")
        with pytest.raises(ParseError, match="claim_size"):
            load_transactions(path, "cas")

    def test_unknown_schema(self, tmp_path):
        path = write_csv(tmp_path, [])
        with pytest.raises(DataError):
            load_transactions(path, "sas")

    def test_cas_infers_payment_flags(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "x1,100.0,1,40.0,1",
                "x1,100.0,2,40.0,1",
                "x1,100.0,3,100.0,1",
            ],
            header=CAS_HEADER,
        )
        data = load_transactions(path, "cas")
        claim = data.by_no("x1")
        assert [t.txn_type for t in claim.transactions] == ["P", "", "P"]
        assert claim.settled and claim.settlement_period == 3
        assert all(t.case_ocl is None for t in claim.transactions)

    def test_cas_unsettled_flagged_and_zero_loss_dropped(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "x1,100.0,1,30.0,1",  # never reaches claim_size -> open
                "x2,0.0,1,0.0,1",  # zero loss -> dropped
                "x3,50.0,2,50.0,1",
            ],
            header=CAS_HEADER,
        )
        data = load_transactions(path, "cas")
        assert len(data) == 2
        assert data.n_dropped_zero_loss == 1
        assert data.n_flagged_unsettled == 1
        assert not data.by_no("x1").settled


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


def txn_values(txn):
    return tuple(getattr(txn, name) for name in TXN_FIELDS)


class TestLoaderMessages:
    """Each malformed input's ParseError message and its row number."""

    GOOD = "x1,100.0,1.5,P,100.0,50.0,50.0,1"

    def raises(self, tmp_path, rows, message, header=SPLICE_HEADER, schema="splice"):
        path = write_csv(tmp_path, rows, header=header)
        with pytest.raises(ParseError) as info:
            load_transactions(path, schema)
        assert str(info.value) == message

    def test_short_row_reads_empty_cells(self, tmp_path):
        self.raises(tmp_path, [self.GOOD, "x2,100.0,1.5,P"], "row 3: missing value for 'cumpaid'")

    def test_short_row_in_optional_columns_only(self, tmp_path):
        path = write_csv(tmp_path, ["x1,100.0,1.5,PMa,,,100.0,1", "x2,50.0,2.5,PMa"])
        with pytest.raises(ParseError, match=r"^row 3: missing value for 'cumpaid'$"):
            load_transactions(path, "splice")

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        self.raises(
            tmp_path,
            [self.GOOD, "", "x2,100.0,oops,P,100.0,50.0,50.0,1"],
            "row 3: cannot parse txn_time='oops'",
        )

    def test_na_in_an_optional_column_is_missing(self, tmp_path):
        path = write_csv(tmp_path, ["x1,100.0,1.5,PMa,NA,nan,100.0,1", "x2,80.0,2.5,PMa,none,None,80.0,1"])
        data = load_transactions(path, "splice")
        for claim in data.claims:
            assert [(t.incurred, t.case_ocl) for t in claim.transactions] == [(None, None)]

    def test_na_in_a_required_column(self, tmp_path):
        self.raises(
            tmp_path,
            [self.GOOD, "x1,None,1.5,P,100.0,50.0,50.0,1"],
            "row 3: missing value for 'claim_size'",
        )
        self.raises(
            tmp_path, ["x1,100.0,1,NaN,1"], "row 2: missing value for 'cumpaid'",
            header=CAS_HEADER, schema="cas",
        )

    def test_padded_cells(self, tmp_path):
        path = write_csv(tmp_path, ["x1,100.0,\t1.5 ,PMa, NA ,  ,100.0,1"])
        (txn,) = load_transactions(path, "splice").by_no("x1").transactions
        assert (txn.txn_time, txn.incurred, txn.case_ocl) == (1.5, None, None)
        self.raises(tmp_path, ["x1,  ,1.5,PMa,1,0,100.0,1"], "row 2: missing value for 'claim_size'")
        self.raises(tmp_path, ["x1,100.0,1.5,PMa, 1e ,0,100.0,1"], "row 2: cannot parse incurred='1e'")

    def test_unparsable_number(self, tmp_path):
        self.raises(tmp_path, ["x1,100.0,1.5,P,1e,50.0,50.0,1"], "row 2: cannot parse incurred='1e'")

    def test_non_integer_accident_period(self, tmp_path):
        for ap in ("1.5", "0"):
            self.raises(
                tmp_path,
                [f"x1,100.0,1.5,P,100.0,50.0,50.0,{ap}"],
                "row 2: accident_period must be an integer >= 1",
            )

    def test_unknown_txn_type(self, tmp_path):
        self.raises(tmp_path, ["x1,100.0,1.5,Q,100.0,50.0,50.0,1"], "row 2: unknown txn_type 'Q'")

    def test_empty_claim_no_and_nonpositive_time(self, tmp_path):
        self.raises(tmp_path, [" ,100.0,1.5,PMa,100.0,0.0,100.0,1"], "row 2: empty claim_no")
        self.raises(tmp_path, ["x1,100.0,0,PMa,100.0,0.0,100.0,1"], "row 2: txn_time must be positive")

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e999", "+nan", "-nan"])
    @pytest.mark.parametrize(
        "header, schema, good",
        [(SPLICE_HEADER, "splice", GOOD), (CAS_HEADER, "cas", "x1,100.0,1.5,50.0,1")],
        ids=["splice", "cas"],
    )
    def test_non_finite_numbers(self, tmp_path, header, schema, good, token):
        # Every numeric column, on the second data row, in both schemas.
        for col, key in enumerate(header.split(",")):
            if key in ("claim_no", "txn_type"):
                continue
            cells = good.split(",")
            cells[col] = token
            self.raises(
                tmp_path,
                [good, ",".join(cells)],
                f"row 3: {key} must be finite, got {token!r}",
                header=header,
                schema=schema,
            )

    def test_first_failing_check_wins(self, tmp_path):
        # txn_time is checked before cumpaid, accident_period and claim_size.
        self.raises(tmp_path, ["x1,bad,-1,Q,x,y,z,0.5"], "row 2: txn_time must be positive")
        self.raises(tmp_path, ["x1,bad,1,Q,x,y,z,0.5"], "row 2: cannot parse cumpaid='z'")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="^empty file: header row required$"):
            load_transactions(str(path), "splice")

    def test_extra_columns_are_ignored(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["x1,100.0,1.5,PMa,100.0,0.0,100.0,1,hello,more"],
            header=SPLICE_HEADER + ",note",
        )
        (txn,) = load_transactions(path, "splice").by_no("x1").transactions
        assert txn_values(txn) == ("x1", 1.5, "PMa", 100.0, 1, 100.0, 100.0, 0.0)

    def test_columns_by_name_with_padding(self, tmp_path):
        header = "accident_period,cumpaid,OCL,incurred,txn_type,txn_time,claim_size,claim_no"
        path = write_csv(tmp_path, [" 1 , 100.0 ,0.0,100.0, PMa ,1.5,100.0, x1 "], header=header)
        (txn,) = load_transactions(path, "splice").by_no("x1").transactions
        assert txn_values(txn) == ("x1", 1.5, "PMa", 100.0, 1, 100.0, 100.0, 0.0)

    def test_cas_payment_inference_pinned(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["x1,100.0,3,100.0,1", "x1,100.0,1,40.0,1", "x1,100.0,2,40.0,1", "x1,100.0,2.5,40.0,1,Q"],
            header=CAS_HEADER,
        )
        claim = load_transactions(path, "cas").by_no("x1")
        assert [txn_values(t) for t in claim.transactions] == [
            ("x1", 1.0, "P", 40.0, 1, 100.0, None, None),
            ("x1", 2.0, "", 40.0, 1, 100.0, None, None),
            ("x1", 2.5, "", 40.0, 1, 100.0, None, None),
            ("x1", 3.0, "P", 100.0, 1, 100.0, None, None),
        ]
        assert (claim.notification_period, claim.settlement_period, claim.repdel) == (1, 3, 0)


class TestDiscretize:
    def test_same_period_bucketing(self):
        claim = build_claim("b1", 1, [(1.2, "P", 10.0, 10.0), (1.8, "PMa", 20.0, 0.0)])
        data = build_dataset([claim])
        recs = data.by_no("b1").dev_records
        assert len(recs) == 1
        assert recs[0].cum_paid == 20.0
        assert recs[0].n_pay == 2

    def test_boundary_time_belongs_to_earlier_period(self):
        assert period_of(2.0) == 2
        assert period_of(2.0000001) == 3

    def test_golden_claim_payment_counts(self):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        recs = data.claims[0].dev_records
        assert [r.dev_period for r in recs] == list(range(2, 15))
        assert [r.n_pay for r in recs][:12] == [0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 8]

    def test_quiet_period_carries_forward(self):
        # Oracle: hand-constructed 3-period claim with an empty middle period.
        claim = build_claim(
            "b2", 1, [(1.5, "P", 30.0, 70.0), (3.5, "PMa", 100.0, 0.0)]
        )
        data = build_dataset([claim])
        recs = data.by_no("b2").dev_records
        assert [r.dev_period for r in recs] == [2, 3, 4]
        middle = recs[1]
        assert middle.cum_paid == 30.0
        assert middle.txn_types == frozenset()
        assert middle.case == 70.0
        assert middle.true_ocl == pytest.approx(70.0)

    def test_true_ocl_matches_final_paid_and_nonnegative(self):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        claim = data.claims[0]
        final = claim.ultimate
        for rec in claim.dev_records:
            assert rec.true_ocl == pytest.approx(final - rec.cum_paid)
            assert rec.true_ocl >= 0
        assert claim.dev_records[-1].true_ocl == pytest.approx(0.0)


class TestTriangle:
    def test_single_claim_paid_row(self):
        claim = build_claim("t1", 1, [(0.5, "P", 10.0, 5.0), (1.5, "PMa", 15.0, 0.0)])
        paid, _ = build_triangle(build_dataset([claim]), valuation=2)
        assert paid.values[0, 0] == 10.0
        assert paid.values[0, 1] == 15.0

    def test_count_row_increments_at_notification(self):
        # Oracle: manual count of notified claims per cell.
        c1 = build_claim("t1", 1, [(0.5, "P", 10.0, 5.0), (1.5, "PMa", 15.0, 0.0)])
        c2 = build_claim("t2", 1, [(1.5, "PMa", 8.0, 0.0)])
        _, count = build_triangle(build_dataset([c1, c2]), valuation=2)
        assert count.values[0, 0] == 1.0
        assert count.values[0, 1] == 2.0

    def test_cumulative_rows_non_decreasing(self):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        paid, _ = build_triangle(data, valuation=47)
        row = paid.values[0]
        observed = row[~np.isnan(row)]
        assert np.all(np.diff(observed) >= 0)

    def test_empty_dataset_errors(self, tmp_path):
        with pytest.raises(DataError):
            build_triangle(Dataset(claims=[], max_calendar_period=5), 5)


class TestWriteTable:
    CELLS = [1.5, np.float64(0.1), -0.0, 5e-324, math.nan, None, 7, np.int64(3), "x,y", ""]

    def read(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_header_then_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["a", "b"], iter([[1, "p"], (2.5, None)]))
        assert self.read(path) == [["a", "b"], ["1", "p"], ["2.5", ""]]

    def test_each_cell_as_written(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, [f"c{i}" for i in range(len(self.CELLS))], [self.CELLS])
        row = self.read(path)[1]
        assert row[:5] == [format_number(v) for v in self.CELLS[:5]]
        assert row[:5] == ["1.5", "0.1", "-0.0", "5e-324", "nan"]
        assert row[5:] == ["", "7", "3", "x,y", ""]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_finite_floats_read_back_equal(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_table(path, [f"c{i}" for i in range(len(values))], [values])
            cells = self.read(path)[1]
        back = [float(c) for c in cells]
        assert back == values
        assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in values]


class TestRoundTrip:
    def test_export_reingest_identical_dev_records(self, tmp_path):
        import dataclasses

        from microreserve.simulator import preset, simulate_portfolio, with_seed

        sim = dataclasses.replace(
            with_seed(preset("complexity1"), 5),
            n_accident_periods=6,
            mean_claims_per_period=20.0,
        )
        data = discretize(simulate_portfolio(sim))
        path = tmp_path / "out.csv"
        write_transactions(data, str(path))
        again = discretize(load_transactions(str(path), "splice"))
        assert len(again) == len(data)
        for claim in data.claims:
            other = again.by_no(claim.claim_no)
            assert other.settlement_period == claim.settlement_period
            assert len(other.dev_records) == len(claim.dev_records)
            for a, b in zip(claim.dev_records, other.dev_records):
                assert a.dev_period == b.dev_period
                assert a.cum_paid == b.cum_paid
                assert a.txn_types == b.txn_types
                assert a.n_pay == b.n_pay
                assert a.true_ocl == b.true_ocl

    def test_cas_subset_of_splice_features(self, tmp_path):
        data = discretize(load_transactions(fixture_path("golden_claim_txns.csv"), "splice"))
        path = tmp_path / "cas.csv"
        write_transactions(data, str(path), schema="cas")
        cas = discretize(load_transactions(str(path), "cas"))
        claim = cas.claims[0]
        assert all(r.case is None for r in claim.dev_records)
        assert all(r.txn_types <= {"P"} for r in claim.dev_records)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=1e7, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=50, deadline=None)
def test_true_ocl_nonnegative_for_any_increments(increments, frac):
    paid = 0.0
    txns = []
    for idx, inc in enumerate(increments):
        paid += inc
        txns.append((1.0 + idx + frac, "P", paid, None))
    txns[-1] = (txns[-1][0], "PMa", paid, 0.0)
    claim = build_claim("h1", 1, txns)
    data = build_dataset([claim])
    for rec in data.by_no("h1").dev_records:
        assert rec.true_ocl is not None and rec.true_ocl >= 0


def test_censor_hides_future(three_period_claim):
    view = censor(three_period_claim, 3)
    claim = view.by_no("a1")
    assert not claim.settled
    assert claim.dev_records[-1].true_ocl is None
    assert max(period_of(t.txn_time) for t in claim.transactions) <= 3


# -- the development records against the ledger ------------------------------------


def scan_paid(claim, t):
    """Reference: cumulative paid by the end of calendar period t, read off the ledger."""
    paid = 0.0
    for txn in claim.transactions:
        if period_of(txn.txn_time) <= t:
            paid = txn.cumpaid
        else:
            break
    return paid


def scan_incurred(claim, t):
    """Reference: latest case estimate of the ultimate by the end of period t."""
    inc = None
    for txn in claim.transactions:
        if period_of(txn.txn_time) > t:
            break
        if txn.incurred is not None:
            inc = txn.incurred
    return inc


STEPS = [0.0, 0.3, 1.0, 1.6, 2.5]


@st.composite
def ledger_claim(draw, schema):
    """One claim's CSV rows: payments, then non-payment rows after the last payment.

    When the claim settles, the trailing rows come after its settlement
    period, which is the period of its last payment. In the cas schema a
    trailing row that raises cumpaid is read as a payment.
    """
    ap = draw(st.integers(1, 3))
    time = ap - 1 + draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.75]))
    rows = []  # (time, type, cumpaid, case)
    paid = 0.0
    for _ in range(draw(st.integers(1, 5))):
        typ = draw(st.sampled_from(["Mi", "Ma", "P", "PMi", "PMa"]))
        if typ in PAYMENT_TYPES:
            paid += draw(st.sampled_from([1.0, 25.5, 300.0]))
        rows.append((time, typ, paid, draw(st.sampled_from([5.0, 40.0, 120.0]))))
        time += draw(st.sampled_from(STEPS))
    # Trailing rows may move cumpaid without being payments (a splice ledger
    # can record that), which moves the ultimate past the settlement period.
    late_paid = draw(st.sampled_from([0.0, 0.0, 12.5]))
    for _ in range(draw(st.integers(0, 3))):
        time += draw(st.sampled_from(STEPS[1:]))
        paid += late_paid
        rows.append((time, draw(st.sampled_from(["Mi", "Ma"])), paid, 7.0))
    settled = draw(st.booleans())
    if settled:
        rows[-1] = rows[-1][:3] + (0.0,)
    size = paid if settled else paid + 50.0
    if schema == "splice":
        return [
            f"{{no}},{size},{t},{typ},{cum + case},{case},{cum},{ap}" for t, typ, cum, case in rows
        ]
    return [f"{{no}},{size},{t},{cum},{ap}" for t, _typ, cum, _case in rows]


@st.composite
def ledger(draw):
    schema = draw(st.sampled_from(["splice", "cas"]))
    claims = draw(st.lists(ledger_claim(schema), min_size=1, max_size=4))
    rows = [row.format(no=f"c{n}") for n, claim in enumerate(claims) for row in claim]
    boundary = draw(st.integers(1, 12))
    return schema, rows, boundary


def assert_records_match_scans(data, horizon):
    for claim in data.claims:
        for t in range(claim.notification_period, horizon + 3):
            rec = claim.record_at(t)
            assert rec.cum_paid == claim.paid_at(t) == scan_paid(claim, t), (claim.claim_no, t)
            assert rec.incurred == scan_incurred(claim, t), (claim.claim_no, t)
        with pytest.raises(DataError, match="notification"):
            claim.record_at(claim.notification_period - 1)


def load_ledger(schema, rows):
    header = SPLICE_HEADER if schema == "splice" else CAS_HEADER
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header] + rows) + "\n")
        return discretize(load_transactions(path, schema))


@given(ledger())
@settings(max_examples=150, deadline=None)
def test_record_reads_equal_ledger_scans(case):
    schema, rows, boundary = case
    data = load_ledger(schema, rows)
    assert_records_match_scans(data, data.max_calendar_period)
    boundary = min(boundary, data.max_calendar_period)
    assert_records_match_scans(censor(data, boundary), boundary)


def test_settled_claim_records_cover_rows_after_settlement(tmp_path):
    # Settles in period 3 with its last payment; case rows follow in 4 and 5.
    path = write_csv(
        tmp_path,
        [
            "s1,60.0,1.5,P,100.0,60.0,40.0,1",
            "s1,60.0,2.5,PMa,60.0,0.0,60.0,1",
            "s1,60.0,3.5,Mi,70.0,10.0,60.0,1",
            "s1,60.0,4.5,Ma,60.0,0.0,60.0,1",
        ],
    )
    claim = discretize(load_transactions(path, "splice")).by_no("s1")
    assert claim.settlement_period == 3
    assert [r.dev_period for r in claim.dev_records] == [2, 3, 4, 5]
    assert [r.incurred for r in claim.dev_records] == [100.0, 60.0, 70.0, 60.0]
    assert [r.true_ocl for r in claim.dev_records] == [20.0, 0.0, 0.0, 0.0]
    assert claim.record_at(9).incurred == 60.0


def reference_discretize(dataset):
    """Reference: the per-claim records as ``discretize`` first computed them,
    through ``period_of`` and one ``type_set`` call per period with transactions."""
    no_types = type_set(())
    out = {}
    for claim in dataset.claims:
        txns = claim.transactions
        last_t = period_of(txns[-1].txn_time)
        if not claim.settled:
            last_t = max(dataset.max_calendar_period, last_t)
        records = []
        paid, case, incurred, n_pay = 0.0, None, None, 0
        k = 0
        due = period_of(txns[0].txn_time)
        for t in range(claim.notification_period, last_t + 1):
            seen = []
            while due <= t:
                txn = txns[k]
                paid = txn.cumpaid
                if txn.case_ocl is not None:
                    case = txn.case_ocl
                if txn.incurred is not None:
                    incurred = txn.incurred
                if txn.txn_type:
                    seen.append(txn.txn_type)
                    if txn.txn_type in PAYMENT_TYPES:
                        n_pay += 1
                k += 1
                due = period_of(txns[k].txn_time) if k < len(txns) else last_t + 1
            types = type_set(seen) if seen else no_types
            true_ocl = None
            if claim.ultimate is not None:
                true_ocl = max(claim.ultimate - paid, 0.0)
            j = t + 1 - claim.accident_period
            records.append((j, paid, types, n_pay, case, incurred, true_ocl))
        out[claim.claim_no] = records
    return out


def assert_records_equal_the_reference(data):
    want = reference_discretize(data)
    for claim in data.claims:
        got = claim.dev_records
        assert len(got) == len(want[claim.claim_no]), claim.claim_no
        for rec, ref in zip(got, want[claim.claim_no]):
            assert record_fields(rec) == record_fields(type(rec)(*ref)), claim.claim_no
            assert rec.txn_types is ref[2], (claim.claim_no, rec.dev_period)


@given(ledger())
@settings(max_examples=100, deadline=None)
def test_discretize_equals_the_reference_loop(case):
    schema, rows, _ = case
    assert_records_equal_the_reference(load_ledger(schema, rows))


def test_discretize_equals_the_reference_loop_on_a_portfolio():
    assert_records_equal_the_reference(small_portfolio())


# -- censored views and triangles against their re-derivations -----------------------


def rederived_censor(dataset, boundary):
    """Reference: the view re-derived from the filtered ledger by ``discretize``."""
    out = []
    for c in dataset.claims:
        if c.notification_period > boundary:
            continue
        txns = [t for t in c.transactions if period_of(t.txn_time) <= boundary]
        if not txns:
            continue
        settled = c.settled_by(boundary)
        out.append(
            Claim(
                claim_no=c.claim_no,
                accident_period=c.accident_period,
                notification_period=c.notification_period,
                settlement_period=c.settlement_period if settled else None,
                repdel=c.repdel,
                claim_size=c.claim_size,
                transactions=txns,
            )
        )
    view = Dataset(
        claims=out,
        schema=dataset.schema,
        max_calendar_period=min(dataset.max_calendar_period, boundary),
    )
    return discretize(view)


def per_cell_triangle(dataset, valuation, settled_only=False):
    """Reference: one ``paid_at`` read and one numpy add per claim and cell."""
    included = [
        c
        for c in dataset.claims
        if c.notification_period <= valuation and (not settled_only or c.settled_by(valuation))
    ]
    if not included:
        raise DataError("no claims available to build a triangle")
    lo = min(c.accident_period for c in included)
    hi = max(c.accident_period for c in included)
    paid = np.full((hi - lo + 1, valuation - lo + 1), np.nan)
    for row, i in enumerate(range(lo, hi + 1)):
        paid[row, : valuation - i + 1] = 0.0
    count = paid.copy()
    for c in included:
        row = c.accident_period - lo
        for t in range(c.notification_period, valuation + 1):
            j = t + 1 - c.accident_period
            count[row, j - 1] += 1
            paid[row, j - 1] += c.paid_at(t)
    return paid, count


def record_fields(rec):
    """Every field of a record, floats as their round-trip text (so -0.0 != 0.0)."""
    return as_cells(rec)


def assert_same_view(view, expected):
    assert view.max_calendar_period == expected.max_calendar_period
    assert [c.claim_no for c in view.claims] == [c.claim_no for c in expected.claims]
    for got, want in zip(view.claims, expected.claims):
        assert got.settlement_period == want.settlement_period
        assert got.transactions == want.transactions
        assert got.ultimate == want.ultimate
        assert len(got.dev_records) == len(want.dev_records), got.claim_no
        for a, b in zip(got.dev_records, want.dev_records):
            assert record_fields(a) == record_fields(b), (got.claim_no, a.dev_period)


def assert_same_triangles(data, valuation, settled_only):
    try:
        want = per_cell_triangle(data, valuation, settled_only)
    except DataError:
        with pytest.raises(DataError):
            build_triangle(data, valuation, settled_only=settled_only)
        return
    got = build_triangle(data, valuation, settled_only=settled_only)
    for tri, ref in zip(got, want):
        assert np.array_equal(tri.values, ref, equal_nan=True), (valuation, settled_only)


@given(ledger())
@settings(max_examples=150, deadline=None)
def test_censored_views_equal_their_rederivation(case):
    schema, rows, _ = case
    data = load_ledger(schema, rows)
    for boundary in range(1, data.max_calendar_period + 1):
        view = censor(data, boundary)
        assert_same_view(view, rederived_censor(data, boundary))
        # A fold view is a view of a view.
        for inner in range(1, boundary + 1):
            assert_same_view(censor(view, inner), rederived_censor(view, inner))


@given(ledger())
@settings(max_examples=100, deadline=None)
def test_triangles_equal_the_per_cell_sums(case):
    schema, rows, _ = case
    data = load_ledger(schema, rows)
    for valuation in range(1, data.max_calendar_period + 3):
        for settled_only in (False, True):
            assert_same_triangles(data, valuation, settled_only)
            assert_same_triangles(censor(data, min(valuation, data.max_calendar_period)),
                                  valuation, settled_only)


def test_portfolio_views_and_triangles_equal_the_references():
    from microreserve.simulator import preset, simulate_portfolio, with_seed

    sim = dataclasses.replace(
        with_seed(preset("complexity5"), 2),
        n_accident_periods=10,
        mean_claims_per_period=15.0,
        structural_break_period=5,
    )
    data = discretize(simulate_portfolio(sim))
    for boundary in (3, 7, 12, data.max_calendar_period):
        view = censor(data, boundary)
        assert_same_view(view, rederived_censor(data, boundary))
        for settled_only in (False, True):
            assert_same_triangles(view, boundary, settled_only)
            assert_same_triangles(data, boundary, settled_only)


def test_late_non_payment_row_moves_the_views_ultimate(tmp_path):
    # Settles in period 3 with its last payment; a case row in period 4 raises
    # cumpaid, so the full ledger's ultimate is 75 and the view at 3 sees 60.
    path = write_csv(
        tmp_path,
        [
            "s1,75.0,1.5,P,100.0,60.0,40.0,1",
            "s1,75.0,2.5,PMa,60.0,0.0,60.0,1",
            "s1,75.0,3.5,Mi,75.0,0.0,75.0,1",
        ],
    )
    data = discretize(load_transactions(path, "splice"))
    assert [r.true_ocl for r in data.by_no("s1").dev_records] == [35.0, 15.0, 0.0]
    view = censor(data, 3)
    assert [r.true_ocl for r in view.by_no("s1").dev_records] == [20.0, 0.0]
    assert_same_view(view, rederived_censor(data, 3))


def test_censor_cut_at_and_just_above_the_boundary():
    # Rows at exactly t = 3 belong to period 3; the next double above 3 is in period 4.
    above = math.nextafter(3.0, math.inf)
    ledgers = {
        "at": [(1.5, "Ma", 0.0, 90.0), (3.0, "P", 30.0, 60.0), (above, "Mi", 30.0, 50.0),
               (4.5, "PMa", 90.0, 0.0)],
        "settles_at": [(2.0, "Ma", 0.0, 40.0), (3.0, "PMa", 40.0, 0.0), (above, "Mi", 40.0, 0.0)],
        "opens_above": [(above, "Ma", 0.0, 10.0), (5.0, "PMa", 10.0, 0.0)],
    }
    claims = [build_claim(no, ap, rows) for ap, (no, rows) in enumerate(ledgers.items(), 1)]
    data = build_dataset(claims)
    view = censor(data, 3)
    assert [c.claim_no for c in view.claims] == ["at", "settles_at"]
    for claim in view.claims:
        parent = data.by_no(claim.claim_no)
        assert claim.transactions == [t for t in parent.transactions if period_of(t.txn_time) <= 3]
        assert claim.transactions[-1].txn_time == 3.0
    assert view.by_no("settles_at").settled and not view.by_no("at").settled
    assert_same_view(view, rederived_censor(data, 3))


def test_censor_needs_a_discretized_dataset(three_period_claim):
    raw = Dataset(claims=[dataclasses.replace(c, dev_records=[]) for c in three_period_claim.claims])
    with pytest.raises(DataError, match="discretize"):
        censor(raw, 3)


# -- the record types -----------------------------------------------------------------


def small_portfolio():
    from microreserve.simulator import preset, simulate_portfolio, with_seed

    sim = dataclasses.replace(
        with_seed(preset("complexity5"), 4),
        n_accident_periods=8,
        mean_claims_per_period=12.0,
        structural_break_period=4,
    )
    return discretize(simulate_portfolio(sim))


class TestRecordTypes:
    def test_equal_type_sets_are_one_object(self):
        data = small_portfolio()
        shared: dict[frozenset, frozenset] = {}
        for claim in data.claims:
            for rec in claim.dev_records:
                assert shared.setdefault(rec.txn_types, rec.txn_types) is rec.txn_types
        assert frozenset() in shared and frozenset({"P"}) in shared
        assert type_set(["P", "Mi", "P"]) is type_set(("Mi", "P")) == frozenset({"Mi", "P"})

    def test_records_are_immutable(self):
        claim = small_portfolio().claims[0]
        txn, rec = claim.transactions[0], claim.dev_records[0]
        with pytest.raises(AttributeError):
            txn.cumpaid = 1.0
        with pytest.raises(AttributeError):
            rec.true_ocl = 1.0
        assert not hasattr(rec, "__dict__") and not hasattr(txn, "__dict__")

    def test_censor_copies_differ_only_in_true_ocl(self):
        data = small_portfolio()
        n_copied = 0
        for boundary in (3, 6, 9):
            view = censor(data, boundary)
            for claim in view.claims:
                parent = data.by_no(claim.claim_no).dev_records
                for got, want in zip(claim.dev_records, parent):
                    if got is want:
                        continue
                    n_copied += 1
                    assert got._replace(true_ocl=want.true_ocl) == want
                    assert got.txn_types is want.txn_types
        assert n_copied > 0


# -- the claim index ------------------------------------------------------------------


class CountingList(list):
    """A claim list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestIndex:
    def claims(self):
        return [
            build_claim("k1", 1, [(0.5, "PMa", 10.0, 0.0)]),
            build_claim("k2", 1, [(0.7, "P", 5.0, 5.0), (1.5, "PMa", 10.0, 0.0)]),
        ]

    def test_by_no_returns_the_listed_claim(self):
        data = build_dataset(self.claims())
        for claim in data.claims:
            assert data.by_no(claim.claim_no) is claim

    def test_unknown_claim_no_is_key_error(self):
        with pytest.raises(KeyError):
            build_dataset(self.claims()).by_no("k9")

    def test_duplicate_claim_no_is_integrity_error(self):
        claims = self.claims()
        with pytest.raises(IntegrityError, match="k1"):
            Dataset(claims=claims + [claims[0]])

    def test_view_index_holds_the_views_claims(self):
        data = build_dataset(self.claims())
        view = censor(data, 1)
        assert view.by_no("k2") is view.claims[1]
        assert view.by_no("k2") is not data.by_no("k2")
        assert not view.by_no("k2").settled

    def test_lookups_do_not_walk_the_claims(self):
        claims = CountingList(self.claims())
        data = Dataset(claims=claims, max_calendar_period=2)
        before = claims.iterations
        for _ in range(50):
            data.by_no("k2")
            data.by_no("k1")
        assert claims.iterations == before
