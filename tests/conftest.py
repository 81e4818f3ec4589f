import json
from importlib import resources

import pytest

from microreserve.claims import Claim, Dataset, Transaction, discretize, format_number


def as_cells(values) -> list:
    """The values as ``claims.write_table`` writes them: floats as round-trip text.

    So a comparison of cells tells -0.0 from 0.0 and compares nan equal to nan.
    """
    return [format_number(v) if isinstance(v, float) else v for v in values]


def fixture_path(name: str) -> str:
    return str(resources.files("microreserve").joinpath("fixtures", name))


@pytest.fixture(scope="session")
def golden_config() -> dict:
    with open(fixture_path("golden_claim_config.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build_claim(claim_no, ap, txns, claim_size=None):
    """txns: list of (time, type, cumpaid, case_ocl or None)."""
    transactions = [
        Transaction(
            claim_no=claim_no,
            txn_time=t,
            txn_type=typ,
            cumpaid=paid,
            accident_period=ap,
            claim_size=claim_size if claim_size is not None else txns[-1][2],
            incurred=None if case is None else paid + case,
            case_ocl=case,
        )
        for t, typ, paid, case in txns
    ]
    import math

    notif = math.ceil(txns[0][0])
    settled = txns[-1][3] is not None and abs(txns[-1][3]) < 1e-9
    pay_periods = [math.ceil(t) for t, typ, _, _ in txns if typ in ("P", "PMi", "PMa")]
    return Claim(
        claim_no=claim_no,
        accident_period=ap,
        notification_period=notif,
        settlement_period=(max(pay_periods) if pay_periods else notif) if settled else None,
        repdel=notif - ap,
        claim_size=claim_size if claim_size is not None else txns[-1][2],
        transactions=transactions,
    )


def build_dataset(claims, max_t=None):
    import math

    horizon = max_t or max(math.ceil(c.transactions[-1].txn_time) for c in claims)
    return discretize(Dataset(claims=claims, max_calendar_period=horizon))


@pytest.fixture
def three_period_claim() -> Dataset:
    """Notified period 2, one midway payment, settles period 4."""
    claim = build_claim(
        "a1",
        1,
        [
            (1.5, "Ma", 0.0, 100.0),
            (2.5, "P", 40.0, 60.0),
            (3.5, "PMa", 100.0, 0.0),
        ],
    )
    return build_dataset([claim])
