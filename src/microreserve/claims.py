"""Transactional claims data model.

Ingests transaction-level CSV files (rich "splice" schema with case
estimates, or the reduced "cas" schema), discretizes each claim into
per-period development records, and builds cumulative triangles.

Conventions used throughout:

* calendar period ``t``, accident period ``i``, development period
  ``j = t + 1 - i``, periods since notification ``tau = t - notif + 1``;
* transaction times live on a continuous axis measured in periods, and a
  time belongs to the half-open period ``(t - 1, t]`` (so an integer time
  falls in the earlier period);
* amounts are in money units as paid (inflation, if any, is already
  materialized in ``cumpaid`` by whoever produced the file);
* a settled claim's ultimate is its final cumulative paid, and the true
  outstanding liability at development ``j`` is ``max(ultimate - paid_j, 0)``.

``Claim.dev_records`` is the one per-period view of a claim, derived once
per acquisition by ``discretize``; censored views slice the parent's
records. Only loading, censoring and CSV export walk the transactions.
``Claim.record_at(t)`` reads the records, returning the last one for any
period after them, since the claim no longer changes. ``Dataset.by_no`` is
a dict lookup built at construction: the claim list is treated as immutable.

``Transaction`` and ``DevelopmentRecord`` are named tuples (immutable, no
``__dict__``), and ``Claim`` is a slotted dataclass. Records with equal
transaction-type sets share one frozenset (``type_set``), quiet periods the
empty one. The loader reads rows with ``csv.reader``, with column positions
resolved once from the header. Every CSV the package reads is opened by
``open_csv``, so a path that is a directory or a file that is not UTF-8 is a
DataError naming it, as a missing file is a FileNotFoundError.

Every CSV the package writes goes through ``write_table``: a float cell is
written as ``format_number``'s shortest round-trip text and any other cell
as ``csv.writer`` writes it. Each writer only names its header and rows.
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DataError, IntegrityError, ParseError

PAYMENT_TYPES = frozenset({"P", "PMi", "PMa"})
TXN_TYPES = frozenset({"Mi", "Ma", "P", "PMi", "PMa", ""})

SPLICE_COLUMNS = [
    "claim_no",
    "claim_size",
    "txn_time",
    "txn_type",
    "incurred",
    "OCL",
    "cumpaid",
    "accident_period",
]
CAS_COLUMNS = ["claim_no", "claim_size", "txn_time", "cumpaid", "accident_period"]

# Tolerance for deciding a claim finished paying (cas schema, where the
# only settlement signal is cumpaid reaching the recorded claim size).
_SETTLE_RTOL = 1e-6


def format_number(v: float | None) -> str:
    """CSV cell for a number: shortest round-trip float text, empty for None."""
    return "" if v is None else repr(float(v))


def period_of(txn_time: float) -> int:
    """Calendar period containing a transaction time, interval (t-1, t]."""
    return int(math.ceil(txn_time))


class Transaction(NamedTuple):
    claim_no: str
    txn_time: float
    txn_type: str
    cumpaid: float
    accident_period: int
    claim_size: float = 0.0
    incurred: float | None = None
    case_ocl: float | None = None


class DevelopmentRecord(NamedTuple):
    """State of one claim at the end of one development period."""

    dev_period: int
    cum_paid: float
    txn_types: frozenset[str]  # shared: see ``type_set``
    n_pay: int
    case: float | None
    incurred: float | None
    true_ocl: float | None  # None while the claim is open / censored

    @property
    def has_payment(self) -> bool:
        return bool(self.txn_types & PAYMENT_TYPES)


# One frozenset per distinct combination of transaction types, keyed by the
# sorted types, so records with equal type sets hold the same object.
_TYPE_SETS: dict[tuple[str, ...], frozenset[str]] = {(): frozenset()}


def type_set(types) -> frozenset[str]:
    """The shared frozenset holding exactly ``types``."""
    key = tuple(sorted(set(types)))
    return _TYPE_SETS.setdefault(key, frozenset(key))


@dataclass(slots=True)
class Claim:
    claim_no: str
    accident_period: int
    notification_period: int
    settlement_period: int | None
    repdel: int
    claim_size: float
    transactions: list[Transaction]
    dev_records: list[DevelopmentRecord] = field(default_factory=list)

    @property
    def settled(self) -> bool:
        return self.settlement_period is not None

    @property
    def ultimate(self) -> float | None:
        """Final cumulative paid, defined for settled claims only."""
        if not self.settled:
            return None
        return self.transactions[-1].cumpaid

    def settled_by(self, t: int) -> bool:
        return self.settled and self.settlement_period <= t

    def open_at(self, t: int) -> bool:
        """Notified by t but not yet settled at the end of t."""
        return self.notification_period <= t and not self.settled_by(t)

    def record_at(self, t: int) -> DevelopmentRecord:
        """Development record at the end of calendar period t.

        Past the last record the claim no longer changes, so its last record
        holds; before notification there is none.
        """
        k = t - self.notification_period
        if k < 0:
            raise DataError(f"claim {self.claim_no}: period {t} precedes notification")
        return self.dev_records[min(k, len(self.dev_records) - 1)]

    def paid_at(self, t: int) -> float:
        """Cumulative paid by the end of calendar period t."""
        return self.record_at(t).cum_paid

    def psn_at(self, t: int) -> int:
        """Periods since notification, counting the notification period as 1."""
        return t - self.notification_period + 1


@dataclass
class Dataset:
    claims: list[Claim]
    schema: str = "splice"  # "splice" | "cas"
    max_calendar_period: int = 0
    n_dropped_zero_loss: int = 0
    n_flagged_unsettled: int = 0

    def __post_init__(self) -> None:
        self._index: dict[str, Claim] = {}
        for c in self.claims:
            if c.claim_no in self._index:
                raise IntegrityError(f"duplicate claim_no {c.claim_no!r}")
            self._index[c.claim_no] = c

    def __len__(self) -> int:
        return len(self.claims)

    def by_no(self, claim_no: str) -> Claim:
        return self._index[claim_no]

    def settled_claims(self, by: int | None = None) -> list[Claim]:
        t = by if by is not None else self.max_calendar_period
        return [c for c in self.claims if c.settled_by(t)]

    def open_claims(self, at: int) -> list[Claim]:
        return [c for c in self.claims if c.open_at(at)]


@dataclass
class Triangle:
    """Cumulative run-off triangle; cells exist for i + j - 1 <= valuation."""

    aps: list[int]
    valuation: int
    values: "object"  # numpy (len(aps), max_dev) array, NaN where absent

    @property
    def max_dev(self) -> int:
        return self.values.shape[1]

    def latest_dev(self, i: int) -> int:
        """Latest observed development column for accident period i."""
        return min(self.valuation + 1 - i, self.max_dev)


def _number(raw: str, key: str, line_no: int, optional: bool = False) -> float | None:
    """One cell as a finite float; empty and NA, NaN or None (any case) are missing.

    Any other non-finite number (``inf``, ``1e999``, ``+nan``) is a ParseError.
    """
    try:
        value = float(raw)  # float ignores the padding that strip removes
    except ValueError:
        value = None
    if value is not None and math.isfinite(value):
        return value
    raw = raw.strip()
    if raw == "" or raw.upper() in {"NA", "NAN", "NONE"}:
        if optional:
            return None
        raise ParseError(f"row {line_no}: missing value for {key!r}")
    if value is None:
        raise ParseError(f"row {line_no}: cannot parse {key}={raw!r}")
    raise ParseError(f"row {line_no}: {key} must be finite, got {raw!r}")


def _parse_row(cells: tuple[str, ...], line_no: int, schema: str) -> Transaction:
    """One row's cells, in the schema's column order, as a Transaction."""
    if schema == "splice":
        claim_no, size_raw, time_raw, txn_type, inc_raw, ocl_raw, paid_raw, ap_raw = cells
    else:
        claim_no, size_raw, time_raw, paid_raw, ap_raw = cells
    claim_no = claim_no.strip()
    if not claim_no:
        raise ParseError(f"row {line_no}: empty claim_no")
    txn_time = _number(time_raw, "txn_time", line_no)
    if txn_time <= 0:
        raise ParseError(f"row {line_no}: txn_time must be positive")
    cumpaid = _number(paid_raw, "cumpaid", line_no)
    ap = _number(ap_raw, "accident_period", line_no)
    if ap != int(ap) or ap < 1:
        raise ParseError(f"row {line_no}: accident_period must be an integer >= 1")
    claim_size = _number(size_raw, "claim_size", line_no)

    if schema == "splice":
        txn_type = txn_type.strip()
        if txn_type not in TXN_TYPES:
            raise ParseError(f"row {line_no}: unknown txn_type {txn_type!r}")
        incurred = _number(inc_raw, "incurred", line_no, optional=True)
        case_ocl = _number(ocl_raw, "OCL", line_no, optional=True)
        return Transaction(
            claim_no, txn_time, txn_type, cumpaid, int(ap), claim_size, incurred, case_ocl
        )
    return Transaction(claim_no, txn_time, "", cumpaid, int(ap), claim_size)  # cas: typed later


def _assemble_claim(txns: list[Transaction], schema: str) -> Claim | None:
    """Validate one claim's transactions and classify settled / unsettled.

    Returns None for zero-loss claims, raises IntegrityError on invariant
    violations, and marks unsettled claims with settlement_period=None.
    """
    txns = sorted(txns, key=operator.itemgetter(1, 3))  # by (txn_time, cumpaid)
    claim_no = txns[0].claim_no
    ap = txns[0].accident_period
    prev_paid = 0.0
    for txn in txns:
        if txn.accident_period != ap:
            raise IntegrityError(f"claim {claim_no}: accident_period not constant")
        if txn.cumpaid < prev_paid - 1e-9:
            raise IntegrityError(f"claim {claim_no}: cumpaid decreases over time")
        if txn.cumpaid < 0:
            raise IntegrityError(f"claim {claim_no}: negative cumpaid")
        prev_paid = txn.cumpaid

    if schema == "cas":
        # Infer payment flags from cumpaid increments.
        inferred = []
        prev = 0.0
        for txn in txns:
            typ = "P" if txn.cumpaid > prev else ""
            inferred.append(txn._replace(txn_type=typ))
            prev = txn.cumpaid
        txns = inferred

    claim_size = txns[0].claim_size
    final = txns[-1]
    if claim_size <= 0 and final.cumpaid <= 0:
        return None  # non-claim (zero loss), dropped

    if schema == "splice":
        settled = final.case_ocl is not None and abs(final.case_ocl) < 1e-6
    else:
        settled = claim_size > 0 and abs(final.cumpaid - claim_size) <= _SETTLE_RTOL * max(
            claim_size, 1.0
        )

    notif_time = txns[0].txn_time
    notif_period = period_of(notif_time)
    repdel = period_of(notif_time) - ap
    if repdel < 0:
        raise IntegrityError(f"claim {claim_no}: notified before accident period")

    settlement = None
    if settled:
        # Settlement period = period of the final payment.
        last_pay = (t.txn_time for t in reversed(txns) if t.txn_type in PAYMENT_TYPES)
        settlement = period_of(next(last_pay, notif_time))

    return Claim(
        claim_no=claim_no,
        accident_period=ap,
        notification_period=notif_period,
        settlement_period=settlement,
        repdel=repdel,
        claim_size=claim_size,
        transactions=txns,
    )


def load_transactions(path: str, schema: str = "splice") -> Dataset:
    """Load a transactions CSV into a validated Dataset.

    schema "splice" expects case-estimate columns; "cas" is the reduced
    column set with payment flags inferred from cumpaid increments.
    Zero-loss claims are dropped; claims whose payments never complete
    are kept but flagged open (callers typically exclude them).
    """
    if schema not in ("splice", "cas"):
        raise DataError(f"unknown schema {schema!r}")
    expected = SPLICE_COLUMNS if schema == "splice" else CAS_COLUMNS

    groups: dict[str, list[Transaction]] = {}
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file: header row required")
        missing = [c for c in expected if c not in header]
        if missing:
            raise ParseError(f"missing columns for schema {schema!r}: {missing}")
        col = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        pick = operator.itemgetter(*(col[c] for c in expected))
        line_no = 1
        for row in reader:
            if not row:
                continue  # blank lines are skipped and not counted
            line_no += 1
            row += [""] * (len(header) - len(row))  # short rows read as empty cells
            txn = _parse_row(pick(row), line_no, schema)
            groups.setdefault(txn.claim_no, []).append(txn)

    claims: list[Claim] = []
    n_zero = 0
    n_unsettled = 0
    for claim_no in groups:
        claim = _assemble_claim(groups[claim_no], schema)
        if claim is None:
            n_zero += 1
            continue
        if not claim.settled:
            n_unsettled += 1
        claims.append(claim)

    max_t = 0
    for c in claims:
        last = period_of(c.transactions[-1].txn_time)
        max_t = max(max_t, last)

    return Dataset(
        claims=claims,
        schema=schema,
        max_calendar_period=max_t,
        n_dropped_zero_loss=n_zero,
        n_flagged_unsettled=n_unsettled,
    )


def discretize(dataset: Dataset) -> Dataset:
    """Populate per-period development records for every claim.

    One record per development period from notification to the claim's
    last transaction; open claims continue to the data horizon. Paid,
    incurred and case values carry forward through quiet periods. A
    settled claim's ledger may hold case rows after its settlement period
    (its last payment), so its records run on to those rows. One pass over
    each claim's transactions, in time order as loading and simulation leave them.
    """
    ceil = math.ceil
    types_of: dict[tuple[str, ...], frozenset[str]] = {(): type_set(())}
    for claim in dataset.claims:
        txns = claim.transactions
        n_txns = len(txns)
        last_t = ceil(txns[-1].txn_time)
        if not claim.settled:
            # Open claims stay observable through the data horizon.
            last_t = max(dataset.max_calendar_period, last_t)
        records: list[DevelopmentRecord] = []
        paid = 0.0
        case: float | None = None
        incurred: float | None = None
        n_pay = 0
        ultimate = claim.ultimate
        k = 0
        due = ceil(txns[0].txn_time)  # the period of txns[k]
        for t in range(claim.notification_period, last_t + 1):
            seen = []
            while due <= t:
                _, _, txn_type, paid, _, _, txn_incurred, txn_case = txns[k]
                if txn_case is not None:
                    case = txn_case
                if txn_incurred is not None:
                    incurred = txn_incurred
                if txn_type:
                    seen.append(txn_type)
                    if txn_type in PAYMENT_TYPES:
                        n_pay += 1
                k += 1
                due = ceil(txns[k].txn_time) if k < n_txns else last_t + 1
            key = tuple(seen)
            types = types_of.get(key)
            if types is None:
                types = types_of[key] = type_set(seen)
            j = t + 1 - claim.accident_period
            true_ocl = None
            if ultimate is not None:
                true_ocl = ultimate - paid
                if true_ocl < -1e-6:
                    raise IntegrityError(
                        f"claim {claim.claim_no}: paid exceeds ultimate at dev {j}"
                    )
                true_ocl = max(true_ocl, 0.0)
            records.append(DevelopmentRecord(j, paid, types, n_pay, case, incurred, true_ocl))
        claim.dev_records = records
    return dataset


def build_triangle(
    dataset: Dataset, valuation: int, settled_only: bool = False
) -> tuple[Triangle, Triangle]:
    """Cumulative paid and claim-count triangles at the given valuation.

    The paid cell (i, j) sums paid-to-date over the claims of accident
    period i notified by its calendar period; the count cell counts them.
    """
    import numpy as np

    included = [
        c
        for c in dataset.claims
        if c.notification_period <= valuation and (not settled_only or c.settled_by(valuation))
    ]
    if not included:
        raise DataError("no claims available to build a triangle")

    lo = min(c.accident_period for c in included)
    hi = max(c.accident_period for c in included)
    aps = list(range(lo, hi + 1))

    # Cells add up in claim order, as Python floats (IEEE doubles like numpy's).
    rows = [([0.0] * (valuation - i + 1), [0.0] * (valuation - i + 1)) for i in aps]
    for c in included:
        paid_row, count_row = rows[c.accident_period - lo]
        n_cells = valuation - c.notification_period + 1
        path = [r.cum_paid for r in c.dev_records[:n_cells]]
        path += [path[-1]] * (n_cells - len(path))  # the claim no longer changes
        for col, value in enumerate(path, c.notification_period - c.accident_period):
            paid_row[col] += value
            count_row[col] += 1.0

    paid = np.full((len(aps), valuation - lo + 1), np.nan)
    count = paid.copy()
    for row, (paid_row, count_row) in enumerate(rows):
        paid[row, : len(paid_row)] = paid_row
        count[row, : len(count_row)] = count_row
    return (
        Triangle(aps=aps, valuation=valuation, values=paid),
        Triangle(aps=aps, valuation=valuation, values=count),
    )


def censor(dataset: Dataset, boundary: int) -> Dataset:
    """Temporal view of a discretized dataset as observable at the end of `boundary`.

    Claims notified after the boundary disappear; transactions beyond it
    are dropped; settlement (and hence the ultimate and true OCL path) is
    known only when it happened inside the window. Records are the parent's,
    cut where ``discretize`` would stop on the view, and copied where its
    ultimate differs.

    The kept transactions are a prefix of each claim's ledger, cut by
    bisection on ``txn_time``: ledgers are in time order, as ``discretize``
    also assumes, and ``ceil(t) <= boundary`` exactly when ``t <= boundary``.
    """
    horizon = min(dataset.max_calendar_period, boundary)
    ceil = math.ceil
    txn_time = operator.itemgetter(1)
    out: list[Claim] = []
    for c in dataset.claims:
        if c.notification_period > boundary:
            continue
        if not c.dev_records:
            raise DataError(f"claim {c.claim_no}: censor needs a discretized dataset")
        txns = c.transactions[: bisect_right(c.transactions, boundary, key=txn_time)]
        settled = c.settled_by(boundary)
        last_period = ceil(txns[-1].txn_time)
        last_t = last_period if settled else max(horizon, last_period)
        records = c.dev_records[: last_t - c.notification_period + 1]
        ultimate = txns[-1].cumpaid if settled else None
        if ultimate != c.ultimate:  # open at the boundary, or cumpaid moved after it
            records = [
                r._replace(true_ocl=None if ultimate is None else max(ultimate - r.cum_paid, 0.0))
                for r in records
            ]
        out.append(
            Claim(
                claim_no=c.claim_no,
                accident_period=c.accident_period,
                notification_period=c.notification_period,
                settlement_period=c.settlement_period if settled else None,
                repdel=c.repdel,
                claim_size=c.claim_size,
                transactions=txns,
                dev_records=records,
            )
        )
    return Dataset(
        claims=out,
        schema=dataset.schema,
        max_calendar_period=horizon,
    )


@contextlib.contextmanager
def open_csv(path: str):
    """``path`` opened as UTF-8 text for ``csv``; unreadable text is a DataError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def write_table(path: str, header: list[str], rows) -> None:
    """Write a CSV: the header, then each row, every float cell as ``format_number`` gives it.

    A ``float`` cell (numpy ``float64`` included) is written as its shortest
    round-trip text. Any other cell goes to ``csv.writer`` as it is, so None
    is an empty cell and an int or a string is written unchanged.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format_number(v) if isinstance(v, float) else v for v in row] for row in rows
        )


def write_transactions(dataset: Dataset, path: str, schema: str | None = None) -> None:
    """Export the transaction ledger as CSV (deterministic formatting).

    Each column is the ``Transaction`` field of its name, ``OCL`` being ``case_ocl``.
    """
    schema = schema or dataset.schema
    if schema not in ("splice", "cas"):
        raise DataError(f"unknown schema {schema!r}")
    cols = SPLICE_COLUMNS if schema == "splice" else CAS_COLUMNS
    fields = operator.attrgetter(*("case_ocl" if c == "OCL" else c for c in cols))
    write_table(path, cols, (fields(t) for claim in dataset.claims for t in claim.transactions))


def write_dev_records(dataset: Dataset, path: str) -> None:
    """Export the discretized development view as CSV."""
    header = [
        "claim_no",
        "accident_period",
        "dev_period",
        "cum_paid",
        "n_pay",
        "case",
        "txn_types",
        "true_ocl",
    ]
    rows = (
        [c.claim_no, c.accident_period, r.dev_period, r.cum_paid, r.n_pay, r.case]
        + ["|".join(sorted(r.txn_types)), r.true_ocl]
        for c in dataset.claims
        for r in c.dev_records
    )
    write_table(path, header, rows)
