"""Splitting, rolling-settlement validation, tuning, metrics and their CSVs.

The train/test boundary is temporal and is the only split: ``split``
checks the boundary and censors the data there, so everything observable
up to the boundary trains, and claims still open then form the test set,
scored against their realised outstanding amounts. Hyperparameter folds
extend the same idea inside the training window: partition it into equal
intervals, train on an expanding prefix and validate on claims settling
in the next interval, so no fold ever sees a validation claim's outcome.
Leakage guards make those promises assertable. ``tune`` marks a grid
point invalid only for data, configuration and numeric failures; a leak
or a programming error propagates.

Every score comes from one grouped sum (``group_sums``): per group, the
predicted, actual and squared-error sums and the claim count, adding
claims in claim-number order. ``evaluate_predictions`` slices a model's
predictions overall, by accident period, by periods since notification
and by size tercile into one ``MetricsReport``; ``tune`` scores each fold
overall; ``evaluate_chain_ladder`` fills a report's aggregate ratios only,
and the metrics writer takes such a report with its other slices empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chainladder import ClResult
from .claims import Claim, Dataset, censor, write_table
from .env import Transition
from .errors import ConfigError, DataError, LeakageError, NumericFault

CAS_VALUATION = 15
SPLICE_VALUATION = 40
# The per-PSN action histogram has one facet per PSN from 1 to this.
MAX_PSN = 10


def split(dataset: Dataset, boundary: int) -> Dataset:
    """The training view: every claim censored at a boundary inside the horizon.

    Developments after the boundary are unseen; claims still open then form
    the test set, scored against their realised outstanding amounts.
    """
    if not (1 <= boundary <= dataset.max_calendar_period):
        raise DataError(
            f"boundary {boundary} outside horizon 1..{dataset.max_calendar_period}"
        )
    return censor(dataset, boundary)


@dataclass
class Fold:
    index: int
    boundary: int
    next_boundary: int
    train_view: Dataset  # censored at boundary
    validation_claims: list[Claim]  # settle in (boundary, next_boundary]


def rsv_folds(train: Dataset, k: int, window_end: int | None = None) -> list[Fold]:
    """Expanding-window folds over the training window.

    The window [1, M] is cut into k equal-length intervals (floor
    division, remainder absorbed by the last). Fold i trains on data
    censored at the end of interval i and validates on claims notified
    inside the training window that settle in interval i+1.
    """
    m = window_end if window_end is not None else train.max_calendar_period
    if k < 2:
        raise ConfigError("k must be >= 2")
    width = m // k
    if width < 1:
        raise ConfigError(f"window of {m} periods cannot hold {k} intervals")
    bounds = [width * i for i in range(1, k)] + [m]

    folds: list[Fold] = []
    for i in range(1, k):
        b = bounds[i - 1]
        b_next = bounds[i]
        valid = [
            c
            for c in train.claims
            if c.notification_period <= b
            and c.settled
            and b < c.settlement_period <= b_next
        ]
        if not valid:
            raise DataError(
                f"no claims settle in interval {i + 1} ({b + 1}..{b_next})"
            )
        folds.append(
            Fold(
                index=i,
                boundary=b,
                next_boundary=b_next,
                train_view=censor(train, b),
                validation_claims=valid,
            )
        )
    return folds


# -- leakage guards ------------------------------------------------------------


def guard_transitions(
    transitions: list[Transition], dataset: Dataset, boundary: int
) -> None:
    """Every training transition must act on information at or before the boundary."""
    for txn in transitions:
        claim = dataset.by_no(txn.claim_no)
        t = claim.notification_period + txn.tau - 1
        if t > boundary:
            raise LeakageError(
                f"transition for {txn.claim_no} at period {t} crosses boundary {boundary}"
            )


def guard_fnn_rows(claim_nos: list[str], dataset: Dataset, boundary: int) -> None:
    """Every supervised row must come from a claim settled by the boundary."""
    for claim_no in set(claim_nos):
        claim = dataset.by_no(claim_no)
        if not claim.settled_by(boundary):
            raise LeakageError(
                f"training row from claim {claim_no} not settled by {boundary}"
            )


def guard_validation(validation_claims: list[Claim], boundary: int) -> None:
    """Validation claims must settle strictly after the boundary."""
    for c in validation_claims:
        if not c.settled or c.settlement_period <= boundary:
            raise LeakageError(
                f"validation claim {c.claim_no} settles at {c.settlement_period}, "
                f"not after {boundary}"
            )


# -- metrics -------------------------------------------------------------------


def true_ocl_map(dataset: Dataset, valuation: int) -> dict[str, float]:
    """Realised outstanding amount at the valuation for open claims."""
    out = {}
    for c in dataset.open_claims(valuation):
        if c.settled:
            out[c.claim_no] = c.record_at(valuation).true_ocl
    return out


def group_sums(pairs, groups) -> dict:
    """Per group: [predicted sum, actual sum, squared-error sum, claim count].

    ``pairs`` holds one (prediction, actual) per claim and ``groups`` each
    claim's group, in parallel; every sum adds its claims in the order given.
    """
    sums: dict = {}
    for (p, a), g in zip(pairs, groups):
        s = sums.setdefault(g, [0.0, 0.0, 0.0, 0])
        s[0] += p
        s[1] += a
        s[2] += (p - a) ** 2
        s[3] += 1
    return sums


def _aligned(preds: dict[str, float], actuals: dict[str, float]):
    """The claims both maps hold, in claim-number order, and their (prediction, actual)."""
    keys = sorted(preds.keys() & actuals.keys())
    if not keys:
        raise DataError("no aligned claims to score")
    return keys, [(preds[k], actuals[k]) for k in keys]


def _overall(pairs) -> tuple[float, float, float]:
    """Relative OCL, per-claim rmse and true total over every pair."""
    p, a, sq, n = group_sums(pairs, [None] * len(pairs))[None]
    if a <= 0:
        raise DataError("aggregate true OCL is zero")
    return p / a, math.sqrt(sq / n), a


def _slices(sums: dict, total: float):
    """Per group, in key order: ratio, rmse and cumulative share of the true ``total``.

    A group whose true total is zero has no ratio.
    """
    items = sorted(sums.items())
    ratios = {g: p / a for g, (p, a, _, _) in items if a > 0}
    rmses = {g: math.sqrt(sq / n) for g, (_, _, sq, n) in items}
    shares, running = [], 0.0
    for g, (_, a, _, _) in items:
        running += a
        shares.append((g, running / total))
    return ratios, rmses, shares


def action_histogram(
    transitions: list[Transition],
    k: float,
    bins: int = 40,
    by_psn: bool = False,
):
    """Histogram of exp(action) over [1/k, k]; optional per-PSN facets."""
    edges = np.linspace(1.0 / k, k, bins + 1)

    def counts(txns):
        return np.histogram([math.exp(t.action) for t in txns], bins=edges)[0]

    if not by_psn:
        return counts(transitions), edges
    return {p: counts([t for t in transitions if t.tau == p]) for p in range(1, MAX_PSN + 1)}, edges


def size_terciles(sizes: list[float]) -> list[str]:
    """small / medium / large for each size by its tercile, ties to the lower bucket."""
    q1, q2 = np.quantile(sizes, [1.0 / 3.0, 2.0 / 3.0])
    return ["small" if u <= q1 else "medium" if u <= q2 else "large" for u in sizes]


@dataclass
class MetricsReport:
    """One model's slicings; the chain ladder fills the aggregate ratios only."""

    overall_ratio: float | None
    ratio_by_ap: dict[int, float]
    ratio_by_psn: dict[int, float] = field(default_factory=dict)
    rmse_overall: float | None = None
    rmse_by_ap: dict[int, float] = field(default_factory=dict)
    rmse_by_psn: dict[int, float] = field(default_factory=dict)
    share_by_ap: list[tuple[int, float]] = field(default_factory=list)
    share_by_psn: list[tuple[int, float]] = field(default_factory=list)
    ratio_by_tercile: dict[str, float] = field(default_factory=dict)


def evaluate_predictions(
    preds: dict[str, float], actuals: dict[str, float], dataset: Dataset, valuation: int
) -> MetricsReport:
    """Every slicing of one model's open-claim predictions against the actuals at valuation."""
    keys, pairs = _aligned(preds, actuals)
    claims = [dataset.by_no(k) for k in keys]
    ratio, rmse, total = _overall(pairs)
    ap = _slices(group_sums(pairs, [c.accident_period for c in claims]), total)
    psn = _slices(group_sums(pairs, [c.psn_at(valuation) for c in claims]), total)
    size = _slices(group_sums(pairs, size_terciles([c.ultimate for c in claims])), total)
    return MetricsReport(ratio, ap[0], psn[0], rmse, ap[1], psn[1], ap[2], psn[2], size[0])


def evaluate_chain_ladder(
    result: ClResult, actuals: dict[str, float], dataset: Dataset
) -> MetricsReport:
    """The chain ladder's aggregate ratios, overall and per accident period.

    The chain ladder has no claim-level predictions, so only the true OCL is
    summed, per accident period in the order of ``actuals``. The overall
    ratio is None when the true total is zero.
    """
    pairs = [(0.0, a) for a in actuals.values()]
    aps = [dataset.by_no(cn).accident_period for cn in actuals]
    true_by_ap = {ap: s[1] for ap, s in group_sums(pairs, aps).items()}
    total = sum(true_by_ap.values())
    ratio_by_ap = {
        ap: float(result.rbns_ocl[row]) / true_by_ap[ap]
        for row, ap in enumerate(result.aps)
        if true_by_ap.get(ap, 0.0) > 0
    }
    return MetricsReport(result.total_rbns_ocl / total if total > 0 else None, ratio_by_ap)


# -- tuning --------------------------------------------------------------------


@dataclass
class TuneEntry:
    params: dict
    mean_abs_ratio_error: float
    mean_rmse: float
    valid: bool
    fold_ratios: list[float] = field(default_factory=list)
    reason: str = ""  # "<ExceptionType>: <message>" when a fold failed


def tune(
    grid: list[dict],
    folds: list[Fold],
    family_fn,
) -> tuple[dict, list[TuneEntry]]:
    """Pick the configuration whose fold-average ratio is closest to 1.

    family_fn(fold, params) must return predictions for the fold's
    validation claims at the fold boundary. Ties break on lower mean
    per-claim RMSE, then on grid order. A configuration that raises a
    DataError, ConfigError or NumericFault in any fold is marked invalid;
    any other exception (a leak, a programming error) propagates.
    """
    if not grid:
        raise ConfigError("empty tuning grid")
    entries: list[TuneEntry] = []
    for params in grid:
        ratios: list[float] = []
        rmses: list[float] = []
        reason = ""
        for fold in folds:
            actuals = {
                c.claim_no: c.record_at(fold.boundary).true_ocl for c in fold.validation_claims
            }
            try:
                ratio, rmse, _ = _overall(_aligned(family_fn(fold, params), actuals)[1])
                ratios.append(ratio)
                rmses.append(rmse)
            except (DataError, ConfigError, NumericFault) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                break
        valid = not reason
        entries.append(
            TuneEntry(
                params=params,
                mean_abs_ratio_error=(
                    float(np.mean([abs(r - 1.0) for r in ratios])) if valid else math.inf
                ),
                mean_rmse=float(np.mean(rmses)) if valid else math.inf,
                valid=valid,
                fold_ratios=ratios,
                reason=reason,
            )
        )
    if all(not e.valid for e in entries):
        raise DataError("every tuning configuration failed")
    order = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].mean_abs_ratio_error, entries[i].mean_rmse, i),
    )
    return entries[order[0]].params, entries


# -- report writers ------------------------------------------------------------


def write_metrics_csv(report: MetricsReport, model: str, seed: int, path: str) -> None:
    """Long-format slicing table: one row per (slice, value, metric)."""
    header = ["model", "seed", "slice", "key", "relative_ocl", "rmse", "ocl_share"]
    rows = [[model, seed, "overall", "", report.overall_ratio, report.rmse_overall, ""]]
    for name, ratios, rmses, shares in (
        ("ap", report.ratio_by_ap, report.rmse_by_ap, dict(report.share_by_ap)),
        ("psn", report.ratio_by_psn, report.rmse_by_psn, dict(report.share_by_psn)),
    ):
        rows += (
            [model, seed, name, key, ratios.get(key), rmses.get(key), shares.get(key)]
            for key in sorted(set(ratios) | set(shares))
        )
    write_table(path, header, rows)


def write_histogram_csv(counts, edges, path: str) -> None:
    """One row per bin; per-psn counts (a dict) lead each row with the psn."""
    header = ["bin_left", "bin_right", "count"]

    def bins(row):
        return ([edges[b], edges[b + 1], int(c)] for b, c in enumerate(row))

    if isinstance(counts, dict):
        rows = ([psn, *cells] for psn, row in counts.items() for cells in bins(row))
        write_table(path, ["psn", *header], rows)
    else:
        write_table(path, header, bins(counts))
