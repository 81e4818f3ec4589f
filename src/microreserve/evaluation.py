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
or a programming error propagates. The metrics writer takes a report
with empty slices too, which is how the chain ladder's aggregate ratios
share it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .claims import Claim, Dataset, censor, format_number
from .env import Transition
from .errors import ConfigError, DataError, LeakageError, NumericFault

CAS_VALUATION = 15
SPLICE_VALUATION = 40


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


def relative_ocl(
    preds: dict[str, float],
    actuals: dict[str, float],
    group_of=None,
) -> "float | dict":
    """Ratio of aggregated predictions to aggregated actuals.

    With group_of (claim_no -> key) returns one ratio per group; groups
    whose true total is zero are omitted.
    """
    keys = sorted(set(preds) & set(actuals))
    if not keys:
        raise DataError("no aligned claims to score")
    if group_of is None:
        total = sum(actuals[k] for k in keys)
        if total <= 0:
            raise DataError("aggregate true OCL is zero")
        return sum(preds[k] for k in keys) / total
    num: dict = {}
    den: dict = {}
    for k in keys:
        g = group_of(k)
        num[g] = num.get(g, 0.0) + preds[k]
        den[g] = den.get(g, 0.0) + actuals[k]
    return {g: num[g] / den[g] for g in sorted(num) if den[g] > 0}


def rmse_per_claim(
    preds: dict[str, float],
    actuals: dict[str, float],
    group_of=None,
) -> "float | dict":
    """Root mean squared per-claim error, optionally per group."""
    keys = sorted(set(preds) & set(actuals))
    if not keys:
        raise DataError("no aligned claims to score")
    if group_of is None:
        return float(
            math.sqrt(sum((preds[k] - actuals[k]) ** 2 for k in keys) / len(keys))
        )
    groups: dict = {}
    for k in keys:
        groups.setdefault(group_of(k), []).append((preds[k] - actuals[k]) ** 2)
    return {g: float(math.sqrt(sum(v) / len(v))) for g, v in sorted(groups.items())}


def ocl_share_curve(
    actuals: dict[str, float], key_of
) -> list[tuple[int, float]]:
    """Cumulative share of the true OCL ordered by an integer key (AP or PSN)."""
    total = sum(actuals.values())
    if total <= 0:
        raise DataError("no outstanding liability to share out")
    by_key: dict[int, float] = {}
    for claim_no, v in actuals.items():
        k = key_of(claim_no)
        by_key[k] = by_key.get(k, 0.0) + v
    curve = []
    running = 0.0
    for k in sorted(by_key):
        running += by_key[k]
        curve.append((k, running / total))
    return curve


def action_histogram(
    transitions: list[Transition],
    k: float,
    bins: int = 40,
    by_psn: bool = False,
    max_psn: int = 10,
):
    """Histogram of exp(action) over [1/k, k]; optional per-PSN facets."""
    edges = np.linspace(1.0 / k, k, bins + 1)
    if not by_psn:
        values = np.array([math.exp(t.action) for t in transitions])
        counts, _ = np.histogram(values, bins=edges)
        return counts, edges
    facets = {}
    for psn in range(1, max_psn + 1):
        vals = np.array(
            [math.exp(t.action) for t in transitions if t.tau == psn] or [np.nan]
        )
        counts, _ = np.histogram(vals[~np.isnan(vals)], bins=edges)
        facets[psn] = counts
    return facets, edges


def size_terciles(ultimates: dict[str, float]) -> dict[str, str]:
    """small / medium / large membership by ultimate size, ties to the lower bucket."""
    values = np.array(sorted(ultimates.values()))
    q1 = float(np.quantile(values, 1.0 / 3.0))
    q2 = float(np.quantile(values, 2.0 / 3.0))
    out = {}
    for claim_no, u in ultimates.items():
        if u <= q1:
            out[claim_no] = "small"
        elif u <= q2:
            out[claim_no] = "medium"
        else:
            out[claim_no] = "large"
    return out


def size_tercile_report(
    preds: dict[str, float],
    actuals: dict[str, float],
    ultimates: dict[str, float],
) -> dict[str, float]:
    """Relative OCL per ultimate-size tercile."""
    membership = size_terciles(ultimates)
    return relative_ocl(preds, actuals, group_of=lambda cn: membership[cn])


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


def evaluate_predictions(
    preds: dict[str, float], dataset: Dataset, valuation: int
) -> MetricsReport:
    """All slicings for one model's open-claim predictions at valuation."""
    actuals = true_ocl_map(dataset, valuation)
    keys = sorted(set(preds) & set(actuals))
    if not keys:
        raise DataError("no scored claims")
    preds = {k: preds[k] for k in keys}
    actuals_used = {k: actuals[k] for k in keys}
    ap_of = {k: dataset.by_no(k).accident_period for k in keys}
    psn_of = {k: dataset.by_no(k).psn_at(valuation) for k in keys}
    return MetricsReport(
        overall_ratio=relative_ocl(preds, actuals_used),
        ratio_by_ap=relative_ocl(preds, actuals_used, group_of=ap_of.get),
        ratio_by_psn=relative_ocl(preds, actuals_used, group_of=psn_of.get),
        rmse_overall=rmse_per_claim(preds, actuals_used),
        rmse_by_ap=rmse_per_claim(preds, actuals_used, group_of=ap_of.get),
        rmse_by_psn=rmse_per_claim(preds, actuals_used, group_of=psn_of.get),
        share_by_ap=ocl_share_curve(actuals_used, key_of=ap_of.get),
        share_by_psn=ocl_share_curve(actuals_used, key_of=psn_of.get),
    )


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
                preds = family_fn(fold, params)
                ratios.append(relative_ocl(preds, actuals))
                rmses.append(rmse_per_claim(preds, actuals))
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "seed", "slice", "key", "relative_ocl", "rmse", "ocl_share"])
        writer.writerow(
            [
                model,
                seed,
                "overall",
                "",
                format_number(report.overall_ratio),
                format_number(report.rmse_overall),
                "",
            ]
        )
        for name, ratios, rmses, shares in (
            ("ap", report.ratio_by_ap, report.rmse_by_ap, dict(report.share_by_ap)),
            ("psn", report.ratio_by_psn, report.rmse_by_psn, dict(report.share_by_psn)),
        ):
            for key in sorted(set(ratios) | set(shares)):
                writer.writerow(
                    [
                        model,
                        seed,
                        name,
                        key,
                        format_number(ratios.get(key)),
                        format_number(rmses.get(key)),
                        format_number(shares.get(key)),
                    ]
                )


def write_histogram_csv(counts, edges, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(counts, dict):
            writer.writerow(["psn", "bin_left", "bin_right", "count"])
            for psn, row in counts.items():
                for b, c in enumerate(row):
                    writer.writerow([psn, format_number(edges[b]), format_number(edges[b + 1]), int(c)])
        else:
            writer.writerow(["bin_left", "bin_right", "count"])
            for b, c in enumerate(counts):
                writer.writerow([format_number(edges[b]), format_number(edges[b + 1]), int(c)])
