"""Initial ultimate and OCL estimates for newly predicted claims.

Blends the accident-period mean ultimate of settled claims with the
overall mean using credibility weights z_i = 1 / pi_i, where pi_i is the
age-to-ultimate factor of the settled-claims paid triangle. Both means
are corrected for claims-mix drift with a payments-per-claim-incurred
(PPCI) age-to-ultimate factor: recent periods' settled claims are
dominated by quick (small) settlers, and the PPCI development measures
how much the average cost per incurred claim still grows from that age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .claims import Dataset, Triangle, build_triangle, write_table
from .errors import FactorError, InitError


def link_ratios(triangle: Triangle) -> np.ndarray:
    """Volume-weighted development factors f_j, one per column transition.

    f_j = sum_i C[i, j+1] / sum_i C[i, j] over rows where both cells are
    observed. A zero-denominator transition yields NaN; consumers raise
    when such a factor is actually needed (a leading column with no paid
    mass is harmless as long as no period develops from it).
    """
    v = triangle.values
    n_cols = v.shape[1]
    if n_cols < 2:
        raise FactorError("triangle needs at least 2 development columns")
    factors = np.ones(n_cols - 1)
    for j in range(n_cols - 1):
        both = ~np.isnan(v[:, j]) & ~np.isnan(v[:, j + 1])
        if not both.any():
            factors[j] = 1.0
            continue
        denom = v[both, j].sum()
        factors[j] = v[both, j + 1].sum() / denom if denom > 0 else np.nan
    return factors


def age_to_ultimate(triangle: Triangle) -> dict[int, float]:
    """Cumulative development factor pi_i from each period's latest column.

    The final observed column is treated as ultimate (tail factor 1), so a
    fully developed period gets pi = 1. Raises FactorError when a needed
    development factor sits on a zero-denominator column.
    """
    factors = link_ratios(triangle)
    out: dict[int, float] = {}
    for i in triangle.aps:
        latest = triangle.latest_dev(i)
        pi = 1.0
        for j in range(latest, triangle.max_dev):
            if np.isnan(factors[j - 1]):
                raise FactorError(f"zero denominator in development column {j}")
            pi *= factors[j - 1]
        out[i] = pi
    return out


@dataclass(frozen=True)
class InitTables:
    """Per-accident-period quantities backing claim initialisation."""

    settled_counts: dict[int, int]
    mean_ultimate: dict[int, float]  # settled-claim mean per period
    pi_paid: dict[int, float]  # paid-triangle age-to-ultimate
    pi_ppci: dict[int, float]  # PPCI-triangle age-to-ultimate
    credibility: dict[int, float]  # z_i = 1/pi_i clamped to [0, 1]
    adj_mean_ultimate: dict[int, float]  # pi'_i * mean_i
    overall_adj_mean: float


def build_init_tables(train: Dataset) -> InitTables:
    """Build credibility and PPCI tables from the view's settled claims.

    The triangles are cut at the view's last period, its valuation.
    """
    valuation = train.max_calendar_period
    settled = train.settled_claims(by=valuation)
    if not settled:
        raise InitError("no settled claims available to initialise from")

    counts: dict[int, int] = {}
    totals: dict[int, float] = {}
    for c in settled:
        counts[c.accident_period] = counts.get(c.accident_period, 0) + 1
        totals[c.accident_period] = totals.get(c.accident_period, 0.0) + c.ultimate
    means = {i: totals[i] / counts[i] for i in counts}

    paid_tri, count_tri = build_triangle(train, valuation, settled_only=True)
    ppci_values = np.where(
        count_tri.values > 0,
        paid_tri.values / np.where(count_tri.values > 0, count_tri.values, 1.0),
        0.0,
    )
    ppci_values[np.isnan(paid_tri.values)] = np.nan
    ppci_tri = Triangle(aps=paid_tri.aps, valuation=valuation, values=ppci_values)

    if paid_tri.max_dev >= 2:
        pi_paid = age_to_ultimate(paid_tri)
        pi_ppci = age_to_ultimate(ppci_tri)
    else:
        pi_paid = {i: 1.0 for i in paid_tri.aps}
        pi_ppci = {i: 1.0 for i in paid_tri.aps}

    # Periods with no settled claims keep no row here; initialise_claim
    # falls back to zero credibility for them.
    pi_paid = {i: pi_paid.get(i, 1.0) for i in counts}
    pi_ppci = {i: pi_ppci.get(i, 1.0) for i in counts}
    credibility = {i: min(max(1.0 / pi_paid[i], 0.0), 1.0) for i in counts}
    adj_means = {i: pi_ppci[i] * means[i] for i in counts}

    n_settled = len(settled)
    overall_adj = sum(pi_ppci[i] * totals[i] for i in counts) / n_settled
    if not math.isfinite(overall_adj) or overall_adj <= 0:
        raise InitError("overall adjusted mean ultimate is not positive")

    return InitTables(
        settled_counts=counts,
        mean_ultimate=means,
        pi_paid=pi_paid,
        pi_ppci=pi_ppci,
        credibility=credibility,
        adj_mean_ultimate=adj_means,
        overall_adj_mean=overall_adj,
    )


def initialise_claim(
    accident_period: int,
    cum_paid_at_notification: float,
    tables: InitTables,
    k: float,
) -> tuple[float, float]:
    """Starting (UL_0, OCL_0) for a claim first seen at notification.

    UL_0 mixes the period's adjusted mean with the overall adjusted mean
    by credibility; OCL_0 = UL_0 minus paid so far. A non-positive OCL_0
    falls back to overall_adj_mean / k^2, which the bounded action space
    can scale back to the overall mean within two periods.
    """
    z = tables.credibility.get(accident_period, 0.0)
    ap_mean = tables.adj_mean_ultimate.get(accident_period, tables.overall_adj_mean)
    ul0 = z * ap_mean + (1.0 - z) * tables.overall_adj_mean
    ocl0 = ul0 - cum_paid_at_notification
    if ocl0 <= 0:
        ocl0 = tables.overall_adj_mean / (k * k)
    return ul0, ocl0


def initial_reserves(dataset: Dataset, tables: InitTables, k: float) -> dict[str, float]:
    """Each claim's OCL_0 from ``initialise_claim``, by claim number: the rollout's ``init``."""
    return {
        c.claim_no: initialise_claim(c.accident_period, c.dev_records[0].cum_paid, tables, k)[1]
        for c in dataset.claims
    }


def write_init_tables(tables: InitTables, path: str) -> None:
    """Audit export of the initialisation quantities."""
    header = [
        "accident_period",
        "n_settled",
        "mean_ultimate",
        "pi_paid",
        "pi_ppci",
        "credibility",
        "adj_mean_ultimate",
        "overall_adj_mean",
    ]
    rows = (
        [
            i,
            tables.settled_counts[i],
            tables.mean_ultimate[i],
            tables.pi_paid[i],
            tables.pi_ppci[i],
            tables.credibility[i],
            tables.adj_mean_ultimate[i],
            tables.overall_adj_mean,
        ]
        for i in sorted(tables.settled_counts)
    )
    write_table(path, header, rows)
