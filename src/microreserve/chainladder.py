"""Aggregate chain-ladder benchmark with IBNR stripping.

Projects paid and count triangles with volume-weighted development
factors, converts the projected count of unreported claims into an
IBNR amount via the average ultimate size per period scaled by a
reporting-delay severity curve, and subtracts both the IBNR and the
already-settled portion to leave the liability on reported-but-open
claims only, which is the quantity the claim-level models predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .claims import Dataset, Triangle, build_triangle, write_table
from .credibility import age_to_ultimate, link_ratios
from .errors import DataError, FactorError

# The smoothing penalties the delay scaling's cross-validation chooses among.
PENALTIES = (0.1, 1.0, 10.0, 100.0)


@dataclass
class DelayScaling:
    """Severity scaling by reporting delay, normalised to s(0) = 1."""

    values: np.ndarray  # s(d) at integer delays 0..len-1

    def __call__(self, d: int) -> float:
        if d < 0:
            raise DataError("reporting delay must be >= 0")
        if d >= self.values.size:
            return float(self.values[-1])
        return float(self.values[d])


def fit_delay_scaling(
    amounts: "np.ndarray | list[float]", delays: "np.ndarray | list[int]"
) -> DelayScaling:
    """Smooth positive curve through mean claim size by reporting delay.

    Second-difference (ridge) smoother over the per-delay bucket means,
    with the penalty chosen by weighted leave-one-bucket-out error.
    Empty interior buckets get zero weight and are bridged by the
    penalty; the curve is normalised at delay zero.
    """
    amounts = np.asarray(amounts, dtype=float)
    delays = np.asarray(delays, dtype=int)
    if amounts.size == 0 or amounts.shape != delays.shape:
        raise DataError("need matching non-empty amounts and delays")
    if delays.min() < 0:
        raise DataError("negative reporting delay")

    n_buckets = int(delays.max()) + 1
    counts = np.zeros(n_buckets)
    means = np.zeros(n_buckets)
    for d in range(n_buckets):
        sel = delays == d
        counts[d] = sel.sum()
        if counts[d] > 0:
            means[d] = amounts[sel].mean()

    if n_buckets <= 2:
        fitted = means.copy()
        for d in range(n_buckets):
            if counts[d] == 0:
                fitted[d] = means[counts > 0].mean()
    else:
        diff = np.zeros((n_buckets - 2, n_buckets))
        for r in range(n_buckets - 2):
            diff[r, r : r + 3] = (1.0, -2.0, 1.0)
        w = counts / counts.sum()

        def solve(lam: float, weights: np.ndarray) -> np.ndarray:
            lhs = np.diag(weights) + lam * diff.T @ diff
            rhs = weights * means
            return np.linalg.solve(lhs, rhs)

        scale = float(np.mean(means[counts > 0] ** 2))

        def cv_err(lam: float) -> float:
            err = 0.0
            for d in range(n_buckets):
                if counts[d] == 0:
                    continue
                w_d = w.copy()
                w_d[d] = 0.0
                if w_d.sum() == 0:
                    return np.inf
                fit = solve(lam, w_d)
                err += w[d] * (fit[d] - means[d]) ** 2
            return err / scale

        best_lam = min(PENALTIES, key=cv_err)
        fitted = solve(best_lam, w)

    fitted = np.maximum(fitted, 1e-12)
    if fitted[0] <= 0:
        raise DataError("scaling undefined: no mass at delay zero")
    return DelayScaling(values=fitted / fitted[0])


def delay_profile(dataset: Dataset, valuation: int) -> tuple[np.ndarray, np.ndarray]:
    """Claim sizes and reporting delays observable at the valuation.

    Uses the live case estimate of the ultimate where the schema carries
    one, otherwise the realised ultimates of settled claims.
    """
    amounts: list[float] = []
    delays: list[int] = []
    for claim in dataset.claims:
        if claim.notification_period > valuation:
            continue
        inc = claim.record_at(valuation).incurred
        if inc is not None:
            amounts.append(inc)
            delays.append(claim.repdel)
        elif claim.settled_by(valuation):
            amounts.append(claim.ultimate)
            delays.append(claim.repdel)
    if not amounts:
        raise DataError("no observable claim sizes for the delay profile")
    return np.array(amounts), np.array(delays, dtype=int)


@dataclass
class ClResult:
    aps: list[int]
    ultimate_paid: np.ndarray
    ultimate_count: np.ndarray
    observed_count: np.ndarray
    mu: np.ndarray  # average ultimate claim size per period
    scaling: DelayScaling
    ibnr: np.ndarray
    rbns_ocl: np.ndarray
    stable: np.ndarray  # count projection within 1 claim of observed
    n_clamped: int = 0

    @property
    def total_rbns_ocl(self) -> float:
        return float(self.rbns_ocl.sum())


def cl_ultimates(paid: Triangle, counts: Triangle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ultimate paid, ultimate counts and mean size per period."""
    if paid.valuation != counts.valuation or paid.aps != counts.aps:
        raise DataError("paid and count triangles must share layout")
    pi_paid = age_to_ultimate(paid)
    pi_count = age_to_ultimate(counts)
    ult_paid = np.zeros(len(paid.aps))
    ult_count = np.zeros(len(paid.aps))
    for row, i in enumerate(paid.aps):
        latest = paid.latest_dev(i)
        ult_paid[row] = paid.values[row, latest - 1] * pi_paid[i]
        ult_count[row] = counts.values[row, latest - 1] * pi_count[i]
    if np.any(ult_count <= 0):
        bad = [paid.aps[r] for r in np.where(ult_count <= 0)[0]]
        raise FactorError(f"zero ultimate count for accident periods {bad}")
    mu = ult_paid / ult_count
    return ult_paid, ult_count, mu


def ibnr_strip(
    counts: Triangle,
    ult_count: np.ndarray,
    mu: np.ndarray,
    scaling: DelayScaling,
) -> np.ndarray:
    """IBNR amount per period: future reported counts times scaled severity.

    A claim first reported at development period j carries reporting
    delay d = j - 1.
    """
    factors = link_ratios(counts)
    ibnr = np.zeros(len(counts.aps))
    max_dev = counts.max_dev
    for row, i in enumerate(counts.aps):
        latest = counts.latest_dev(i)
        projected = counts.values[row, latest - 1]
        prev = projected
        for j in range(latest + 1, max_dev + 1):
            if np.isnan(factors[j - 2]):
                raise FactorError(f"zero denominator in count column {j - 1}")
            projected = prev * factors[j - 2]
            incr = projected - prev
            ibnr[row] += incr * mu[row] * scaling(j - 1)
            prev = projected
    return ibnr


def rbns_ocl(dataset: Dataset, scaling: DelayScaling | None = None) -> ClResult:
    """Full pipeline: triangles, CL projection, IBNR strip, open-claim OCL.

    The triangles and the open claims are taken at the dataset's last
    period, which a censored view holds as its valuation.
    """
    cutoff = dataset.max_calendar_period
    paid, counts = build_triangle(dataset, cutoff)
    ult_paid, ult_count, mu = cl_ultimates(paid, counts)
    if scaling is None:
        amounts, delays = delay_profile(dataset, cutoff)
        scaling = fit_delay_scaling(amounts, delays)
    ibnr = np.maximum(ibnr_strip(counts, ult_count, mu, scaling), 0.0)

    settled_ult = np.zeros(len(paid.aps))
    open_paid = np.zeros(len(paid.aps))
    # Claims notified by the cutoff: the count triangle's latest diagonal.
    observed = np.array(
        [counts.values[row, counts.latest_dev(i) - 1] for row, i in enumerate(counts.aps)]
    )
    for claim in dataset.claims:
        if claim.notification_period > cutoff:
            continue
        row = claim.accident_period - paid.aps[0]
        if claim.settled_by(cutoff):
            settled_ult[row] += claim.ultimate
        else:
            open_paid[row] += claim.paid_at(cutoff)

    rbns_ul = ult_paid - ibnr - settled_ult
    ocl = rbns_ul - open_paid
    n_clamped = int(np.sum(ocl < 0))
    ocl = np.maximum(ocl, 0.0)
    stable = np.abs(ult_count - observed) <= 1.0

    return ClResult(
        aps=paid.aps,
        ultimate_paid=ult_paid,
        ultimate_count=ult_count,
        observed_count=observed,
        mu=mu,
        scaling=scaling,
        ibnr=ibnr,
        rbns_ocl=ocl,
        stable=stable,
        n_clamped=n_clamped,
    )


def write_cl_report(result: ClResult, path: str) -> None:
    header = ["accident_period", "ultimate_paid", "mu", "ibnr", "rbns_ocl", "stable"]
    amounts = (result.ultimate_paid, result.mu, result.ibnr, result.rbns_ocl)
    rows = (
        [i, *cells, int(stable)] for i, stable, *cells in zip(result.aps, result.stable, *amounts)
    )
    write_table(path, header, rows)
