"""Supervised feed-forward benchmark.

Settled claims each contribute one training row per observed development
period (a claim with J development periods and reporting delay d gives
J - d rows). Features are the environment's state layout for the same
profile without the model-generated slots: no past predictions
(``n_past=0``) and no previous estimate. The target is the outstanding
amount at that period. ``build_training_rows`` walks each settled claim's
development records once, notification to settlement, through the layout
helper the environment's states use (``env.state_rows``), so the claim's
static slots are computed once per claim rather than once per row. The rows
go end to end into one ``array("d")`` of C doubles, which the feature
matrix then wraps without a copy, and ``FeatureScaler.fit_in_place`` fits
the scaler to that fresh matrix and scales it in place. ``FnnRows`` carries
the scaled matrix with its scaler, so every fit on the same rows (a tuning
grid's points on one fold) shares one scaling.
Regression runs on the log1p scale against an MSE weighted by the
environment's importance weight (OCL / s)^alpha, which is zero on zero-OCL
rows. Every use of the weights divides by their sum (the loss, its
gradient, the validation loss, the bias start), so the scale s cancels and
has no setting; the rows take s as the mean positive target. Early stopping
uses an 80/20 split of the training claims (split by claim, never by row). The
output bias starts at the weighted mean log1p target of the training
split, the best constant predictor under that loss; the log-scale targets
sit far from zero (about 10.7 on the default portfolio), so a zero start
spends the early epochs on the offset.

``train_fnn`` copies no feature matrix. Its split is two index vectors into
``rows.features``: each minibatch gathers its rows, and the validation loss
scores the validation rows in chunks of ``VAL_CHUNK`` rows. The chunk is a
fixed multiple of 64 rows, so no buffer the size of the validation rows is
made, and every row is scored in the bits a single forward over them all
gives (on numpy 2.4.6 with OpenBLAS 0.3.31, a chunk of any multiple of 4
rows does; 1, 2, 3 or 5 rows do not).
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .claims import Claim, Dataset
from .env import PREV_OCL_SLOT, currency_mask, importance_weight, state_rows
from .errors import ConfigError, DataError, NumericFault, check_config
from .nets import (
    AdamState,
    FeatureScaler,
    Mlp,
    adam_step,
    backward,
    forward,
    hidden_sizes,
    init_mlp,
    load_config_json,
)


@dataclass(frozen=True)
class FnnConfig:
    hidden: tuple[int, ...] = (64, 64)
    batch_size: int = 128
    dropout: float = 0.0
    lr: float = 1e-3
    alpha_w: float = 1.0
    patience: int = 8
    max_epochs: int = 200
    state_profile: str = "splice_full"
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(self, batch_size="[1, inf)", dropout="[0, 1)", lr="(0, inf)",
                     alpha_w="[0, inf)", patience="[0, inf)",
                     max_epochs="[1, inf)")
        object.__setattr__(self, "hidden", hidden_sizes(self.hidden))


def row_features(claim: Claim, t: int, profile: str) -> list[float]:
    """The environment's state at n_past=0 without the previous-estimate slot."""
    return state_rows(claim, [claim.record_at(t)], t, profile, [], [])


# Rows per validation forward: a multiple of 64, independent of the batch size.
VAL_CHUNK = 256


@dataclass
class FnnRows:
    features: np.ndarray  # (n, d), scaled by ``scaler``
    scaler: FeatureScaler  # fitted to these rows
    targets: np.ndarray  # (n,) true OCL in money units
    weights: np.ndarray  # (n,)
    claim_nos: list[str]


def build_training_rows(train: Dataset, cutoff: int, cfg: FnnConfig) -> FnnRows:
    """Scaled rows from claims settled by the cutoff, one per development period."""
    settled = train.settled_claims(by=cutoff)
    if not settled:
        raise DataError("no settled claims before the cutoff")

    feats = array("d")  # the rows end to end
    targets: list[float] = []
    claim_nos: list[str] = []
    for claim in settled:
        t0 = claim.notification_period
        records = claim.dev_records[: claim.settlement_period - t0 + 1]
        assert records[-1].dev_period == claim.settlement_period + 1 - claim.accident_period
        feats.fromlist(state_rows(claim, records, t0, cfg.state_profile, [], []))
        targets += [rec.true_ocl for rec in records]
        claim_nos += [claim.claim_no] * len(records)

    targets_arr = np.array(targets)
    positive = targets_arr[targets_arr > 0]
    if positive.size == 0:
        raise DataError("all training targets are zero")
    # Any positive scale gives the same fit up to rounding. This one keeps
    # the weights, and so every fit, bit for bit what they have been.
    s = float(positive.mean())
    weights = np.array([importance_weight(y, cfg.alpha_w, s) for y in targets])
    del targets, positive  # the scaling below sets the peak
    features = np.frombuffer(feats).reshape(targets_arr.size, -1)
    scaler = FeatureScaler.fit_in_place(features, _layout(cfg)[0])
    return FnnRows(features, scaler, targets_arr, weights, claim_nos)


def weighted_mse(preds, targets, weights) -> float:
    """sum w (pred - target)^2 / sum w."""
    p = np.asarray(preds, dtype=float)
    y = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    if p.shape != y.shape or p.shape != w.shape:
        raise DataError("preds, targets and weights must share a shape")
    total = w.sum()
    if total <= 0:
        raise DataError("weights sum to zero")
    return float(np.sum(w * (p - y) ** 2) / total)


@dataclass
class FnnModel:
    net: Mlp
    scaler: FeatureScaler
    cfg: FnnConfig
    epochs_run: int = 0
    history: list[tuple[int, float]] = field(default_factory=list)

    def predict_scaled(self, z: np.ndarray) -> np.ndarray:
        """Outstanding-amount predictions, floored at zero, for rows of scaled features."""
        out, _ = forward(self.net, z)
        return np.maximum(np.expm1(np.clip(out[:, 0], None, 40.0)), 0.0)


def _layout(cfg: FnnConfig) -> tuple[np.ndarray, list[int]]:
    """The features' currency mask, and the network's layer sizes."""
    mask = np.delete(currency_mask(cfg.state_profile, 0), PREV_OCL_SLOT)
    return mask, [mask.size, *cfg.hidden, 1]


def _split_by_claim(rows: FnnRows, rng: np.random.Generator):
    """The training and validation row indices; a claim's rows all go one way."""
    claim_ids = sorted(set(rows.claim_nos))
    perm = rng.permutation(len(claim_ids))
    n_val = max(1, int(round(0.2 * len(claim_ids)))) if len(claim_ids) > 1 else 0
    val_claims = {claim_ids[i] for i in perm[:n_val]}
    val_mask = np.array([cn in val_claims for cn in rows.claim_nos])
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def train_fnn(rows: FnnRows, cfg: FnnConfig) -> FnnModel:
    """Minibatch Adam on the weighted log-scale MSE with early stopping.

    The output bias starts at the weighted mean of ``log1p(targets)`` over
    the training split, the constant that minimises the loss, so the
    epoch budget goes on the features rather than on learning the offset.
    """
    x = rows.features
    if x.shape[0] < 2:
        raise DataError("too few rows to train on")
    mask, sizes = _layout(cfg)
    if not np.array_equal(rows.scaler.currency, mask):
        raise ConfigError(f"the rows were not scaled for the {cfg.state_profile!r} profile")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))

    tr, va = _split_by_claim(rows, rng)
    y_all = np.log1p(rows.targets)
    y_tr, y_va = y_all[tr], y_all[va]
    del y_all  # the fit keeps only the gathered targets
    w_tr, w_va = rows.weights[tr], rows.weights[va]
    if w_tr.sum() <= 0 or tr.size == 0:
        raise DataError("training split carries no weight")
    has_val = va.size > 0 and w_va.sum() > 0

    net = init_mlp(sizes, rng)
    net.biases[-1][...] = np.sum(w_tr * y_tr) / np.sum(w_tr)
    opt = AdamState.for_params(net.flat, cfg.lr)

    def val_loss() -> float:
        preds = np.empty(va.size)
        for start in range(0, va.size, VAL_CHUNK):
            out, _ = forward(net, x[va[start : start + VAL_CHUNK]])
            preds[start : start + out.shape[0]] = out[:, 0]
        return weighted_mse(preds, y_va, w_va)

    model = FnnModel(net=net, scaler=rows.scaler, cfg=cfg)
    best = math.inf
    best_params = net.flat.copy()
    stale = 0
    n = tr.size
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb, wb = x[tr[idx]], y_tr[idx], w_tr[idx]
            wsum = wb.sum()
            if wsum <= 0:
                continue
            out, cache = forward(net, xb, dropout=cfg.dropout, rng=rng)
            err = out[:, 0] - yb
            loss = float(np.sum(wb * err**2) / wsum)
            if not math.isfinite(loss):
                raise NumericFault("training loss diverged")
            upstream = (2.0 * wb * err / wsum)[:, None]
            grad, _ = backward(net, cache, upstream)
            adam_step(opt, net.flat, grad)
        model.epochs_run = epoch
        if not has_val:
            continue
        v = val_loss()
        model.history.append((epoch, v))
        if v < best - 1e-12:
            best = v
            best_params = net.flat.copy()
            stale = 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break
    if has_val:
        net.flat[...] = best_params
    net.workspaces.clear()  # the fit's buffers would outlive it
    return model


def save_fnn(model: FnnModel, directory: str) -> None:
    """Checkpoint the config, and the scaler with the network's parameters in ``model.npz``."""
    os.makedirs(directory, exist_ok=True)
    model.scaler.save(os.path.join(directory, "model.npz"), net=model.net.flat)
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"cfg": asdict(model.cfg)}, fh, indent=1)


def load_fnn(directory: str) -> FnnModel:
    """The model ``save_fnn`` wrote; a damaged file is a DataError naming it."""
    cfg = load_config_json(os.path.join(directory, "config.json"), cfg=FnnConfig)["cfg"]
    _, sizes = _layout(cfg)
    net = Mlp(sizes)
    scaler, extra = FeatureScaler.load(
        os.path.join(directory, "model.npz"), sizes[0], net=net.flat.shape
    )
    net.flat[...] = extra["net"]
    return FnnModel(net=net, scaler=scaler, cfg=cfg)


def predict_ocl_fnn(model: FnnModel, view: Dataset, at: int) -> dict[str, float]:
    """Predictions for every claim open at the valuation period.

    The rows are built and scaled together, then scored one row per forward:
    a many-row forward can differ from it in the last bits.
    """
    claims = view.open_claims(at)
    if not claims:
        return {}
    profile = model.cfg.state_profile
    z = model.scaler.transform(
        np.array([row_features(claim, at, profile) for claim in claims], dtype=np.float64)
    )
    return {
        claim.claim_no: float(model.predict_scaled(z[r : r + 1])[0])
        for r, claim in enumerate(claims)
    }
