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
matrix then wraps without a copy.
Regression runs on the log1p scale against an MSE
weighted by the environment's settled-claim importance weight
(OCL / s)^alpha, which is zero on zero-OCL rows. Early stopping uses an
80/20 split of the training claims (split by claim, never by row). The
output bias starts at the weighted mean log1p target of the training
split, the best constant predictor under that loss; the log-scale targets
sit far from zero (about 10.7 on the default portfolio), so a zero start
spends the early epochs on the offset.

``train_fnn`` holds one scaled copy of the features: the scaler is fitted
and applied in one pass, and the unsplit matrix is dropped once the
training and validation splits are gathered.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .claims import Claim, Dataset
from .env import PREV_OCL_SLOT, currency_mask, ocl_importance_weight, state_rows
from .errors import DataError, NumericFault, check_config
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
    load_mlp,
    save_mlp,
)


@dataclass(frozen=True)
class FnnConfig:
    hidden: tuple[int, ...] = (64, 64)
    batch_size: int = 128
    dropout: float = 0.0
    lr: float = 1e-3
    alpha_w: float = 1.0
    s_scale: float | None = None  # resolved to the mean positive training OCL
    patience: int = 8
    max_epochs: int = 200
    state_profile: str = "splice_full"
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(self, batch_size="[1, inf)", dropout="[0, 1)", lr="(0, inf)",
                     alpha_w="[0, inf)", s_scale="(0, inf)", patience="[0, inf)",
                     max_epochs="[1, inf)")
        object.__setattr__(self, "hidden", hidden_sizes(self.hidden))


def row_features(claim: Claim, t: int, profile: str) -> list[float]:
    """The environment's state at n_past=0 without the previous-estimate slot."""
    return state_rows(claim, [claim.record_at(t)], t, profile, [], [])


@dataclass
class FnnRows:
    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,) true OCL in money units
    weights: np.ndarray  # (n,)
    claim_nos: list[str]
    s_scale: float


def build_training_rows(train: Dataset, cutoff: int, cfg: FnnConfig) -> FnnRows:
    """Rows from claims settled by the cutoff, one per development period."""
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
    s = cfg.s_scale
    if s is None:
        positive = targets_arr[targets_arr > 0]
        if positive.size == 0:
            raise DataError("all training targets are zero")
        s = float(positive.mean())
    weights = np.array(
        [ocl_importance_weight(True, cfg.alpha_w, s, ocl_tau=y) for y in targets]
    )
    return FnnRows(
        features=np.frombuffer(feats).reshape(len(targets), -1),
        targets=targets_arr,
        weights=weights,
        claim_nos=claim_nos,
        s_scale=s,
    )


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
    s_scale: float
    epochs_run: int = 0
    history: list[tuple[int, float]] = field(default_factory=list)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Outstanding-amount predictions, floored at zero."""
        return self.predict_scaled(self.scaler.transform(features))

    def predict_scaled(self, z: np.ndarray) -> np.ndarray:
        """``predict`` on features the model's scaler has already transformed."""
        out, _ = forward(self.net, z if z.ndim == 2 else z.reshape(1, -1))
        return np.maximum(np.expm1(np.clip(out[:, 0], None, 40.0)), 0.0)


def _layout(cfg: FnnConfig) -> tuple[np.ndarray, list[int], list[str]]:
    """The features' currency mask, and the network's layer sizes and activations."""
    mask = np.delete(currency_mask(cfg.state_profile, 0), PREV_OCL_SLOT)
    hidden = list(cfg.hidden)
    return mask, [mask.size, *hidden, 1], ["relu"] * len(hidden) + ["identity"]


def _split_by_claim(rows: FnnRows, rng: np.random.Generator):
    claim_ids = sorted(set(rows.claim_nos))
    perm = rng.permutation(len(claim_ids))
    n_val = max(1, int(round(0.2 * len(claim_ids)))) if len(claim_ids) > 1 else 0
    val_claims = {claim_ids[i] for i in perm[:n_val]}
    val_mask = np.array([cn in val_claims for cn in rows.claim_nos])
    return ~val_mask, val_mask


def train_fnn(rows: FnnRows, cfg: FnnConfig) -> FnnModel:
    """Minibatch Adam on the weighted log-scale MSE with early stopping.

    The output bias starts at the weighted mean of ``log1p(targets)`` over
    the training split, the constant that minimises the loss, so the
    epoch budget goes on the features rather than on learning the offset.
    """
    if rows.features.shape[0] < 2:
        raise DataError("too few rows to train on")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))

    mask, sizes, activations = _layout(cfg)
    scaler, x_all = FeatureScaler.fit_transform(rows.features, mask)
    y_all = np.log1p(rows.targets)
    w_all = rows.weights

    train_mask, val_mask = _split_by_claim(rows, rng)
    if w_all[train_mask].sum() <= 0 or train_mask.sum() == 0:
        raise DataError("training split carries no weight")
    x_tr, y_tr, w_tr = x_all[train_mask], y_all[train_mask], w_all[train_mask]
    has_val = val_mask.any() and w_all[val_mask].sum() > 0
    x_va, y_va, w_va = x_all[val_mask], y_all[val_mask], w_all[val_mask]
    del x_all  # the splits are copies

    net = init_mlp(sizes, activations, rng)
    net.biases[-1][...] = np.sum(w_tr * y_tr) / np.sum(w_tr)
    opt = AdamState.for_params(net.flat, cfg.lr)

    def val_loss() -> float:
        out, _ = forward(net, x_va)
        return weighted_mse(out[:, 0], y_va, w_va)

    model = FnnModel(net=net, scaler=scaler, cfg=cfg, s_scale=rows.s_scale)
    best = math.inf
    best_params = net.flat.copy()
    stale = 0
    n = x_tr.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb, wb = x_tr[idx], y_tr[idx], w_tr[idx]
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
    return model


def save_fnn(model: FnnModel, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    save_mlp(model.net, os.path.join(directory, "net.json"))
    model.scaler.save(os.path.join(directory, "scaler.npz"))
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"cfg": asdict(model.cfg), "s_scale": model.s_scale}, fh, indent=1)


def load_fnn(directory: str) -> FnnModel:
    """The model ``save_fnn`` wrote; a damaged file is a DataError naming it."""
    cfgs = load_config_json(os.path.join(directory, "config.json"), cfg=FnnConfig, s_scale="float")
    _, sizes, activations = _layout(cfgs["cfg"])
    return FnnModel(
        net=load_mlp(os.path.join(directory, "net.json"), like=Mlp(sizes, activations)),
        scaler=FeatureScaler.load(os.path.join(directory, "scaler.npz"), sizes[0])[0],
        cfg=cfgs["cfg"],
        s_scale=cfgs["s_scale"],
    )


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
