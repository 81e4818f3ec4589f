"""Dense neural substrate: MLP forward/backward, Adam, feature scaling.

Everything runs in 64-bit floats with explicit numpy generators, so a
seeded run is bit-reproducible. Gradients are hand-derived; the tests
check them against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericFault

ACTIVATIONS = ("relu", "tanh", "identity")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ConfigError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - a * a
    if name == "identity":
        return np.ones_like(z)
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Mlp:
    sizes: list[int]
    activations: list[str]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.activations) != len(self.sizes) - 1:
            raise ConfigError("one activation per layer transition required")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {a!r}")

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        net = Mlp(sizes=list(self.sizes), activations=list(self.activations))
        net.weights = [w.copy() for w in self.weights]
        net.biases = [b.copy() for b in self.biases]
        return net


def init_mlp(sizes: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    net = Mlp(sizes=list(sizes), activations=list(activations))
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        net.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        net.biases.append(np.zeros(fan_out))
    return net


def forward(
    net: Mlp,
    x: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Run the network; returns (output, cache) with cache for backward.

    Dropout (inverted scaling) applies to hidden activations only and
    requires a generator; evaluation calls leave it at zero.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    h = x.reshape(1, -1) if squeeze else x
    if h.shape[1] != net.sizes[0]:
        raise ConfigError(f"input width {h.shape[1]} != {net.sizes[0]}")
    if dropout and rng is None:
        raise ConfigError("dropout needs a generator")

    cache = {"inputs": [h], "pre": [], "post": [], "masks": [], "squeeze": squeeze}
    for layer in range(net.n_layers):
        z = h @ net.weights[layer] + net.biases[layer]
        a = _act(net.activations[layer], z)
        if dropout and layer < net.n_layers - 1:
            mask = (rng.uniform(size=a.shape) >= dropout) / (1.0 - dropout)
            a = a * mask
        else:
            mask = None
        cache["pre"].append(z)
        cache["post"].append(a)
        cache["masks"].append(mask)
        cache["inputs"].append(a)
        h = a
    out = h[0] if squeeze else h
    if not np.all(np.isfinite(h)):
        raise NumericFault("non-finite network output")
    return out, cache


def backward(net: Mlp, cache, upstream: np.ndarray):
    """Gradients of sum(upstream * output) w.r.t. parameters and input.

    Returns (grads, input_grad) where grads is [dW1, db1, dW2, db2, ...]
    matching net.parameters() order.
    """
    if cache is None:
        raise ConfigError("backward needs the cache from forward")
    g = np.asarray(upstream, dtype=np.float64)
    if cache["squeeze"] and g.ndim == 1:
        g = g.reshape(1, -1)
    grads: list[np.ndarray] = []
    for layer in reversed(range(net.n_layers)):
        if cache["masks"][layer] is not None:
            g = g * cache["masks"][layer]
        g = g * _act_grad(
            net.activations[layer], cache["pre"][layer], cache["post"][layer]
        )
        x_in = cache["inputs"][layer]
        grads.insert(0, x_in.T @ g)
        grads.insert(1, g.sum(axis=0))
        g = g @ net.weights[layer].T
    input_grad = g[0] if cache["squeeze"] else g
    return grads, input_grad


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]):
    """Bias-corrected Adam update applied in place; returns params."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ConfigError("parameter/gradient/state shapes do not line up")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ConfigError("gradient shape mismatch")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


@dataclass
class FeatureScaler:
    """Standardisation with log1p applied to currency-valued slots."""

    shift: np.ndarray
    scale: np.ndarray
    currency: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, currency: np.ndarray) -> "FeatureScaler":
        x = np.asarray(x, dtype=np.float64)
        currency = np.asarray(currency, dtype=bool)
        z = x.copy()
        z[:, currency] = np.log1p(np.maximum(z[:, currency], 0.0))
        shift = z.mean(axis=0)
        scale = z.std(axis=0)
        scale[scale < 1e-12] = 1.0
        return cls(shift=shift, scale=scale, currency=currency)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        z = (x.reshape(1, -1) if squeeze else x).copy()
        z[:, self.currency] = np.log1p(np.maximum(z[:, self.currency], 0.0))
        z = (z - self.shift) / self.scale
        return z[0] if squeeze else z


def save_mlp(net: Mlp, path: str) -> None:
    """Flat JSON layout: sizes + activations header, row-major parameters."""
    payload = {
        "sizes": net.sizes,
        "activations": net.activations,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_mlp(path: str) -> Mlp:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    net = Mlp(sizes=payload["sizes"], activations=payload["activations"])
    net.weights = [np.array(w, dtype=np.float64) for w in payload["weights"]]
    net.biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    return net
