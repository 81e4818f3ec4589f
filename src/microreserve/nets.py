"""Dense neural substrate: MLP forward/backward, Adam, feature scaling.

Each network keeps all of its parameters in one contiguous float64
vector, ``Mlp.flat``, laid out w1, b1, w2, b2, ... with each weight matrix
row-major. ``weights[i]`` and ``biases[i]`` are views into it, ``backward``
returns its parameter gradient in the same layout, and Adam, Polyak
averaging and snapshots each work on the whole vector at once.

``FeatureScaler`` standardises with one copy of its input per call, and
``fit_transform`` fits and standardises that one copy, so a large training
matrix is copied once. ``FeatureScaler.save`` and ``load`` hold the one
checkpoint array layout, a ``.npz`` of shift, scale and currency followed by
any extra named arrays; the FNN and the SAC agent checkpoint through them.
Every checkpoint reader (``FeatureScaler.load``, ``load_mlp`` and
``load_config_json``) checks what it reads against the model it is for and
raises a DataError naming the file for any damage.

Everything runs in 64-bit floats with explicit numpy generators, so a
seeded run is bit-reproducible. Gradients are hand-derived; the tests
check them against central finite differences.
"""

from __future__ import annotations

import contextlib
import json
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, NumericFault, check_number

ACTIVATIONS = ("relu", "identity")


@dataclass
class Mlp:
    """Layer sizes and activations over one flat parameter vector.

    ``flat`` defaults to zeros; pass a vector of the right length to adopt
    it (no copy). ``weights`` and ``biases`` are views into ``flat``, so
    update it in place (``flat[...] = v``) rather than rebinding it.
    """

    sizes: list[int]
    activations: list[str]
    flat: np.ndarray | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    layout: list[tuple[slice, tuple[int, int], slice]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.activations) != len(self.sizes) - 1:
            raise ConfigError("one activation per layer transition required")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {a!r}")
        size = sum(i * o + o for i, o in zip(self.sizes[:-1], self.sizes[1:]))
        if self.flat is None:
            self.flat = np.zeros(size)
        elif self.flat.shape != (size,):
            raise ConfigError(f"flat parameters of shape {self.flat.shape} != ({size},)")
        # Per layer: the weight slice of the flat layout, its shape, the bias slice.
        self.layout = []
        start = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            stop = start + fan_in * fan_out
            self.layout.append((slice(start, stop), (fan_in, fan_out), slice(stop, stop + fan_out)))
            start = stop + fan_out
        self.weights, self.biases = self.views(self.flat)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def views(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``flat``."""
        weights = [vec[w].reshape(shape) for w, shape, _ in self.layout]
        biases = [vec[b] for _, _, b in self.layout]
        return weights, biases

    def copy(self) -> "Mlp":
        return Mlp(list(self.sizes), list(self.activations), self.flat.copy())


def hidden_sizes(hidden) -> tuple[int, ...]:
    """A config's hidden-layer widths as a tuple; each must be a positive int."""
    if not isinstance(hidden, (list, tuple)) or not all(
        isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden
    ):
        raise ConfigError(f"hidden must be a list of positive integers, got {hidden!r}")
    return tuple(hidden)


def init_mlp(sizes: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    """He-normal weights drawn layer by layer, zero biases."""
    net = Mlp(sizes=list(sizes), activations=list(activations))
    for w in net.weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
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

    # cache["inputs"][k] is layer k's input, so [k + 1] is its output.
    cache = {"inputs": [h], "masks": [], "squeeze": squeeze}
    for layer in range(net.n_layers):
        a = h @ net.weights[layer]
        a += net.biases[layer]
        if net.activations[layer] == "relu":
            np.maximum(a, 0.0, out=a)
        if dropout and layer < net.n_layers - 1:
            mask = (rng.uniform(size=a.shape) >= dropout) / (1.0 - dropout)
            a = a * mask
        else:
            mask = None
        cache["masks"].append(mask)
        cache["inputs"].append(a)
        h = a
    out = h[0] if squeeze else h
    if not np.isfinite(h).all():
        raise NumericFault("non-finite network output")
    return out, cache


def backward(net: Mlp, cache, upstream: np.ndarray, param_grads: bool = True):
    """Gradients of sum(upstream * output) w.r.t. parameters and input.

    Returns (grad, input_grad); grad is one vector laid out like ``net.flat``.
    Callers need one or the other: by default input_grad is None (the first
    layer's input product is skipped); ``param_grads=False`` returns grad None
    and skips the weight and bias products.

    Neither ``upstream`` nor the cache is written: the activation slopes and
    dropout masks multiply in place into a copy of ``upstream`` and then into
    the layer products, arrays this call allocates. A width-1 layer's input
    product is a broadcast multiply: each entry is the one product that the
    (n, 1) @ (1, m) matrix product forms, which numpy's matmul takes about
    half as long again to compute. Only the sign of a zero entry can differ.
    """
    if cache is None:
        raise ConfigError("backward needs the cache from forward")
    g = np.array(upstream, dtype=np.float64)
    if cache["squeeze"] and g.ndim == 1:
        g = g.reshape(1, -1)
    if param_grads:
        grad = np.empty_like(net.flat)
    for layer in reversed(range(net.n_layers)):
        if cache["masks"][layer] is not None:
            g *= cache["masks"][layer]
        if net.activations[layer] == "relu":
            # A dropped unit's g is already zero, so the masked output's sign
            # gives the same slope bits as the unmasked one.
            g *= cache["inputs"][layer + 1] > 0.0
        if param_grads:
            w_slice, shape, b_slice = net.layout[layer]
            np.matmul(cache["inputs"][layer].T, g, out=grad[w_slice].reshape(shape))
            np.sum(g, axis=0, out=grad[b_slice])
            if layer == 0:
                return grad, None
        w = net.weights[layer]
        g = g * w.T if w.shape[1] == 1 else g @ w.T
    return None, g[0] if cache["squeeze"] else g


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    # Two arrays shaped like m that adam_step computes into, so a step allocates nothing.
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """Bias-corrected Adam update applied in place; returns params.

    The operations, and their order, are those of
    ``params -= lr * m_hat / (sqrt(v_hat) + eps)``, written into the state's
    scratch arrays instead of temporaries.
    """
    if params.shape != state.m.shape or params.shape != grads.shape:
        raise ConfigError("parameter/gradient/state shapes do not line up")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    a, b = state.scratch
    m *= state.beta1
    np.multiply(1.0 - state.beta1, grads, out=a)
    m += a
    v *= state.beta2
    np.multiply(1.0 - state.beta2, grads, out=a)
    a *= grads
    v += a
    np.divide(m, 1.0 - state.beta1**t, out=a)  # m_hat
    a *= state.lr
    np.divide(v, 1.0 - state.beta2**t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    params -= a
    return params


@dataclass
class FeatureScaler:
    """Standardisation with log1p applied to currency-valued slots.

    Each call makes one copy of its input: ``_log_currency`` copies it and
    takes the currency columns' logs, and the standardisation then runs on
    that copy in place, with the operations of ``(z - shift) / scale``.
    """

    shift: np.ndarray
    scale: np.ndarray
    currency: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, currency: np.ndarray) -> "FeatureScaler":
        return cls.fit_transform(x, currency)[0]

    @classmethod
    def fit_transform(cls, x: np.ndarray, currency: np.ndarray):
        """The scaler fitted to ``x`` and its transform of ``x``, from one copy."""
        currency = np.asarray(currency, dtype=bool)
        z = _log_currency(x, currency)
        shift = z.mean(axis=0)
        scale = z.std(axis=0)
        scale[scale < 1e-12] = 1.0
        scaler = cls(shift=shift, scale=scale, currency=currency)
        return scaler, scaler._standardise(z)

    def transform(self, x: np.ndarray) -> np.ndarray:
        z = self._standardise(_log_currency(x, self.currency))
        return z[0] if np.ndim(x) == 1 else z

    def _standardise(self, z: np.ndarray) -> np.ndarray:
        z -= self.shift
        z /= self.scale
        return z

    def save(self, path: str, **extra: np.ndarray) -> None:
        """One ``.npz`` file: shift, scale and currency, then the ``extra`` arrays by name."""
        np.savez(path, shift=self.shift, scale=self.scale, currency=self.currency, **extra)

    @classmethod
    def load(cls, path: str, width: int | None = None, **extra_shapes: tuple[int, ...]):
        """The scaler ``save`` wrote to ``path``, and its extra arrays by name.

        Given the model's feature ``width``, the file must hold exactly
        shift, scale and currency of that width and the ``extra_shapes``
        arrays; currency is bool and the rest finite float64, scale positive.
        Any damage is a DataError naming the file.
        """
        with _reading(path), np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
            shapes = {"shift": (width,), "scale": (width,), "currency": (width,), **extra_shapes}
            if width is not None and not (
                {name: a.shape for name, a in arrays.items()} == shapes
                and arrays["currency"].dtype == bool
                and all(a.dtype == np.float64 and np.isfinite(a).all()
                        for name, a in arrays.items() if name != "currency")
                and (arrays["scale"] > 0).all()
            ):
                raise ValueError("its arrays do not form the model's scaler")
            scaler = cls(*(arrays.pop(name) for name in ("shift", "scale", "currency")))
        return scaler, arrays


def _log_currency(x: np.ndarray, currency: np.ndarray) -> np.ndarray:
    """A 2-D float64 copy of ``x`` with log1p(max(v, 0)) in the currency columns."""
    z = np.array(x, dtype=np.float64, ndmin=2)
    currency = np.asarray(currency, dtype=bool)
    z[:, currency] = np.log1p(np.maximum(z[:, currency], 0.0))
    return z


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


def load_mlp(path: str, like: Mlp | None = None) -> Mlp:
    """The network ``save_mlp`` wrote, whose parameters must be finite numbers.

    Given ``like``, its layer sizes and activations must be like's. Any damage
    is a DataError naming the file.
    """
    with _reading(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        layers = (payload["sizes"], payload["activations"])
        if like is not None and layers != (like.sizes, like.activations):
            raise ValueError(f"layers {layers} are not the model's")
        net = Mlp(*layers)
        saved = payload["weights"] + payload["biases"]
        views = net.weights + net.biases
        if len(saved) != len(views):
            raise ValueError(f"{len(saved)} parameter arrays for {len(views)} slots")
        for view, arr in zip(views, saved):
            arr = np.asarray(arr)
            if arr.dtype.kind not in "if" or arr.shape != view.shape:
                raise ValueError(f"parameter array of {arr.dtype} {arr.shape}, not {view.shape}")
            view[...] = arr
        if not np.isfinite(net.flat).all():
            raise ValueError("non-finite parameters")
    return net


def load_config_json(path: str, **sections) -> dict:
    """A checkpoint's ``config.json``, each named section built by its config class.

    The file holds exactly these sections, and each section exactly its
    class's fields: a missing field would load its default and score a
    different model. A section given as a kind (``"float"``) holds one
    number that ``check_number`` accepts. Any damage is a DataError naming
    the file.
    """
    with _reading(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or set(payload) != set(sections):
            raise ValueError(f"the sections are not {sorted(sections)}")
        loaded = {}
        for name, kind in sections.items():
            value = payload[name]
            if isinstance(kind, str):
                check_number(name, value, kind)
            elif isinstance(value, dict) and set(value) == {f.name for f in fields(kind)}:
                value = kind(**value)
            else:
                raise ValueError(f"section {name!r} is not exactly the fields of {kind.__name__}")
            loaded[name] = value
    return loaded


# What damaged file contents raise while a loader reads and checks them;
# ConfigError and DataError are ValueErrors, so a value the configs reject counts.
_DAMAGE = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile)


@contextlib.contextmanager
def _reading(path: str):
    """Turn any sign of damage while reading ``path`` into a DataError naming it."""
    try:
        yield
    except _DAMAGE as exc:
        raise DataError(f"bad checkpoint file {path}: {exc}") from None
