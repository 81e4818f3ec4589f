"""Dense neural substrate: MLP forward/backward, Adam, feature scaling.

Each network keeps all of its parameters in one contiguous float64
vector, ``Mlp.flat``, laid out w1, b1, w2, b2, ... with each weight matrix
row-major. ``weights[i]`` and ``biases[i]`` are views into it, ``backward``
returns its parameter gradient in the same layout, and Adam, Polyak
averaging and snapshots each work on the whole vector at once. A caller may
hand ``Mlp`` a slice of a longer vector, so that several networks share one
Adam step.

``forward`` and ``backward`` compute into buffers that each ``Mlp`` owns, one
set per row count, and allocate nothing large once that row count is warm.
The contract: a returned output, cache or gradient stays valid until the
next call of the same kind (``forward``, or ``backward``) on the same net at
the same row count. A call at another row count, or on another net, leaves
it alone. Neither call writes its caller's arrays: ``forward`` keeps a
reference to its input in the cache, and ``backward`` reads ``upstream``.

``FeatureScaler.fit_in_place`` fits to its caller's fresh matrix and scales
that matrix in place, so a training matrix is never copied; ``transform``
standardises one copy of its input per call, at the input's own rank, so a
1-D state comes back 1-D in an array that owns its data.
``FeatureScaler.save`` and ``load`` hold the one checkpoint array layout, a
``.npz`` of shift, scale and currency followed by any extra named arrays:
the FNN and the SAC agent each keep every array of a checkpoint, their
networks' ``Mlp.flat`` vectors included, in one such file.
Both checkpoint readers (``FeatureScaler.load`` and ``load_config_json``)
check what they read against the model it is for and raise a DataError
naming the file for any damage.

Every network has one shape: ReLU hidden layers and a linear output layer.

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

from .errors import ConfigError, DataError, NumericFault

# Rows squared at a time by ``_column_sums_of_squares``.
SQUARES_BLOCK = 1024


@dataclass
class Mlp:
    """Layer sizes over one flat parameter vector; the hidden layers are ReLU.

    ``flat`` defaults to zeros; pass a vector of the right length to adopt
    it (no copy). ``weights`` and ``biases`` are views into ``flat``, so
    update it in place (``flat[...] = v``) rather than rebinding it.
    ``workspaces`` holds the buffers of ``forward`` and ``backward`` by row count.
    """

    sizes: list[int]
    flat: np.ndarray | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    layout: list[tuple[slice, tuple[int, int], slice]] = field(init=False, repr=False)
    workspaces: dict[int, "Workspace"] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        self.workspaces = {}

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def views(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``flat``."""
        weights = [vec[w].reshape(shape) for w, shape, _ in self.layout]
        biases = [vec[b] for _, _, b in self.layout]
        return weights, biases

    def workspace(self, rows: int) -> "Workspace":
        work = self.workspaces.get(rows)
        if work is None:
            work = self.workspaces[rows] = Workspace(self.sizes, rows, self.flat.size)
        return work


class Workspace:
    """The buffers of one net at one row count.

    ``cache`` is what ``forward`` returns: ``cache["inputs"][k]`` is layer
    k's input, the caller's array for k = 0 and a buffer here after that, and
    ``cache["masks"][k]`` its dropout mask or None. ``backward`` makes its
    buffers on first use, so a net that only runs forward never holds them:
    the parameter gradient, each layer's input gradient (the first one only
    when asked for), and one boolean ReLU-slope mask per hidden width.
    """

    def __init__(self, sizes: list[int], rows: int, n_params: int):
        self.rows = rows
        self.sizes = sizes
        self.n_params = n_params
        outputs = [np.empty((rows, width)) for width in sizes[1:]]
        self.cache = {"inputs": [None, *outputs], "masks": [None] * len(outputs)}
        self.grad: np.ndarray | None = None
        self.input_grads: list[np.ndarray | None] = [None] * len(outputs)
        self.slopes: dict[int, np.ndarray] = {}

    def param_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.empty(self.n_params)
        return self.grad

    def input_grad(self, layer: int) -> np.ndarray:
        """The buffer for the gradient with respect to ``layer``'s input."""
        if self.input_grads[layer] is None:
            self.input_grads[layer] = np.empty((self.rows, self.sizes[layer]))
        return self.input_grads[layer]

    def slope(self, width: int) -> np.ndarray:
        if width not in self.slopes:
            self.slopes[width] = np.empty((self.rows, width), dtype=bool)
        return self.slopes[width]


def hidden_sizes(hidden) -> tuple[int, ...]:
    """A config's hidden-layer widths as a tuple; each must be a positive int."""
    if not isinstance(hidden, (list, tuple)) or not all(
        isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden
    ):
        raise ConfigError(f"hidden must be a list of positive integers, got {hidden!r}")
    return tuple(hidden)


def init_mlp(sizes: list[int], rng: np.random.Generator) -> Mlp:
    """He-normal weights drawn layer by layer, zero biases."""
    net = Mlp(sizes=list(sizes))
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

    Every layer but the last applies ReLU. Dropout (inverted scaling)
    applies to those hidden activations only and requires a generator;
    evaluation calls leave it at zero. The input is a 2-D matrix of rows. The
    output and the cache live in the net's workspace for this row count (see
    the module docstring).
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.sizes[0]:
        raise ConfigError(f"input shape {h.shape} is not (rows, {net.sizes[0]})")
    if dropout and rng is None:
        raise ConfigError("dropout needs a generator")

    cache = net.workspace(h.shape[0]).cache
    inputs, masks = cache["inputs"], cache["masks"]
    inputs[0] = h
    last = net.n_layers - 1
    for layer in range(last + 1):
        a = np.matmul(h, net.weights[layer], out=inputs[layer + 1])
        a += net.biases[layer]
        mask = None
        if layer < last:
            np.maximum(a, 0.0, out=a)
            if dropout:
                mask = (rng.uniform(size=a.shape) >= dropout) / (1.0 - dropout)
                a *= mask
        masks[layer] = mask
        h = a
    if not np.isfinite(h).all():
        raise NumericFault("non-finite network output")
    return h, cache


def backward(
    net: Mlp,
    cache,
    upstream: np.ndarray,
    param_grads: bool = True,
    out: np.ndarray | None = None,
):
    """Gradients of sum(upstream * output) w.r.t. parameters and input.

    Returns (grad, input_grad); grad is one vector laid out like ``net.flat``,
    written into ``out`` if given and into the workspace otherwise. Callers
    need one or the other: by default input_grad is None (the first layer's
    input product is skipped); ``param_grads=False`` returns grad None and
    skips the weight and bias products.

    Neither ``upstream`` nor the cache is written: the output layer reads
    ``upstream`` as it is, and the ReLU slopes and dropout masks multiply in
    place into the layer products, which live in the workspace. A width-1
    layer's input product is an ``einsum`` outer product: the bits of the
    (n, 1) @ (1, m) matrix product, zeros included, in two thirds of its
    time, and without the two output-sized buffers that numpy allocates for
    a broadcast multiply.
    """
    if cache is None:
        raise ConfigError("backward needs the cache from forward")
    inputs, masks = cache["inputs"], cache["masks"]
    work = net.workspace(inputs[0].shape[0])
    g = np.asarray(upstream, dtype=np.float64)
    grad = (work.param_grad() if out is None else out) if param_grads else None
    last = net.n_layers - 1
    for layer in range(last, -1, -1):
        if layer < last:
            if masks[layer] is not None:
                g *= masks[layer]
            # A dropped unit's g is already zero, so the masked output's sign
            # gives the same slope bits as the unmasked one.
            post = inputs[layer + 1]
            slope = work.slope(post.shape[1])
            np.greater(post, 0.0, out=slope)
            g *= slope
        if param_grads:
            w_slice, shape, b_slice = net.layout[layer]
            np.matmul(inputs[layer].T, g, out=grad[w_slice].reshape(shape))
            np.add.reduce(g, axis=0, out=grad[b_slice])
            if layer == 0:
                return grad, None
        w = net.weights[layer]
        if w.shape[1] == 1:
            g = np.einsum("i,j->ij", g[:, 0], w[:, 0], out=work.input_grad(layer))
        else:
            g = np.matmul(g, w.T, out=work.input_grad(layer))
    return None, g


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

    ``fit_in_place`` fits to the rows of its caller's fresh float64 matrix
    and scales that matrix in place, so a fit copies nothing the size of its
    input. ``transform`` leaves its input alone: ``_log_currency`` copies it
    and takes the currency columns' logs, and the standardisation then runs
    on that copy in place, with the operations of ``(z - shift) / scale``.
    Either way a matrix comes out in the same bits.
    """

    shift: np.ndarray
    scale: np.ndarray
    currency: np.ndarray

    @classmethod
    def fit_in_place(cls, z: np.ndarray, currency: np.ndarray) -> "FeatureScaler":
        """The scaler fitted to the rows of ``z``, which it overwrites with their transform.

        Shift and scale are bit for bit the ``mean`` and ``std`` over axis 0
        of the rows with their currency columns log-scaled, and ``z`` ends
        as ``transform`` of the rows it held. The temporaries are one column
        and one block of squares (see ``_column_sums_of_squares``).
        """
        if not (z.ndim == 2 and z.dtype == np.float64 and z.flags.c_contiguous
                and z.flags.writeable):
            raise ConfigError("a scaler fits in place to a writable C-ordered 2-D float64 matrix")
        currency = np.asarray(currency, dtype=bool)
        column = np.empty(z.shape[0])
        for j in np.flatnonzero(currency):
            np.maximum(z[:, j], 0.0, out=column)
            z[:, j] = np.log1p(column, out=column)
        shift = z.mean(axis=0)
        z -= shift
        scale = np.sqrt(_column_sums_of_squares(z) / z.shape[0])
        scale[scale < 1e-12] = 1.0
        z /= scale
        return cls(shift=shift, scale=scale, currency=currency)

    def transform(self, x: np.ndarray) -> np.ndarray:
        z = _log_currency(x, self.currency)
        z -= self.shift
        z /= self.scale
        return z

    def save(self, path: str, **extra: np.ndarray) -> None:
        """One ``.npz`` file: shift, scale and currency, then the ``extra`` arrays by name."""
        np.savez(path, shift=self.shift, scale=self.scale, currency=self.currency, **extra)

    @classmethod
    def load(cls, path: str, width: int, **extra_shapes: tuple[int, ...]):
        """The scaler ``save`` wrote to ``path``, and its extra arrays by name.

        The file must hold exactly shift, scale and currency of the model's
        feature ``width`` and the ``extra_shapes`` arrays; currency is bool
        and the rest finite float64, scale positive. Any damage is a
        DataError naming the file.
        """
        with _reading(path), np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
            shapes = {"shift": (width,), "scale": (width,), "currency": (width,), **extra_shapes}
            if not (
                {name: a.shape for name, a in arrays.items()} == shapes
                and arrays["currency"].dtype == bool
                and all(a.dtype == np.float64 and np.isfinite(a).all()
                        for name, a in arrays.items() if name != "currency")
                and (arrays["scale"] > 0).all()
            ):
                raise ValueError("its arrays do not form the model's scaler")
            scaler = cls(*(arrays.pop(name) for name in ("shift", "scale", "currency")))
        return scaler, arrays


def _column_sums_of_squares(z: np.ndarray) -> np.ndarray:
    """``np.square(z).sum(axis=0)`` bit for bit, squaring ``SQUARES_BLOCK`` rows at a time.

    numpy reduces a C-ordered matrix of width 2 or more over axis 0 one row
    at a time, in row order, so each block's squares are reduced behind the
    running sums, which start at zero. A single column it sums pairwise,
    in one block.
    """
    n, d = z.shape
    if d == 1:
        return np.square(z).sum(axis=0)
    squares = np.zeros((min(n, SQUARES_BLOCK) + 1, d))  # row 0: the running sums
    for start in range(0, n, SQUARES_BLOCK):
        rows = min(SQUARES_BLOCK, n - start)
        np.square(z[start : start + rows], out=squares[1 : rows + 1])
        squares[0] = squares[: rows + 1].sum(axis=0)
    return squares[0]


def _log_currency(x: np.ndarray, currency: np.ndarray) -> np.ndarray:
    """A float64 copy of ``x`` at its own rank, with log1p(max(v, 0)) in the currency columns."""
    z = np.array(x, dtype=np.float64)
    z[..., currency] = np.log1p(np.maximum(z[..., currency], 0.0))
    return z


def load_config_json(path: str, **sections) -> dict:
    """A checkpoint's ``config.json``, each named section built by its config class.

    The file holds exactly these sections, and each section exactly its
    class's fields: a missing field would load its default and score a
    different model. Any damage is a DataError naming the file.
    """
    with _reading(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or set(payload) != set(sections):
            raise ValueError(f"the sections are not {sorted(sections)}")
        loaded = {}
        for name, kind in sections.items():
            value = payload[name]
            if not (isinstance(value, dict) and set(value) == {f.name for f in fields(kind)}):
                raise ValueError(f"section {name!r} is not exactly the fields of {kind.__name__}")
            loaded[name] = kind(**value)
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
