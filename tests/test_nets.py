from dataclasses import dataclass

import numpy as np
import pytest

from microreserve.errors import ConfigError, DataError
from microreserve.nets import (
    AdamState,
    FeatureScaler,
    Mlp,
    adam_step,
    backward,
    forward,
    init_mlp,
)


@dataclass
class GradCheckReport:
    worst_rel_error: float
    n_checked: int
    passed: bool


def grad_check(
    net: Mlp, x: np.ndarray, loss_fn, tol: float = 1e-4, step: float = 1e-5
) -> GradCheckReport:
    """Compare analytic parameter gradients with central differences.

    loss_fn maps the network output to (scalar_loss, dloss_doutput).
    """
    out, cache = forward(net, x)
    _, upstream = loss_fn(out)
    grad, _ = backward(net, cache, upstream)

    worst = 0.0
    for idx in range(net.flat.size):
        orig = net.flat[idx]
        net.flat[idx] = orig + step
        up, _ = loss_fn(forward(net, x)[0])
        net.flat[idx] = orig - step
        down, _ = loss_fn(forward(net, x)[0])
        net.flat[idx] = orig
        fd = (up - down) / (2.0 * step)
        denom = max(abs(fd) + abs(grad[idx]), 1e-8)
        worst = max(worst, abs(fd - grad[idx]) / denom)
    return GradCheckReport(worst_rel_error=worst, n_checked=net.flat.size, passed=worst < tol)


def quadratic_loss(target):
    def fn(out):
        diff = out - target
        return float(np.sum(diff**2)), 2.0 * diff

    return fn


class TestForward:
    def test_output_layer_is_linear(self):
        net = Mlp(sizes=[3, 3])
        net.weights[0][...] = np.eye(3)
        x = np.array([1.0, -2.0, 0.5])
        out, _ = forward(net, x[None, :])
        assert np.allclose(out[0], x)

    def test_zero_weights_give_activation_of_bias(self):
        net = Mlp(sizes=[2, 2, 2])
        net.biases[0][...] = [0.3, -0.7]
        net.weights[1][...] = np.eye(2)
        out, _ = forward(net, np.array([[5.0, 5.0]]))
        assert np.array_equal(out[0], [0.3, 0.0])

    def test_matches_hand_rolled_matrix_product(self):
        # Oracle: explicit matrix arithmetic.
        rng = np.random.default_rng(0)
        net = init_mlp([2, 2, 1], rng)
        x = rng.normal(size=2)
        hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = hidden @ net.weights[1] + net.biases[1]
        out, _ = forward(net, x[None, :])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ConfigError):
            forward(net, np.zeros(4))
        with pytest.raises(ConfigError):  # a row must come as a (1, width) matrix
            forward(net, np.zeros(3))


class TestBackward:
    def test_linear_squared_loss_closed_form(self):
        # d/dW of (w.x - y)^2 is 2 (w.x - y) x.
        net = Mlp(sizes=[3, 1])
        net.weights[0][...] = [[0.5], [-1.0], [2.0]]
        net.biases[0][...] = 0.1
        x = np.array([1.0, 2.0, 3.0])
        y = 1.5
        out, cache = forward(net, x[None, :])
        resid = out[0, 0] - y
        grad, _ = backward(net, cache, np.array([[2.0 * resid]]))
        grad_w, grad_b = net.views(grad)
        assert np.allclose(grad_w[0], (2.0 * resid * x)[:, None])
        assert np.allclose(grad_b[0], [2.0 * resid])

    def test_finite_difference_parity(self):
        rng = np.random.default_rng(7)
        net = init_mlp([4, 8, 3], rng)
        x = rng.normal(size=(5, 4))
        report = grad_check(net, x, quadratic_loss(rng.normal(size=(5, 3))))
        assert report.passed, report

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        net = init_mlp([3, 4, 2], rng)
        out, cache = forward(net, rng.normal(size=(1, 3)))
        grad, _ = backward(net, cache, np.zeros((1, 2)))
        _, input_grad = backward(net, cache, np.zeros((1, 2)), param_grads=False)
        assert np.allclose(grad, 0.0)
        assert np.allclose(input_grad, 0.0)

    def test_missing_cache_rejected(self):
        net = init_mlp([2, 1], np.random.default_rng(0))
        with pytest.raises(ConfigError):
            backward(net, None, np.ones(1))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = init_mlp([3, 6, 1], rng)
        x = rng.normal(size=3)
        # Away from the ReLU kink, a central difference sees one linear piece.
        pre = x @ net.weights[0] + net.biases[0]
        assert np.min(np.abs(pre)) > 1e-3 and np.count_nonzero(pre > 0) >= 2
        out, cache = forward(net, x[None, :])
        _, (input_grad,) = backward(net, cache, np.ones((1, 1)), param_grads=False)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (forward(net, xp[None, :])[0][0, 0] - forward(net, xm[None, :])[0][0, 0]) / (2 * h)
            assert input_grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params, lr=0.1)
        adam_step(state, params, np.zeros(2))
        assert np.allclose(params, [1.0, -2.0])

    def test_single_step_scalar(self):
        # Oracle: by hand, first step moves by lr * g / (|g| + eps)
        # because the bias corrections cancel.
        params = np.array([1.0])
        state = AdamState.for_params(params, lr=0.1)
        adam_step(state, params, np.array([4.0]))
        assert params[0] == pytest.approx(1.0 - 0.1 * 4.0 / (4.0 + state.eps * np.sqrt(1 - 0.999)), rel=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            params = rng.normal(size=6)
            state = AdamState.for_params(params, lr=0.01)
            for _ in range(10):
                adam_step(state, params, np.ones(6) * 0.5)
            return params.copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ConfigError):
            adam_step(state, params, np.zeros(4))


class TestGradCheckAcrossDepths:
    @pytest.mark.parametrize("sizes", [[3, 2], [3, 5, 2], [3, 5, 4, 2]])
    def test_parity_per_depth(self, sizes):
        rng = np.random.default_rng(13)
        net = init_mlp(sizes, rng)
        x = rng.normal(size=(4, 3))
        report = grad_check(net, x, quadratic_loss(rng.normal(size=(4, 2))))
        assert report.passed and report.worst_rel_error < 1e-4


def reference_fit(x: np.ndarray, currency: np.ndarray):
    """``np.mean`` and ``np.std`` of a log-scaled copy of ``x``, and the copy scaled by them."""
    z = np.array(x, dtype=np.float64)
    z[:, currency] = np.log1p(np.maximum(z[:, currency], 0.0))
    shift, scale = np.mean(z, axis=0), np.std(z, axis=0)
    scale[scale < 1e-12] = 1.0
    return shift, scale, (z - shift) / scale


class TestScaler:
    def test_constant_feature_scale_is_one(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        scaler = FeatureScaler.fit_in_place(x.copy(), np.array([False, False]))
        assert scaler.scale[0] == 1.0
        z = scaler.transform(x)
        assert np.allclose(z[:, 0], 0.0)

    @staticmethod
    def features(seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
        """Rows with negative, zero and large cells in the currency columns."""
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, size=(257, 6)) * np.array([1.0, 5e4, 3.0, 2e5, 1.0, 7.0])
        x[::11, 1] = 0.0
        x[5, 3] = -0.0
        return x, np.array([False, True, False, True, False, False])

    @staticmethod
    def old_transform(scaler: FeatureScaler, x: np.ndarray) -> np.ndarray:
        """The expression transform was first written as, with its temporaries."""
        squeeze = x.ndim == 1
        z = (x.reshape(1, -1) if squeeze else x).copy()
        z[:, scaler.currency] = np.log1p(np.maximum(z[:, scaler.currency], 0.0))
        z = (z - scaler.shift) / scaler.scale
        return z[0] if squeeze else z

    def assert_fit_in_place_matches(self, x: np.ndarray, currency: np.ndarray) -> FeatureScaler:
        shift, scale, want = reference_fit(x, currency)
        z = x.copy()
        scaler = FeatureScaler.fit_in_place(z, currency)
        assert scaler.shift.tobytes() == shift.tobytes()
        assert scaler.scale.tobytes() == scale.tobytes()
        assert scaler.currency.tolist() == list(currency)
        assert z.tobytes() == want.tobytes() == scaler.transform(x).tobytes()
        return scaler

    def test_fit_in_place_matches_mean_and_std_of_the_log_scaled_copy(self):
        x, currency = self.features()
        assert (x[:, currency] < 0).any()
        x[:, 4] = 2.5  # a constant column
        scaler = self.assert_fit_in_place_matches(x, currency)
        assert scaler.scale[4] == 1.0

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4095, 4096, 4097, 9000])
    @pytest.mark.parametrize("width", [2, 3, 6, 17])
    def test_fit_in_place_across_the_square_blocks(self, n, width):
        # One to nine 1,024-row blocks of squares, whole or with a partial
        # last block, and a lone row; currency columns with negative values
        # and heavy tails.
        rng = np.random.default_rng(n * 31 + width)
        x = rng.normal(0.0, 1.0, size=(n, width)) * rng.lognormal(0.0, 3.0, size=(n, width))
        currency = np.arange(width) % 2 == 1
        self.assert_fit_in_place_matches(x, currency)

    @pytest.mark.parametrize("currency", [False, True])
    def test_fit_in_place_at_width_one(self, currency):
        # numpy sums a single column pairwise, not row by row.
        rng = np.random.default_rng(8)
        x = rng.lognormal(2.0, 2.5, size=(50_000, 1)) - 3.0
        self.assert_fit_in_place_matches(x, np.array([currency]))

    def test_fit_in_place_refuses_a_matrix_it_cannot_scale(self):
        x, currency = self.features()
        x.flags.writeable = False
        for bad in (x, np.asfortranarray(x), x[0], x.astype(np.float32)):
            with pytest.raises(ConfigError):
                FeatureScaler.fit_in_place(bad, currency)

    def test_in_place_transform_equals_the_old_expression(self):
        x, currency = self.features()
        scaler = FeatureScaler.fit_in_place(x[:100].copy(), currency)
        for rows in (x, x[17], x[40:41], x[::-3]):
            want = self.old_transform(scaler, rows)
            got = scaler.transform(rows)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_save_load_round_trip_with_extra_arrays(self, tmp_path):
        x, currency = self.features()
        scaler = FeatureScaler.fit_in_place(x, currency)
        path = str(tmp_path / "scaler.npz")
        scaler.save(path, log_temp=np.array([-1.25]))
        with np.load(path) as data:
            assert data.files == ["shift", "scale", "currency", "log_temp"]
        again, extra = FeatureScaler.load(path, 6, log_temp=(1,))
        for name in ("shift", "scale", "currency"):
            got, want = getattr(again, name), getattr(scaler, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert list(extra) == ["log_temp"] and extra["log_temp"].tolist() == [-1.25]
        bare = str(tmp_path / "bare.npz")
        scaler.save(bare)
        assert FeatureScaler.load(bare, 6)[1] == {}

    def test_load_refuses_a_scaler_of_another_width(self, tmp_path):
        x, currency = self.features()
        path = str(tmp_path / "scaler.npz")
        FeatureScaler.fit_in_place(x, currency).save(path)
        for width in (5, 7):
            with pytest.raises(DataError, match="scaler.npz"):
                FeatureScaler.load(path, width)

    def test_a_row_transforms_as_row_0_of_its_matrix(self):
        x, currency = self.features()
        scaler = FeatureScaler.fit_in_place(x[:100].copy(), currency)
        for row in (x[17], x[200], x[5]):
            got = scaler.transform(row)
            want = scaler.transform(row.reshape(1, -1))[0]
            assert got.shape == row.shape and got.tobytes() == want.tobytes()
            # A 1-D result owns its data, so it keeps no (1, d) array alive.
            assert got.base is None and got.flags.c_contiguous

    def test_transform_leaves_its_input_alone(self):
        x, currency = self.features()
        before = x.copy()
        scaler = FeatureScaler.fit_in_place(x.copy(), currency)
        scaler.transform(x)
        scaler.transform(x[0])
        assert x.tobytes() == before.tobytes()


class TestPersistence:
    def test_flat_parameters_round_trip_exactly_through_the_scaler_file(self, tmp_path):
        rng = np.random.default_rng(21)
        net = init_mlp([3, 4, 2], rng)
        currency = np.array([True, False, False])
        scaler = FeatureScaler.fit_in_place(rng.normal(size=(10, 3)), currency)
        path = str(tmp_path / "model.npz")
        scaler.save(path, net=net.flat)
        loaded, extra = FeatureScaler.load(path, 3, net=net.flat.shape)
        again = Mlp([3, 4, 2])
        again.flat[...] = extra["net"]
        assert again.flat.tobytes() == net.flat.tobytes()
        x = rng.normal(size=(6, 3))
        assert forward(net, x)[0].tobytes() == forward(again, x)[0].tobytes()
        # Saving what was loaded writes the same bytes.
        loaded.save(str(tmp_path / "again.npz"), net=again.flat)
        assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "model.npz").read_bytes()


class TestFlatLayout:
    @staticmethod
    def assert_views(net):
        for arr in net.weights + net.biases:
            assert np.shares_memory(arr, net.flat)
        assert sum(a.size for a in net.weights + net.biases) == net.flat.size

    def test_views_share_flat_memory(self):
        rng = np.random.default_rng(2)
        net = init_mlp([4, 6, 2], rng)
        self.assert_views(net)
        twin = Mlp(list(net.sizes), net.flat.copy())
        self.assert_views(twin)
        opt = AdamState.for_params(net.flat, lr=0.1)
        adam_step(opt, net.flat, rng.normal(size=net.flat.size))
        self.assert_views(net)
        # A write through a view shows in flat, and the reverse.
        net.weights[1][0, 1] = 7.5
        net.flat[-1] = -2.0
        assert net.flat[4 * 6 + 6 + 1] == 7.5 and net.biases[1][-1] == -2.0

    def test_layout_is_w1_b1_w2_b2(self):
        net = init_mlp([3, 2, 1], np.random.default_rng(0))
        parts = (net.weights[0], net.biases[0], net.weights[1], net.biases[1])
        expected = np.concatenate([a.ravel() for a in parts])
        assert np.array_equal(net.flat, expected)

    def test_nets_on_the_halves_of_one_vector_share_it(self):
        # As SAC's twin critics do: one Adam step on the vector moves both nets.
        pair = np.zeros(2 * 11)
        first, second = (Mlp([3, 2, 1], half) for half in np.split(pair, 2))
        first.weights[0][...] = 1.0
        second.biases[1][...] = -4.0
        assert pair[:6].tolist() == [1.0] * 6 and pair[:11].sum() == 6.0
        assert pair[-1] == -4.0 and pair[11:].sum() == -4.0
        before = pair.copy()
        adam_step(AdamState.for_params(pair, lr=0.5), pair, np.ones_like(pair))
        assert (first.flat < before[:11]).all() and (second.flat < before[11:]).all()
        assert np.shares_memory(second.weights[0], pair)

    def test_wrong_flat_length_rejected(self):
        with pytest.raises(ConfigError):
            Mlp(sizes=[3, 2], flat=np.zeros(7))

    def test_input_only_backward_matches_a_reference_loop(self):
        rng = np.random.default_rng(17)
        net = init_mlp([4, 9, 9, 1], rng)
        for x in (rng.normal(size=(32, 4)), rng.normal(size=(1, 4))):
            out, cache = forward(net, x)
            upstream = rng.normal(size=out.shape)
            grad, none = backward(net, cache, upstream)
            assert grad is not None and none is None
            empty, only = backward(net, cache, upstream, param_grads=False)
            assert empty is None
            # Reference: the chain rule written out layer by layer, ReLU but the last.
            g = upstream
            for layer in reversed(range(net.n_layers)):
                post = cache["inputs"][layer + 1]
                slope = post > 0.0 if layer < net.n_layers - 1 else 1.0
                g = (g * slope) @ net.weights[layer].T
            assert np.array_equal(only, g)


class TestDropout:
    def test_relu_gradient_under_a_fixed_mask(self):
        # Central differences with the cached dropout mask held fixed, on
        # inputs away from the ReLU kink. Kept units with a positive input
        # must pass gradient, so the slope cannot come from dropped units.
        rng = np.random.default_rng(4)
        net = init_mlp([3, 5, 1], rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 1))
        pre = x @ net.weights[0] + net.biases[0]
        assert np.min(np.abs(pre)) > 1e-3
        out, cache = forward(net, x, dropout=0.5, rng=np.random.default_rng(1))
        (mask,) = [m for m in cache["masks"] if m is not None]
        assert 0 < np.count_nonzero(mask) < mask.size
        assert np.count_nonzero((pre > 0) & (mask > 0)) >= 5
        assert np.count_nonzero((pre > 0) & (mask == 0)) >= 1

        def loss(flat):
            w, b = net.views(flat)
            h = np.maximum(x @ w[0] + b[0], 0.0) * mask
            return float(np.sum((h @ w[1] + b[1] - target) ** 2))

        grad, _ = backward(net, cache, 2.0 * (out - target))
        step = 1e-6
        fd = np.empty_like(net.flat)
        for idx in range(net.flat.size):
            up, down = net.flat.copy(), net.flat.copy()
            up[idx] += step
            down[idx] -= step
            fd[idx] = (loss(up) - loss(down)) / (2.0 * step)
        assert np.max(np.abs(grad - fd)) < 1e-6


# -- the training step against the plain numpy one -----------------------------------


def reference_forward(net, x, dropout=0.0, rng=None):
    """forward with a fresh array for every layer product and a fresh cache."""
    h = np.asarray(x, dtype=np.float64)
    cache = {"inputs": [h], "masks": []}
    last = net.n_layers - 1
    for layer in range(last + 1):
        a = h @ net.weights[layer]
        a += net.biases[layer]
        mask = None
        if layer < last:
            np.maximum(a, 0.0, out=a)
            if dropout:
                mask = (rng.uniform(size=a.shape) >= dropout) / (1.0 - dropout)
                a = a * mask
        cache["masks"].append(mask)
        cache["inputs"].append(a)
        h = a
    return h, cache


def reference_backward(net, cache, upstream, param_grads=True):
    """backward written with fresh arrays for every product and ``@`` for every layer.

    The ReLU slope comes from each layer's output recomputed before dropout.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if param_grads:
        grad = np.empty_like(net.flat)
        grad_w, grad_b = net.views(grad)
    for layer in reversed(range(net.n_layers)):
        if cache["masks"][layer] is not None:
            g = g * cache["masks"][layer]
        if layer < net.n_layers - 1:
            unmasked = cache["inputs"][layer] @ net.weights[layer] + net.biases[layer]
            g = g * (unmasked > 0.0)
        if param_grads:
            np.matmul(cache["inputs"][layer].T, g, out=grad_w[layer])
            np.sum(g, axis=0, out=grad_b[layer])
            if layer == 0:
                return grad, None
        g = g @ net.weights[layer].T
    return None, g


def reference_adam_step(state, params, grads):
    """adam_step with a temporary array for every operation."""
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grads
    v *= state.beta2
    v += (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def cache_arrays(cache):
    return [a for key in ("inputs", "masks") for a in cache[key] if a is not None]


class TestStepOracles:
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_forward_matches_the_reference(self, dropout):
        rng = np.random.default_rng(30)
        net = init_mlp([5, 7, 6, 2], rng)
        wide = rng.normal(size=(16, 9))
        for x in (rng.normal(size=(16, 5)), wide[:, 2:7], rng.normal(size=(1, 5))):
            got, got_cache = forward(net, x, dropout=dropout, rng=np.random.default_rng(2))
            want, want_cache = reference_forward(net, x, dropout=dropout, rng=np.random.default_rng(2))
            assert same_bits(got, want)
            for a, b in zip(cache_arrays(got_cache), cache_arrays(want_cache)):
                assert same_bits(a, b)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("param_grads", [True, False])
    def test_backward_matches_the_reference(self, width, dropout, param_grads):
        rng = np.random.default_rng(31)
        net = init_mlp([5, 7, 6, width], rng)
        for x in (rng.normal(size=(16, 5)), rng.normal(size=(1, 5))):
            out, cache = forward(net, x, dropout=dropout, rng=np.random.default_rng(2))
            upstream = rng.normal(size=out.shape)
            before = [a.copy() for a in [x, upstream] + cache_arrays(cache)]
            got = backward(net, cache, upstream, param_grads=param_grads)
            want = reference_backward(net, cache, upstream, param_grads=param_grads)
            for g, w in zip(got, want):
                assert (g is None and w is None) or same_bits(g, w)
            # The caller's arrays are read only: SAC passes one upstream to two critics.
            after = [x, upstream] + cache_arrays(cache)
            assert all(same_bits(a, b) for a, b in zip(before, after))

    def test_zero_upstream_rows_match_the_reference_in_value(self):
        # Zero-weight FNN rows give zero upstream rows: every value, and the sign of
        # every zero, equals the matrix product's, which adds each product to +0.0.
        rng = np.random.default_rng(5)
        net = init_mlp([5, 8, 8, 1], rng)
        out, cache = forward(net, rng.normal(size=(32, 5)))
        upstream = rng.normal(size=out.shape)
        upstream[::3] = 0.0
        upstream[1::3] *= -0.0
        for param_grads in (True, False):
            got = backward(net, cache, upstream, param_grads=param_grads)
            want = reference_backward(net, cache, upstream, param_grads=param_grads)
            for g, w in zip(got, want):
                assert (g is None and w is None) or same_bits(g, w)

    @pytest.mark.parametrize("n", [1, 5121])  # SAC's temperature; a 13-64-64-1 FNN
    def test_adam_trajectory_matches_the_reference(self, n):
        rng = np.random.default_rng(8)
        params = rng.normal(size=n)
        ref_params = params.copy()
        state = AdamState.for_params(params, lr=3e-3)
        ref = AdamState.for_params(ref_params, lr=3e-3)
        for _ in range(50):
            grads = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=n)
            kept = grads.copy()
            adam_step(state, params, grads)
            reference_adam_step(ref, ref_params, grads)
            assert same_bits(grads, kept)
            for got, want in ((params, ref_params), (state.m, ref.m), (state.v, ref.v)):
                assert same_bits(got, want)
        assert state.step == ref.step == 50

    def test_training_steps_match_the_reference(self):
        # 50 FNN-shaped steps, forward, backward and Adam, on the two implementations.
        rng = np.random.default_rng(12)
        net = init_mlp([13, 64, 64, 1], rng)
        ref = Mlp(list(net.sizes), net.flat.copy())
        opt, ref_opt = AdamState.for_params(net.flat, 1e-3), AdamState.for_params(ref.flat, 1e-3)
        for _ in range(50):
            x = rng.normal(size=(128, 13))
            w = np.where(rng.uniform(size=128) < 0.3, 0.0, rng.uniform(size=128))
            y = rng.normal(size=128)
            for model, state, step, back in (
                (net, opt, adam_step, backward),
                (ref, ref_opt, reference_adam_step, reference_backward),
            ):
                out, cache = forward(model, x)
                upstream = (2.0 * w * (out[:, 0] - y) / w.sum())[:, None]
                grad, _ = back(model, cache, upstream)
                step(state, model.flat, grad)
            assert same_bits(net.flat, ref.flat)


class TestWorkspaces:
    """A returned output, cache or gradient stays valid until the next call of
    the same kind on the same net at the same row count."""

    @staticmethod
    def snapshot(*arrays):
        return [a.copy() for a in arrays]

    def test_a_cache_survives_other_row_counts_and_other_nets(self):
        rng = np.random.default_rng(40)
        net, other = init_mlp([4, 8, 8, 1], rng), init_mlp([4, 8, 8, 1], rng)
        x = rng.normal(size=(32, 4))
        out, cache = forward(net, x)
        kept = self.snapshot(out, *cache_arrays(cache))
        forward(net, rng.normal(size=(5, 4)))  # another row count
        forward(other, rng.normal(size=(32, 4)))  # another net
        backward(other, forward(other, x)[1], rng.normal(size=(32, 1)))
        assert all(same_bits(a, b) for a, b in zip(kept, [out, *cache_arrays(cache)]))
        upstream = rng.normal(size=(32, 1))
        want = reference_backward(net, reference_forward(net, x)[1], upstream)[0]
        assert same_bits(backward(net, cache, upstream)[0], want)

    def test_the_same_row_count_reuses_the_buffers(self):
        rng = np.random.default_rng(41)
        net = init_mlp([3, 6, 2], rng)
        out, cache = forward(net, rng.normal(size=(10, 3)))
        again, cache_again = forward(net, rng.normal(size=(10, 3)))
        assert again is out and cache_again is cache
        grad, _ = backward(net, cache, np.ones((10, 2)))
        assert backward(net, cache, np.ones((10, 2)))[0] is grad
        assert list(net.workspaces) == [10]

    def test_gradients_land_in_out_and_leave_the_caller_alone(self):
        rng = np.random.default_rng(42)
        net = init_mlp([4, 5, 5, 1], rng)
        x = rng.normal(size=(12, 4))
        out, cache = forward(net, x)
        upstream = rng.normal(size=(12, 1))
        before = self.snapshot(x, upstream, *cache_arrays(cache))
        pair = np.full(2 * net.flat.size, np.nan)
        grad, _ = backward(net, cache, upstream, out=pair[net.flat.size :])
        assert grad.base is pair and np.isnan(pair[: net.flat.size]).all()
        assert same_bits(grad, reference_backward(net, cache, upstream)[0])
        assert all(same_bits(a, b) for a, b in zip(before, [x, upstream, *cache_arrays(cache)]))
        _, input_grad = backward(net, cache, upstream, param_grads=False)
        assert same_bits(input_grad, reference_backward(net, cache, upstream, False)[1])
        assert all(same_bits(a, b) for a, b in zip(before, [x, upstream, *cache_arrays(cache)]))

    def test_a_forward_only_net_holds_no_backward_buffers(self):
        net = init_mlp([3, 4, 1], np.random.default_rng(43))
        forward(net, np.ones((7, 3)))
        work = net.workspaces[7]
        assert work.grad is None and work.slopes == {}
        assert work.input_grads == [None, None]
