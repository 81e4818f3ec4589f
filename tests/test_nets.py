from dataclasses import dataclass

import numpy as np
import pytest

from microreserve.errors import ConfigError
from microreserve.nets import (
    AdamState,
    FeatureScaler,
    Mlp,
    adam_step,
    backward,
    forward,
    init_mlp,
    load_mlp,
    save_mlp,
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
    grads, _ = backward(net, cache, upstream)

    worst = 0.0
    n = 0
    params = net.parameters()
    for p, g in zip(params, grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + step
            up, _ = loss_fn(forward(net, x)[0])
            flat_p[idx] = orig - step
            down, _ = loss_fn(forward(net, x)[0])
            flat_p[idx] = orig
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd) + abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
            n += 1
    return GradCheckReport(worst_rel_error=worst, n_checked=n, passed=worst < tol)


def quadratic_loss(target):
    def fn(out):
        diff = out - target
        return float(np.sum(diff**2)), 2.0 * diff

    return fn


class TestForward:
    def test_identity_layer_passes_through(self):
        net = Mlp(sizes=[3, 3], activations=["identity"])
        net.weights = [np.eye(3)]
        net.biases = [np.zeros(3)]
        x = np.array([1.0, -2.0, 0.5])
        out, _ = forward(net, x)
        assert np.allclose(out, x)

    def test_zero_weights_give_activation_of_bias(self):
        net = Mlp(sizes=[2, 2], activations=["tanh"])
        net.weights = [np.zeros((2, 2))]
        net.biases = [np.array([0.3, -0.7])]
        out, _ = forward(net, np.array([5.0, 5.0]))
        assert np.allclose(out, np.tanh([0.3, -0.7]))

    def test_matches_hand_rolled_matrix_product(self):
        # Oracle: explicit matrix arithmetic.
        rng = np.random.default_rng(0)
        net = init_mlp([2, 2, 1], ["tanh", "identity"], rng)
        x = rng.normal(size=2)
        expected = np.tanh(x @ net.weights[0] + net.biases[0]) @ net.weights[1] + net.biases[1]
        out, _ = forward(net, x)
        assert np.allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = init_mlp([3, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(ConfigError):
            forward(net, np.zeros(4))


class TestBackward:
    def test_linear_squared_loss_closed_form(self):
        # d/dW of (w.x - y)^2 is 2 (w.x - y) x.
        net = Mlp(sizes=[3, 1], activations=["identity"])
        net.weights = [np.array([[0.5], [-1.0], [2.0]])]
        net.biases = [np.array([0.1])]
        x = np.array([1.0, 2.0, 3.0])
        y = 1.5
        out, cache = forward(net, x)
        resid = out[0] - y
        grads, _ = backward(net, cache, np.array([2.0 * resid]))
        assert np.allclose(grads[0], (2.0 * resid * x)[:, None])
        assert np.allclose(grads[1], [2.0 * resid])

    def test_finite_difference_parity(self):
        rng = np.random.default_rng(7)
        net = init_mlp([4, 8, 3], ["relu", "identity"], rng)
        x = rng.normal(size=(5, 4))
        report = grad_check(net, x, quadratic_loss(rng.normal(size=(5, 3))))
        assert report.passed, report

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        net = init_mlp([3, 4, 2], ["tanh", "identity"], rng)
        out, cache = forward(net, rng.normal(size=3))
        grads, input_grad = backward(net, cache, np.zeros(2))
        assert all(np.allclose(g, 0.0) for g in grads)
        assert np.allclose(input_grad, 0.0)

    def test_missing_cache_rejected(self):
        net = init_mlp([2, 1], ["identity"], np.random.default_rng(0))
        with pytest.raises(ConfigError):
            backward(net, None, np.ones(1))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = init_mlp([3, 6, 1], ["tanh", "identity"], rng)
        x = rng.normal(size=3)
        out, cache = forward(net, x)
        _, input_grad = backward(net, cache, np.ones(1))
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (forward(net, xp)[0][0] - forward(net, xm)[0][0]) / (2 * h)
            assert input_grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = [np.array([1.0, -2.0])]
        state = AdamState.for_params(params, lr=0.1)
        adam_step(state, params, [np.zeros(2)])
        assert np.allclose(params[0], [1.0, -2.0])

    def test_single_step_scalar(self):
        # Oracle: by hand, first step moves by lr * g / (|g| + eps)
        # because the bias corrections cancel.
        params = [np.array([1.0])]
        state = AdamState.for_params(params, lr=0.1)
        adam_step(state, params, [np.array([4.0])])
        assert params[0][0] == pytest.approx(1.0 - 0.1 * 4.0 / (4.0 + state.eps * np.sqrt(1 - 0.999)), rel=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            params = [rng.normal(size=(3, 2))]
            state = AdamState.for_params(params, lr=0.01)
            for _ in range(10):
                adam_step(state, params, [np.ones((3, 2)) * 0.5])
            return params[0].copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = [np.zeros(3)]
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ConfigError):
            adam_step(state, params, [np.zeros(4)])


class TestGradCheckAcrossActivations:
    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_parity_per_activation(self, act):
        rng = np.random.default_rng(13)
        net = init_mlp([3, 5, 2], [act, "identity"], rng)
        x = rng.normal(size=(4, 3))
        report = grad_check(net, x, quadratic_loss(rng.normal(size=(4, 2))))
        assert report.passed and report.worst_rel_error < 1e-4


class TestScaler:
    def test_constant_feature_scale_is_one(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        scaler = FeatureScaler.fit(x, np.array([False, False]))
        assert scaler.scale[0] == 1.0
        z = scaler.transform(x)
        assert np.allclose(z[:, 0], 0.0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        net = init_mlp([3, 4, 2], ["relu", "identity"], rng)
        path = tmp_path / "net.json"
        save_mlp(net, str(path))
        again = load_mlp(str(path))
        x = rng.normal(size=(6, 3))
        assert np.array_equal(forward(net, x)[0], forward(again, x)[0])
