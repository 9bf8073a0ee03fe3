import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import rerun_under_other_blas_kernels
from dualspace import neural_kit as nk
from oracles import (forward_cached, from_taps, grad_check, reference_train_many, to_taps,
                     weight_arrays)


def _forward_with_caches(net, inputs):
    """The forward pass of `forward_batch`, also returning the caches a
    following backward pass reads."""
    x, caches = forward_cached(net.ops, net.params, nk._as_batch(net, inputs))
    return x[:, 0], caches


def _backward(net, caches, grad):
    """The input gradient and each op's parameter gradient (None for an
    op without parameters)."""
    d_params = []
    for op, matrix in zip(reversed(net.ops), reversed(net.params)):
        grad, d = op.backward(matrix, caches.pop(), grad)
        d_params.insert(0, d)
    return grad, d_params


def test_init_is_deterministic():
    spec = nk.deep10_spec(seed=5)
    a, b = nk.init_net(spec), nk.init_net(spec)
    for wa, wb in zip(weight_arrays(a), weight_arrays(b)):
        np.testing.assert_array_equal(wa, wb)


def test_dense_shapes():
    net = nk.init_net(nk.NetSpec((nk.Dense(16, 1),), "tanh", 0, input_shape=(16,)))
    weights, bias = weight_arrays(net)
    assert weights.shape == (16, 1)
    assert bias.shape == (1,)


def test_shape_mismatch_names_layer():
    spec = nk.NetSpec((nk.Dense(16, 8), nk.Dense(4, 1)), "relu", 0, input_shape=(16,))
    with pytest.raises(ValueError, match="layer 2"):
        nk.init_net(spec)


def test_flatten_refuses_a_flat_input_by_name():
    spec = nk.NetSpec((nk.Flatten(), nk.Dense(4, 1)), "linear", 0, input_shape=(4,))
    with pytest.raises(ValueError, match=r"layer 1 \(Flatten\): expected image input"):
        nk.init_net(spec)


def test_a_net_spec_without_an_input_shape_is_refused():
    with pytest.raises(TypeError, match="input_shape"):
        nk.NetSpec((nk.Dense(4, 1),), "linear", 0)


def test_output_must_be_scalar():
    with pytest.raises(ValueError, match="scalar"):
        nk.init_net(nk.NetSpec((nk.Dense(4, 3),), "relu", 0, input_shape=(4,)))


def test_training_reduces_loss_on_linear_problem():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0])
    net = nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", 1, input_shape=(4,)))
    trained = nk.train_many([net], x, y, rounds=100, learning_rate=0.1)[0]
    assert trained.loss_curve[-1] < trained.loss_curve[0]
    assert len(trained.loss_curve) == 100


def test_zero_rounds_rejected():
    net = nk.init_net(nk.NetSpec((nk.Dense(2, 1),), "linear", 0, input_shape=(2,)))
    with pytest.raises(ValueError, match="rounds"):
        nk.train_many([net], np.zeros((3, 2)), np.zeros(3), rounds=0, learning_rate=0.1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0, 0.0])
def test_learning_rate_that_is_not_finite_and_positive_is_refused(monkeypatch, rate):
    monkeypatch.setattr(nk, "_train_stack", None)  # refused before any stack trains
    net = nk.init_net(nk.NetSpec((nk.Dense(2, 1),), "linear", 0, input_shape=(2,)))
    with pytest.raises(ValueError, match="learning_rate"):
        nk.train_many([net], np.zeros((3, 2)), np.zeros(3), rounds=5, learning_rate=rate)


def test_planted_linear_map_recovered():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 16))
    w_true = rng.standard_normal(16)
    y = x @ w_true
    net = nk.init_net(nk.NetSpec((nk.Dense(16, 1),), "linear", 2, input_shape=(16,)))
    trained = nk.train_many([net], x, y, rounds=500, learning_rate=0.4)[0]
    w_closed, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(100)]), y, rcond=None)
    got = weight_arrays(trained)[0][:, 0]
    np.testing.assert_allclose(got, w_closed[:16], atol=1e-3)
    np.testing.assert_allclose(got, w_true, atol=1e-3)


def test_zero_weights_output_bias():
    net = nk.init_net(nk.NetSpec((nk.Dense(3, 1),), "linear", 0, input_shape=(3,)))
    weights, bias = weight_arrays(net)
    weights[:] = 0.0
    bias[:] = 1.25
    assert nk.forward_batch(net, np.array([[5.0, -2.0, 3.0]]))[0] == pytest.approx(1.25)


def test_identity_dense_passthrough():
    net = nk.init_net(nk.NetSpec((nk.Dense(1, 1),), "linear", 0, input_shape=(1,)))
    weights, bias = weight_arrays(net)
    weights[:] = 1.0
    bias[:] = 0.0
    assert nk.forward_batch(net, np.array([[0.73]]))[0] == pytest.approx(0.73)


def test_forward_batch_shape_check():
    net = nk.init_net(nk.shallow_spec())  # 4 inputs
    for inputs in (np.zeros(4), np.zeros(5), np.zeros((3, 5))):  # a batch only
        with pytest.raises(ValueError, match="shape"):
            nk.forward_batch(net, inputs)


def test_dense_forward_matches_manual_oracle():
    spec = nk.NetSpec((nk.Dense(6, 4), nk.Dense(4, 1)), "tanh", 9, input_shape=(6,))
    net = nk.init_net(spec)
    w1, b1, w2, b2 = weight_arrays(net)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    manual = float((np.tanh(x @ w1 + b1) @ w2 + b2)[0])
    assert nk.forward_batch(net, x[None])[0] == pytest.approx(manual, abs=1e-12)


def test_cnn_forward_matches_loop_oracle():
    spec = nk.cnn7_spec(input_shape=(12, 12), seed=4)
    net = nk.init_net(spec)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 12))

    def conv(img, weights, bias):  # img (c, h, w), weights (o, c, kh, kw)
        o, c, kh, kw = weights.shape
        h, w = img.shape[1] - kh + 1, img.shape[2] - kw + 1
        out = np.zeros((o, h, w))
        for f in range(o):
            for i in range(h):
                for j in range(w):
                    out[f, i, j] = (img[:, i:i + kh, j:j + kw] * weights[f]).sum() + bias[f]
        return out

    def pool(img):
        c, h, w = img.shape
        out = np.zeros((c, h // 2, w // 2))
        for f in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[f, i, j] = img[f, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        return out

    arrs = weight_arrays(net)
    a = np.maximum(conv(x[None], arrs[0], arrs[1]), 0.0)
    a = pool(a)
    a = np.maximum(conv(a, arrs[2], arrs[3]), 0.0)
    a = pool(a)
    a = np.maximum(a.reshape(-1) @ arrs[4] + arrs[5], 0.0)
    manual = float((a @ arrs[6] + arrs[7])[0])
    assert nk.forward_batch(net, x[None])[0] == pytest.approx(manual, abs=1e-10)


@pytest.mark.parametrize("activation", ["tanh", "logit"])
def test_grad_check_smooth_activations(activation):
    rng = np.random.default_rng(6)
    spec = nk.NetSpec((nk.Dense(5, 7), nk.Dense(7, 1)), activation, 7, input_shape=(5,))
    net = nk.init_net(spec)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal(4)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4


def test_grad_check_relu_excluding_kinks():
    rng = np.random.default_rng(8)
    spec = nk.NetSpec((nk.Dense(5, 7), nk.Dense(7, 1)), "relu", 8, input_shape=(5,))
    net = nk.init_net(spec)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal(4)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4


def test_grad_check_small_cnn():
    spec = nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(),
                       nk.Dense(2 * 3 * 3, 1)),
                      "tanh", 9, input_shape=(8, 8))
    net = nk.init_net(spec)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 8, 8))
    y = rng.standard_normal(2)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4


def test_zero_net_zero_input_has_zero_gradients():
    net = nk.init_net(nk.NetSpec((nk.Dense(3, 1),), "linear", 0, input_shape=(3,)))
    for arr in weight_arrays(net):
        arr[:] = 0.0
    x = np.zeros((2, 3))
    out, caches = _forward_with_caches(net, x)
    np.testing.assert_array_equal(out, 0.0)
    _, [d_matrix] = _backward(net, caches, (2.0 * (out - 0.0) / 2)[:, None])
    np.testing.assert_array_equal(d_matrix, 0.0)  # the weights' rows and the bias row


def test_divergence_aborts_with_round_number():
    rng = np.random.default_rng(11)
    net = nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", 12, input_shape=(4,)))
    x = rng.standard_normal((8, 4)) * 10
    y = rng.standard_normal(8)
    with pytest.raises(nk.TrainingDivergedError, match="round"):
        nk.train_many([net], x, y, rounds=200, learning_rate=1e6)


def test_training_is_pure_and_deterministic():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((20, 4))
    y = rng.standard_normal(20)
    net = nk.init_net(nk.shallow_spec(n_inputs=4, seed=3))
    before = [arr.copy() for arr in weight_arrays(net)]
    t1 = nk.train_many([net], x, y, rounds=50, learning_rate=0.05)[0]
    t2 = nk.train_many([net], x, y, rounds=50, learning_rate=0.05)[0]
    for arr, orig in zip(weight_arrays(net), before):
        np.testing.assert_array_equal(arr, orig)  # input net untouched
    for a, b in zip(weight_arrays(t1), weight_arrays(t2)):
        np.testing.assert_array_equal(a, b)
    assert t1.loss_curve == t2.loss_curve


def test_target_scaling_scales_linear_net_predictions():
    # zero-initialized pure-linear net: gradient descent iterates are
    # linear in the targets, so scaling targets scales predictions
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    for c in (2.0, -3.0):
        nets = []
        for targets in (y, c * y):
            net = nk.init_net(nk.NetSpec((nk.Dense(5, 1),), "linear", 1, input_shape=(5,)))
            for arr in weight_arrays(net):
                arr[:] = 0.0
            nets.append(nk.train_many([net], x, targets, rounds=120, learning_rate=0.05)[0])
        base = nk.forward_batch(nets[0], x)
        scaled = nk.forward_batch(nets[1], x)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-12)


def test_default_architectures_compose():
    assert len(nk.deep10_spec().layers) == 10
    assert len(nk.cnn7_spec().layers) == 7
    for spec in (nk.deep10_spec(), nk.cnn7_spec(), nk.shallow_spec()):
        nk.init_net(spec)  # shape walk succeeds


# ── stacked training ───────────────────────────────────────────────────

def _small_cnn_spec(seed, activation="relu"):
    return nk.NetSpec((nk.Conv2D((3, 3), 3), nk.Pool((2, 2)), nk.Conv2D((2, 2), 4),
                       nk.Flatten(), nk.Dense(4 * 2 * 2, 5), nk.Dense(5, 1)),
                      activation, seed, input_shape=(9, 9))


def _assert_same_nets(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_allclose(a.loss_curve, b.loss_curve, rtol=0, atol=1e-12)
        for wa, wb in zip(weight_arrays(a), weight_arrays(b)):
            assert wa.shape == wb.shape
            np.testing.assert_allclose(wa, wb, rtol=0, atol=1e-12)


@pytest.mark.parametrize("make_spec, sample_shape", [
    (lambda seed: nk.shallow_spec(n_inputs=4, seed=seed), (4,)),
    (lambda seed: nk.deep10_spec(n_inputs=6, seed=seed), (6,)),
    (_small_cnn_spec, (9, 9)),
])
def test_train_many_matches_separate_training(make_spec, sample_shape):
    rng = np.random.default_rng(30)
    nets = [nk.init_net(make_spec(seed)) for seed in (1, 2, 3)]
    x = rng.standard_normal((3, 12) + sample_shape)
    y = rng.standard_normal((3, 12))
    stacked = nk.train_many(nets, x, y, rounds=25, learning_rate=0.05)
    _assert_same_nets(stacked, [nk.train_many([net], xi, yi, rounds=25,
                                              learning_rate=0.05)[0]
                                for net, xi, yi in zip(nets, x, y)])


@pytest.mark.parametrize("spec", [nk.shallow_spec(n_inputs=4, seed=4), _small_cnn_spec(4)])
def test_train_many_shared_inputs_equal_repeated_per_net_inputs(spec):
    rng = np.random.default_rng(31)
    shape = spec.input_shape
    x = rng.standard_normal((10,) + shape)
    y = rng.standard_normal(10)
    nets = [nk.init_net(spec)] * 2
    shared = nk.train_many(nets, x, y, rounds=20, learning_rate=0.05)
    repeated = nk.train_many(nets, np.stack([x, x]), np.stack([y, y]),
                             rounds=20, learning_rate=0.05)
    _assert_same_nets(shared, repeated)
    assert shared[0].loss_curve == shared[1].loss_curve


def test_train_many_diverging_member_raises_with_round():
    rng = np.random.default_rng(32)
    nets = [nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", seed, input_shape=(4,))) for seed in (1, 2)]
    x = rng.standard_normal((2, 8, 4))
    x[1] *= 1e3  # only the second net's inputs make its steps blow up
    y = rng.standard_normal((2, 8))
    with pytest.raises(nk.TrainingDivergedError, match=r"non-finite loss at round \d+"):
        nk.train_many(nets, x, y, rounds=200, learning_rate=0.5)
    nk.train_many(nets[:1], x[0], y[0], rounds=200, learning_rate=0.5)  # alone it converges


def test_train_many_rejects_mixed_architectures_and_misaligned_batches():
    a = nk.init_net(nk.shallow_spec(n_inputs=4, seed=1))
    b = nk.init_net(replace(a.spec, activation="relu"))
    x, y = np.zeros((5, 4)), np.zeros(5)
    with pytest.raises(ValueError, match="architecture"):
        nk.train_many([a, b], x, y, rounds=1, learning_rate=0.1)
    with pytest.raises(ValueError, match="batches"):
        nk.train_many([a, a], np.zeros((3, 5, 4)), y, rounds=1, learning_rate=0.1)
    with pytest.raises(ValueError, match="aligned"):
        nk.train_many([a, a], x, np.zeros((3, 5)), rounds=1, learning_rate=0.1)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_grad_check_two_conv_cnn(activation):
    # the second convolution passes its gradient back through the first
    net = nk.init_net(_small_cnn_spec(11, activation))
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 9, 9))
    y = rng.standard_normal(3)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4


def test_pool_gradient_goes_to_first_max_on_ties():
    net = nk.init_net(nk.NetSpec((nk.Conv2D((1, 1), 1), nk.Pool((2, 2)), nk.Flatten(),
                                  nk.Dense(1, 1)), "linear", 0, input_shape=(2, 2)))
    conv_weights, _, _, _ = weight_arrays(net)
    conv_weights[:] = 1.0
    _, caches = _forward_with_caches(net, np.array([[[0.5, 2.0], [2.0, 2.0]]]))
    switches, _ = caches[2]
    assert switches.ravel().tolist() == [1]
    grad, d_params = net.ops[2].backward(None, caches[2], np.ones((1, 1, 1, 1)))
    assert grad.reshape(2, 2).tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert d_params is None


def _pool_by_taps(x, grad):
    """A pool's max, switches and input gradient, one tap at a time."""
    dx = np.zeros(x.shape)
    taps, d_taps = list(np.moveaxis(x, -5, 0)), list(np.moveaxis(dx, -5, 0))
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    switches = np.full(out.shape, len(taps) - 1)
    for k in reversed(range(len(taps) - 1)):
        switches[taps[k] == out] = k
    for k, d_tap in enumerate(d_taps):
        d_tap[...] = grad * (switches == k)
    return out, switches, dx


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("size", [(2, 2), (3, 2)])
def test_a_pool_equals_its_per_tap_loop_bit_for_bit(size):
    """Windows of signed zeros, ties and all-negative taps, with a model
    axis, on a whole number of windows, as `_as_batch` crops every pool
    input.  Bits are compared, so that -0.0 and 0.0 differ."""
    ph, pw = size
    n, oh, ow, c = 3, 4, 3, 2
    rng = np.random.default_rng(60)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0])
    windows = rng.choice(values, (2, n, oh, ph, ow, pw, c))
    windows[0, 0, 0, :, 0, :, 0] = -0.0
    windows[0, 0, 0, 0, 0, -1, 0] = 0.0  # +0 after and before -0 taps
    windows[0, 0, 1, :, 0, :, 0] = 0.0
    windows[0, 0, 1, -1, 0, 0, 0] = -0.0
    windows[0, 0, 2, :, 0, :, 0] = -rng.uniform(0.5, 2.0, (ph, pw))  # all negative
    windows[0, 0, 3, :, 0, :, 0] = 1.0  # every tap holds the max
    x = np.moveaxis(windows, (3, 5), (1, 2)).reshape((2, ph * pw, n, oh, ow, c))  # tap order
    grad = rng.standard_normal((2, n, oh, ow, c))  # both signs: grad * 0.0 is ±0.0
    pool = nk.Pool(size)
    out, (switches, in_shape) = pool.forward(None, x.copy())
    dx, d_matrix = pool.backward(None, (switches, in_shape), grad)
    plain_out, plain_switches, plain_dx = _pool_by_taps(x, grad)
    np.testing.assert_array_equal(_bits(out), _bits(plain_out))
    np.testing.assert_array_equal(switches, plain_switches)
    np.testing.assert_array_equal(_bits(dx), _bits(plain_dx))
    assert d_matrix is None and in_shape == x.shape
    assert np.signbit(out[0, 0, 0, 0]).any() or np.signbit(out[0, 0, 1, 0]).any()


# ── round-invariant work ───────────────────────────────────────────────

_ORACLE_SPECS = {
    "cnn7": (lambda seed, act: nk.cnn7_spec(activation=act, seed=seed), (21, 16)),
    "deep10": (lambda seed, act: replace(nk.deep10_spec(n_inputs=6, seed=seed), activation=act),
               (6,)),
    "shallow": (lambda seed, act: replace(nk.shallow_spec(n_inputs=4, seed=seed), activation=act),
                (4,)),
    "small_cnn": (lambda seed, act: _small_cnn_spec(seed, act), (9, 9)),
}


@pytest.mark.parametrize("per_net", [False, True], ids=["shared", "per_net"])
@pytest.mark.parametrize("activation", nk.ACTIVATIONS)
@pytest.mark.parametrize("arch", sorted(_ORACLE_SPECS))
def test_training_equals_plain_reference_loop_exactly(arch, activation, per_net):
    _assert_training_equals_the_plain_loop(arch, activation, per_net, n=5)


# On 5 samples a sequential column sum and a product with a ones column
# round alike; from 16 on they differ (deep10 and shallow), so only a
# longer batch tells whether the bias gradient is summed as the oracle sums it.
@pytest.mark.parametrize("per_net", [False, True], ids=["shared", "per_net"])
@pytest.mark.parametrize("activation", nk.ACTIVATIONS)
@pytest.mark.parametrize("arch", ["deep10", "shallow"])
def test_dense_training_on_a_long_batch_equals_the_plain_loop_exactly(arch, activation,
                                                                      per_net):
    _assert_training_equals_the_plain_loop(arch, activation, per_net, n=24)


def _assert_training_equals_the_plain_loop(arch, activation, per_net, n):
    make_spec, sample_shape = _ORACLE_SPECS[arch]
    rng = np.random.default_rng(40)
    nets = [nk.init_net(make_spec(seed, activation)) for seed in (1, 2)]
    lead = (2, n) if per_net else (n,)
    x = rng.standard_normal(lead + sample_shape)
    y = rng.standard_normal(lead)
    _assert_equal_to_the_plain_loop(nets, x, y, per_net)


def _assert_equal_to_the_plain_loop(nets, x, y, per_net):
    """Two nets trained together, and the first alone, equal the plain
    loop bit for bit."""
    runs = [(nk.train_many(nets, x, y, rounds=6, learning_rate=0.05),
             reference_train_many(nets, x, y, rounds=6, learning_rate=0.05))]
    x1, y1 = (x[0], y[0]) if per_net else (x, y)
    runs.append((nk.train_many(nets[:1], x1, y1, rounds=6, learning_rate=0.05),
                 reference_train_many(nets[:1], x1, y1, rounds=6, learning_rate=0.05)))
    for got, expected in runs:
        assert len(got) == len(expected)
        for net, (weights, curve) in zip(got, expected):
            np.testing.assert_allclose(net.loss_curve, curve, rtol=0, atol=0)
            for wa, wb in zip(weight_arrays(net), weights, strict=True):
                np.testing.assert_allclose(wa, wb, rtol=0, atol=0)


@pytest.mark.parametrize("activation", nk.ACTIVATIONS)
def test_a_relu_follows_the_pool_that_reads_its_layer(activation):
    def placed(spec):
        return [op.kind if isinstance(op, nk._ActivationOp) else type(op).__name__
                for op in nk.init_net(spec).ops]

    a = activation
    if activation == "relu":  # after the pool, on a quarter of the values
        cnn7 = ["Conv2D", "Pool", a, "Conv2D", "Pool", a, "Flatten", "Dense", a, "Dense"]
        small = ["Conv2D", "Pool", a, "Conv2D", a, "Flatten", "Dense", a, "Dense"]
    else:  # tanh, logit and linear stay on the convolution's output
        cnn7 = ["Conv2D", a, "Pool", "Conv2D", a, "Pool", "Flatten", "Dense", a, "Dense"]
        small = ["Conv2D", a, "Pool", "Conv2D", a, "Flatten", "Dense", a, "Dense"]
    assert placed(nk.cnn7_spec(activation=activation)) == cnn7
    assert placed(_small_cnn_spec(0, activation)) == small
    assert placed(nk.deep10_spec()) == ["Dense", "relu"] * 9 + ["Dense"]


def _tied_windows_net(seed):
    """Two 1x1 convolutions, each read by a 2x2 pool, whose first maps
    start as the input x and -x, and whose second maps start as the
    first map a and -a, so that the pools see the input's ties."""
    net = nk.init_net(nk.NetSpec((nk.Conv2D((1, 1), 2), nk.Pool((2, 2)), nk.Conv2D((1, 1), 2),
                                  nk.Pool((2, 2)), nk.Flatten(), nk.Dense(2 * 2 * 2, 1)),
                                 "relu", seed, input_shape=(8, 8)))
    w1, b1, w2, b2, _, _ = weight_arrays(net)
    w1[:, 0, 0, 0] = (1.0, -1.0)
    w2[:] = 0.0
    w2[:, 0, 0, 0] = (1.0, -1.0)
    b1[:] = b2[:] = 0.0
    return net


@pytest.mark.parametrize("per_net", [False, True], ids=["shared", "per_net"])
def test_a_relu_after_the_pool_trains_as_before_it_on_tied_windows(per_net):
    """The plain loop runs the ReLU before each pool.  The images hold
    pool windows whose four taps are all negative (or, in the second
    pool, all zero after the first ReLU) and windows whose max two taps
    share; all of them occur in both maps of each convolution."""
    rng = np.random.default_rng(54)
    x = rng.uniform(0.1, 1.0, (4, 8, 8)) * rng.choice([-1.0, 1.0], (4, 8, 8))
    x[0, 0:2, 0:2] = [[-1.5, -0.25], [-0.75, -2.0]]  # all four taps negative
    x[0, 0:2, 2:4] = [[0.5, 1.25], [1.25, -0.5]]  # taps 1 and 2 tie at the max
    x[0, 2:4, 0:2] = [[1.25, 0.25], [0.5, 1.25]]  # taps 0 and 3; and 1.25 ties again
    x[1, 0:4, 0:4] = -rng.uniform(0.1, 1.0, (4, 4))  # four windows of zeros after the ReLU
    x[2, 4:6, 4:6] = [[0.5, 0.9], [0.9, 0.2]]  # all positive: all negative in -x
    y = rng.standard_normal(4)
    if per_net:
        x, y = np.stack([x, x[::-1]]), np.stack([y, -y])
    _assert_equal_to_the_plain_loop([_tied_windows_net(seed) for seed in (1, 2)], x, y,
                                    per_net)


def test_exact_training_does_not_follow_the_blas_kernel():
    """Training still equals the plain loop bit for bit under other BLAS
    kernels: both reduce over the same cropped images with the same
    products, and no stack size changes a net."""
    study = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_residual_study.py")
    rerun_under_other_blas_kernels(
        f"{__file__}::test_training_equals_plain_reference_loop_exactly",
        f"{__file__}::test_dense_training_on_a_long_batch_equals_the_plain_loop_exactly",
        f"{__file__}::test_per_net_inputs_give_the_same_nets_in_any_stacks",
        f"{__file__}::test_a_relu_after_the_pool_trains_as_before_it_on_tied_windows",
        f"{__file__}::test_trained_nets_own_their_arrays",
        f"{__file__}::test_a_round_trains_on_one_parameter_vector_and_one_gradient",
        f"{study}::test_cnn_backcast_equals_the_plain_loop_on_the_read_crop",
        f"{study}::test_stack_size_never_changes_a_report")


def _ops_of(net, kind):
    return [op for op in net.ops if isinstance(op, kind)]


def test_a_first_convolution_read_by_a_pool_writes_its_rows_in_tap_order():
    """So does every convolution a pool reads: cnn7's second one too,
    which turns its tap-ordered gradient back into image order for its
    input gradient."""
    net = nk.init_net(nk.cnn7_spec(seed=3))
    (conv, second_conv), (pool, _) = _ops_of(net, nk.Conv2D), _ops_of(net, nk.Pool)
    assert conv.pool == second_conv.pool == (2, 2)
    assert (conv, pool) == net.spec.layers[:2]  # placement takes no part in equality
    rng = np.random.default_rng(49)
    x = nk._as_batch(net, rng.standard_normal((3, 21, 16)))
    plain_conv = nk.Conv2D(conv.kernel, conv.channels, input_grad=False)
    cols, plain_cols = conv.columns(x), plain_conv.columns(x)
    np.testing.assert_array_equal(from_taps(cols, (3, 16, 12), (2, 2)), plain_cols)
    out = conv.forward(net.params[0], x, cols)[0]
    plain_out = plain_conv.forward(net.params[0], x, plain_cols)[0]
    assert out.shape == (4, 3, 8, 6, 8)
    np.testing.assert_allclose(from_taps(out.reshape(-1, 8), (3, 16, 12), (2, 2)),
                               plain_out.reshape(-1, 8), rtol=1e-14, atol=0)

    matrix = net.params[net.ops.index(second_conv)]
    plain_second = nk.Conv2D(second_conv.kernel, second_conv.channels)
    y = rng.standard_normal((3, 8, 6, 8))
    _, cache = second_conv.forward(matrix, y)
    _, plain_cache = plain_second.forward(matrix, y)
    grad = rng.standard_normal((3, 6, 4, 16))
    tap_grad = to_taps(grad.reshape(-1, 16), (3, 6, 4), (2, 2)).reshape(4, 3, 3, 2, 16)
    dx, d_matrix = second_conv.backward(matrix, cache, tap_grad)
    plain_dx, plain_d_matrix = plain_second.backward(matrix, plain_cache, grad)
    np.testing.assert_array_equal(dx, plain_dx)
    np.testing.assert_allclose(d_matrix, plain_d_matrix, rtol=1e-13, atol=1e-15)


def test_a_pool_that_reads_no_convolution_is_refused():
    for layers in [(nk.Pool((2, 2)), nk.Flatten(), nk.Dense(4, 1)),
                   (nk.Conv2D((1, 1), 1), nk.Pool((2, 2)), nk.Pool((2, 2)), nk.Flatten(),
                    nk.Dense(1, 1))]:
        with pytest.raises(ValueError, match="reads no convolution"):
            nk.NetSpec(layers, "relu", 0, input_shape=(4, 4))


def test_first_layer_columns_built_once_per_stack(monkeypatch):
    builds = {False: 0, True: 0}  # keyed by the op's input_grad: False = first layer
    columns = nk.Conv2D.columns

    def counting(op, x, out=None):
        builds[op.input_grad] += 1
        return columns(op, x, out)

    monkeypatch.setattr(nk.Conv2D, "columns", counting)
    rng = np.random.default_rng(41)
    nets = [nk.init_net(_small_cnn_spec(seed)) for seed in (1, 2, 3)]
    x = rng.standard_normal((6, 9, 9))
    nk.train_many(nets, x, rng.standard_normal(6), rounds=7, learning_rate=0.05)
    assert builds == {False: 1, True: 7}
    nk.train_many(nets[:1], x, rng.standard_normal(6), rounds=4, learning_rate=0.05)
    assert builds == {False: 2, True: 11}
    monkeypatch.setattr(nk, "STACK_BYTES", 1)  # one net per stack
    nk.train_many(nets, x, rng.standard_normal(6), rounds=7, learning_rate=0.05)
    assert builds == {False: 5, True: 32}


def test_input_changed_in_place_gives_the_fresh_answer():
    rng = np.random.default_rng(43)
    spec = _small_cnn_spec(5)
    net = nk.init_net(spec)
    x = rng.standard_normal((4, 9, 9))
    y = rng.standard_normal(4)
    before = nk.forward_batch(net, x)
    trained_before = nk.train_many([net], x, y, rounds=3, learning_rate=0.05)[0]
    x *= -2.0  # same array object, new values
    after = nk.forward_batch(net, x)
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, nk.forward_batch(nk.init_net(spec), x.copy()))
    trained_after = nk.train_many([net], x, y, rounds=3, learning_rate=0.05)[0]
    assert trained_after.loss_curve != trained_before.loss_curve
    (fresh,) = nk.train_many([nk.init_net(spec)], x.copy(), y, rounds=3, learning_rate=0.05)
    assert trained_after.loss_curve == fresh.loss_curve


# deep10's deepest weight gradients fall to ~1e-9, where a central
# difference's rounding noise (~1e-16 * loss / epsilon, about 1e-11) is
# ~1e-2 of the gradient; grad_check discounts that noise, so deep10 is
# held to the bound of the other nets.  A wrong gradient errs by order 1.
@pytest.mark.parametrize("spec", [nk.deep10_spec(n_inputs=4, seed=6),
                                  nk.shallow_spec(n_inputs=4, seed=6)],
                         ids=["deep10", "shallow"])
def test_grad_check_with_first_dense_returning_no_input_gradient(spec):
    rng = np.random.default_rng(44)
    net = nk.init_net(spec)
    x = rng.standard_normal((5, 4))
    y = rng.standard_normal(5)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4
    out, caches = _forward_with_caches(net, x)
    grad, d_params = _backward(net, caches, (2.0 * (out - y) / y.size)[:, None])
    assert grad is None
    assert d_params[0].shape == net.params[0].shape


def test_grad_check_reports_a_wrong_gradient(monkeypatch):
    backward = nk.Dense.backward

    def halved(op, matrix, x, grad):
        dx, d_matrix = backward(op, matrix, x, grad)
        d_matrix[..., :-1, :] *= 0.5  # the weights' rows; the bias row is kept
        return dx, d_matrix

    monkeypatch.setattr(nk.Dense, "backward", halved)
    rng = np.random.default_rng(44)
    net = nk.init_net(nk.deep10_spec(n_inputs=4, seed=6))
    assert grad_check(net, rng.standard_normal((5, 4)), rng.standard_normal(5),
                      epsilon=1e-5) > 0.4


def test_conv_columns_refill_a_given_buffer():
    net = nk.init_net(nk.cnn7_spec(seed=3))
    op = net.ops[0]
    x = nk._as_batch(net, np.random.default_rng(46).standard_normal((2, 21, 16)))
    first = op.columns(x)
    again = op.columns(2.0 * x, first)
    assert again is first
    np.testing.assert_array_equal(again, op.columns(2.0 * x))


def _held_arrays(net):
    return {(type(op).__name__, name) for op in net.ops
            for name, value in vars(op).items() if isinstance(value, np.ndarray)}


def test_forward_batch_leaves_no_batch_cache_on_the_ops():
    net = nk.init_net(nk.cnn7_spec(seed=3))
    images = np.random.default_rng(45).standard_normal((5, 21, 16))
    assert not _held_arrays(net)
    nk.forward_batch(net, images)
    nk.forward_batch(net, images[:1])
    assert not _held_arrays(net)


def test_trained_nets_hold_only_their_parameters():
    rng = np.random.default_rng(42)
    nets = [nk.init_net(_small_cnn_spec(seed)) for seed in (1, 2)]
    images = rng.standard_normal((4, 9, 9))
    trained = nk.train_many(nets, images, rng.standard_normal(4), rounds=3,
                            learning_rate=0.05)
    assert not any(_held_arrays(net) for net in nets + trained)
    for net, start in zip(trained, nets, strict=True):
        assert [None if p is None else p.shape for p in net.params] == \
               [None if p is None else p.shape for p in start.params]
    grad_check(trained[0], images[:2], rng.standard_normal(2))
    assert not _held_arrays(trained[0])


def test_trained_nets_own_their_arrays(monkeypatch):
    """A stack trains on one flat parameter vector; every net that
    `train_many` returns holds copies, never views of it."""
    rng = np.random.default_rng(61)
    for make_spec, x in [(_small_cnn_spec, rng.standard_normal((4, 9, 9))),
                         (lambda seed: nk.deep10_spec(n_inputs=6, seed=seed),
                          rng.standard_normal((4, 6)))]:
        nets = [nk.init_net(make_spec(seed)) for seed in (1, 2, 3)]
        for budget in (1, 1 << 62):  # one net per stack, and one stack
            monkeypatch.setattr(nk, "STACK_BYTES", budget)
            trained = nk.train_many(nets, x, rng.standard_normal(4), rounds=2,
                                    learning_rate=0.05)
            for net in trained:
                assert all(p.base is None for p in net.params if p is not None)


def test_a_round_trains_on_one_parameter_vector_and_one_gradient(monkeypatch):
    """Each weighted layer's stacked [W; b] and its gradient are views of
    one flat array each, laid back to back."""
    seen = []  # (matrix, d_matrix) per weighted backward
    for kind in (nk.Dense, nk.Conv2D):
        def recording(op, matrix, cache, grad, d_matrix=None, backward=kind.backward):
            seen.append((matrix, d_matrix))
            return backward(op, matrix, cache, grad, d_matrix)
        monkeypatch.setattr(kind, "backward", recording)
    rng = np.random.default_rng(62)
    nets = [nk.init_net(_small_cnn_spec(seed)) for seed in (1, 2)]
    nk.train_many(nets, rng.standard_normal((4, 9, 9)), rng.standard_normal(4), rounds=1,
                  learning_rate=0.05)
    assert len(seen) == 4  # two convolutions and two dense layers, once each
    for arrays in zip(*seen[::-1]):  # in layer order: the matrices, then their gradients
        flat = arrays[0].base
        assert flat.ndim == 1 and flat.size == sum(a.size for a in arrays)
        assert all(a.base is flat and a.flags.c_contiguous for a in arrays)
        offsets = [a.ctypes.data - flat.ctypes.data for a in arrays]
        assert offsets == np.cumsum([0] + [a.nbytes for a in arrays[:-1]]).tolist()


def test_a_train_many_call_refills_one_column_buffer(monkeypatch):
    later_columns = []  # a later convolution's column matrix, round by round
    columns = nk.Conv2D.columns

    def recording(op, x, out=None):
        cols = columns(op, x, out)
        if op.input_grad:
            later_columns.append(cols)
        return cols

    monkeypatch.setattr(nk.Conv2D, "columns", recording)
    rng = np.random.default_rng(45)
    nets = [nk.init_net(_small_cnn_spec(seed, "relu")) for seed in (1, 2)]
    nk.train_many(nets, rng.standard_normal((4, 9, 9)), rng.standard_normal(4),
                  rounds=3, learning_rate=0.05)
    assert len(later_columns) == 3
    assert all(np.shares_memory(later_columns[0], cols) for cols in later_columns[1:])


# ── stacks under the memory budget ─────────────────────────────────────

def _assert_identical_nets(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.loss_curve == b.loss_curve
        for wa, wb in zip(weight_arrays(a), weight_arrays(b), strict=True):
            np.testing.assert_array_equal(wa, wb)


@pytest.mark.parametrize("arch", ["small_cnn", "shallow"])
def test_per_net_inputs_give_the_same_nets_in_any_stacks(monkeypatch, arch):
    make_spec, sample_shape = _ORACLE_SPECS[arch]
    rng = np.random.default_rng(47)
    nets = [nk.init_net(make_spec(seed, "tanh")) for seed in range(5)]
    x = rng.standard_normal((5, 6) + sample_shape)
    y = rng.standard_normal((5, 6))
    default = nk.train_many(nets, x, y, rounds=4, learning_rate=0.05)
    _assert_identical_nets(default, nk.train_many(nets[:2], x[:2], y[:2], rounds=4,
                                                  learning_rate=0.05)
                           + nk.train_many(nets[2:], x[2:], y[2:], rounds=4,
                                           learning_rate=0.05))
    for budget in (1, 1 << 62):  # one net per stack, and one stack
        monkeypatch.setattr(nk, "STACK_BYTES", budget)
        _assert_identical_nets(nk.train_many(nets, x, y, rounds=4, learning_rate=0.05),
                               default)


def test_stack_size_follows_the_budget():
    spec = nk.cnn7_spec(seed=1)
    # the second convolution's column matrix on the cropped images:
    # 23 images x 6 x 4 pixels x 73 columns
    assert nk._round_bytes(spec, 23, per_net=False) == 8 * 23 * 24 * 73
    assert nk.STACK_BYTES // nk._round_bytes(spec, 23, per_net=False) == 3
    assert nk.STACK_BYTES // nk._round_bytes(nk.deep10_spec(seed=1), 460, False) >= 3


# ── the read extent ────────────────────────────────────────────────────

def test_read_shape_walks_back_from_the_flatten():
    assert nk._read_shape(nk.cnn7_spec()) == (18, 14)
    assert nk._read_shape(_small_cnn_spec(0)) == (8, 8)
    even = nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(),
                       nk.Dense(2 * 4 * 4, 1)), "relu", 0, input_shape=(10, 10))
    assert nk._read_shape(even) == (10, 10)
    channels = nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(),
                           nk.Dense(2 * 3 * 3, 1)), "relu", 0, input_shape=(2, 9, 9))
    assert nk._read_shape(channels) == (2, 8, 8)
    dense = nk.deep10_spec(n_inputs=6)
    assert nk._read_shape(dense) == (6,)
    x = np.random.default_rng(51).standard_normal((3, 6))
    np.testing.assert_array_equal(nk._as_batch(nk.init_net(dense), x), x)


@pytest.mark.parametrize("spec", [
    nk.cnn7_spec(), nk.cnn7_spec(input_shape=(12, 12)), nk.cnn7_spec(input_shape=(21, 15)),
    _small_cnn_spec(0), _tied_windows_net(0).spec,
    nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(), nk.Dense(2 * 3 * 3, 1)),
               "tanh", 9, input_shape=(8, 8)),
    nk.NetSpec((nk.Conv2D((1, 1), 1), nk.Pool((2, 2)), nk.Flatten(), nk.Dense(1, 1)),
               "linear", 0, input_shape=(2, 2)),
    nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(), nk.Dense(2 * 4 * 4, 1)),
               "relu", 0, input_shape=(10, 10)),
    nk.NetSpec((nk.Conv2D((3, 3), 2), nk.Pool((2, 2)), nk.Flatten(), nk.Dense(2 * 3 * 3, 1)),
               "relu", 0, input_shape=(2, 9, 9)),
], ids=["cnn7", "cnn7-12x12", "cnn7-21x15", "small_cnn", "tied_windows", "grad_check",
        "ties", "even", "channels"])
def test_the_read_crop_gives_every_pool_whole_windows(spec):
    """`Pool` relies on it: no row or column of its input lies outside
    every window."""
    pools = 0
    for _, layer, shape, _ in nk._layer_shapes(spec, nk._read_shape(spec)):
        if isinstance(layer, nk.Pool):
            pools += 1
            assert shape[-2] % layer.size[0] == 0 and shape[-1] % layer.size[1] == 0
    assert pools


def test_convolutions_run_only_on_the_pixels_the_output_reads(monkeypatch):
    shapes = []  # (input_grad, column matrix shape): input_grad False = first layer
    columns = nk.Conv2D.columns

    def recording(op, x, out=None):
        cols = columns(op, x, out)
        shapes.append((op.input_grad, cols.shape))
        return cols

    monkeypatch.setattr(nk.Conv2D, "columns", recording)
    rng = np.random.default_rng(52)
    n = 5
    images = rng.standard_normal((n, 21, 16))
    nets = [nk.init_net(nk.cnn7_spec(seed=seed)) for seed in (1, 2)]
    nk.train_many(nets, images, rng.standard_normal(n), rounds=2, learning_rate=0.05)
    # 18 x 14 read pixels: conv 16 x 12, pool 8 x 6, conv 6 x 4, pool 3 x 2
    assert shapes == [(False, (n * 16 * 12, 3 * 3 + 1))] + \
        [(True, (2, n * 6 * 4, 3 * 3 * 8 + 1))] * 2
    shapes.clear()
    nk.forward_batch(nets[0], images)
    assert shapes == [(False, (n * 16 * 12, 3 * 3 + 1)), (True, (n * 6 * 4, 3 * 3 * 8 + 1))]


@pytest.mark.parametrize("per_net", [False, True], ids=["shared", "per_net"])
def test_pixels_outside_the_read_extent_change_nothing(per_net):
    rng = np.random.default_rng(53)
    lead = (2, 6) if per_net else (6,)
    images = rng.standard_normal(lead + (21, 16))
    other = images.copy()
    other[..., 18:, :] = 10.0 * rng.standard_normal(lead + (3, 16))
    other[..., :18, 14:] = -10.0 * rng.standard_normal(lead + (18, 2))
    y = rng.standard_normal(lead)
    nets = [nk.init_net(nk.cnn7_spec(seed=seed)) for seed in (1, 2)]
    trained = nk.train_many(nets, images, y, rounds=5, learning_rate=0.05)
    _assert_identical_nets(nk.train_many(nets, other, y, rounds=5, learning_rate=0.05),
                           trained)
    probe = images.reshape(-1, 21, 16)
    probe_other = other.reshape(-1, 21, 16)
    for net in trained:
        np.testing.assert_array_equal(nk.forward_batch(net, probe_other),
                                      nk.forward_batch(net, probe))
    inside = probe.copy()
    inside[:, 17, 13] += 10.0  # the last pixel the output reads
    assert not np.array_equal(nk.forward_batch(trained[0], inside),
                              nk.forward_batch(trained[0], probe))


def test_a_wrong_shaped_image_is_refused_before_the_crop():
    net = nk.init_net(nk.cnn7_spec(seed=1))
    for shape in ((18, 14), (22, 16), (21, 15)):
        message = rf"input shape \({shape[0]}, {shape[1]}\) does not match net input \(21, 16\)"
        with pytest.raises(ValueError, match=message):
            nk.forward_batch(net, np.zeros((4,) + shape))
        with pytest.raises(ValueError, match=message):
            nk.train_many([net], np.zeros((4,) + shape), np.zeros(4), rounds=1,
                          learning_rate=0.05)


def _traced_peak(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_follows_the_budget_not_the_net_count():
    spec = nk.cnn7_spec(seed=1)
    rng = np.random.default_rng(48)
    images = rng.standard_normal((23, 21, 16))
    targets = rng.standard_normal(23)
    nets = [nk.init_net(nk.cnn7_spec(seed=seed)) for seed in range(1, 7)]
    stack = nk.STACK_BYTES // nk._round_bytes(spec, 23, per_net=False)
    assert 1 <= stack < len(nets)

    def train(some):
        return lambda: nk.train_many(some, images, targets, rounds=2, learning_rate=0.05)

    one_stack = _traced_peak(train(nets[:stack]))
    assert _traced_peak(train(nets)) <= 1.1 * one_stack
