import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dualspace import neural_kit as nk
from oracles import forward_cached, grad_check, reference_train_many, weight_arrays


def _forward_with_caches(net, inputs):
    """The forward pass of `forward_batch`, also returning the caches a
    following backward pass reads."""
    x, caches = forward_cached(net.ops, net.params, nk._as_batch(net, inputs))
    return x[:, 0], caches


def _backward(net, caches, grad):
    """The input gradient and each op's parameter gradients."""
    d_params = []
    for op, params in zip(reversed(net.ops), reversed(net.params)):
        grad, d = op.backward(params, caches.pop(), grad)
        d_params.insert(0, d)
    return grad, d_params


def test_init_is_deterministic():
    spec = nk.deep10_spec(seed=5)
    a, b = nk.init_net(spec), nk.init_net(spec)
    for wa, wb in zip(weight_arrays(a), weight_arrays(b)):
        np.testing.assert_array_equal(wa, wb)


def test_dense_shapes():
    net = nk.init_net(nk.NetSpec((nk.Dense(16, 1),), "tanh", 0))
    weights, bias = weight_arrays(net)
    assert weights.shape == (16, 1)
    assert bias.shape == (1,)


def test_shape_mismatch_names_layer():
    spec = nk.NetSpec((nk.Dense(16, 8), nk.Dense(4, 1)), "relu", 0)
    with pytest.raises(ValueError, match="layer 2"):
        nk.init_net(spec)


def test_output_must_be_scalar():
    with pytest.raises(ValueError, match="scalar"):
        nk.init_net(nk.NetSpec((nk.Dense(4, 3),), "relu", 0))


def test_training_reduces_loss_on_linear_problem():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0])
    net = nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", 1))
    trained = nk.train_many([net], x, y, rounds=100, learning_rate=0.1)[0]
    assert trained.loss_curve[-1] < trained.loss_curve[0]
    assert len(trained.loss_curve) == 100


def test_zero_rounds_rejected():
    net = nk.init_net(nk.NetSpec((nk.Dense(2, 1),), "linear", 0))
    with pytest.raises(ValueError, match="rounds"):
        nk.train_many([net], np.zeros((3, 2)), np.zeros(3), rounds=0, learning_rate=0.1)


def test_planted_linear_map_recovered():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 16))
    w_true = rng.standard_normal(16)
    y = x @ w_true
    net = nk.init_net(nk.NetSpec((nk.Dense(16, 1),), "linear", 2))
    trained = nk.train_many([net], x, y, rounds=500, learning_rate=0.4)[0]
    w_closed, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(100)]), y, rcond=None)
    got = weight_arrays(trained)[0][:, 0]
    np.testing.assert_allclose(got, w_closed[:16], atol=1e-3)
    np.testing.assert_allclose(got, w_true, atol=1e-3)


def test_zero_weights_output_bias():
    net = nk.init_net(nk.NetSpec((nk.Dense(3, 1),), "linear", 0))
    weights, bias = weight_arrays(net)
    weights[:] = 0.0
    bias[:] = 1.25
    assert nk.forward_batch(net, np.array([5.0, -2.0, 3.0]))[0] == pytest.approx(1.25)


def test_identity_dense_passthrough():
    net = nk.init_net(nk.NetSpec((nk.Dense(1, 1),), "linear", 0))
    weights, bias = weight_arrays(net)
    weights[:] = 1.0
    bias[:] = 0.0
    assert nk.forward_batch(net, np.array([0.73]))[0] == pytest.approx(0.73)


def test_forward_batch_shape_check():
    net = nk.init_net(nk.shallow_spec())  # 4 inputs
    for inputs in (np.zeros(5), np.zeros((3, 5))):
        with pytest.raises(ValueError, match="shape"):
            nk.forward_batch(net, inputs)


def test_dense_forward_matches_manual_oracle():
    spec = nk.NetSpec((nk.Dense(6, 4), nk.Dense(4, 1)), "tanh", 9)
    net = nk.init_net(spec)
    w1, b1, w2, b2 = weight_arrays(net)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    manual = float((np.tanh(x @ w1 + b1) @ w2 + b2)[0])
    assert nk.forward_batch(net, x)[0] == pytest.approx(manual, abs=1e-12)


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
    assert nk.forward_batch(net, x)[0] == pytest.approx(manual, abs=1e-10)


@pytest.mark.parametrize("activation", ["tanh", "logit"])
def test_grad_check_smooth_activations(activation):
    rng = np.random.default_rng(6)
    spec = nk.NetSpec((nk.Dense(5, 7), nk.Dense(7, 1)), activation, 7)
    net = nk.init_net(spec)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal(4)
    assert grad_check(net, x, y, epsilon=1e-5) < 1e-4


def test_grad_check_relu_excluding_kinks():
    rng = np.random.default_rng(8)
    spec = nk.NetSpec((nk.Dense(5, 7), nk.Dense(7, 1)), "relu", 8)
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
    net = nk.init_net(nk.NetSpec((nk.Dense(3, 1),), "linear", 0))
    for arr in weight_arrays(net):
        arr[:] = 0.0
    x = np.zeros((2, 3))
    out, caches = _forward_with_caches(net, x)
    np.testing.assert_array_equal(out, 0.0)
    _, [(d_weights, d_bias)] = _backward(net, caches, (2.0 * (out - 0.0) / 2)[:, None])
    np.testing.assert_array_equal(d_weights, 0.0)
    np.testing.assert_array_equal(d_bias, 0.0)


def test_divergence_aborts_with_round_number():
    rng = np.random.default_rng(11)
    net = nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", 12))
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
            net = nk.init_net(nk.NetSpec((nk.Dense(5, 1),), "linear", 1))
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


def test_loss_curve_csv_export():
    import io
    rng = np.random.default_rng(20)
    (net,) = nk.train_many([nk.init_net(nk.NetSpec((nk.Dense(3, 1),), "linear", 0))],
                           rng.standard_normal((8, 3)), rng.standard_normal(8),
                           rounds=5, learning_rate=0.05)
    buf = io.StringIO()
    nk.write_loss_csv(net, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "round,mse"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == net.loss_curve[0]


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
    shape = nk._infer_input_shape(spec)
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
    nets = [nk.init_net(nk.NetSpec((nk.Dense(4, 1),), "linear", seed)) for seed in (1, 2)]
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
    conv_weights, _ = net.params[0]
    conv_weights[:] = 1.0
    _, caches = _forward_with_caches(net, np.array([[0.5, 2.0], [2.0, 2.0]]))
    switches, _ = caches[2]
    assert switches.ravel().tolist() == [1]
    grad, d_params = net.ops[2].backward((), caches[2], np.ones((1, 1, 1, 1)))
    assert grad.reshape(2, 2).tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert d_params == ()


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
    make_spec, sample_shape = _ORACLE_SPECS[arch]
    rng = np.random.default_rng(40)
    nets = [nk.init_net(make_spec(seed, activation)) for seed in (1, 2)]
    lead = (2, 5) if per_net else (5,)
    x = rng.standard_normal(lead + sample_shape)
    y = rng.standard_normal(lead)
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


def test_first_layer_columns_built_once_per_train_many_call(monkeypatch):
    builds = {False: 0, True: 0}  # keyed by the op's input_grad: False = first layer
    columns = nk._ConvOp.columns

    def counting(op, x, out=None):
        builds[op.input_grad] += 1
        return columns(op, x, out)

    monkeypatch.setattr(nk._ConvOp, "columns", counting)
    rng = np.random.default_rng(41)
    nets = [nk.init_net(_small_cnn_spec(seed)) for seed in (1, 2, 3)]
    x = rng.standard_normal((6, 9, 9))
    nk.train_many(nets, x, rng.standard_normal(6), rounds=7, learning_rate=0.05)
    assert builds == {False: 1, True: 7}
    nk.train_many(nets[:1], x, rng.standard_normal(6), rounds=4, learning_rate=0.05)
    assert builds == {False: 2, True: 11}


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
    assert [d.shape for d in d_params[0]] == [p.shape for p in net.params[0]]


def test_grad_check_reports_a_wrong_gradient(monkeypatch):
    backward = nk._DenseOp.backward

    def halved(op, params, x, grad):
        dx, (d_weights, d_bias) = backward(op, params, x, grad)
        return dx, (0.5 * d_weights, d_bias)

    monkeypatch.setattr(nk._DenseOp, "backward", halved)
    rng = np.random.default_rng(44)
    net = nk.init_net(nk.deep10_spec(n_inputs=4, seed=6))
    assert grad_check(net, rng.standard_normal((5, 4)), rng.standard_normal(5),
                      epsilon=1e-5) > 0.4


def test_conv_columns_refill_a_given_buffer():
    op = nk.init_net(nk.cnn7_spec(seed=3)).ops[0]
    x = np.random.default_rng(46).standard_normal((2, 21, 16, 1))
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
    nk.forward_batch(net, images[0])
    assert not _held_arrays(net)


def test_trained_nets_hold_only_their_parameters():
    rng = np.random.default_rng(42)
    nets = [nk.init_net(_small_cnn_spec(seed)) for seed in (1, 2)]
    images = rng.standard_normal((4, 9, 9))
    trained = nk.train_many(nets, images, rng.standard_normal(4), rounds=3,
                            learning_rate=0.05)
    assert not any(_held_arrays(net) for net in nets + trained)
    for net, start in zip(trained, nets, strict=True):
        assert [[p.shape for p in params] for params in net.params] == \
               [[p.shape for p in params] for params in start.params]
    grad_check(trained[0], images[:2], rng.standard_normal(2))
    assert not _held_arrays(trained[0])


def test_a_train_many_call_refills_one_column_buffer(monkeypatch):
    later_columns = []  # a later convolution's column matrix, round by round
    columns = nk._ConvOp.columns

    def recording(op, x, out=None):
        cols = columns(op, x, out)
        if op.input_grad:
            later_columns.append(cols)
        return cols

    monkeypatch.setattr(nk._ConvOp, "columns", recording)
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


def test_convolutions_run_only_on_the_pixels_the_output_reads(monkeypatch):
    shapes = []  # (input_grad, column matrix shape): input_grad False = first layer
    columns = nk._ConvOp.columns

    def recording(op, x, out=None):
        cols = columns(op, x, out)
        shapes.append((op.input_grad, cols.shape))
        return cols

    monkeypatch.setattr(nk._ConvOp, "columns", recording)
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
