"""Minimal from-scratch neural nets: dense and conv layers, backprop,
full-batch gradient descent on mean squared error.

Everything is float64 numpy, deterministic given the spec seed, and
sized for small scalar-output regression nets (a 10-layer dense stack,
a 7-layer CNN over day-by-bucket images, and a one-hidden-layer
"moments" net).  No minibatching, no momentum: plain gradient descent,
which is all these shallow problems need and keeps runs reproducible.

There is one training loop, `train_many`: it trains R nets of one
architecture in stacks along a leading model axis, as many per stack
as a fixed memory budget allows.
Convolutions run as im2col + matmul.

An image batch is cropped on entry to the rows and columns that the
output reads (`_read_shape`): pools floor away odd edges, and valid
convolutions carry that loss back to the input.  cnn7 on 21x16 images
reads 18x14, so its two convolutions compute 192 and 24 pixels per
image instead of 266 and 35, and on 23 monthly images it trains in
stacks of 3 instead of 2.  The dropped pixels get exactly zero
gradient, so no result changes.  Over ten alternating pairs of the
`backcast` benchmark, this cut the median `wall_s` by 23%, from 1.53 s
to 1.18 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .tape_io import write_table_csv

ACTIVATIONS = ("relu", "tanh", "logit", "linear")


class TrainingDivergedError(ArithmeticError):
    """Loss became non-finite during training.

    An `ArithmeticError`, as `FloatingPointError` is, so a caller can
    treat both as one numeric failure without importing this module.
    """


# ── layer specs ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int


@dataclass(frozen=True)
class Conv2D:
    kernel: tuple[int, int]
    channels: int


@dataclass(frozen=True)
class Pool:
    size: tuple[int, int] = (2, 2)


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Union[Dense, Conv2D, Pool, Flatten]


@dataclass(frozen=True)
class NetSpec:
    layers: tuple[LayerSpec, ...]
    activation: str = "relu"
    seed: int = 0
    input_shape: tuple[int, ...] = ()  # () = infer from a leading Dense

    def __post_init__(self):
        if not self.layers:
            raise ValueError("net needs at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def shallow_spec(n_inputs: int = 4, seed: int = 0) -> NetSpec:
    """One-hidden-layer tanh net, 8 wide, for the four-moment inputs."""
    return NetSpec((Dense(n_inputs, 8), Dense(8, 1)), "tanh", seed, input_shape=(n_inputs,))


def deep10_spec(n_inputs: int = 16, seed: int = 0) -> NetSpec:
    """10 dense ReLU layers, 16-dim input to scalar output."""
    widths = [n_inputs, 32, 32, 24, 24, 16, 16, 8, 8, 4, 1]
    layers = tuple(Dense(a, b) for a, b in zip(widths, widths[1:]))
    return NetSpec(layers, "relu", seed, input_shape=(n_inputs,))


def cnn7_spec(input_shape: tuple[int, int] = (21, 16), activation: str = "relu",
              seed: int = 0) -> NetSpec:
    """7-layer CNN over a days-by-buckets image: conv, pool, conv, pool,
    flatten, dense 32 wide, dense-to-scalar."""
    h, w = input_shape
    oh, ow = (h - 2) // 2, (w - 2) // 2          # conv 3x3 then pool 2x2
    oh, ow = (oh - 2) // 2, (ow - 2) // 2        # conv 3x3 then pool 2x2
    flat = 16 * oh * ow
    layers = (
        Conv2D((3, 3), 8),
        Pool((2, 2)),
        Conv2D((3, 3), 16),
        Pool((2, 2)),
        Flatten(),
        Dense(flat, 32),
        Dense(32, 1),
    )
    return NetSpec(layers, activation, seed, input_shape=input_shape)


# ── runtime layers ─────────────────────────────────────────────────────
#
# An op holds only the constants its layer spec fixes; the net's
# parameters and the arrays one pass caches for its backward pass are
# passed in and out.  `forward(params, x)` returns `(out, cache)`, and
# `backward(params, cache, grad)` returns the input gradient (None for
# a net's first layer, whose input gradient nothing reads) and a tuple
# of parameter gradients in the order of `params`.
#
# Every op works on a batch with any number of leading axes: (n, ...)
# for one net, (R, n, ...) for R nets trained together.  A single net's
# parameters carry no model axis; `train_many` stacks them along one.
# Images run channels-last, (..., n, h, w, c), so that a convolution's
# output matrix is already its activation map, with no transpose;
# Flatten restores the (c, h, w) order of the layer specs.

class _DenseOp:
    def __init__(self, input_grad: bool = True):
        self.input_grad = input_grad

    def forward(self, params, x):
        weights, bias = params
        out = x @ weights
        out += bias[..., None, :]
        return out, x

    def backward(self, params, x, grad):
        grads = (x.swapaxes(-1, -2) @ grad, grad.sum(axis=-2))
        if not self.input_grad:
            return None, grads
        return grad @ params[0].swapaxes(-1, -2), grads


#: axes moving conv weights (..., o, c, kh, kw) to (..., kh, kw, c, o)
_TO_COLUMN_ORDER = ((-4, -3, -2, -1), (-1, -2, -4, -3))


class _ConvOp:
    """Valid 2-D convolution as im2col + matmul (Chellapilla, Puri &
    Simard 2006): each output pixel's (kh, kw, c) input patch is one row
    of a column matrix, so forward and the weight gradient are single
    matrix products.  A last column of ones carries the bias, which
    saves a broadcast add and a reduction over the pixels."""

    def __init__(self, kernel: tuple[int, int], input_grad: bool = True):
        self.kernel = kernel
        self.input_grad = input_grad

    def columns(self, x, out=None):  # (..., n, h, w, c) -> (..., n*oh*ow, kh*kw*c + 1)
        """The column matrix of `x`, written into `out` when given (a
        column matrix of the same shape): one row per output pixel, its
        (kh, kw, c) input patch followed by a 1 for the bias."""
        kh, kw = self.kernel
        windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-3, -2))
        n, oh, ow, c = windows.shape[-6:-2]
        cols = np.empty(x.shape[:-4] + (n * oh * ow, kh * kw * c + 1)) if out is None else out
        cols[..., -1] = 1.0
        # splitting axes keeps a view, so this fills `cols`
        cols[..., :-1].reshape(x.shape[:-4] + (n, oh, ow, kh, kw, c))[...] = \
            np.moveaxis(windows, -3, -1)
        return cols

    def forward(self, params, x, cols=None):  # (..., n, h, w, c) -> (..., n, oh, ow, o)
        """`cols`, when given, is `self.columns(x)` built by the caller."""
        weights, bias = params
        kh, kw = self.kernel
        n, h, w = x.shape[-4:-1]
        if cols is None:
            cols = self.columns(x)
        # weights (..., o, c, kh, kw) -> (..., kh*kw*c + 1, o) with the bias row
        w_cols = np.moveaxis(weights, *_TO_COLUMN_ORDER)
        w_cols = w_cols.reshape(w_cols.shape[:-4] + (-1, w_cols.shape[-1]))
        out = cols @ np.concatenate([w_cols, bias[..., None, :]], axis=-2)
        return out.reshape(out.shape[:-2] + (n, h - kh + 1, w - kw + 1, -1)), (cols, x.shape)

    def backward(self, params, cache, grad):
        cols, in_shape = cache
        kh, kw = self.kernel
        n, oh, ow, o = grad.shape[-4:]
        g = grad.reshape(grad.shape[:-4] + (-1, o))
        d_matrix = cols.swapaxes(-1, -2) @ g  # (..., kh*kw*c + 1, o)
        d_w = d_matrix[..., :-1, :].reshape(d_matrix.shape[:-2] + (kh, kw, -1, o))
        grads = (np.moveaxis(d_w, *_TO_COLUMN_ORDER[::-1]), d_matrix[..., -1, :])
        if not self.input_grad:
            return None, grads
        # the column gradient one tap at a time, into one (..., n*oh*ow, c)
        # buffer; each tap adds back into the input pixels it read
        w_taps = np.moveaxis(params[0], (-2, -1), (-4, -3))  # (..., kh, kw, o, c)
        w_taps = w_taps.reshape(w_taps.shape[:-4] + (kh * kw,) + w_taps.shape[-2:])
        d_tap = np.empty(g.shape[:-1] + w_taps.shape[-1:])
        d_pixels = d_tap.reshape(d_tap.shape[:-2] + (n, oh, ow, -1))
        dx = np.zeros(g.shape[:-2] + in_shape[-4:])
        for k in range(kh):
            for l in range(kw):
                np.matmul(g, w_taps[..., k * kw + l, :, :], out=d_tap)
                dx[..., k:k + oh, l:l + ow, :] += d_pixels
        return dx, grads


class _PoolOp:
    def __init__(self, size: tuple[int, int]):
        self.size = size

    def _taps(self, x):
        """Strided views, one per window position in row-major order."""
        ph, pw = self.size
        oh, ow = x.shape[-3] // ph, x.shape[-2] // pw
        return [x[..., i:oh * ph:ph, j:ow * pw:pw, :] for i in range(ph) for j in range(pw)]

    def forward(self, params, x):
        """The cache is the switches, the index of the first tap that
        holds each max, in the smallest integer type that fits (less
        memory held per round), and the input shape."""
        taps = self._taps(x)
        out = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        before = taps[0] != out
        switches = before.astype(np.min_scalar_type(len(taps) - 1))
        for tap in taps[1:-1]:
            before &= tap != out
            switches += before
        return out, (switches, x.shape)

    def backward(self, params, cache, grad):
        switches, in_shape = cache
        dx = np.zeros(grad.shape[:-3] + in_shape[-3:])
        for k, tap in enumerate(self._taps(dx)):
            np.multiply(grad, switches == k, out=tap)
        return dx, ()


class _FlattenOp:
    def __init__(self, sample_ndim: int):
        self.sample_ndim = sample_ndim

    def forward(self, params, x):
        sample_shape = x.shape[-self.sample_ndim:]
        if self.sample_ndim == 3:
            x = np.moveaxis(x, -1, -3)  # channels-last image -> (c, h, w)
        return x.reshape(x.shape[:-self.sample_ndim] + (-1,)), sample_shape

    def backward(self, params, sample_shape, grad):
        if self.sample_ndim != 3:
            return grad.reshape(grad.shape[:-1] + sample_shape), ()
        h, w, c = sample_shape
        return np.moveaxis(grad.reshape(grad.shape[:-1] + (c, h, w)), -3, -1), ()


class _ActivationOp:
    """Elementwise activation, computed in place both ways.

    An activation always follows a weighted op, so its input is that
    op's fresh output, which no cache holds (`_DenseOp` caches its
    input, `_ConvOp` its columns); its incoming gradient is a fresh
    array, or a view of one, made by the op after it.  Overwriting
    either changes nothing that is read later.  The cache is the ReLU
    sign pattern, or the tanh or logit output.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def forward(self, params, x):
        if self.kind == "relu":
            pattern = x > 0
            return np.maximum(x, 0.0, out=x), pattern
        if self.kind == "tanh":
            y = np.tanh(x, out=x)
            return y, y
        if self.kind == "logit":  # 1 / (1 + exp(-x))
            np.negative(x, out=x)
            np.exp(x, out=x)
            x += 1.0
            y = np.divide(1.0, x, out=x)
            return y, y
        return x, None

    def backward(self, params, cache, grad):
        if self.kind == "relu":
            grad *= cache
        elif self.kind == "tanh":
            grad *= 1.0 - cache**2
        elif self.kind == "logit":  # grad * y * (1 - y)
            grad *= cache
            grad *= 1.0 - cache
        return grad, ()


@dataclass
class TrainedNet:
    spec: NetSpec
    ops: list                            # hold no arrays; see "runtime layers"
    params: list[tuple[np.ndarray, ...]]  # one tuple per op, () for an op without
    loss_curve: list[float]


# ── construction ───────────────────────────────────────────────────────

def _infer_input_shape(spec: NetSpec) -> tuple[int, ...]:
    if spec.input_shape:
        return spec.input_shape
    first = spec.layers[0]
    if isinstance(first, Dense):
        return (first.n_in,)
    raise ValueError("input_shape is required when the first layer is not Dense")


def _layer_shapes(spec: NetSpec, input_shape: tuple[int, ...] = ()):
    """Each layer's index, spec, input and output sample shape, (c, h, w)
    for an image and (k,) for a flat vector, from `input_shape` or else
    the spec's own.

    Checks that the shapes compose; a mismatch reports the offending
    layer pair.
    """
    shape = input_shape or _infer_input_shape(spec)
    if len(shape) == 2:
        shape = (1,) + shape  # single input channel
    for i, layer in enumerate(spec.layers):
        where = f"layer {i + 1} ({type(layer).__name__})"
        if isinstance(layer, Dense):
            if len(shape) != 1:
                raise ValueError(f"{where}: expected flat input, got shape {shape}; "
                                 "add a Flatten layer")
            if shape[0] != layer.n_in:
                raise ValueError(
                    f"shape mismatch between layer {i} (out {shape[0]}) and {where} "
                    f"(in {layer.n_in})")
            out = (layer.n_out,)
        elif isinstance(layer, Conv2D):
            if len(shape) != 3:
                raise ValueError(f"{where}: expected image input, got shape {shape}")
            c, h, w = shape
            kh, kw = layer.kernel
            if h < kh or w < kw:
                raise ValueError(f"{where}: kernel {layer.kernel} larger than input {(h, w)}")
            out = (layer.channels, h - kh + 1, w - kw + 1)
        elif isinstance(layer, Pool):
            if len(shape) != 3:
                raise ValueError(f"{where}: expected image input, got shape {shape}")
            c, h, w = shape
            ph, pw = layer.size
            if h < ph or w < pw:
                raise ValueError(f"{where}: pool {layer.size} larger than input {(h, w)}")
            out = (c, h // ph, w // pw)
        elif isinstance(layer, Flatten):
            out = (int(np.prod(shape)),)
        else:
            raise ValueError(f"{where}: unknown layer spec")
        yield i, layer, shape, out
        shape = out
    if shape != (1,):
        raise ValueError(f"net output shape is {shape}, expected scalar (1,)")


def init_net(spec: NetSpec) -> TrainedNet:
    """Build a net with seeded fan-in-scaled uniform weights, zero biases.

    Walks the layer chain validating that shapes compose; a mismatch
    reports the offending layer pair.
    """
    rng = np.random.default_rng(spec.seed)
    ops: list = []
    params: list = []
    for i, layer, shape, _ in _layer_shapes(spec):
        if isinstance(layer, Dense):
            bound = 1.0 / np.sqrt(layer.n_in)
            params.append((rng.uniform(-bound, bound, size=(layer.n_in, layer.n_out)),
                           np.zeros(layer.n_out)))
            ops.append(_DenseOp(input_grad=i > 0))
        elif isinstance(layer, Conv2D):
            kh, kw = layer.kernel
            bound = 1.0 / np.sqrt(shape[0] * kh * kw)
            params.append((rng.uniform(-bound, bound, size=(layer.channels, shape[0], kh, kw)),
                           np.zeros(layer.channels)))
            ops.append(_ConvOp(layer.kernel, input_grad=i > 0))
        elif isinstance(layer, Pool):
            params.append(())
            ops.append(_PoolOp(layer.size))
        else:
            params.append(())
            ops.append(_FlattenOp(len(shape)))
        if _is_weighted(layer) and i < _last_weighted_index(spec):
            params.append(())
            ops.append(_ActivationOp(spec.activation))
    return TrainedNet(spec=spec, ops=ops, params=params, loss_curve=[])


def _is_weighted(layer: LayerSpec) -> bool:
    return isinstance(layer, (Dense, Conv2D))


def _last_weighted_index(spec: NetSpec) -> int:
    return max(i for i, layer in enumerate(spec.layers) if _is_weighted(layer))


def _read_shape(spec: NetSpec) -> tuple[int, ...]:
    """The part of the input sample that the net's output reads: its
    shape, from the top-left corner; the whole input for a dense net.

    One backward walk from the `Flatten`, which reads all of its input:
    a pool of size p reads p rows per output row, which drops the last
    h mod p of its h rows, and a valid convolution with kernel k reads its
    output's rows + k - 1; the same holds for columns.  The pixels
    outside this extent get exactly zero gradient and reach no output.
    """
    shape = _infer_input_shape(spec)
    read = None
    for _, layer, in_shape, _ in reversed(list(_layer_shapes(spec))):
        if isinstance(layer, Flatten) and len(in_shape) == 3:
            read = in_shape[1:]
        elif isinstance(layer, Pool):
            read = (read[0] * layer.size[0], read[1] * layer.size[1])
        elif isinstance(layer, Conv2D):
            read = (read[0] + layer.kernel[0] - 1, read[1] + layer.kernel[1] - 1)
    return shape if read is None else shape[:-2] + read


# ── forward / training ─────────────────────────────────────────────────

def _as_batch(net: TrainedNet, inputs: np.ndarray, per_net: bool = False) -> np.ndarray:
    """Inputs as a float batch (n, ...), or (R, n, ...) when `per_net`,
    with the channel axis added for image inputs and images cropped to
    the rows and columns the output reads (`_read_shape`)."""
    x = np.asarray(inputs, dtype=float)
    expect = _infer_input_shape(net.spec)
    if x.shape == expect:
        x = x[None, ...]
    got = x.shape[1 + per_net:]
    if got != expect:
        raise ValueError(f"input shape {got} does not match net input {expect}")
    if len(expect) == 2:
        x = x[..., None]  # one channel
    elif len(expect) == 3:
        x = np.moveaxis(x, -3, -1)  # (c, h, w) -> channels-last
    if len(expect) > 1:
        h, w = _read_shape(net.spec)[-2:]
        x = x[..., :h, :w, :]
    return x


def forward_batch(net: TrainedNet, inputs: np.ndarray) -> np.ndarray:
    """Outputs for a batch."""
    x = _as_batch(net, inputs)
    for op, params in zip(net.ops, net.params):
        x = op.forward(params, x)[0]  # the cache goes at once
    return x[:, 0]


#: Bytes one net may add to the largest array of a training round.
#: `train_many` trains as many nets together as fit in this budget,
#: and at least one, so its peak memory follows the budget and not the
#: number of nets.  cnn7 on 23 monthly images gets stacks of 3.
STACK_BYTES = 1 << 20


def _round_bytes(spec: NetSpec, n: int, per_net: bool) -> int:
    """Bytes of the largest array one net of `spec` adds to a training
    round on `n` samples cropped as `_as_batch` crops them: a layer's
    output (as large as its input gradient) or a convolution's column
    matrix.  A first convolution's columns of inputs shared by all nets
    are built once for the call, so they do not count."""
    largest = 0
    for i, layer, shape, out in _layer_shapes(spec, _read_shape(spec)):
        largest = max(largest, int(np.prod(out)))
        if isinstance(layer, Conv2D) and (i > 0 or per_net):
            kh, kw = layer.kernel
            largest = max(largest, out[1] * out[2] * (kh * kw * shape[0] + 1))
    return 8 * n * largest


def train_many(nets: Sequence[TrainedNet], inputs: np.ndarray, targets: np.ndarray,
               rounds: int, learning_rate: float) -> list[TrainedNet]:
    """Train R nets of one architecture; returns new trained nets.

    The nets train in consecutive stacks of as many as `STACK_BYTES`
    allows.  Within a stack each net's parameters become one slice of a
    leading model axis, so every round is one forward and one backward
    pass over the stack, with the same arithmetic per net as training it
    alone: full-batch gradient descent on its own MSE from its own
    initial weights.  So neither the stack size nor a net's neighbours
    change any result.  `inputs` is (n, ...) shared by all nets or
    (R, n, ...) one batch per net; `targets` is (n,) shared or (R, n).
    Every returned net keeps its own loss curve, in the order of `nets`;
    the input nets are left untouched.  Aborts with the round number if
    any net's loss goes non-finite.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    nets = list(nets)
    if not nets:
        return []
    arch = [(n.spec.layers, n.spec.activation, _infer_input_shape(n.spec)) for n in nets]
    if any(a != arch[0] for a in arch):
        raise ValueError("nets trained together must share one architecture")
    n_nets = len(nets)
    x = np.asarray(inputs, dtype=float)
    per_net = x.ndim == len(arch[0][2]) + 2
    x0 = _as_batch(nets[0], x, per_net)
    if per_net and x0.shape[0] != n_nets:
        raise ValueError(f"per-net inputs hold {x0.shape[0]} batches for {n_nets} nets")
    n = x0.shape[int(per_net)]
    targets = np.asarray(targets, dtype=float)
    if targets.size == n:
        targets = targets.reshape(n)
    elif targets.shape != (n_nets, n):
        raise ValueError("inputs and targets are not aligned")

    # Every round feeds the first layer the same batch, so a first
    # convolution's column matrix is built once: for the call when the
    # nets share their inputs, else once per stack.
    first = nets[0].ops[0]
    shared_cols = first.columns(x0) if isinstance(first, _ConvOp) and not per_net else None
    size = max(1, STACK_BYTES // _round_bytes(nets[0].spec, n, per_net))
    trained = []
    for lo in range(0, n_nets, size):
        stack = slice(lo, lo + size)
        trained += _train_stack(nets[stack], x0[stack] if per_net else x0,
                                targets[stack] if targets.ndim == 2 else targets,
                                shared_cols, rounds, learning_rate)
    return trained


def _train_stack(nets: list[TrainedNet], x0: np.ndarray, targets: np.ndarray,
                 first_cols: np.ndarray | None, rounds: int,
                 learning_rate: float) -> list[TrainedNet]:
    """`train_many` on one stack: `x0` is the batch as `_as_batch` gives
    it, `targets` (n,) or (R, n), and `first_cols` the first
    convolution's column matrix of a shared batch, or None."""
    ops = nets[0].ops
    n = targets.shape[-1]
    params = [tuple(map(np.stack, zip(*column)))
              for column in zip(*(net.params for net in nets))]
    # Column matrices of this stack, by op.  A later convolution refills
    # its buffer every round (see README, "Neural training": fresh ones
    # could re-fault every round); returning frees them all.
    cols = [None] * len(ops)
    if isinstance(ops[0], _ConvOp):
        cols[0] = ops[0].columns(x0) if first_cols is None else first_cols
    losses, caches = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for round_no in range(1, rounds + 1):
            x = x0
            for i, (op, p) in enumerate(zip(ops, params)):
                if isinstance(op, _ConvOp):
                    if i > 0:
                        cols[i] = op.columns(x, cols[i])
                    x, cache = op.forward(p, x, cols[i])
                else:
                    x, cache = op.forward(p, x)
                caches.append(cache)
            err = x[..., 0] - targets  # (R, n)
            loss = np.mean(err**2, axis=-1)
            if not np.isfinite(loss).all():
                raise TrainingDivergedError(f"non-finite loss at round {round_no}")
            losses.append(loss)
            # popping frees each cache once read, before the next round allocates
            grad = (2.0 * err / n)[..., None]
            for op, p in zip(reversed(ops), reversed(params)):
                grad, d_params = op.backward(p, caches.pop(), grad)
                for arr, d_arr in zip(p, d_params):
                    arr -= learning_rate * d_arr

    curves = np.array(losses).T.tolist()
    return [TrainedNet(net.spec, net.ops, [tuple(a[r].copy() for a in p) for p in params],
                       net.loss_curve + curves[r])
            for r, net in enumerate(nets)]


# ── serialization ──────────────────────────────────────────────────────

def write_loss_csv(net: TrainedNet, handle) -> None:
    write_table_csv(handle, ["round", "mse"], enumerate(net.loss_curve, start=1))
