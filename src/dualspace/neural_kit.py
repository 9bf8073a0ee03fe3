"""Minimal from-scratch neural nets: dense and conv layers, backprop,
full-batch gradient descent on mean squared error.

Everything is float64 numpy, deterministic given the spec seed, and
sized for small scalar-output regression nets (a 10-layer dense stack,
a 7-layer CNN over day-by-bucket images, and a one-hidden-layer
"moments" net).  No minibatching, no momentum: plain gradient descent,
which is all these shallow problems need and keeps runs reproducible.

Each layer kind is one frozen dataclass (`Dense`, `Conv2D`, `Pool`,
`Flatten`): its spec fields, its rules for the shape walks, and its
forward and backward pass.  A net is its `NetSpec`, which always states
the input shape.  There is one training loop, `train_many`: it trains R
nets of one architecture in stacks along a leading model axis, as many
per stack as a fixed memory budget allows; each stack builds its first
layer's column matrix once, as every round feeds it the same batch.
Both cnn7 callers train through `residual_study.cnn7_predictions`.
Convolutions run as im2col + matmul.  Both weighted layers, dense and
conv, carry their bias as a last column of ones in their column matrix,
and their one parameter is the matrix `[W; b]` it multiplies, so that
a layer's forward pass and its parameter gradient are each one array
operation: a training round spends its time in BLAS, not in numpy loops
over runs of 8-32 elements or in rebuilding `[W; b]`.  A stack's
matrices are views into one flat parameter vector and their gradients
views into one flat gradient, which the gradient products write in
place, so a round ends with one update of the whole stack.  A dense
layer's input gradient multiplies by a contiguous copy of Wᵀ, which
BLAS runs faster than the strided view.
For the same reason a ReLU runs after the max-pool that reads its layer
(see `_ActivationOp`), and every convolution that a pool reads writes
its output rows in that pool's tap order, so the pool reads and writes
contiguous blocks, not strided taps of a few channels; a pool reads
nothing else.  A pool's gradient is one broadcast multiply over all of
its taps.

An image batch is cropped on entry to the rows and columns that the
output reads (`_read_shape`): pools floor away odd edges, and valid
convolutions carry that loss back to the input, so every pool input is
a whole number of windows.  cnn7 on 21x16 images reads 18x14, so its
two convolutions compute 192 and 24 pixels per image, and its round
arrays are small enough that 23 monthly images train in stacks of 3.
The dropped pixels get exactly zero gradient, so no result changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "logit", "linear")


class TrainingDivergedError(ArithmeticError):
    """Loss became non-finite during training.

    An `ArithmeticError`, as `FloatingPointError` is, so a caller can
    treat both as one numeric failure without importing this module.
    """


# ── layers ─────────────────────────────────────────────────────────────
#
# A layer's first fields are its spec.  The fields after them are set by
# `init_net` from the layer's place in its net, and take no part in
# comparing two layers, so they never tell architectures apart.
#
# The shape rules walk a sample shape, (c, h, w) for an image and (k,)
# for a flat vector: `out_shape(shape, i)` checks the input of layer i
# and returns its output shape, and `reads(read, shape)` returns the
# extent (h, w) of its input that an output extent `read` reads.  A
# weighted layer also draws its parameter matrix, `init(rng, shape)`.
#
# As an op a layer holds no arrays: the net's parameters and the arrays
# one pass caches for its backward pass are passed in and out.
# `forward(matrix, x)` returns `(out, cache)`, and
# `backward(matrix, cache, grad)` returns the input gradient (None for
# a net's first layer, whose input gradient nothing reads) and the
# gradient of `matrix`, written into `backward(..., d_matrix)` when a
# weighted layer is given one.  An op without parameters takes None for
# `matrix` and `d_matrix`, ignores both and returns None for its
# gradient, so a training round calls every op's `backward` alike.
#
# Every op works on a batch with any number of leading axes: (n, ...)
# for one net, (R, n, ...) for R nets trained together.  A single net's
# parameters carry no model axis; `train_many` stacks them along one.
# Images run channels-last, (..., n, h, w, c), so that a convolution's
# output matrix is already its activation map, with no transpose;
# Flatten restores the (c, h, w) order of the shape walks.

def _where(layer, i: int) -> str:
    return f"layer {i + 1} ({type(layer).__name__})"


def _image(layer, i: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """`shape`, refused unless it is an image (c, h, w)."""
    if len(shape) != 3:
        raise ValueError(f"{_where(layer, i)}: expected image input, got shape {shape}")
    return shape


@dataclass(frozen=True)
class Dense:
    """`x @ W + b` as one matrix product, as `Conv2D` does it: the
    column matrix is `x` with a last column of ones, and the parameter
    is `[W; b]`, (n_in + 1, n_out).  So the bias gradient is the last row
    of the one gradient product, with no broadcast add and no column sum
    over the samples."""

    n_in: int
    n_out: int
    input_grad: bool = field(default=True, compare=False)

    def out_shape(self, shape, i):
        if len(shape) != 1:
            raise ValueError(f"{_where(self, i)}: expected flat input, got shape {shape}; "
                             "add a Flatten layer")
        if shape[0] != self.n_in:
            raise ValueError(f"shape mismatch between layer {i} (out {shape[0]}) and "
                             f"{_where(self, i)} (in {self.n_in})")
        return (self.n_out,)

    def reads(self, read, shape):
        return read  # None: a dense layer reads a flat vector

    def init(self, rng, shape):
        bound = 1.0 / np.sqrt(self.n_in)
        weights = rng.uniform(-bound, bound, size=(self.n_in, self.n_out))
        return np.concatenate([weights, np.zeros((1, self.n_out))])

    def n_columns(self, shape):
        """The width of the column matrix: one input and a 1."""
        return self.n_in + 1

    def columns(self, x, out=None):  # (..., n, k) -> (..., n, k + 1)
        """`x` with a last column of ones, written into `out` when given."""
        cols = np.empty(x.shape[:-1] + (x.shape[-1] + 1,)) if out is None else out
        cols[..., :-1] = x
        cols[..., -1] = 1.0
        return cols

    def forward(self, matrix, x, cols=None):
        """`cols`, when given, is `self.columns(x)` built by the caller."""
        if cols is None:
            cols = self.columns(x)
        return cols @ matrix, cols

    def backward(self, matrix, cols, grad, d_matrix=None):
        """`d_matrix`, when given, is where the parameter gradient goes.
        The input gradient multiplies by a contiguous copy of Wᵀ: a
        strided view is slower."""
        d_matrix = np.matmul(cols.swapaxes(-1, -2), grad, out=d_matrix)  # (..., k + 1, o)
        if not self.input_grad:
            return None, d_matrix
        return grad @ matrix[..., :-1, :].swapaxes(-1, -2).copy(), d_matrix


@dataclass(frozen=True)
class Conv2D:
    """Valid 2-D convolution as im2col + matmul (Chellapilla, Puri &
    Simard 2006): each output pixel's (kh, kw, c) input patch is one row
    of a column matrix, so forward and the weight gradient are single
    matrix products.  A last column of ones carries the bias, which
    saves a broadcast add and a reduction over the pixels.  The parameter
    is `[W; b]`, (kh*kw*c + 1, o), its rows in a patch's order.

    With `pool`, the size of the pool that reads this layer's output,
    which `init_net` sets on every convolution a pool reads, the rows
    come in that pool's tap order: tap (i, j), then image, then pooled
    row, then pooled column.  The output is then ph*pw contiguous blocks,
    one per tap, and the pool reads and writes whole blocks instead of
    strided taps of a few channels.  The crop of `_as_batch` makes the
    output a whole number of pool windows."""

    kernel: tuple[int, int]
    channels: int
    input_grad: bool = field(default=True, compare=False)
    pool: tuple[int, int] | None = field(default=None, compare=False)

    def out_shape(self, shape, i):
        _, h, w = _image(self, i, shape)
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ValueError(f"{_where(self, i)}: kernel {self.kernel} larger than input {(h, w)}")
        return (self.channels, h - kh + 1, w - kw + 1)

    def reads(self, read, shape):
        return (read[0] + self.kernel[0] - 1, read[1] + self.kernel[1] - 1)

    def init(self, rng, shape):
        kh, kw = self.kernel
        bound = 1.0 / np.sqrt(shape[0] * kh * kw)
        weights = rng.uniform(-bound, bound, size=(self.channels, shape[0], kh, kw))
        rows = weights.transpose(2, 3, 1, 0).reshape(-1, self.channels)  # (kh, kw, c) rows
        return np.concatenate([rows, np.zeros((1, self.channels))])

    def n_columns(self, shape):
        """The width of the column matrix: one input patch and a 1."""
        return self.kernel[0] * self.kernel[1] * shape[0] + 1

    def columns(self, x, out=None):  # (..., n, h, w, c) -> (..., n*oh*ow, kh*kw*c + 1)
        """The column matrix of `x`, written into `out` when given (a
        column matrix of the same shape): one row per output pixel, its
        (kh, kw, c) input patch followed by a 1 for the bias."""
        kh, kw = self.kernel
        windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-3, -2))
        n, oh, ow, c = windows.shape[-6:-2]
        cols = np.empty(x.shape[:-4] + (n * oh * ow, kh * kw * c + 1)) if out is None else out
        cols[..., -1] = 1.0
        patches = np.moveaxis(windows, -3, -1)  # (..., n, oh, ow, kh, kw, c)
        if self.pool is not None:
            ph, pw = self.pool
            patches = patches.reshape(x.shape[:-4] + (n, oh // ph, ph, ow // pw, pw, kh, kw, c))
            # taps first: (..., ph, pw, n, oh/ph, ow/pw, kh, kw, c)
            patches = np.moveaxis(patches, (-6, -4), (-8, -7))
        # splitting axes keeps a view, so this fills `cols`
        cols[..., :-1].reshape(patches.shape)[...] = patches
        return cols

    def _pixels(self, in_shape):
        """The axes of the output rows, in order: (n, oh, ow), or with
        `pool` (ph*pw, n, oh/ph, ow/pw)."""
        kh, kw = self.kernel
        n, h, w = in_shape[-4:-1]
        if self.pool is None:
            return (n, h - kh + 1, w - kw + 1)
        ph, pw = self.pool
        return (ph * pw, n, (h - kh + 1) // ph, (w - kw + 1) // pw)

    def forward(self, matrix, x, cols=None):  # (..., n, h, w, c) -> (..., *pixels, o)
        """`cols`, when given, is `self.columns(x)` built by the caller."""
        if cols is None:
            cols = self.columns(x)
        out = cols @ matrix
        return out.reshape(out.shape[:-2] + self._pixels(x.shape) + (-1,)), (cols, x.shape)

    def backward(self, matrix, cache, grad, d_matrix=None):
        """`d_matrix`, when given, is where the parameter gradient goes."""
        cols, in_shape = cache
        kh, kw = self.kernel
        o = grad.shape[-1]
        lead = grad.shape[:-1 - len(self._pixels(in_shape))]  # model axes, if any
        g = grad.reshape(lead + (-1, o))
        d_matrix = np.matmul(cols.swapaxes(-1, -2), g, out=d_matrix)  # (..., kh*kw*c + 1, o)
        if not self.input_grad:
            return None, d_matrix
        n, h, w = in_shape[-4:-1]
        oh, ow = h - kh + 1, w - kw + 1
        if self.pool is not None:  # tap order back to image order, once
            ph, pw = self.pool
            g = grad.reshape(lead + (ph, pw, n, oh // ph, ow // pw, o))
            g = np.moveaxis(g, (-6, -5), (-4, -2)).reshape(lead + (-1, o))
        # the column gradient one tap at a time, into one (..., n*oh*ow, c)
        # buffer; each tap adds back into the input pixels it read.  The
        # taps' weights are a contiguous copy: a strided view is slower.
        w_taps = matrix[..., :-1, :].reshape(matrix.shape[:-2] + (kh * kw, -1, o))
        w_taps = w_taps.swapaxes(-1, -2).copy()  # (..., kh*kw, o, c)
        d_tap = np.empty(g.shape[:-1] + w_taps.shape[-1:])
        d_pixels = d_tap.reshape(d_tap.shape[:-2] + (n, oh, ow, -1))
        dx = np.zeros(g.shape[:-2] + in_shape[-4:])
        for k in range(kh):
            for l in range(kw):
                np.matmul(g, w_taps[..., k * kw + l, :, :], out=d_tap)
                dx[..., k:k + oh, l:l + ow, :] += d_pixels
        return dx, d_matrix


def _weighted(layer) -> bool:
    """Whether `layer` is dense or conv: one matrix product of its column
    matrix (which `train_many` builds or refills for it), with
    parameters, and followed by an activation unless it is its net's
    last weighted layer."""
    return isinstance(layer, (Dense, Conv2D))


@dataclass(frozen=True)
class Pool:
    """Max-pool of the convolution before it, whose output comes in this
    pool's tap order, (..., ph*pw, n, oh, ow, c) (see `Conv2D`), so each
    tap is one contiguous block.  The crop of `_as_batch` leaves no row
    or column of that output that no window reads."""

    size: tuple[int, int] = (2, 2)

    def out_shape(self, shape, i):
        c, h, w = _image(self, i, shape)
        ph, pw = self.size
        if h < ph or w < pw:
            raise ValueError(f"{_where(self, i)}: pool {self.size} larger than input {(h, w)}")
        return (c, h // ph, w // pw)

    def reads(self, read, shape):
        return (read[0] * self.size[0], read[1] * self.size[1])

    def forward(self, matrix, x):
        """The max is one reduction over the tap axis, which takes the
        taps in order, so ties and signed zeros come out as a per-tap loop
        gives them.  The cache is the switches, the index of the first tap
        that holds each max, in the smallest integer type that fits (less
        memory held per round), and the input shape."""
        out = np.maximum.reduce(x, axis=-5)
        taps = np.moveaxis(x, -5, 0)
        before = taps[0] != out
        switches = before.astype(np.min_scalar_type(len(taps) - 1))
        for tap in taps[1:-1]:
            before &= tap != out
            switches += before
        return out, (switches, x.shape)

    def backward(self, matrix, cache, grad, d_matrix=None):
        """`grad * (switches == k)` for every tap k in one broadcast
        multiply, into `dx`.  The comparison writes its 1.0s and 0.0s
        straight into `dx`, which the multiply then scales in place:
        faster than a bool mask cast inside the multiply, and the same
        products."""
        switches, in_shape = cache
        taps = np.arange(math.prod(self.size), dtype=switches.dtype)  # switches' type: no cast
        dx = np.empty(grad.shape[:-4] + in_shape[-5:])
        np.equal(switches[..., None, :, :, :, :], taps.reshape(-1, 1, 1, 1, 1), out=dx,
                 casting="unsafe")
        np.multiply(dx, grad[..., None, :, :, :, :], out=dx)
        return dx, None


@dataclass(frozen=True)
class Flatten:
    """An image as one flat vector in (c, h, w) order."""

    def out_shape(self, shape, i):
        return (int(np.prod(_image(self, i, shape))),)

    def reads(self, read, shape):
        return shape[1:]  # all of its input

    def forward(self, matrix, x):
        sample_shape = x.shape[-3:]
        x = np.moveaxis(x, -1, -3)  # channels-last image -> (c, h, w)
        return x.reshape(x.shape[:-3] + (-1,)), sample_shape

    def backward(self, matrix, sample_shape, grad, d_matrix=None):
        h, w, c = sample_shape
        return np.moveaxis(grad.reshape(grad.shape[:-1] + (c, h, w)), -3, -1), None


class _ActivationOp:
    """Elementwise activation, computed in place both ways.

    An activation always follows a weighted layer or the pool that reads
    it, so its input is that op's fresh output, which no cache holds
    (both weighted layers cache their columns, a pool its switches); its
    incoming gradient is a fresh array, or a view of one, made by the op
    after it.  Overwriting either changes nothing that is read later.
    The cache is the ReLU sign pattern, or the tanh or logit output.

    `init_net` puts a ReLU after the pool that reads its layer, on a
    quarter of the values: max-pool and ReLU commute exactly.  Where a
    window's max is positive, the first tap that holds it is the same
    either way; where it is <= 0, every tap gets a zero gradient of the
    same sign either way.  A tanh or logit stays before the pool: a
    saturated tanh can map distinct inputs to one value, and the first
    max would then be another tap.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def forward(self, matrix, x):
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

    def backward(self, matrix, cache, grad, d_matrix=None):
        if self.kind == "relu":
            grad *= cache
        elif self.kind == "tanh":
            grad *= 1.0 - cache**2
        elif self.kind == "logit":  # grad * y * (1 - y)
            grad *= cache
            grad *= 1.0 - cache
        return grad, None


# ── nets ───────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class NetSpec:
    layers: tuple[Dense | Conv2D | Pool | Flatten, ...]
    activation: str = "relu"
    seed: int = 0
    input_shape: tuple[int, ...] = field(kw_only=True)  # (k,), (h, w) or (c, h, w)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("net needs at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Pool) and not (i and isinstance(self.layers[i - 1], Conv2D)):
                raise ValueError(f"{_where(layer, i)} reads no convolution: a pool reads "
                                 "the output of the Conv2D before it")


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


@dataclass
class TrainedNet:
    spec: NetSpec
    ops: list                        # placed layers and activations; they hold no arrays
    params: list[np.ndarray | None]  # per op: a weighted layer's [W; b], else None
    loss_curve: list[float]


# ── construction ───────────────────────────────────────────────────────

def _layer_shapes(spec: NetSpec, input_shape: tuple[int, ...] = ()):
    """Each layer's index, spec, input and output sample shape, from
    `input_shape` or else the spec's own.

    Checks that the shapes compose; a mismatch reports the offending
    layer pair.
    """
    shape = input_shape or spec.input_shape
    if len(shape) == 2:
        shape = (1,) + shape  # single input channel
    for i, layer in enumerate(spec.layers):
        out = layer.out_shape(shape, i)
        yield i, layer, shape, out
        shape = out
    if shape != (1,):
        raise ValueError(f"net output shape is {shape}, expected scalar (1,)")


def init_net(spec: NetSpec) -> TrainedNet:
    """Build a net with seeded fan-in-scaled uniform weights, zero biases.

    Walks the layer chain validating that shapes compose; a mismatch
    reports the offending layer pair.  Places each layer in the net: a
    first layer computes no input gradient, a convolution writes its
    output in the tap order of the pool that reads it (see `Conv2D`),
    and every weighted layer but the last is followed by an activation,
    a ReLU by the pool that reads it, if one does (see `_ActivationOp`).
    """
    rng = np.random.default_rng(spec.seed)
    layers = list(spec.layers)
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Pool):  # `NetSpec` has checked that a Conv2D comes before it
            layers[i - 1] = replace(layers[i - 1], pool=layer.size)
    last = max((i for i, layer in enumerate(layers) if _weighted(layer)), default=0)
    relu = spec.activation == "relu"
    activated = {i + (relu and isinstance(layers[i + 1], Pool))  # the layer it follows
                 for i in range(last) if _weighted(layers[i])}
    ops: list = []
    params: list = []
    for i, _, shape, _ in _layer_shapes(spec):
        weighted = _weighted(layers[i])
        params.append(layers[i].init(rng, shape) if weighted else None)
        ops.append(replace(layers[i], input_grad=i > 0) if weighted else layers[i])
        if i in activated:
            params.append(None)
            ops.append(_ActivationOp(spec.activation))
    return TrainedNet(spec=spec, ops=ops, params=params, loss_curve=[])


def _read_shape(spec: NetSpec) -> tuple[int, ...]:
    """The part of the input sample that the net's output reads: its
    shape, from the top-left corner; the whole input for a dense net.

    One backward walk from the `Flatten`, which reads all of its input:
    a pool of size p reads p rows per output row, which drops the last
    h mod p of its h rows, and a valid convolution with kernel k reads its
    output's rows + k - 1; the same holds for columns.  The pixels
    outside this extent get exactly zero gradient and reach no output.
    """
    read = None
    for _, layer, shape, _ in reversed(list(_layer_shapes(spec))):
        read = layer.reads(read, shape)
    return spec.input_shape if read is None else spec.input_shape[:-2] + read



# ── forward / training ─────────────────────────────────────────────────

def _as_batch(net: TrainedNet, inputs: np.ndarray, per_net: bool = False) -> np.ndarray:
    """A batch (n, ...), or (R, n, ...) when `per_net`, as floats, with
    the channel axis added for image inputs and images cropped to the
    rows and columns the output reads (`_read_shape`)."""
    x = np.asarray(inputs, dtype=float)
    expect = net.spec.input_shape
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
    output (as large as its input gradient) or a weighted layer's column
    matrix, one row per output pixel (one per sample for a dense layer)
    of its input patch and a 1.  A first layer's columns of inputs
    shared by all nets do not count: one copy per stack serves all of
    its nets."""
    largest = 0
    for i, layer, shape, out in _layer_shapes(spec, _read_shape(spec)):
        largest = max(largest, int(np.prod(out)))
        if _weighted(layer) and (i > 0 or per_net):
            largest = max(largest, int(np.prod(out[1:])) * layer.n_columns(shape))
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
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    nets = list(nets)
    if not nets:
        return []
    arch = [(n.spec.layers, n.spec.activation, n.spec.input_shape) for n in nets]
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

    size = max(1, STACK_BYTES // _round_bytes(nets[0].spec, n, per_net))
    trained = []
    for lo in range(0, n_nets, size):
        stack = slice(lo, lo + size)
        trained += _train_stack(nets[stack], x0[stack] if per_net else x0,
                                targets[stack] if targets.ndim == 2 else targets,
                                rounds, learning_rate)
    return trained


def _train_stack(nets: list[TrainedNet], x0: np.ndarray, targets: np.ndarray,
                 rounds: int, learning_rate: float) -> list[TrainedNet]:
    """`train_many` on one stack: `x0` is the batch as `_as_batch` gives
    it, `targets` (n,) or (R, n)."""
    ops = nets[0].ops
    n = targets.shape[-1]
    # One flat parameter vector and one flat gradient for the stack: each
    # weighted layer's stacked [W; b] and its gradient are contiguous
    # views into them, so a round's update is one pass over each.
    shapes = [None if p is None else (len(nets),) + p.shape for p in nets[0].params]
    size = sum(math.prod(shape) for shape in shapes if shape is not None)
    theta, d_theta = np.empty(size), np.empty(size)
    params, grads = _views(theta, shapes), _views(d_theta, shapes)
    for p, column in zip(params, zip(*(net.params for net in nets))):
        if p is not None:
            np.stack(column, out=p)
    # Column matrices of this stack, by op.  Every round feeds the first
    # layer the same batch, so a weighted first layer's columns are built
    # once; a later weighted layer refills its buffer every round (see
    # README, "Neural training": fresh ones could re-fault every round).
    # Returning frees them all.
    cols = [None] * len(ops)
    if _weighted(ops[0]):
        cols[0] = ops[0].columns(x0)
    losses, caches = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for round_no in range(1, rounds + 1):
            x = x0
            for i, (op, p) in enumerate(zip(ops, params)):
                if _weighted(op):
                    if i > 0:
                        cols[i] = op.columns(x, cols[i])
                    x, cache = op.forward(p, x, cols[i])
                else:
                    x, cache = op.forward(p, x)
                caches.append(cache)
            err = x[..., 0] - targets  # (R, n)
            loss = np.add.reduce(err**2, axis=-1) / n  # np.mean's sum and division
            if not np.isfinite(loss).all():
                raise TrainingDivergedError(f"non-finite loss at round {round_no}")
            losses.append(loss)
            # popping frees each cache once read, before the next round allocates;
            # every input gradient reads the round's matrices before the update
            grad = (2.0 * err / n)[..., None]
            for op, p, d in zip(reversed(ops), reversed(params), reversed(grads)):
                grad = op.backward(p, caches.pop(), grad, d)[0]
            np.multiply(learning_rate, d_theta, out=d_theta)
            theta -= d_theta

    curves = np.array(losses).T.tolist()
    return [TrainedNet(net.spec, net.ops, [None if p is None else p[r].copy() for p in params],
                       net.loss_curve + curves[r])
            for r, net in enumerate(nets)]


def _views(flat: np.ndarray, shapes: list) -> list[np.ndarray | None]:
    """Consecutive views of `flat`, one per shape, None for None."""
    views, start = [], 0
    for shape in shapes:
        if shape is None:
            views.append(None)
            continue
        end = start + math.prod(shape)
        views.append(flat[start:end].reshape(shape))
        start = end
    return views
