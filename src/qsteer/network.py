"""Feed-forward action-value network with hand-rolled backpropagation.

Everything is plain float64 numpy: forward pass, gradients, an Adam
optimizer, and an npz checkpoint format. The loss is the mean squared
error on the selected action's output only; the other heads receive no
error signal. Gradients are validated against central finite differences
in the test suite.

Every weight and bias is a view into one contiguous parameter vector, and
gradients and optimizer moments share that layout (per layer: weights row
by row, then bias). Copies, blends and optimizer steps are therefore a few
in-place whole-vector operations.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import NonFiniteLoss, SchemaMismatch, ShapeMismatch

__all__ = [
    "MLPSpec",
    "MLPParams",
    "AdamState",
    "init_params",
    "forward",
    "gradients",
    "train_batch",
    "soft_update",
    "save_params",
    "load_params",
]

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MLPSpec:
    """Network layout: input width, ReLU hidden widths, output heads."""

    input_size: int
    hidden: tuple[int, ...] = (128, 128)
    output_size: int = 7
    init_seed: int = 0

    def __post_init__(self):
        widths = (self.input_size, *self.hidden, self.output_size)
        if any(w < 1 for w in widths):
            raise ValueError(f"all layer widths must be >= 1, got {widths}")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be >= 0, got {self.init_seed}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden, self.output_size)


def _layer_views(flat: np.ndarray, sizes: tuple[int, ...]):
    """Per-layer (fan_in x fan_out) weight and bias views into flat."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class MLPParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors.

    The given arrays are copied into one float64 vector, flat; weights
    and biases are then views into it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w_shapes = [np.shape(w) for w in self.weights]
        b_shapes = [np.shape(b) for b in self.biases]
        sizes = self.layer_sizes if w_shapes and all(len(s) == 2 for s in w_shapes) else ()
        if (not sizes or w_shapes != list(zip(sizes[:-1], sizes[1:]))
                or b_shapes != [(n,) for n in sizes[1:]]):
            raise ShapeMismatch(
                f"layer arrays do not chain: weights {w_shapes}, biases {b_shapes}")
        self.flat = np.concatenate(
            [np.ravel(a) for pair in zip(self.weights, self.biases) for a in pair],
            dtype=float)
        self.weights, self.biases = _layer_views(self.flat, sizes)

    def clone(self) -> "MLPParams":
        return MLPParams(self.weights, self.biases)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))


def init_params(spec: MLPSpec) -> MLPParams:
    """Scaled uniform fan-in initialization, reproducible from init_seed."""
    rng = np.random.default_rng(spec.init_seed)
    sizes = spec.layer_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MLPParams(weights, biases)


def _layers(params: MLPParams, x: np.ndarray) -> list[np.ndarray]:
    """Each layer's output for the batch x, x first; all but the last through ReLU."""
    outs = [x]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        z = outs[-1] @ w
        z += b
        outs.append(z if layer == len(params.weights) else np.maximum(z, 0.0, out=z))
    return outs


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Action values for a batch of state vectors, one row per state.

    Pure function: no internal state is touched. A row's values have the
    same bits whatever batch it is in.
    """
    h = np.asarray(x, dtype=float)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[0]:
        raise ShapeMismatch(
            f"input shape {h.shape} is not a batch of network inputs of width "
            f"{params.weights[0].shape[0]}"
        )
    n = len(h)
    if n == 1:
        # numpy multiplies a one-row batch on its matrix-vector path, which
        # rounds differently from the matrix-matrix path of a larger batch
        h = np.concatenate([h, h])
    return _layers(params, h)[-1][:n]


def gradients(params: MLPParams, inputs: np.ndarray, actions: np.ndarray,
              targets: np.ndarray, out: np.ndarray | None = None):
    """Backpropagated gradients of the selected-head MSE.

    loss = mean over the batch of (q(s, a) - y)^2, where only each
    sample's chosen action contributes. Returns (weight grads, bias
    grads, loss); the grads are views into out, a vector in the layout of
    params.flat (a new one when out is None). For a single linear layer
    this reduces to the textbook 2*(q - y)*x per-sample gradient.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D input batch, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be non-empty")
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)

    *post, q = _layers(params, x)

    rows = np.arange(n)
    selected = q[rows, actions]
    loss = float(np.mean((selected - targets) ** 2))
    delta = np.zeros_like(q)
    delta[rows, actions] = 2.0 * (selected - targets) / n

    grad_w, grad_b = _layer_views(np.empty_like(params.flat) if out is None else out,
                                  params.layer_sizes)
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(post[layer].T, delta, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            delta = delta @ params.weights[layer].T
            delta *= post[layer] > 0
    return grad_w, grad_b, loss


#: Adam's moment decay rates and denominator offset.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
#: Every this many steps, train_batch zeroes the subnormal entries of Adam's m.
_FLUSH_EVERY = 256
_TINY = np.finfo(float).tiny


@dataclass
class AdamState:
    """First/second moment accumulators for adaptive moment descent.

    m and v are flat in the layout of MLPParams.flat; grad and scratch
    are the buffers one step works in, so a step allocates no vector of
    parameter size.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grad = np.empty_like(self.m)
        self.scratch = np.empty_like(self.m)

    @classmethod
    def for_params(cls, params: MLPParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def train_batch(params: MLPParams, inputs: np.ndarray, actions: np.ndarray,
                targets: np.ndarray, adam: AdamState, lr: float = 1e-3,
                grad_clip: float | None = None) -> float:
    """One optimizer step on a batch; returns the pre-update loss.

    Updates params in place. When grad_clip is set, the global gradient
    norm is rescaled down to that value first. Raises NonFiniteLoss if
    the loss diverges.
    """
    if not np.all(np.isfinite(targets)):
        raise NonFiniteLoss("non-finite target values")
    g, s = adam.grad, adam.scratch
    _, _, loss = gradients(params, inputs, actions, targets, out=g)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss diverged to {loss}")

    if grad_clip is not None:
        # summed per layer, weights first, so the norm's bits do not depend
        # on the flat layout
        sq_w, sq_b = _layer_views(np.square(g, out=s), params.layer_sizes)
        norm_sq = sum(float(a.sum()) for a in sq_w)
        norm_sq += sum(float(a.sum()) for a in sq_b)
        norm = np.sqrt(norm_sq)
        if norm > grad_clip:
            g *= grad_clip / norm

    # Adam in the per-element order of operations of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    #   params -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
    adam.t += 1
    corr1 = 1.0 - _BETA1 ** adam.t
    corr2 = 1.0 - _BETA2 ** adam.t
    adam.m *= _BETA1
    adam.m += np.multiply(g, 1.0 - _BETA1, out=s)
    adam.v *= _BETA2
    adam.v += np.multiply(np.square(g, out=s), 1.0 - _BETA2, out=s)
    np.sqrt(np.divide(adam.v, corr2, out=s), out=s)
    s += _EPS
    np.multiply(np.divide(adam.m, corr1, out=g), lr, out=g)
    g /= s
    params.flat -= g
    if adam.t % _FLUSH_EVERY == 0:
        # m *= beta1 never reaches 0: it stalls among the subnormals
        # (0.9 * 5e-324 == 5e-324), where every operation on it is slow, and
        # such an m moves no weight
        adam.m[np.abs(adam.m) < _TINY] = 0.0
    return loss


def soft_update(target: MLPParams, main: MLPParams, rho_mix: float) -> MLPParams:
    """Blend target parameters toward the main network's, in place:
    target = (1 - rho_mix) * target + rho_mix * main."""
    if target.layer_sizes != main.layer_sizes:
        raise ShapeMismatch(
            f"layer sizes {target.layer_sizes} vs {main.layer_sizes}"
        )
    target.flat *= 1.0 - rho_mix
    target.flat += rho_mix * main.flat
    return target


def save_params(path, params: MLPParams, spec: MLPSpec, step: int = 0,
                extra: dict | None = None) -> None:
    """Write a self-describing checkpoint (npz, format version 1).

    The file stores every layer array bit-exactly plus a JSON header with
    the layout, init seed, and the training-step index the copy was taken
    at. Extra metadata entries must be JSON-serializable. The file is
    written beside the target under a temporary name and then renamed onto
    it, so a write that fails leaves the earlier file whole.
    """
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION, **asdict(spec),
            "step": int(step)}
    if extra:
        meta.update(extra)
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(partial, path)
    finally:
        with contextlib.suppress(FileNotFoundError):  # gone once renamed
            os.remove(partial)


def load_params(path, expected_spec: MLPSpec | None = None):
    """Load a checkpoint; returns (params, spec, meta).

    Raises SchemaMismatch when the file cannot be read as a checkpoint,
    when a layer array is not the finite float64 save_params writes or, if
    expected_spec is given, when the stored layout disagrees with it.
    Older headers name their activation, which must be relu. The
    diverged_step*.npz a diverging run dumps may hold NaN or inf and is
    refused here; np.load reads it.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SchemaMismatch(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc
    with fh:  # np.load(path) would leave a torn zip's handle to the garbage collector
        try:
            data = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # text, empty, corrupt
            raise SchemaMismatch(f"{path}: not an npz checkpoint") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
            raise SchemaMismatch(f"{path}: not an npz checkpoint")
        with data:
            if "meta" not in data:
                raise SchemaMismatch(f"{path}: missing checkpoint header")
            try:
                meta = json.loads(bytes(data["meta"]).decode())
            except (ValueError, UnicodeDecodeError) as exc:
                raise SchemaMismatch(f"{path}: unreadable checkpoint header") from exc
            if not isinstance(meta, dict):
                raise SchemaMismatch(f"{path}: checkpoint header {meta!r} is not an object")
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise SchemaMismatch(
                    f"{path}: format version {meta.get('format_version')} unsupported"
                )
            try:
                layout = {f.name: meta[f.name] for f in fields(MLPSpec)}
                layout["hidden"] = tuple(layout["hidden"])  # JSON stores it as a list
                spec = MLPSpec(**layout)
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a wrong JSON type
                raise SchemaMismatch(f"{path}: bad layout header: {exc}") from exc
            if meta.get("activation", "relu") != "relu":
                raise SchemaMismatch(f"{path}: activation {meta['activation']!r} is not relu")
            n_layers = len(spec.layer_sizes) - 1
            weights, biases = [], []
            for i in range(n_layers):
                for key, arrays in ((f"w{i}", weights), (f"b{i}", biases)):
                    if key not in data:
                        raise SchemaMismatch(f"{path}: missing layer {i} arrays")
                    try:
                        array = data[key]
                    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # object, corrupt
                        raise SchemaMismatch(f"{path}: unreadable array {key}: {exc}") from exc
                    if array.dtype != np.float64:
                        raise SchemaMismatch(f"{path}: array {key} is {array.dtype}, not float64")
                    if not np.isfinite(array).all():
                        raise SchemaMismatch(f"{path}: array {key} holds non-finite values")
                    arrays.append(array)
    try:
        params = MLPParams(weights, biases)
    except ShapeMismatch as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc
    expected = tuple(spec.layer_sizes)
    actual = tuple(params.layer_sizes)
    if actual != expected:
        raise SchemaMismatch(f"{path}: stored arrays {actual} do not match header {expected}")
    if expected_spec is not None and expected_spec.layer_sizes != spec.layer_sizes:
        raise SchemaMismatch(f"{path}: checkpoint layout {spec.layer_sizes} does not "
                             f"match configured {expected_spec.layer_sizes}")
    return params, spec, meta
