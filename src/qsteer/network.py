"""Feed-forward action-value network with hand-rolled backpropagation.

Everything is plain float64 numpy: forward pass, gradients, an Adam
optimizer, and an npz checkpoint format. The loss is the mean squared
error on the selected action's output only; the other heads receive no
error signal. Gradients are validated against central finite differences
in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

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

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MLPSpec:
    """Network layout: input width, hidden widths, output heads."""

    input_size: int
    hidden: tuple[int, ...] = (128, 128)
    output_size: int = 7
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        widths = (self.input_size, *self.hidden, self.output_size)
        if any(w < 1 for w in widths):
            raise ValueError(f"all layer widths must be >= 1, got {widths}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden, self.output_size)


@dataclass
class MLPParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def clone(self) -> "MLPParams":
        return MLPParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases], self.activation)

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
    return MLPParams(weights, biases, spec.activation)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    return 1.0 - np.tanh(z) ** 2


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Action values for one state vector or a batch of them.

    Pure function: no internal state is touched. A 1-D input yields a 1-D
    output of one value per action.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.weights[0].shape[0]:
        raise ShapeMismatch(
            f"input width {h.shape[1]} does not match network input "
            f"{params.weights[0].shape[0]}"
        )
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = _activate(h @ w + b, params.activation)
    out = h @ params.weights[-1] + params.biases[-1]
    return out[0] if single else out


def gradients(params: MLPParams, inputs: np.ndarray, actions: np.ndarray,
              targets: np.ndarray):
    """Backpropagated gradients of the selected-head MSE.

    loss = mean over the batch of (q(s, a) - y)^2, where only each
    sample's chosen action contributes. Returns (weight grads, bias
    grads, loss). For a single linear layer this reduces to the textbook
    2*(q - y)*x per-sample gradient.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D input batch, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be non-empty")
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)

    pre, post = [], [x]
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = _activate(z, params.activation)
        post.append(h)
    q = h @ params.weights[-1] + params.biases[-1]

    rows = np.arange(n)
    selected = q[rows, actions]
    loss = float(np.mean((selected - targets) ** 2))
    delta = np.zeros_like(q)
    delta[rows, actions] = 2.0 * (selected - targets) / n

    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    for layer in range(len(params.weights) - 1, -1, -1):
        grad_w[layer] = post[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * _activate_grad(
                pre[layer - 1], params.activation
            )
    return grad_w, grad_b, loss


@dataclass
class AdamState:
    """First/second moment accumulators for adaptive moment descent."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: MLPParams) -> "AdamState":
        return cls(
            m_w=[np.zeros_like(w) for w in params.weights],
            v_w=[np.zeros_like(w) for w in params.weights],
            m_b=[np.zeros_like(b) for b in params.biases],
            v_b=[np.zeros_like(b) for b in params.biases],
        )


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
    grad_w, grad_b, loss = gradients(params, inputs, actions, targets)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss diverged to {loss}")

    if grad_clip is not None:
        norm_sq = sum(float((g ** 2).sum()) for g in grad_w)
        norm_sq += sum(float((g ** 2).sum()) for g in grad_b)
        norm = np.sqrt(norm_sq)
        if norm > grad_clip:
            scale = grad_clip / norm
            grad_w = [g * scale for g in grad_w]
            grad_b = [g * scale for g in grad_b]

    adam.t += 1
    corr1 = 1.0 - adam.beta1 ** adam.t
    corr2 = 1.0 - adam.beta2 ** adam.t
    for i in range(len(params.weights)):
        for value, grad, m, v in (
            (params.weights[i], grad_w[i], adam.m_w[i], adam.v_w[i]),
            (params.biases[i], grad_b[i], adam.m_b[i], adam.v_b[i]),
        ):
            m *= adam.beta1
            m += (1.0 - adam.beta1) * grad
            v *= adam.beta2
            v += (1.0 - adam.beta2) * grad ** 2
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + adam.eps)
    return loss


def soft_update(target: MLPParams, main: MLPParams, rho_mix: float) -> MLPParams:
    """Blend target parameters toward the main network's, in place:
    target = (1 - rho_mix) * target + rho_mix * main."""
    if target.layer_sizes != main.layer_sizes:
        raise ShapeMismatch(
            f"layer sizes {target.layer_sizes} vs {main.layer_sizes}"
        )
    for tw, mw in zip(target.weights, main.weights):
        tw *= 1.0 - rho_mix
        tw += rho_mix * mw
    for tb, mb in zip(target.biases, main.biases):
        tb *= 1.0 - rho_mix
        tb += rho_mix * mb
    return target


def save_params(path, params: MLPParams, spec: MLPSpec, step: int = 0,
                extra: dict | None = None) -> None:
    """Write a self-describing checkpoint (npz, format version 1).

    The file stores every layer array bit-exactly plus a JSON header with
    the layout, init seed, and the training-step index the copy was taken
    at. Extra metadata entries must be JSON-serializable.
    """
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION, **asdict(spec),
            "step": int(step)}
    if extra:
        meta.update(extra)
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path, expected_spec: MLPSpec | None = None):
    """Load a checkpoint; returns (params, spec, meta).

    Raises SchemaMismatch when the file is malformed or, if expected_spec
    is given, when the stored layout disagrees with it.
    """
    with np.load(path) as data:
        if "meta" not in data:
            raise SchemaMismatch(f"{path}: missing checkpoint header")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SchemaMismatch(f"{path}: unreadable checkpoint header") from exc
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise SchemaMismatch(
                f"{path}: format version {meta.get('format_version')} unsupported"
            )
        try:
            layout = {f.name: meta[f.name] for f in fields(MLPSpec)}
            layout["hidden"] = tuple(layout["hidden"])  # JSON stores it as a list
            spec = MLPSpec(**layout)
        except (KeyError, ValueError) as exc:
            raise SchemaMismatch(f"{path}: bad layout header: {exc}") from exc
        n_layers = len(spec.layer_sizes) - 1
        weights, biases = [], []
        for i in range(n_layers):
            if f"w{i}" not in data or f"b{i}" not in data:
                raise SchemaMismatch(f"{path}: missing layer {i} arrays")
            weights.append(np.array(data[f"w{i}"]))
            biases.append(np.array(data[f"b{i}"]))
    params = MLPParams(weights, biases, spec.activation)
    expected = tuple(spec.layer_sizes)
    actual = tuple(params.layer_sizes)
    if actual != expected:
        raise SchemaMismatch(f"{path}: stored arrays {actual} do not match header {expected}")
    if expected_spec is not None and (
        expected_spec.layer_sizes != spec.layer_sizes
        or expected_spec.activation != spec.activation
    ):
        raise SchemaMismatch(
            f"{path}: checkpoint layout {spec.layer_sizes}/{spec.activation} does not "
            f"match configured {expected_spec.layer_sizes}/{expected_spec.activation}"
        )
    return params, spec, meta
