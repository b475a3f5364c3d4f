"""Episodic environment: a measurement-controlled central-spin system.

Each step lets the full system evolve freely for one interval tau and then
applies one of seven actions: a projection of the central spin onto one of
the six cardinal Bloch states, or nothing. Projections are post-selected:
the chosen branch is taken deterministically and its probability is
reported, so an episode's product of branch probabilities is the success
rate of reproducing it on hardware. Outcomes are therefore never sampled.

The observed state is the full density matrix, flattened losslessly to a
real vector (Hermiticity plus unit trace make the on-and-above-diagonal
entries, minus one diagonal element, a complete parameterization). With
two bath spins that is 70 numbers.

The bath holds any even number of spins. The target is one copy of the
named Bell pair per two bath spins, (bath_1, bath_2) (x) (bath_3,
bath_4) (x) ..., so with two bath spins it is the Bell state itself.

``QSEEnv.step_batch`` advances a stack of states by one step each, with
one conjugation ``M rho M^dagger`` per row (``M = P U`` for a projection,
``U`` for doing nothing); ``QSEEnv.step`` is its one-row form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EpisodeFinished
from .linalg import kron_all, partial_trace_first
from .model import (
    BELL_NAMES,
    SPIN_STATES,
    ModelParams,
    bell_state,
    build_propagator,
    central_product_state,
    central_projector,
    fidelity_to_pure,
    hilbert_dim,
    measure,
)

__all__ = [
    "ACTION_TOKENS",
    "ACTION_COUNT",
    "DO_NOTHING",
    "EnvConfig",
    "EnvState",
    "StepResult",
    "BatchStep",
    "OUTCOMES",
    "QSEEnv",
    "encoding_length",
    "encode_state",
    "decode_state",
    "episode_return",
    "start_state_vector",
]

#: Action index -> token. Order: z+, z-, x+, x-, y+, y-, do nothing.
ACTION_TOKENS = ("Pz+", "Pz-", "Px+", "Px-", "Py+", "Py-", "-")
ACTION_COUNT = 7
DO_NOTHING = 6

_PROJECTOR_SPEC = (("z", "+"), ("z", "-"), ("x", "+"), ("x", "-"), ("y", "+"), ("y", "-"))

START_MODES = ("fixed_xplus", "random_pure", "fixed_custom")

#: Outcome code -> name, as returned by ``QSEEnv.classify``.
OUTCOMES = ("continue", "success", "timeout", "fatal")
CONTINUE, SUCCESS, TIMEOUT, FATAL = range(4)


@dataclass(frozen=True)
class EnvConfig:
    """Episode parameters: model, target, rewards, and start-state policy.

    r_fatal punishes choosing a branch whose probability is at or below
    ``floor`` (the state could not be renormalized); it must not beat the
    worst regular episode, i.e. r_fatal <= r_minus * max_steps. The
    model's bath must pair up: n_bath is even and at least 2.
    """

    model: ModelParams = field(default_factory=ModelParams)
    target: str = "psi-"
    theta: float = 0.99
    r_plus: float = 10.0
    r_minus: float = -1.0
    r_fatal: float = -51.0
    max_steps: int = 50
    start_mode: str = "fixed_xplus"
    custom_start: tuple[complex, complex] | None = None
    floor: float = 1e-8

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.r_fatal > self.r_minus * self.max_steps:
            raise ValueError(
                f"r_fatal={self.r_fatal} must not exceed r_minus*max_steps="
                f"{self.r_minus * self.max_steps} (fatal must never be preferable)"
            )
        if self.target not in BELL_NAMES:
            raise ValueError(f"target must be one of {BELL_NAMES}, got {self.target!r}")
        if self.model.n_bath < 2 or self.model.n_bath % 2:
            raise ValueError(
                f"n_bath must be even and >= 2 (one target pair per two bath spins), "
                f"got {self.model.n_bath}"
            )
        if self.start_mode not in START_MODES:
            raise ValueError(f"start_mode must be one of {START_MODES}, got {self.start_mode!r}")
        if self.start_mode == "fixed_custom" and self.custom_start is None:
            raise ValueError("start_mode=fixed_custom requires custom_start amplitudes")
        if not self.floor > 0:
            raise ValueError(f"floor must be positive, got {self.floor}")


@dataclass(frozen=True)
class EnvState:
    """Encoded observation plus the exact density matrix behind it."""

    encoding: np.ndarray
    rho: np.ndarray
    step_count: int = 0
    done: bool = False
    start_label: str = ""


@dataclass(frozen=True)
class StepResult:
    next: EnvState
    reward: float
    done: bool
    success_prob: float
    outcome: str  # success | continue | timeout | fatal
    fidelity: float


class BatchStep(NamedTuple):
    """One step of a stack of states; row i belongs to input row i.

    A fatal row (branch probability at or below the floor) holds the
    evolved, unprojected state and a NaN fidelity.
    """

    rho: np.ndarray       # (N, dim, dim)
    bath: np.ndarray      # (N, 2**n_bath, 2**n_bath) reduced state of the bath
    prob: np.ndarray      # (N,) branch probability, exactly 1 when idle
    fidelity: np.ndarray  # (N,) bath fidelity to the target
    fatal: np.ndarray     # (N,) bool


def encoding_length(dim: int) -> int:
    """Real numbers needed for a dim x dim density matrix: dim*(dim+1) - 2."""
    return dim * (dim + 1) - 2


@lru_cache(maxsize=8)
def _triu_indices(dim: int):
    iu, ju = np.triu_indices(dim)
    keep = np.ones(len(iu), dtype=bool)
    keep[-1] = False  # the last diagonal entry is fixed by the unit trace
    return iu[keep], ju[keep]


def encode_state(rho: np.ndarray) -> np.ndarray:
    """Flatten rho to reals: on-and-above-diagonal entries in row-major
    order, last diagonal entry dropped, each complex entry emitted as a
    (real, imaginary) pair. Leading axes of a stack of matrices are kept."""
    dim = rho.shape[-1]
    iu, ju = _triu_indices(dim)
    entries = rho[..., iu, ju]
    out = np.empty(entries.shape[:-1] + (2 * entries.shape[-1],))
    out[..., 0::2] = entries.real
    out[..., 1::2] = entries.imag
    return out


def decode_state(encoding: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of encode_state, restoring Hermiticity and unit trace."""
    iu, ju = _triu_indices(dim)
    entries = encoding[0::2] + 1j * encoding[1::2]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[iu, ju] = entries
    lower = rho.conj().T.copy()
    np.fill_diagonal(lower, 0.0)
    rho += lower
    rho[dim - 1, dim - 1] = 1.0 - np.sum(rho.diagonal()[: dim - 1]).real
    return rho


def episode_return(rewards, gamma: float) -> float:
    """Discounted sum of a reward sequence, evaluated from its start."""
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    total = 0.0
    for i, r in enumerate(rewards):
        total += (gamma ** i) * r
    return total


class QSEEnv:
    """One environment instance; owns its precomputed operators.

    Instances are cheap and single-threaded. ``step`` is deterministic
    given (state, action); randomness only enters through ``reset`` in
    random_pure mode, via the generator the caller passes in.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        n = cfg.model.n_bath
        self.dim = hilbert_dim(n)
        self.propagator = build_propagator(cfg.model)
        self._propagator_dag = self.propagator.conj().T
        self.projectors = tuple(
            central_projector(axis, sign, n) for axis, sign in _PROJECTOR_SPEC
        )
        self.target_vector = kron_all(*[bell_state(cfg.target)] * (n // 2))
        self.target_matrix = np.outer(self.target_vector, self.target_vector.conj())
        # branch operator per action index: P_a U for a projection, U for idle
        self._step_ops = np.stack([p @ self.propagator for p in self.projectors]
                                  + [self.propagator])
        self.rewards = np.array([cfg.r_minus, cfg.r_plus, cfg.r_minus, cfg.r_fatal])
        self._fixed_start = None
        if cfg.start_mode != "random_pure":
            central, label = self._start(None)
            rho = central_product_state(central, n)
            enc = encode_state(rho)
            rho.flags.writeable = enc.flags.writeable = False
            self._fixed_start = (enc, rho, label)

    # -- start states -------------------------------------------------

    def _start(self, rng: np.random.Generator | None):
        cfg = self.cfg
        if cfg.start_mode == "fixed_xplus":
            return SPIN_STATES["x+"], "x+"
        if cfg.start_mode == "fixed_custom":
            v = np.asarray(cfg.custom_start, dtype=complex)
            v = v / np.linalg.norm(v)
            return v, _label_for(v)
        if rng is None:
            raise ValueError("random_pure start mode needs a random generator")
        # two independent complex standard Gaussians, normalized: uniform
        # over single-spin pure states
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = raw / np.linalg.norm(raw)
        return v, _label_for(v)

    def reset(self, rng: np.random.Generator | None = None) -> EnvState:
        """Start state of a new episode. A fixed start is built once per
        instance and shared read-only; a random start draws from rng."""
        if self._fixed_start is not None:
            enc, rho, label = self._fixed_start
        else:
            central, label = self._start(rng)
            rho = central_product_state(central, self.cfg.model.n_bath)
            enc = encode_state(rho)
        return EnvState(encoding=enc, rho=rho, step_count=0, done=False,
                        start_label=label)

    # -- dynamics ------------------------------------------------------

    def step_batch(self, rho: np.ndarray, actions) -> BatchStep:
        """Evolve each state for tau and apply its action, all in one pass.

        rho is an (N, dim, dim) stack and actions N action indices. Each
        row's result is bit-identical whatever the stack around it. An idle
        row's state is renormalized by its trace, which differs from 1 only
        by round-off, and its probability reads exactly 1.
        """
        actions = np.asarray(actions, dtype=np.intp)
        if actions.size and not 0 <= actions.min() <= actions.max() < ACTION_COUNT:
            raise ValueError(f"action indices must be in [0, {ACTION_COUNT}), got {actions}")
        out, prob = measure(rho, self._step_ops[actions], self.cfg.floor)
        prob[actions == DO_NOTHING] = 1.0
        fatal = prob <= self.cfg.floor
        if fatal.any():
            out[fatal] = self.propagator @ rho[fatal] @ self._propagator_dag
        bath = partial_trace_first(out, 2)
        fid = fidelity_to_pure(bath, self.target_vector)
        fid[fatal] = np.nan
        return BatchStep(out, bath, prob, fid, fatal)

    def classify(self, fidelity: np.ndarray, fatal: np.ndarray, step_count) -> np.ndarray:
        """Outcome codes (indices into OUTCOMES) of steps that ended after
        step_count steps; ``self.rewards[code]`` is each step's reward.

        Exactly one of the four cases fires: fatal (branch probability at
        or below the floor), success (bath fidelity above theta), continue,
        or timeout (step budget exhausted).
        """
        code = np.where(fidelity > self.cfg.theta, SUCCESS,
                        np.where(step_count < self.cfg.max_steps, CONTINUE, TIMEOUT))
        return np.where(fatal, FATAL, code)

    def step(self, state: EnvState, action: int) -> StepResult:
        """Evolve for tau, apply the chosen action, and score the result:
        one row of ``step_batch``, encoded, plus ``classify``."""
        if state.done:
            raise EpisodeFinished(f"episode already ended after {state.step_count} steps")
        if not 0 <= action < ACTION_COUNT:
            raise ValueError(f"action index must be in [0, {ACTION_COUNT}), got {action}")
        out = self.step_batch(state.rho[None], [action])
        m = state.step_count + 1
        code = int(self.classify(out.fidelity, out.fatal, m)[0])
        done = code != CONTINUE
        nxt = EnvState(encode_state(out.rho[0]), out.rho[0], m, done, state.start_label)
        return StepResult(nxt, float(self.rewards[code]), done, float(out.prob[0]),
                          OUTCOMES[code], float(out.fidelity[0]))


def _label_for(v: np.ndarray) -> str:
    for name, ref in SPIN_STATES.items():
        # match up to global phase
        if abs(abs(np.vdot(ref, v)) - 1.0) < 1e-12:
            return name
    return f"({v[0]:.6f},{v[1]:.6f})"


def start_state_vector(name: str) -> np.ndarray:
    """Named single-spin state for CLI start overrides."""
    if name not in SPIN_STATES:
        raise ValueError(f"unknown start state {name!r}; expected one of {sorted(SPIN_STATES)}")
    return SPIN_STATES[name]
