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
``U`` for doing nothing), or by all seven actions each for the search;
``QSEEnv.step`` is its one-row form. It is ``QSEEnv.conjugate``, the
only part a step needs of the one before it, followed by
``QSEEnv.score``: the fatal flag, the bath and its fidelity, row by row,
so a replay conjugates step by step and scores its whole sequence once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EpisodeFinished
from .model import (
    BELL_NAMES,
    SPIN_STATES,
    ModelParams,
    bell_state,
    build_propagator,
    central_product_state,
    central_projector,
    fidelity_to_pure,
    kron_all,
    measure,
    normalize_states,
    partial_trace_first,
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
        if (self.start_mode == "fixed_custom") != (self.custom_start is not None):
            raise ValueError(f"custom_start {self.custom_start} with start_mode "
                             f"{self.start_mode}: only fixed_custom takes one, and needs one")
        if self.custom_start is not None:
            norm = np.linalg.norm(np.asarray(self.custom_start, dtype=complex))
            if not 0 < norm < np.inf:
                raise ValueError(f"custom_start {self.custom_start} cannot be normalized "
                                 f"(norm {norm})")
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
    """One step of a stack of states; row i belongs to input row i. In
    the every-action form each field gains an action axis after N.

    A fatal row (branch probability at or below the floor) holds the
    unnormalized branch ``measure`` returns, its bath and a NaN
    fidelity: no caller steps on from it.
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


@lru_cache(maxsize=4)  # one set is about 4 MB at n_bath = 6
def _setup(cfg: EnvConfig):
    """Everything an env of cfg reads, built once per process for each
    config and shared, read-only, by every env of an equal config: the
    seven branch operators, (7, dim, dim), P_a U for central projection a
    and the propagator U itself for idle, so that action a's step is the
    ``measure`` of a state by operator a; the target's state vector and
    density matrix (one copy of the named Bell pair per two bath spins);
    and a fixed start's (state, encoding, label), or None in random_pure
    mode.

    Equal configs give the same bits and labels whichever is built first:
    build_hamiltonian sums into a +0.0 array and ``_product_states``
    unsigns the start's zeros, so signed zeros in the config reach
    neither.
    """
    n_bath = cfg.model.n_bath
    propagator = build_propagator(cfg.model)
    branch_operators = np.stack([central_projector(axis, sign, n_bath) @ propagator
                                 for axis, sign in _PROJECTOR_SPEC] + [propagator])
    target = kron_all(*[bell_state(cfg.target)] * (n_bath // 2))
    target_matrix = np.outer(target, target.conj())
    arrays = [branch_operators, target, target_matrix]
    fixed_start = None
    if cfg.start_mode != "random_pure":
        central = (SPIN_STATES["x+"] if cfg.custom_start is None
                   else normalize_states(cfg.custom_start))
        (rho,), (enc,), (label,) = _product_states(central[None], n_bath)
        fixed_start = rho, enc, label
        arrays += [rho, enc]
    for a in arrays:
        a.flags.writeable = False
    return branch_operators, target, target_matrix, fixed_start


def _product_states(central: np.ndarray, n_bath: int):
    central = central + 0  # a signed zero would reach the bits and the label
    rho = central_product_state(central, n_bath)
    return rho, encode_state(rho), _labels_for(central)


class QSEEnv:
    """One environment instance: a target and a start policy on a model.

    The model's operators, the target and a fixed start come from
    ``_setup``, shared with every env of an equal config, so an instance
    builds nothing that an equal env built before it. Single-threaded.
    ``step`` is deterministic given (state, action); randomness only
    enters through ``starts`` in random_pure mode, via the generators the
    caller passes in.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.dim = cfg.model.dim
        (self.branch_operators, self.target_vector, self.target_matrix,
         self._fixed_start) = _setup(cfg)
        self.rewards = np.array([cfg.r_minus, cfg.r_plus, cfg.r_minus, cfg.r_fatal])

    # -- start states -------------------------------------------------

    def starts(self, rngs: Sequence[np.random.Generator | None]):
        """Start states of len(rngs) new episodes, stacked: (rho, encodings,
        labels). A fixed start is broadcast from the shared read-only
        arrays; a random start draws from its own generator."""
        n = len(rngs)
        if self._fixed_start is not None:
            rho, enc, label = self._fixed_start
            return (np.broadcast_to(rho, (n,) + rho.shape),
                    np.broadcast_to(enc, (n,) + enc.shape), [label] * n)
        if any(rng is None for rng in rngs):
            raise ValueError("random_pure start mode needs a random generator")
        # two independent complex standard Gaussians, normalized: uniform
        # over single-spin pure states
        draws = np.array([(rng.standard_normal(2), rng.standard_normal(2)) for rng in rngs])
        return _product_states(normalize_states(draws[:, 0] + 1j * draws[:, 1]),
                               self.cfg.model.n_bath)

    def reset(self, rng: np.random.Generator | None = None) -> EnvState:
        """Start state of a new episode: one row of ``starts``. A fixed
        start is the shared read-only pair itself."""
        if self._fixed_start is not None:
            rho, enc, label = self._fixed_start
        else:
            (rho,), (enc,), (label,) = self.starts([rng])
        return EnvState(encoding=enc, rho=rho, step_count=0, done=False,
                        start_label=label)

    # -- dynamics ------------------------------------------------------

    def step_batch(self, rho: np.ndarray, actions) -> BatchStep:
        """Evolve each state for tau, apply its action and score the
        result, all in one pass: ``score(*conjugate(rho, actions))``.

        rho is an (N, dim, dim) stack and actions N action indices, one
        per state; or actions is None, and each state is stepped by all
        seven actions, with results shaped (N, 7, ...) and child (i, a) in
        row i, column a. Each row's result is bit-identical whatever the
        stack around it and in either form. A fatal row keeps its
        unnormalized branch, as ``BatchStep`` says: training and
        evaluation end the episode there, replay ends its record there,
        the search drops the child, and ``step`` reports the evolved state.
        """
        return self.score(*self.conjugate(rho, actions))

    def conjugate(self, rho: np.ndarray, actions):
        """The first half of ``step_batch``: (branches, probabilities),
        the ``measure`` of each state by its action's operator, with the
        shapes and bits ``step_batch`` gives them. An idle row's state is
        renormalized by its trace, which differs from 1 only by round-off,
        and its probability reads exactly 1. A fatal branch is left
        unnormalized; conjugating it again keeps it finite.
        """
        if actions is None:
            actions = np.arange(ACTION_COUNT)
            out, prob = measure(rho[:, None], self.branch_operators, self.cfg.floor)
        else:
            actions = np.asarray(actions, dtype=np.intp)
            if actions.size and not 0 <= actions.min() <= actions.max() < ACTION_COUNT:
                raise ValueError(f"action indices must be in [0, {ACTION_COUNT}), got {actions}")
            out, prob = measure(rho, self.branch_operators[actions], self.cfg.floor)
        prob[..., actions == DO_NOTHING] = 1.0
        return out, prob

    def score(self, out: np.ndarray, prob: np.ndarray) -> BatchStep:
        """The second half of ``step_batch``: a ``BatchStep`` of branches
        and probabilities from ``conjugate``, in any stack shape. A row's
        fatal flag, bath and fidelity depend on that row alone, with the
        same bits in any stack, so branches conjugated one at a time can
        be scored together."""
        fatal = prob <= self.cfg.floor
        bath = partial_trace_first(out, 2)
        fid = fidelity_to_pure(bath, self.target_vector)
        fid[fatal] = np.nan
        return BatchStep(out, bath, prob, fid, fatal)

    def classify(self, fidelity: np.ndarray, fatal: np.ndarray, step_count) -> np.ndarray:
        """Outcome codes (indices into OUTCOMES) of steps that ended after
        step_count steps; ``self.rewards[code]`` is each step's reward.
        step_count is one count for every step, or an array of one count
        per step, as for the successive steps of one replay.

        Exactly one of the four cases fires: fatal (branch probability at
        or below the floor), success (bath fidelity above theta), continue,
        or timeout (step budget exhausted).
        """
        code = np.where(fidelity > self.cfg.theta, SUCCESS,
                        np.where(step_count < self.cfg.max_steps, CONTINUE, TIMEOUT))
        return np.where(fatal, FATAL, code)

    def step(self, state: EnvState, action: int) -> StepResult:
        """Evolve for tau, apply the chosen action, and score the result:
        one row of ``step_batch``, encoded, plus ``classify``. A fatal
        step, whose branch ``step_batch`` leaves unnormalized, ends in the
        evolved, unprojected state."""
        if state.done:
            raise EpisodeFinished(f"episode already ended after {state.step_count} steps")
        if not 0 <= action < ACTION_COUNT:
            raise ValueError(f"action index must be in [0, {ACTION_COUNT}), got {action}")
        out = self.step_batch(state.rho[None], [action])
        m = state.step_count + 1
        code = int(self.classify(out.fidelity, out.fatal, m)[0])
        done = code != CONTINUE
        rho = out.rho
        if code == FATAL:
            u = self.branch_operators[DO_NOTHING]
            rho = u @ state.rho[None] @ u.conj().T
        nxt = EnvState(encode_state(rho[0]), rho[0], m, done, state.start_label)
        return StepResult(nxt, float(self.rewards[code]), done, float(out.prob[0]),
                          OUTCOMES[code], float(out.fidelity[0]))


def _labels_for(central: np.ndarray) -> list[str]:
    """Each state's cardinal name, matched up to global phase, or else its
    amplitudes."""
    names, refs = zip(*SPIN_STATES.items())
    match = np.abs(np.abs(central @ np.conj(refs).T) - 1.0) < 1e-12
    hits, first = match.any(axis=1).tolist(), match.argmax(axis=1).tolist()
    return [names[i] if hit else f"({a:.6f},{b:.6f})"
            for (a, b), hit, i in zip(central.tolist(), hits, first)]
