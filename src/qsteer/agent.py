"""Deep Q-learning over the measurement environment.

run_training drives the whole loop: collect episodes under an
epsilon-greedy policy with linearly decaying epsilon, store transitions
in a ring-buffer replay memory, sample uniformly with replacement, and
fit the network to one-step bootstrapped targets. Two target rules are
available: the single-network rule (the bootstrap maximum comes from the
network being trained) and the double rule (the trained network picks the
bootstrap action, a slowly blended target network values it).

Episodes are collected in lockstep: the episodes of a training step (or
a block of evaluation episodes) advance together through one batched
environment step and one batched forward pass per step.

Reproducibility: each episode's generator comes from a counter-based
seed split of the master seed, so results do not depend on collection
order; replay has its own stream.
Two runs with the same configuration and master seed produce identical logs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .env import (CONTINUE, FATAL, OUTCOMES, SUCCESS, EnvConfig, QSEEnv, encode_state,
                  encoding_length)
from .errors import NonFiniteLoss
from .network import (
    AdamState,
    MLPParams,
    MLPSpec,
    forward,
    init_params,
    save_params,
    soft_update,
    train_batch,
)
from .sequences import SequenceRecord

__all__ = [
    "ReplayMemory",
    "AgentConfig",
    "TrainingLogRow",
    "TrainingResult",
    "EvaluationResult",
    "select_action",
    "epsilon_at",
    "dqn_targets",
    "ddqn_targets",
    "run_training",
    "evaluate_policy",
]


class ReplayMemory:
    """Fixed-capacity ring buffer of transitions with uniform sampling.

    Each state is stored once. A block holds whole episodes and ends on a
    terminal row, so a non-terminal row's next state is the state of the
    following ring row: written in the same push and, as the write index
    always sits just after a terminal row, overwritten only after the row
    itself. A terminal row's next state is whatever row follows.
    Insertion evicts oldest-first once full; sampling is with replacement
    from its own seeded stream.
    """

    def __init__(self, capacity: int, state_size: int, seed_seq=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._columns = (np.zeros((capacity, state_size)), np.zeros(capacity, dtype=np.int64),
                         np.zeros(capacity), np.zeros(capacity, dtype=bool))
        self._write = 0
        self._size = 0
        self._rng = np.random.default_rng(seed_seq)

    def __len__(self) -> int:
        return self._size

    def push(self, s, a, r, terminal) -> None:
        """Append a block of whole episodes, which must end on a terminal row:
        row k lands at (write + k) % capacity, so a block longer than the
        capacity leaves only its last capacity rows."""
        m = len(a)
        if m and not terminal[-1]:
            raise ValueError("a replay block must end on a terminal row")
        keep = slice(max(0, m - self.capacity), m)
        rows = np.arange(self._write, self._write + m)[keep] % self.capacity
        for column, block in zip(self._columns, (s, a, r, terminal)):
            column[rows] = block[keep]
        self._write = (self._write + m) % self.capacity
        self._size = min(self._size + m, self.capacity)

    def sample(self, batch_size: int):
        """(states, actions, next_states, rewards, terminals) arrays."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay memory")
        idx = self._rng.integers(self._size, size=batch_size)
        s, a, r, terminal = self._columns
        return s[idx], a[idx], s[(idx + 1) % self.capacity], r[idx], terminal[idx]


@dataclass(frozen=True)
class AgentConfig:
    """Learning-loop hyperparameters.

    eps_decay_steps=None decays epsilon over 60% of training_steps. The
    batch/update/learning-rate knobs are exposed because the task is
    sensitive to them; the bundled run configurations carry tuned values.
    """

    gamma: float = 0.95
    eps_start: float = 1.0
    eps_min: float = 0.1
    eps_decay_steps: int | None = None
    episodes_per_training_step: int = 20
    batch_size: int = 64
    algorithm: str = "dqn"
    replay_capacity: int = 50_000
    target_mix: float = 0.01
    training_steps: int = 800
    updates_per_training_step: int = 1
    learning_rate: float = 1e-3
    grad_clip: float | None = None

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 <= self.eps_min <= self.eps_start <= 1:
            raise ValueError(
                f"need 0 <= eps_min <= eps_start <= 1, got "
                f"eps_min={self.eps_min}, eps_start={self.eps_start}"
            )
        if self.algorithm not in ("dqn", "ddqn"):
            raise ValueError(f"algorithm must be 'dqn' or 'ddqn', got {self.algorithm!r}")
        if not 0 <= self.target_mix <= 1:
            raise ValueError(f"target_mix must be in [0, 1], got {self.target_mix}")
        for name in ("episodes_per_training_step", "batch_size", "replay_capacity",
                     "training_steps", "updates_per_training_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def decay_steps(self) -> int:
        if self.eps_decay_steps is not None:
            return self.eps_decay_steps
        return max(1, int(0.6 * self.training_steps))


@dataclass(frozen=True)
class TrainingLogRow:
    step: int
    epsilon: float
    avg_return: float
    success_fraction: float
    loss_mean: float


@dataclass
class TrainingResult:
    log: list[TrainingLogRow]
    final_params: MLPParams
    best_params: MLPParams
    best_step: int
    best_avg_return: float
    wall_seconds: float


@dataclass
class EvaluationResult:
    returns: list[float]
    outcomes: list[str]
    records: list[SequenceRecord]

    @property
    def mean_return(self) -> float:
        return float(np.mean(self.returns))

    @property
    def success_fraction(self) -> float:
        return sum(o == "success" for o in self.outcomes) / len(self.outcomes)


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    """Linear decay from eps_start to eps_min over decay_steps, then flat."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    span = cfg.eps_start - cfg.eps_min
    return max(cfg.eps_min, cfg.eps_start - step * span / cfg.decay_steps)


def select_action(params: MLPParams, s: np.ndarray, eps: float, rng):
    """Epsilon-greedy choice; greedy ties break toward the lowest index.

    s is a batch of states and rng one generator per row; returns one
    action per row. Every greedy row shares one forward pass. Each
    generator draws random() when eps > 0, then integers(7) if it
    explores.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    actions = np.zeros(len(s), dtype=np.int64)
    greedy = np.ones(len(s), dtype=bool)
    if eps > 0:
        for i, g in enumerate(rng):
            if g.random() < eps:
                actions[i] = g.integers(7)
                greedy[i] = False
    if greedy.any():
        actions[greedy] = forward(params, s[greedy]).argmax(axis=1)
    return actions


def dqn_targets(batch, main: MLPParams, gamma: float) -> np.ndarray:
    """Bootstrapped targets, maximum taken through the trained network:
    r for terminal transitions, else r + gamma * max_a' Q(s', a').

    A terminal row's s' may be any state: its finite value is multiplied
    by 0, and r + (+-0.0) is r bit for bit."""
    _s, _a, s_next, r, terminal = batch
    q_next = forward(main, s_next)
    return r + gamma * q_next.max(axis=1) * ~terminal


def ddqn_targets(batch, main: MLPParams, target: MLPParams, gamma: float) -> np.ndarray:
    """Double targets: the trained network chooses the bootstrap action,
    the target network supplies its value; r alone for terminals."""
    _s, _a, s_next, r, terminal = batch
    choice = forward(main, s_next).argmax(axis=1)
    q_target = forward(target, s_next)
    rows = np.arange(len(choice))
    return r + gamma * q_target[rows, choice] * ~terminal


#: Episodes evaluate_policy runs in lockstep at a time. A block lasts as
#: long as its longest episode, so the CLI default of 500 episodes runs as
#: one block. The cap bounds the memory a longer evaluation holds: a block
#: keeps every step's rows until it ends, and 2000 episodes at eps 1 peak
#: about 11 MB higher than in blocks of 64.
EVAL_BLOCK = 512


def _episode_seed(master_seed: int, stream: int, index: int):
    return np.random.SeedSequence((master_seed, stream, index))


class _Episodes:
    """One lockstep block of episodes.

    Per episode: start_labels, totals, and final and final_fidelity, the
    code and fidelity of its last step. Per step, in episode-major order
    (rows offsets[i]:offsets[i + 1] are episode i's steps, in order): s,
    the encoding each action was chosen in, then a, code and prob. A
    column is gathered into that order when first read, so a caller pays
    only for the columns it reads.
    """

    def __init__(self, start_labels, steps, totals):
        self.start_labels, self.totals = start_labels, totals
        episode, *self._steps = zip(*steps)
        episode = np.concatenate(episode)
        self._order = np.argsort(episode, kind="stable")
        self.offsets = np.searchsorted(episode[self._order], np.arange(len(totals) + 1))

    def _gather(self, k: int, rows=slice(None)) -> np.ndarray:
        return np.concatenate(self._steps[k])[self._order[rows]]

    s = cached_property(lambda self: self._gather(0))
    a = cached_property(lambda self: self._gather(1))
    code = cached_property(lambda self: self._gather(2))
    prob = cached_property(lambda self: self._gather(3))
    final = cached_property(lambda self: self._gather(2, self.offsets[1:] - 1))
    final_fidelity = cached_property(lambda self: self._gather(4, self.offsets[1:] - 1))


def _collect(env: QSEEnv, params: MLPParams, eps: float,
             rngs: Sequence[np.random.Generator]) -> _Episodes:
    """Run one episode per generator, all in lockstep.

    Every live episode takes its step at once: one batched action choice
    and one ``step_batch``. Episode i's generator draws exactly as if it
    ran alone (its start draws, then per step random() and, when it
    explores, integers(7)), and ``forward`` gives each row the same bits
    in any batch. So the result does not depend on which episodes share a
    batch.
    """
    rho, enc, start_labels = env.starts(rngs)
    n = len(rngs)
    live = np.arange(n)
    totals = np.zeros(n)
    steps = []  # per lockstep step: (episode, s, a, code, prob, fidelity)
    while len(live):
        actions = select_action(params, enc, eps, [rngs[i] for i in live])
        out = env.step_batch(rho, actions)
        code = env.classify(out.fidelity, out.fatal, len(steps) + 1)
        totals[live] += env.rewards[code]
        steps.append((live, enc, actions, code, out.prob, out.fidelity))
        go = code == CONTINUE
        live, rho = live[go], out.rho[go]
        enc = encode_state(rho)
    return _Episodes(start_labels, steps, totals)


def run_training(env_cfg: EnvConfig, agent_cfg: AgentConfig, mlp_spec: MLPSpec,
                 master_seed: int, checkpoint_steps: Sequence[int] = (),
                 checkpoint_dir=None,
                 progress: Callable[[TrainingLogRow], None] | None = None) -> TrainingResult:
    """Train an agent and return its log plus final and best parameter sets.

    Training steps are numbered from 1. Each step collects a fixed number
    of episodes at the current epsilon, then performs the configured
    number of gradient updates (skipped until the replay holds one batch).
    The best parameter set is the one that collected the episodes of the
    step with the highest average episode return so far, copied before
    that step's updates; like extracting an agent copy at a performance
    maximum, it is the artifact worth evaluating when late training
    oscillates. Checkpoints are written for every step
    listed in checkpoint_steps plus best/final copies when a directory is
    given. A diverging loss dumps state to that directory and re-raises.
    """
    t0 = time.monotonic()
    env = QSEEnv(env_cfg)
    state_size = encoding_length(env.dim)
    if mlp_spec.input_size != state_size:
        raise ValueError(
            f"network input {mlp_spec.input_size} does not match encoding {state_size}"
        )
    main = init_params(mlp_spec)
    target = main.clone() if agent_cfg.algorithm == "ddqn" else None
    adam = AdamState.for_params(main)
    replay = ReplayMemory(agent_cfg.replay_capacity, state_size,
                          _episode_seed(master_seed, 2, 0))

    wanted_checkpoints = set(int(s) for s in checkpoint_steps)
    log: list[TrainingLogRow] = []
    episode_counter = 0
    best_avg = -np.inf
    best_params = main.clone()
    best_step = 0

    for step in range(1, agent_cfg.training_steps + 1):
        eps = epsilon_at(step - 1, agent_cfg)
        first = episode_counter
        episode_counter += agent_cfg.episodes_per_training_step
        rngs = [np.random.default_rng(_episode_seed(master_seed, 1, i))
                for i in range(first, episode_counter)]
        episodes = _collect(env, main, eps, rngs)
        avg_return = float(np.mean(episodes.totals))
        if avg_return > best_avg:
            # the copy that collected these episodes, before this step's updates
            best_avg, best_step = avg_return, step
            np.copyto(best_params.flat, main.flat)
        replay.push(episodes.s, episodes.a, env.rewards[episodes.code],
                    episodes.code != CONTINUE)

        losses = []
        if len(replay) >= agent_cfg.batch_size:
            for _ in range(agent_cfg.updates_per_training_step):
                batch = replay.sample(agent_cfg.batch_size)
                if agent_cfg.algorithm == "ddqn":
                    y = ddqn_targets(batch, main, target, agent_cfg.gamma)
                else:
                    y = dqn_targets(batch, main, agent_cfg.gamma)
                try:
                    loss = train_batch(main, batch[0], batch[1], y, adam,
                                       lr=agent_cfg.learning_rate,
                                       grad_clip=agent_cfg.grad_clip)
                except NonFiniteLoss:
                    if checkpoint_dir is not None:
                        save_params(f"{checkpoint_dir}/diverged_step{step}.npz",
                                    main, mlp_spec, step,
                                    extra={"master_seed": master_seed, "diverged": True})
                    raise
                losses.append(loss)
                if target is not None:
                    soft_update(target, main, agent_cfg.target_mix)

        row = TrainingLogRow(
            step=step,
            epsilon=eps,
            avg_return=avg_return,
            success_fraction=float(np.mean(episodes.final == SUCCESS)),
            loss_mean=float(np.mean(losses)) if losses else float("nan"),
        )
        log.append(row)
        if progress is not None:
            progress(row)

        if checkpoint_dir is not None and step in wanted_checkpoints:
            save_params(f"{checkpoint_dir}/checkpoint_step{step}.npz", main,
                        mlp_spec, step, extra={"master_seed": master_seed})

    if checkpoint_dir is not None:
        save_params(f"{checkpoint_dir}/checkpoint_final.npz", main, mlp_spec,
                    agent_cfg.training_steps, extra={"master_seed": master_seed})
        save_params(f"{checkpoint_dir}/checkpoint_best.npz", best_params, mlp_spec,
                    best_step, extra={"master_seed": master_seed,
                                      "avg_return": best_avg})
    return TrainingResult(log, main, best_params, best_step, best_avg,
                          time.monotonic() - t0)


def evaluate_policy(params: MLPParams, env_cfg: EnvConfig, eps: float,
                    n_episodes: int, master_seed: int,
                    seed_stream: int = 3) -> EvaluationResult:
    """Run episodes without learning and record what the policy did.

    Returns per-episode totals, outcomes, and sequence records carrying
    each step's branch probability.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    env = QSEEnv(env_cfg)
    returns, outcomes, records = [], [], []
    for first in range(0, n_episodes, EVAL_BLOCK):
        rngs = [np.random.default_rng(_episode_seed(master_seed, seed_stream, i))
                for i in range(first, min(first + EVAL_BLOCK, n_episodes))]
        block = _collect(env, params, eps, rngs)
        final = block.final.tolist()
        returns += block.totals.tolist()
        outcomes += [OUTCOMES[c] for c in final]
        for label, lo, hi, c, f in zip(block.start_labels, block.offsets[:-1],
                                       block.offsets[1:], final, block.final_fidelity.tolist()):
            probs = tuple(block.prob[lo:hi].tolist())
            records.append(SequenceRecord(
                label, tuple(block.a[lo:hi].tolist()), probs, math.prod(probs),
                f, c == SUCCESS, aborted=c == FATAL))
    return EvaluationResult(returns, outcomes, records)
