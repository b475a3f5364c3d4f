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

Reproducibility: every episode draws its generator from a counter-based
seed split of the master seed, so results are independent of collection
order; replay sampling has its own stream. Two runs with the same
configuration and master seed produce identical logs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
from .sequences import SequenceRecord, StepStats

__all__ = [
    "Transition",
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


class Transition(NamedTuple):
    s: np.ndarray
    a: int
    s_next: np.ndarray
    r: float
    terminal: bool


class ReplayMemory:
    """Fixed-capacity ring buffer of transitions with uniform sampling.

    Insertion evicts oldest-first once full; sampling is with replacement
    from its own seeded stream.
    """

    def __init__(self, capacity: int, state_size: int, seed_seq=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._s = np.zeros((capacity, state_size))
        self._a = np.zeros(capacity, dtype=np.int64)
        self._s_next = np.zeros((capacity, state_size))
        self._r = np.zeros(capacity)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._write = 0
        self._size = 0
        self._rng = np.random.default_rng(seed_seq)

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        i = self._write
        self._s[i] = t.s
        self._a[i] = t.a
        self._s_next[i] = t.s_next
        self._r[i] = t.r
        self._terminal[i] = t.terminal
        self._write = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        """(states, actions, next_states, rewards, terminals) arrays."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay memory")
        idx = self._rng.integers(self._size, size=batch_size)
        return (self._s[idx], self._a[idx], self._s_next[idx], self._r[idx],
                self._terminal[idx])


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
    episodes: int
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

    For one state s (1-D) and one generator rng, returns an int. For a
    batch of states (2-D) and one generator per row, returns an array of
    actions; every greedy row shares one forward pass. Each generator
    draws random() when eps > 0, then integers(7) if it explores.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if np.ndim(s) == 1:
        return int(select_action(params, np.asarray(s)[None], eps, [rng])[0])
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
    r for terminal transitions, else r + gamma * max_a' Q(s', a')."""
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


#: Episodes evaluate_policy runs in lockstep at a time; bounds the memory a
#: long evaluation holds while still batching every step.
EVAL_BLOCK = 64


def _episode_seed(master_seed: int, stream: int, index: int):
    return np.random.SeedSequence((master_seed, stream, index))


class _Episodes(NamedTuple):
    """What a lockstep collection returns, one entry per episode."""

    returns: list[float]
    outcomes: list[str]
    records: list[SequenceRecord]  # empty when transitions are kept
    transitions: list[Transition]  # episode-major; empty unless kept


def _collect(env: QSEEnv, params: MLPParams, eps: float,
             rngs: Sequence[np.random.Generator],
             keep_transitions: bool) -> _Episodes:
    """Run one episode per generator, all in lockstep.

    Every live episode takes its step at once: one batched action choice
    and one ``step_batch``. Episode i's generator draws exactly as if it
    ran alone (its reset draws, then per step random() and, when it
    explores, integers(7)), so the result does not depend on which
    episodes share a batch. With keep_transitions the transitions come
    back in episode-major order and no records are built; otherwise the
    records come back and no transitions.
    """
    starts = [env.reset(rng) for rng in rngs]
    n = len(starts)
    rho = np.stack([st.rho for st in starts])
    enc = np.stack([st.encoding for st in starts])
    last = [st.encoding for st in starts]  # each episode's current encoding
    live = list(range(n))
    totals = [0.0] * n
    codes = [CONTINUE] * n
    taken = [[] for _ in range(n)]  # per episode: (action, prob, fidelity)
    kept = [[] for _ in range(n)]
    step = 0
    while live:
        step += 1
        actions = select_action(params, enc, eps, [rngs[i] for i in live])
        out = env.step_batch(rho, actions)
        nxt = encode_state(out.rho)
        code = env.classify(out.fidelity, out.fatal, step)
        for j, (i, a, p, f, r, c) in enumerate(zip(
                live, actions.tolist(), out.prob.tolist(), out.fidelity.tolist(),
                env.rewards[code].tolist(), code.tolist())):
            totals[i] += r
            codes[i] = c
            if keep_transitions:
                kept[i].append(Transition(last[i], a, nxt[j], r, c != CONTINUE))
                last[i] = nxt[j]
            else:
                taken[i].append((a, p, f))
        go = code == CONTINUE
        live = [i for i, g in zip(live, go) if g]
        rho, enc = out.rho[go], nxt[go]

    outcomes = [OUTCOMES[c] for c in codes]
    if keep_transitions:
        return _Episodes(totals, outcomes, [], [tr for episode in kept for tr in episode])
    nan = float("nan")
    records = [
        SequenceRecord(st.start_label, tuple(a for a, _, _ in steps),
                       tuple(StepStats(p, f, nan, nan) for _, p, f in steps),
                       math.prod(p for _, p, _ in steps), steps[-1][2], c == SUCCESS,
                       aborted=c == FATAL)
        for st, steps, c in zip(starts, taken, codes)]
    return _Episodes(totals, outcomes, records, [])


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
        episodes = _collect(env, main, eps, rngs, keep_transitions=True)
        successes = episodes.outcomes.count("success")
        avg_return = float(np.mean(episodes.returns))
        if avg_return > best_avg:
            # the copy that collected these episodes, before this step's updates
            best_avg, best_step = avg_return, step
            np.copyto(best_params.flat, main.flat)
        for tr in episodes.transitions:
            replay.push(tr)

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
            episodes=agent_cfg.episodes_per_training_step,
            avg_return=avg_return,
            success_fraction=successes / agent_cfg.episodes_per_training_step,
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
    each step's branch probability and fidelity.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    env = QSEEnv(env_cfg)
    returns, outcomes, records = [], [], []
    for first in range(0, n_episodes, EVAL_BLOCK):
        rngs = [np.random.default_rng(_episode_seed(master_seed, seed_stream, i))
                for i in range(first, min(first + EVAL_BLOCK, n_episodes))]
        block = _collect(env, params, eps, rngs, keep_transitions=False)
        returns += block.returns
        outcomes += block.outcomes
        records += block.records
    return EvaluationResult(returns, outcomes, records)
