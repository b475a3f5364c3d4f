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
environment step and one batched forward pass per step. Each distinct
state is stepped once: post-selection makes a step deterministic, so from
a fixed start, episodes that took the same actions share one state row.
That is exact, because a row of ``step_batch`` or ``forward`` has the same
bits in any stack.

Reproducibility: episode i of a stream draws from numpy's
``SeedSequence((master_seed, stream, i))`` stream, so results do not
depend on collection order; replay sampling has its own stream. The
generators of a block of episodes are hashed together, in numpy array
arithmetic, and are bit for bit the ones numpy would build one by one.
Two runs with the same configuration and master seed produce identical logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .env import (ACTION_COUNT, CONTINUE, OUTCOMES, SUCCESS, EnvConfig, QSEEnv,
                  encode_state, encoding_length)
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
    from its own stream: seed_seq is anything ``np.random.default_rng``
    takes, a generator included, but not None, which would draw OS entropy
    and so break the rule that one config and master seed give one log.
    """

    def __init__(self, capacity: int, state_size: int, seed_seq):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if seed_seq is None:
            raise ValueError("seed_seq must be given: None would seed from OS entropy")
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

    eps_decay_steps=None decays epsilon over 60% of training_steps.
    target_mix=None is the single-network rule; a rate in [0, 1] is the
    double rule, its target network blended at that rate after each
    update. The bundled run configurations carry tuned values.
    """

    gamma: float = 0.95
    eps_start: float = 1.0
    eps_min: float = 0.1
    eps_decay_steps: int | None = None
    episodes_per_training_step: int = 20
    batch_size: int = 64
    replay_capacity: int = 50_000
    target_mix: float | None = None
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
        if self.target_mix is not None and not 0 <= self.target_mix <= 1:
            raise ValueError(f"target_mix must be in [0, 1], got {self.target_mix}")
        for name in ("episodes_per_training_step", "batch_size", "replay_capacity",
                     "training_steps", "updates_per_training_step", "eps_decay_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("learning_rate", "grad_clip"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity "
                             f"{self.replay_capacity}: no update would ever run")

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
    records: list[SequenceRecord]

    @property
    def mean_return(self) -> float:
        return float(np.mean(self.returns))

    @property
    def success_fraction(self) -> float:
        return sum(rec.succeeded for rec in self.records) / len(self.records)


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    """Linear decay from eps_start to eps_min over decay_steps, then flat."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    span = cfg.eps_start - cfg.eps_min
    return max(cfg.eps_min, cfg.eps_start - step * span / cfg.decay_steps)


def select_action(params: MLPParams, s: np.ndarray, eps: float, rng,
                  node: np.ndarray | None = None):
    """Epsilon-greedy choice; greedy ties break toward the lowest index.

    rng holds one generator per row; returns one action per row. Row i's
    state is s[i], or s[node[i]] when node is given, and the greedy rows
    share one forward pass over the distinct states they are in. Each
    generator draws random() when eps > 0, then integers(ACTION_COUNT)
    if it explores.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    actions = np.zeros(len(rng), dtype=np.int64)
    greedy = np.ones(len(rng), dtype=bool)
    if eps > 0:
        for i, g in enumerate(rng):
            if g.random() < eps:
                actions[i] = g.integers(ACTION_COUNT)
                greedy[i] = False
    if greedy.any():
        if node is None:
            actions[greedy] = forward(params, s[greedy]).argmax(axis=1)
        else:
            states, which = _distinct(node[greedy], len(s))
            actions[greedy] = forward(params, s[states]).argmax(axis=1)[which]
    return actions


def _distinct(index: np.ndarray, size: int):
    """(values, inverse) of an index array into [0, size), as
    ``np.unique(index, return_inverse=True)`` gives them, from a mask of
    the values present instead of a sort."""
    present = np.zeros(size, dtype=bool)
    present[index] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[index]


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
#: one block. The cap bounds the live state stack and the step kernel's
#: temporaries, which grow as dim**2 per row: 2000 episodes at eps 1 peak
#: about 2.5 MB higher than in blocks of 64.
EVAL_BLOCK = 512


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """n in little-endian 32-bit words, as SeedSequence splits an entropy
    integer: one word for 0."""
    if n < 0:
        raise ValueError(f"seed integers must be >= 0, got {n}")
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """(2, calls) uint32: for each of a hash's first calls calls of
    hashmix, the constant it xors the value with and the one it then
    multiplies by. The constant advances one multiplication per call
    whatever the data, so a call's constants follow from its position."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    out = np.array([consts[:-1], consts[1:]], dtype=np.uint32)
    out.flags.writeable = False
    return out


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = value ^ consts[0]
    value *= consts[1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


class _SeedBlock:
    """``SeedSequence((master_seed, stream, i))`` for i = first, ...,
    first + n - 1, hashed together. Row k of ``pool`` is the pool numpy's
    SeedSequence of index first + k holds, and row k of
    ``generate_state(n_words)`` its output. The hash runs in wrapping
    uint32 array arithmetic: one operation covers every row, and every
    pool word that one pass of numpy's loops mixes with the same value.
    An index below 2**32 has one word and a 0 in its second column: the
    first pass hashes that 0 as numpy hashes padding, and the
    extra-entropy pass over the second word leaves such rows alone.
    """

    def __init__(self, master_seed: int, stream: int, first: int, n: int):
        if not 0 <= first <= first + n <= 2 ** 64:
            raise ValueError(f"episode indices [{first}, {first + n}) are outside [0, 2**64)")
        index = np.arange(first, first + n, dtype=np.uint64)
        prefix = _uint32_words(master_seed) + _uint32_words(stream)
        entropy = np.zeros((n, max(len(prefix) + 2, _POOL_SIZE)), dtype=np.uint32)
        entropy[:, :len(prefix)] = prefix
        entropy[:, len(prefix)] = index.astype(np.uint32)
        entropy[:, len(prefix) + 1] = (index >> np.uint64(32)).astype(np.uint32)
        length = len(prefix) + 1 + (entropy[:, len(prefix) + 1] > 0)
        width = entropy.shape[1]
        consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * width)
        pool = _hashmix(entropy[:, :_POOL_SIZE], consts[:, :_POOL_SIZE])
        call = _POOL_SIZE
        for src in range(_POOL_SIZE):
            dst = [d for d in range(_POOL_SIZE) if d != src]
            pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None],
                                                       consts[:, call:call + len(dst)]))
            call += len(dst)
        for src in range(_POOL_SIZE, width):
            mixed = _mix(pool, _hashmix(entropy[:, src, None], consts[:, call:call + _POOL_SIZE]))
            pool = np.where((length > src)[:, None], mixed, pool)
            call += _POOL_SIZE
        self.pool = pool

    def generate_state(self, n_words: int) -> np.ndarray:
        """(n, n_words) uint64: row k is index first + k's
        ``SeedSequence.generate_state(n_words, np.uint64)``, two uint32
        words of the hash, low word first, per uint64."""
        out = _hashmix(self.pool[:, np.arange(2 * n_words) % _POOL_SIZE],
                       _hash_consts(_INIT_B, _MULT_B, 2 * n_words))
        return out.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedRow:
    """One row of a block's PCG64 seed words, handed to ``np.random.PCG64``
    through numpy's ``ISeedSequence`` protocol, as a registered virtual
    subclass: PCG64 asks once for four uint64 words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self._words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self._words)} uint64 words, "
                             f"asked for {n_words} of {dtype}")
        return self._words


def _generators(master_seed: int, stream: int, first: int, n: int) -> list[np.random.Generator]:
    """The generators of episodes first, ..., first + n - 1 of a stream:
    each the same, bit for bit, as
    ``np.random.default_rng(np.random.SeedSequence((master_seed, stream, i)))``."""
    # registered here, not at import, so that importing qsteer does not load numpy.random
    np.random.bit_generator.ISeedSequence.register(_SeedRow)
    return [np.random.Generator(np.random.PCG64(_SeedRow(words)))
            for words in _SeedBlock(master_seed, stream, first, n).generate_state(4)]


def _collect(env: QSEEnv, params: MLPParams, eps: float,
             rngs: Sequence[np.random.Generator], columns: Sequence[str]):
    """Run one episode per generator, all in lockstep.

    Every live episode takes its step at once: one batched action choice
    and one ``step_batch``. Episode i's generator draws exactly as if it
    ran alone (its start draws, then per step random() and, when it
    explores, integers(ACTION_COUNT)), and ``forward`` gives each row the
    same bits in any batch. So the result does not depend on which
    episodes share a batch.

    The collector is the one place that encodes states: each lockstep
    step begins by encoding the live stack. Each distinct state is
    stepped once, as the module docstring says: when ``starts`` hands out
    fewer rows than episodes (a fixed start's one shared row), node[j] is
    live episode j's row in the state stack, and a step conjugates and
    scores each distinct (row, action) child once. Once each live episode
    holds its own row, and from the start for random starts, node is None
    and a step runs on the stack as it is.

    Returns (start_labels, totals, offsets, steps): steps maps each name in
    columns (s, the encoding each action was chosen in; a; code; prob;
    fidelity) to its per-step array, the only ones held while the block
    runs, in episode-major order: offsets[i]:offsets[i + 1] are episode i's.
    """
    rho, start_labels = env.starts(rngs)
    n = len(rngs)
    live = np.arange(n)
    node = np.zeros(n, dtype=np.intp) if len(rho) < n else None
    totals = np.zeros(n)
    episode = []  # per lockstep step: the episodes that took it
    held = {name: [] for name in columns}
    while len(live):
        enc = encode_state(rho)
        actions = select_action(params, enc, eps, [rngs[i] for i in live], node)
        if node is None:
            out = env.step_batch(rho, actions, len(episode) + 1)
            row = dict(s=enc, code=out.code, prob=out.prob, fidelity=out.fidelity)
            go = out.code == CONTINUE
            rho = out.rho[go]
        else:
            # one child per distinct (row, action): live episode j's is child[j]
            key, child = _distinct(node * ACTION_COUNT + actions, len(rho) * ACTION_COUNT)
            out = env.step_batch(rho[key // ACTION_COUNT], key % ACTION_COUNT, len(episode) + 1)
            row = dict(code=out.code[child], prob=out.prob[child], fidelity=out.fidelity[child])
            if "s" in held:
                row["s"] = enc[node]
            go = row["code"] == CONTINUE
            # the continuing children become the stack, in order
            kept, node = _distinct(child[go], len(key))
            rho = out.rho[kept]
            if len(rho) == len(node):  # each live episode holds its own row
                rho, node = rho[node], None
        totals[live] += env.rewards[row["code"]]
        episode.append(live)
        row["a"] = actions
        for name, column in held.items():
            column.append(row[name])
        live = live[go]
    episode = np.concatenate(episode)
    order = np.argsort(episode, kind="stable")
    offsets = np.searchsorted(episode[order], np.arange(n + 1))
    steps = {name: np.concatenate(column)[order] for name, column in held.items()}
    return start_labels, totals, offsets, steps


# a diverging network overflows on its way to NonFiniteLoss, its one signal
@np.errstate(over="ignore", invalid="ignore")
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
    target = main.clone() if agent_cfg.target_mix is not None else None
    adam = AdamState.for_params(main)
    replay = ReplayMemory(agent_cfg.replay_capacity, state_size,
                          _generators(master_seed, 2, 0, 1)[0])

    log: list[TrainingLogRow] = []
    per_step = agent_cfg.episodes_per_training_step
    best_avg = -np.inf
    best_params = main.clone()
    best_step = 0

    for step in range(1, agent_cfg.training_steps + 1):
        eps = epsilon_at(step - 1, agent_cfg)
        rngs = _generators(master_seed, 1, (step - 1) * per_step, per_step)
        _, totals, offsets, steps = _collect(env, main, eps, rngs, ("s", "a", "code"))
        code = steps["code"]
        avg_return = float(np.mean(totals))
        if avg_return > best_avg:
            # the copy that collected these episodes, before this step's updates
            best_avg, best_step = avg_return, step
            np.copyto(best_params.flat, main.flat)
        replay.push(steps["s"], steps["a"], env.rewards[code], code != CONTINUE)

        losses = []
        if len(replay) >= agent_cfg.batch_size:
            for _ in range(agent_cfg.updates_per_training_step):
                batch = replay.sample(agent_cfg.batch_size)
                if target is None:
                    y = dqn_targets(batch, main, agent_cfg.gamma)
                else:
                    y = ddqn_targets(batch, main, target, agent_cfg.gamma)
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
            success_fraction=float(np.mean(code[offsets[1:] - 1] == SUCCESS)),
            loss_mean=float(np.mean(losses)) if losses else float("nan"),
        )
        log.append(row)
        if progress is not None:
            progress(row)

        if checkpoint_dir is not None and step in checkpoint_steps:
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

    Returns per-episode totals and sequence records carrying each step's
    branch probability and the episode's outcome.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    env = QSEEnv(env_cfg)
    returns, records = [], []
    for first in range(0, n_episodes, EVAL_BLOCK):
        rngs = _generators(master_seed, seed_stream, first, min(EVAL_BLOCK, n_episodes - first))
        labels, totals, offsets, steps = _collect(env, params, eps, rngs,
                                                  ("a", "code", "prob", "fidelity"))
        last = offsets[1:] - 1
        final = steps["code"][last].tolist()
        returns += totals.tolist()
        actions, probs, bounds = steps["a"].tolist(), steps["prob"].tolist(), offsets.tolist()
        for label, lo, hi, c, f in zip(labels, bounds, bounds[1:], final,
                                       steps["fidelity"][last].tolist()):
            records.append(SequenceRecord(label, tuple(actions[lo:hi]), tuple(probs[lo:hi]),
                                          f, OUTCOMES[c]))
    return EvaluationResult(returns, records)
