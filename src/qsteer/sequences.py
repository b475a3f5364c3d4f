"""Deterministic replay, exhaustive search, and statistics for
measurement sequences.

A sequence is a list of environment actions; every step implicitly begins
with one free-evolution interval. The human-readable notation compresses
runs of free evolution: ``U2 Px+`` means one do-nothing step followed by
a step that projects, i.e. two intervals of evolution before the
projection. ``U1`` before a projector is therefore redundant but allowed.

Success rates are post-selection products: the probability of every
measured branch along the way, multiplied up.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, SequenceParseError
from .env import (ACTION_COUNT, ACTION_TOKENS, CONTINUE, DO_NOTHING, FATAL, OUTCOMES,
                  STEP_LIMIT, SUCCESS, BatchStep, EnvConfig, QSEEnv)
from .model import purity, trace_distance

# not called here, but perfbench's tracer wraps these names in this module
from .model import fidelity_to_pure, measure, partial_trace_first  # noqa: F401

__all__ = [
    "SequenceRecord",
    "replay_sequence",
    "exhaustive_search",
    "check_search_budget",
    "combination_histogram",
    "parse_sequence",
    "format_sequence",
]

#: Work a search may do, as check_search_budget estimates it: the round
#: figure just above length 7 at n_bath = 4 (5.5e8). It admits lengths up
#: to 9, 7, 4 and 2 at n_bath = 2, 4, 6 and 8, a few seconds or less per
#: target (README), and refuses 10 at n_bath = 2 (2.9e9).
SEARCH_WORK_BUDGET = 6e8
#: Nodes exhaustive_search expands per every-action step_batch call (7
#: children each); a child's bits do not depend on its block. Larger
#: blocks amortize more of a call's fixed cost but hold more children at
#: once, so peak memory bounds the size: 21 nodes ran the four length-5
#: Bell searches about a third faster than 10, at about 0.5% more peak
#: RSS; 28 to 49 ran about as fast and grew the peak by 1.2 to 3.3%.
#: With the two-level screen, at lengths 6 to 8, 35 nodes ran 4-8%
#: faster than 21 but raised the peak, and 14 ran 6-23% slower
#: (BENCH_search_two_level.json, block_sweep).
SEARCH_BLOCK = 21
#: The screen's margin on theta^2 and its rounding allowance per
#: dim^3, as exhaustive_search derives them.
_SCREEN_MARGIN = 1e-6
_SCREEN_SLACK = 2.0 ** -44
#: Steps replay_sequence conjugates before its first score; each later
#: chunk is twice the one before. A search record of up to this length
#: replays in one chunk.
REPLAY_CHUNK = 8


@dataclass(frozen=True)
class SequenceRecord:
    """One executed sequence with each step's branch probability.

    outcome is the ``OUTCOMES`` name of the last step's ``BatchStep.code``:
    success, fatal (a branch probability at or below the floor),
    timeout (the env's max_steps reached) or continue (a replay whose
    actions ran out first). success_rate and succeeded are derived, not
    stored.
    """

    start_label: str
    actions: tuple[int, ...]
    probs: tuple[float, ...]
    final_fidelity: float
    outcome: str

    def __post_init__(self):
        if len(self.probs) > len(self.actions):
            raise ValueError("more probabilities than actions")

    @property
    def success_rate(self) -> float:
        """The product of probs, left to right; idle steps contribute 1."""
        return math.prod(self.probs, start=1.0)

    @property
    def succeeded(self) -> bool:
        return self.outcome == "success"


def replay_sequence(env: QSEEnv, actions: Sequence[int]
                    ) -> tuple[SequenceRecord, list[tuple[float, float, float]]]:
    """Execute a sequence from the env's own start state, as an episode.

    Each step is one row of ``QSEEnv.step_batch`` and its outcome code,
    as in the search, so a replay reproduces its records bit for bit.
    Only the conjugation needs the step before it: the actions, at most
    the env's max_steps of them, are conjugated one by one with
    ``QSEEnv.conjugate`` in its single-state layout, one (dim, dim) state
    and one action per call, in chunks of REPLAY_CHUNK, then twice that,
    four times that and so on, and each chunk's branches are stacked and
    scored by one ``QSEEnv.score`` call, with the bits of one call per
    step. Like an episode, the record ends at the first step that
    succeeds, is fatal (branch probability at or below the floor) or
    reaches max_steps, and no chunk runs after the one that holds that
    step. The record holds the steps run and the last one's outcome: a
    fatal one ends it with a NaN final fidelity, as an evaluation
    episode's does, and one cut at max_steps without success is the
    record of an episode that timed out. Beside the record come the bath
    diagnostics, one (fidelity, trace_distance, purity) row per state
    reached, so an aborted replay has one row fewer than steps; they are
    taken over the stack of the scored baths, with the bits of one call
    per state. The actions are any sequence of integers, a numpy array
    included; the record holds them as Python ints. An empty sequence
    raises ValueError.
    """
    if not len(actions):
        raise ValueError("cannot replay an empty sequence")
    start = env.reset()
    actions = actions[:env.cfg.max_steps]
    chunks = []
    rho, lo, size = start.rho, 0, REPLAY_CHUNK
    while lo < len(actions):
        outs, probs = [], []
        for action in actions[lo:lo + size]:
            # past a fatal step its unnormalized branch conjugates on, finite,
            # until the chunk ends: cheaper than scoring every step to stop there
            rho, prob = env.conjugate(rho, action)
            outs.append(rho)
            probs.append(prob)
        out = env.score(np.stack(outs), np.array(probs),
                        np.arange(lo + 1, lo + len(outs) + 1))
        chunks.append(out)
        ended = np.flatnonzero(out.code != CONTINUE)
        if len(ended):
            break
        lo, size = lo + len(outs), 2 * size
    n = lo + ended[0] + 1 if len(ended) else len(actions)
    if len(chunks) > 1:
        out = BatchStep(*map(np.concatenate, zip(*chunks)))
    last = out.code[n - 1]
    fids = out.fidelity[:n].tolist()  # NaN on a fatal step
    diagnostics = []
    reached = n - (last == FATAL)
    if reached:
        bath = out.bath[:reached]
        diagnostics = list(zip(fids, trace_distance(bath, env.target_matrix).tolist(),
                               purity(bath).tolist()))
    record = SequenceRecord(start.start_label, tuple(map(int, actions[:n])),
                            tuple(out.prob[:n].tolist()), fids[-1], OUTCOMES[last])
    return record, diagnostics


def check_search_budget(cfg: EnvConfig, max_len: int) -> None:
    """Refuse, before any work, a search of env config cfg to max_len
    that is negative (ValueError) or whose work exceeds
    SEARCH_WORK_BUDGET (BudgetExceeded). The work is estimated as the
    rows the search's last every-action level steps, 7^(depth - 2) at
    depth min(max_len, max_steps), times dim^3 per row, in floats, so no
    length costs time."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    levels = max(min(max_len, cfg.max_steps) - 2, 0)
    try:
        work = 7.0 ** levels * cfg.model.dim ** 3
    except OverflowError:  # past about 364 levels
        work = math.inf
    if work > SEARCH_WORK_BUDGET:
        raise BudgetExceeded(
            f"max_len {max_len} at n_bath {cfg.model.n_bath} exceeds the search budget: "
            f"an estimated {work:.3g} rows x dim^3 against {SEARCH_WORK_BUDGET:.3g}")


def exhaustive_search(env: QSEEnv, max_len: int,
                      rate_cutoff: float = 1e-6) -> list[SequenceRecord]:
    """All minimal successful sequences up to max_len from the env's own
    start state, which must be fixed.

    Depth-first enumeration over the seven actions, sharing prefixes:
    nodes of one depth expand in blocks of up to SEARCH_BLOCK, all seven
    children of each in one every-action ``QSEEnv.step_batch`` call. A
    child whose running success rate is under rate_cutoff is pruned;
    otherwise its outcome code judges it as an episode's step, so a
    success is recorded and not extended, and nothing runs past the env's
    max_steps. The result is exactly the set of successful sequences an
    episodic policy could execute. Sorted by (length, -success_rate).

    The last two levels are screened instead of stepped. The leaves, at
    depth min(max_len, max_steps), are only ever recorded or dropped, and
    few are recorded, so their grandparents and parents, each taken as
    all the continuing children of one block at once, screen their
    children. Two Hermitian forms per action a give a child's branch
    probability p_a = tr(E_a rho) with E_a = M_a^dagger M_a, and its
    unnormalized overlap with the target f_a = tr(F_a rho) with
    F_a = M_a^dagger (1 (x) |psi><psi|) M_a. Two per pair of actions give
    the same for the grandchild by a, then b, from the grandparent's rho:
    p_ab = tr(E_ab rho) and f_ab = tr(F_ab rho) with
    E_ab = M_a^dagger E_b M_a and F_ab = M_a^dagger F_b M_a. All 112 are
    built once per search. One GEMM of a block's states against the
    fourteen one-step forms, or at the grandparents against all 112,
    estimates these for every child and grandchild. A child is stepped,
    by a one-action ``step_batch`` row, only if it could be recorded:
    p_a > floor - s, rate * p_a >= rate_cutoff - s and
    f_a >= (theta^2 - m) p_a - s, with the margin m = _SCREEN_MARGIN and
    the allowance s below. At the grandparents a child is also stepped if
    it is not fatal, p_a > floor - s, and one of its grandchildren could
    be recorded: p_ab > floor * p_a - s, rate * p_ab >= rate_cutoff - s
    and f_ab >= (theta^2 - m) p_ab - s. The floor condition carries p_a
    because the kernel renormalizes the child before the grandchild's
    step, whose probability is p_ab / p_a. The stepped children that
    continue are the parents, screened one level down. Each recorded
    number comes from a ``step_batch`` row, whose bits do not depend on
    its stack or on the form of the call, so the records are those of
    stepping every child, bit for bit.

    Rounding: a state at a screened depth is a density matrix to within
    rounding, so its entries' moduli sum to at most dim, and
    ||M_a|| <= 1 and ||M_b M_a|| <= 1 bound every entry of the forms by
    1. With u = 2^-53, a one-step form's entries carry the rounding of at
    most 2 dim-term sums and a two-step form's at most 4, so their
    rounding adds at most 4 dim^2 u to a screened trace. That trace is a
    dot product of 2 dim^2 real terms whose moduli sum to at most dim, so
    it lies within about 2 dim^3 u + 4 dim^2 u <= 3 dim^3 u (dim >= 4) of
    the exact trace. The kernel's probability and unnormalized overlap,
    two dim-term GEMMs and a sum over dim^2 entries, lie within about
    2 dim^2 u of it; for a grandchild, the kernel's p_b and f_b times its
    p_a lie within about 6 dim^2 u of p_ab and f_ab, since the child's
    division by p_a scales its rounding back with it. So a screened value
    and the kernel's, in units of the screened node's trace, differ by
    e < 4 dim^3 u (dim >= 8), and a condition weighs at most two such
    values (f against p, or p_ab against floor * p_a), 2e < dim^3 2^-50:
    the allowance s = dim^3 _SCREEN_SLACK is 64 times that (2.9e-11 at
    dim 8, 1.9e-9 at dim 32). A rate's products add a relative rounding
    of a few u. The kernel succeeds when the square root of its
    normalized overlap exceeds theta, which needs f > theta^2 p up to a
    relative rounding of a few dim u; m = 1e-6 is far above it. So every
    child the kernel would record, and every child on the way to a
    grandchild it would record, passes the screen, and the few extra
    children that pass are stepped and dropped.

    The search refuses, before any work, what check_search_budget
    refuses.
    """
    check_search_budget(env.cfg, max_len)
    root = env.reset()
    cfg = env.cfg
    leaves = min(max_len, cfg.max_steps)
    moves = np.arange(ACTION_COUNT)
    found: list[SequenceRecord] = []
    # forms[k, b] holds E and F of action b, after action k - 1 if k > 0:
    # E_b = M_b^dagger M_b, F_b = M_b^dagger (1 (x) |psi><psi|) M_b and
    # E_ab = M_a^dagger E_b M_a, F_ab = M_a^dagger F_b M_a. They are
    # Hermitian, so a state's flattened real view times their real views,
    # one column each, gives the traces
    ops = env.branch_operators
    adjoint = ops.conj().swapaxes(-1, -2)
    forms = np.empty((1 + ACTION_COUNT, ACTION_COUNT, 2) + ops.shape[1:], dtype=complex)
    forms[0] = np.stack([adjoint @ ops,
                         adjoint @ np.kron(np.eye(2), env.target_matrix) @ ops], axis=1)
    for a in moves:
        forms[1 + a] = adjoint[a] @ forms[0] @ ops[a]
    forms = forms.reshape(2 * ACTION_COUNT * (1 + ACTION_COUNT), -1).view(np.float64).T
    slack = env.dim ** 3 * _SCREEN_SLACK
    overlap_floor = cfg.theta ** 2 - _SCREEN_MARGIN

    def could_record(p, f, rate, scale):
        # the screen of a branch whose traces p and f carry the factor
        # scale, its parent's branch probability, that the kernel divides out
        return ((p > cfg.floor * scale - slack) & (rate * p >= rate_cutoff - slack)
                & (f >= overlap_floor * p - slack))

    def expand(rho, prefix, probs, rate):
        # the children (node[i], action[i]) stepped; flattened row-major
        # in the every-action form, node i's child by action a is row 7*i + a
        down = leaves - prefix.shape[1]  # levels from the nodes to the leaves
        if down > 2:
            out = env.step_batch(rho, None, prefix.shape[1] + 1)
            node = np.repeat(np.arange(len(rate)), ACTION_COUNT)
            action = np.tile(moves, len(rate))
        else:
            # traces[i, k, b] = (p, f): node i's child by b, or with k > 0 its
            # grandchild by k - 1 then b
            traces = (rho.reshape(len(rho), -1).view(np.float64)
                      @ (forms if down == 2 else forms[:, :2 * ACTION_COUNT])
                      ).reshape(len(rho), -1, ACTION_COUNT, 2)
            p = traces[:, 0, :, 0]
            step = could_record(p, traces[:, 0, :, 1], rate[:, None], 1.0)
            if down == 2:
                step |= (p > cfg.floor - slack) & could_record(
                    traces[:, 1:, :, 0], traces[:, 1:, :, 1], rate[:, None, None],
                    p[:, :, None]).any(axis=2)
            node, action = np.nonzero(step)
            if not len(node):
                return
            out = env.step_batch(rho[node], action, prefix.shape[1] + 1)
        prob, fid, code = out.prob.ravel(), out.fidelity.ravel(), out.code.ravel()
        prefix = np.column_stack([prefix[node], action])
        probs = np.column_stack([probs[node], prob])
        rate = rate[node] * prob
        kept = rate >= rate_cutoff
        for i in np.flatnonzero(kept & (code == SUCCESS)):
            found.append(SequenceRecord(root.start_label, tuple(prefix[i].tolist()),
                                        tuple(probs[i].tolist()), float(fid[i]), "success"))
        if prefix.shape[1] < leaves:
            # keep only the continuing rows while their subtrees run
            todo = np.flatnonzero(kept & (code == CONTINUE))
            rho, prefix, probs, rate = (out.rho.reshape((-1,) + rho.shape[1:])[todo],
                                        prefix[todo], probs[todo], rate[todo])
            del out
            # screened nodes go in one block: all the continuing children
            # of an every-action block, at most 7 * SEARCH_BLOCK
            size = SEARCH_BLOCK if down > 3 else max(len(todo), 1)
            for lo in range(0, len(todo), size):
                block = slice(lo, lo + size)
                expand(rho[block], prefix[block], probs[block], rate[block])

    if max_len > 0:
        expand(root.rho[None], np.empty((1, 0), dtype=np.intp), np.empty((1, 0)), np.ones(1))
    found.sort(key=lambda r: (len(r.actions), -r.success_rate, r.actions))
    return found


def combination_histogram(sequences: Iterable[Sequence[int]]) -> dict[tuple[int, int], int]:
    """Counts of ordered adjacent action pairs across action sequences.

    Callers that want each successful sequence once filter first, e.g.
    ``dict.fromkeys(rec.actions for rec in records if rec.succeeded)``.
    """
    counts: dict[tuple[int, int], int] = {}
    for actions in sequences:
        for a, b in zip(actions, actions[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


# -- sequence notation ------------------------------------------------

_TOKEN_TO_ACTION = {tok: i for i, tok in enumerate(ACTION_TOKENS)}
_TOKEN_TO_ACTION["nop"] = DO_NOTHING
_U_RE = re.compile(r"^U(\d+)$")


def parse_sequence(text: str) -> tuple[int, ...]:
    """Parse whitespace-separated sequence tokens into action indices.

    Tokens: projector names (Px+, Py-, ...), '-' or 'nop' for do-nothing,
    and U<k> for k intervals of free evolution folded into the following
    projector step (or standing alone as k do-nothing steps at the end).
    A sequence of more than ``STEP_LIMIT`` steps, which no episode runs,
    is refused at the token that passes the limit, before it is built.
    """
    actions: list[int] = []
    pending = 0  # evolution intervals owed before the next action
    tokens = text.split()
    for pos, tok in enumerate(tokens, start=1):
        m = _U_RE.match(tok)
        if m:
            digits = m.group(1).lstrip("0")
            if not digits:
                raise SequenceParseError(f"U count must be >= 1, got {tok!r}", pos)
            # a longer digit string than the limit's own is larger still, and
            # int() refuses very long ones
            pending += STEP_LIMIT + 1 if len(digits) > len(str(STEP_LIMIT)) else int(digits)
        elif tok in _TOKEN_TO_ACTION:
            if pending:
                # the action's own step supplies the final evolution interval
                actions.extend([DO_NOTHING] * (pending - 1))
                pending = 0
            actions.append(_TOKEN_TO_ACTION[tok])
        else:
            raise SequenceParseError(f"unknown action token {tok!r}", pos)
        if len(actions) + pending > STEP_LIMIT:
            raise SequenceParseError(f"sequence too large at {tok!r}: an episode runs at "
                                     f"most {STEP_LIMIT} steps", pos)
    actions.extend([DO_NOTHING] * pending)
    if not actions:
        raise SequenceParseError("empty sequence", 0)
    return tuple(actions)


def format_sequence(actions: Sequence[int]) -> str:
    """Render actions as tokens, runs of evolution folded into U<k>
    prefixes."""
    parts: list[str] = []
    pending = 1  # each step carries its own evolution interval
    for a in actions:
        if a == DO_NOTHING:
            pending += 1
            continue
        parts.append(f"U{pending}")
        parts.append(ACTION_TOKENS[a])
        pending = 1
    if pending > 1:
        parts.append(f"U{pending - 1}")
    return " ".join(parts)

