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

import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, SequenceParseError
from .env import ACTION_COUNT, ACTION_TOKENS, DO_NOTHING, EnvConfig, QSEEnv
from .model import ModelParams, purity, trace_distance

# not called here, but perfbench's tracer wraps these names in this module
from .linalg import partial_trace_first  # noqa: F401
from .model import fidelity_to_pure, measure  # noqa: F401

__all__ = [
    "StepStats",
    "SequenceRecord",
    "replay_sequence",
    "verify_steady_state",
    "exhaustive_search",
    "combination_histogram",
    "diagnostic_trace",
    "parse_sequence",
    "format_sequence",
    "records_to_lines",
    "parse_records",
]

SEARCH_MAX_LEN_BUDGET = 6
#: Nodes exhaustive_search expands per step_batch call (7 rows each). Small
#: blocks keep the depth-first walk's memory flat; 7 nodes amortize the
#: call overhead.
SEARCH_BLOCK = 7


class StepStats(NamedTuple):
    """Per-step diagnostics; trace_distance/purity are NaN when a record
    was collected on a fast path that skips them."""

    success_prob: float
    fidelity: float
    trace_distance: float
    purity: float


@dataclass(frozen=True)
class SequenceRecord:
    """One executed sequence with its per-step diagnostics.

    success_rate is the product of the recorded branch probabilities
    (do-nothing steps contribute a factor of one). aborted marks records
    cut short by a branch probability under the floor.
    """

    start_label: str
    actions: tuple[int, ...]
    per_step: tuple[StepStats, ...]
    success_rate: float
    final_fidelity: float
    succeeded: bool
    aborted: bool = False

    def __post_init__(self):
        if len(self.per_step) > len(self.actions):
            raise ValueError("more per-step entries than actions")


def replay_sequence(start: np.ndarray, actions: Sequence[int], cfg: EnvConfig | QSEEnv,
                    start_label: str = "custom") -> SequenceRecord:
    """Execute a sequence from an explicit full-system start state.

    cfg is an EnvConfig or an environment already built from one. Each
    step is one row of ``QSEEnv.step_batch``, so a replay reproduces the
    search's rates and fidelities bit for bit. Unlike an episode, replay
    never terminates early on crossing the fidelity threshold;
    diagnostics are recorded after every step. An empty sequence still
    reports the fidelity after one free-evolution interval. A branch
    probability at or below the floor aborts the replay and returns the
    partial record.
    """
    env = cfg if isinstance(cfg, QSEEnv) else QSEEnv(cfg)
    theta = env.cfg.theta
    rho = np.asarray(start, dtype=complex)[None]

    if len(actions) == 0:
        fid = float(env.step_batch(rho, [DO_NOTHING]).fidelity[0])
        return SequenceRecord(start_label, (), (), 1.0, fid, fid > theta)

    stats: list[StepStats] = []
    rate = 1.0
    aborted = False
    for action in actions:
        out = env.step_batch(rho, [action])
        if out.fatal[0]:
            aborted = True
            break
        rho = out.rho
        prob = float(out.prob[0])
        rate *= prob
        bath = out.bath[0]
        stats.append(StepStats(
            success_prob=prob,
            fidelity=float(out.fidelity[0]),
            trace_distance=trace_distance(bath, env.target_matrix),
            purity=purity(bath),
        ))

    executed = tuple(actions[:len(stats)])
    final_fid = stats[-1].fidelity if stats else 0.0
    succeeded = (not aborted) and final_fid > theta
    return SequenceRecord(start_label, executed, tuple(stats), rate,
                          final_fid, succeeded, aborted)


def verify_steady_state(n_bath: int, repetitions: int,
                        model: ModelParams | None = None,
                        floor: float = 1e-8,
                        lead_in_intervals: int = 2) -> list[float]:
    """Fidelity trajectory of repeated x+ projections on an even bath.

    Replays, from the x+ central state over a maximally mixed bath,
    ``lead_in_intervals - 1`` idle steps and then ``repetitions`` x+
    projections, each after one interval of evolution. Returns the bath
    fidelity to a tensor product of singlet pairs after each projection;
    a branch at or below the floor ends the list early.
    """
    if n_bath < 2 or n_bath % 2 != 0:
        raise ValueError(f"n_bath must be a positive even count, got {n_bath}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if lead_in_intervals < 1:
        raise ValueError(f"lead_in_intervals must be >= 1, got {lead_in_intervals}")
    if model is None:
        model = ModelParams.uniform(n_bath=n_bath)
    elif model.n_bath != n_bath:
        model = ModelParams.uniform(n_bath=n_bath, coupling=model.couplings[0],
                                    omega=model.omega, tau=model.tau)
    env = QSEEnv(EnvConfig(model=model, target="psi-", floor=floor))
    px_plus = _TOKEN_TO_ACTION["Px+"]
    actions = (DO_NOTHING,) * (lead_in_intervals - 1) + (px_plus,) * repetitions
    rec = replay_sequence(env.reset().rho, actions, env)
    return [s.fidelity for s in rec.per_step[lead_in_intervals - 1:]]


def exhaustive_search(max_len: int, target: str, cfg: EnvConfig,
                      rate_cutoff: float = 1e-6,
                      max_len_budget: int = SEARCH_MAX_LEN_BUDGET) -> list[SequenceRecord]:
    """All minimal successful sequences up to max_len from the config's
    fixed start.

    Depth-first enumeration over the seven actions, sharing prefixes.
    Nodes of one depth are expanded in blocks of up to SEARCH_BLOCK, all
    seven children of each in one ``QSEEnv.step_batch`` call. Children
    are pruned when the running success rate drops below rate_cutoff or
    a projection probability hits the floor. A sequence is recorded the
    first time its bath fidelity crosses theta and is not extended
    further (an episode would have terminated there), so the result is
    exactly the set of successful sequences an episodic policy could
    execute. Sorted by (length, -success_rate).
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len > max_len_budget:
        raise BudgetExceeded(
            f"max_len {max_len} exceeds the enumeration budget {max_len_budget} "
            f"({7 ** max_len:,} sequences)"
        )
    if target != cfg.target:
        cfg = dataclasses.replace(cfg, target=target)
    env = QSEEnv(cfg)
    root = env.reset()
    moves = np.arange(ACTION_COUNT)
    found: list[SequenceRecord] = []

    def expand(rho, prefix, probs, rate):
        # row-major children: node i's child by action a is row 7*i + a
        n = len(rate)
        out = env.step_batch(np.repeat(rho, ACTION_COUNT, axis=0), np.tile(moves, n))
        prefix = np.column_stack([np.repeat(prefix, ACTION_COUNT, axis=0), np.tile(moves, n)])
        probs = np.column_stack([np.repeat(probs, ACTION_COUNT, axis=0), out.prob])
        rate = np.repeat(rate, ACTION_COUNT) * out.prob
        live = ~out.fatal & (rate >= rate_cutoff)
        hit = live & (out.fidelity > cfg.theta)
        for i in np.flatnonzero(hit):
            stats = [StepStats(float(p), float("nan"), float("nan"), float("nan"))
                     for p in probs[i]]
            stats[-1] = stats[-1]._replace(fidelity=float(out.fidelity[i]))
            found.append(SequenceRecord(root.start_label, tuple(prefix[i].tolist()),
                                        tuple(stats), float(rate[i]),
                                        float(out.fidelity[i]), True))
        if prefix.shape[1] < max_len:
            todo = np.flatnonzero(live & ~hit)
            for lo in range(0, len(todo), SEARCH_BLOCK):
                block = todo[lo:lo + SEARCH_BLOCK]
                expand(out.rho[block], prefix[block], probs[block], rate[block])

    if max_len > 0:
        expand(root.rho[None], np.empty((1, 0), dtype=np.intp), np.empty((1, 0)), np.ones(1))
    found.sort(key=lambda r: (len(r.actions), -r.success_rate, r.actions))
    return found


def combination_histogram(records: Iterable[SequenceRecord],
                          unique_successful: bool = False) -> dict[tuple[int, int], int]:
    """Counts of ordered adjacent action pairs across records.

    With unique_successful set, records are first filtered to successful
    ones and deduplicated by their action sequence.
    """
    if unique_successful:
        seen: dict[tuple[int, ...], SequenceRecord] = {}
        for rec in records:
            if rec.succeeded and rec.actions not in seen:
                seen[rec.actions] = rec
        records = list(seen.values())
    counts: dict[tuple[int, int], int] = {}
    for rec in records:
        for a, b in zip(rec.actions, rec.actions[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def diagnostic_trace(record: SequenceRecord):
    """Rows (step, action token, success_prob, fidelity, trace_distance,
    purity) for a fully replayed record."""
    rows = []
    for i, (action, stats) in enumerate(zip(record.actions, record.per_step), start=1):
        if math.isnan(stats.trace_distance) or math.isnan(stats.purity):
            raise ValueError(
                "record lacks full diagnostics; replay it with replay_sequence first"
            )
        rows.append((i, ACTION_TOKENS[action], stats.success_prob, stats.fidelity,
                     stats.trace_distance, stats.purity))
    return rows


# -- sequence notation ------------------------------------------------

_TOKEN_TO_ACTION = {tok: i for i, tok in enumerate(ACTION_TOKENS)}
_TOKEN_TO_ACTION["nop"] = DO_NOTHING
_U_RE = re.compile(r"^U(\d+)$")


def parse_sequence(text: str) -> tuple[int, ...]:
    """Parse whitespace-separated sequence tokens into action indices.

    Tokens: projector names (Px+, Py-, ...), '-' or 'nop' for do-nothing,
    and U<k> for k intervals of free evolution folded into the following
    projector step (or standing alone as k do-nothing steps at the end).
    """
    actions: list[int] = []
    pending = 0  # evolution intervals owed before the next action
    tokens = text.split()
    for pos, tok in enumerate(tokens, start=1):
        m = _U_RE.match(tok)
        if m:
            k = int(m.group(1))
            if k < 1:
                raise SequenceParseError(f"U count must be >= 1, got {tok!r}", pos)
            pending += k
            continue
        if tok not in _TOKEN_TO_ACTION:
            raise SequenceParseError(f"unknown action token {tok!r}", pos)
        action = _TOKEN_TO_ACTION[tok]
        if pending:
            # the action's own step supplies the final evolution interval
            actions.extend([DO_NOTHING] * (pending - 1))
            pending = 0
        actions.append(action)
    actions.extend([DO_NOTHING] * pending)
    if not actions:
        raise SequenceParseError("empty sequence", 0)
    return tuple(actions)


def format_sequence(actions: Sequence[int], compress: bool = True) -> str:
    """Render actions as tokens; with compress, runs of evolution fold
    into U<k> prefixes."""
    if not compress:
        return " ".join(ACTION_TOKENS[a] for a in actions)
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


# -- record files -----------------------------------------------------

def records_to_lines(records: Iterable[SequenceRecord]) -> list[str]:
    """One tab-separated line per record: start, actions, per-step
    probabilities, success rate, final fidelity, succeeded flag."""
    lines = []
    for rec in records:
        acts = " ".join(ACTION_TOKENS[a] for a in rec.actions)
        probs = ",".join(f"{s.success_prob:.12g}" for s in rec.per_step)
        lines.append(
            f"{rec.start_label}\t{acts}\t{probs}\t{rec.success_rate:.12g}"
            f"\t{rec.final_fidelity:.12g}\t{int(rec.succeeded)}"
        )
    return lines


def parse_records(lines: Iterable[str]) -> list[SequenceRecord]:
    """Inverse of records_to_lines; per-step diagnostics other than the
    probabilities come back as NaN."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise SequenceParseError(f"expected 6 tab-separated fields, got {len(fields)}",
                                     lineno)
        start_label, acts, probs, rate, fid, succ = fields
        try:
            actions = tuple(_TOKEN_TO_ACTION[t] for t in acts.split()) if acts else ()
        except KeyError as exc:
            raise SequenceParseError(f"unknown action token {exc.args[0]!r}", lineno) from exc
        prob_values = tuple(float(p) for p in probs.split(",")) if probs else ()
        stats = tuple(StepStats(p, float("nan"), float("nan"), float("nan"))
                      for p in prob_values)
        records.append(SequenceRecord(start_label, actions, stats, float(rate),
                                      float(fid), succ == "1"))
    return records
