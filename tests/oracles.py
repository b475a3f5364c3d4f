"""Reference implementations the tests compare the library against;
the program itself runs none of them."""

import numpy as np

from qsteer.agent import select_action
from qsteer.env import (ACTION_COUNT, ACTION_TOKENS, CONTINUE, DO_NOTHING, FATAL, OUTCOMES,
                        SUCCESS, EnvConfig, QSEEnv, _labels_for, encode_state)
from qsteer.errors import QsteerError, ShapeMismatch
from qsteer.model import IDENTITY_2, ModelParams, kron_all, purity, trace_distance
from qsteer.sequences import (SEARCH_BLOCK, SequenceRecord, check_search_budget,
                              replay_sequence)


def hermiticity_defect(m: np.ndarray) -> float:
    """Relative Frobenius distance of m from its Hermitian part.

    Returns 0 for the zero matrix.
    """
    m = np.asarray(m)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.conj().T) / norm)


class NegativeEigenvalue(QsteerError):
    """Matrix has an eigenvalue below the allowed negative drift."""


def matrix_sqrt_psd(m: np.ndarray, neg_tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in [-neg_tol, 0) are treated as floating-point drift and
    clamped to zero; anything below -neg_tol raises NegativeEigenvalue.
    """
    w, v = np.linalg.eigh(m)
    if w[0] < -neg_tol:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -{neg_tol:.1e}")
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    # symmetrize away the last bits of round-off
    return (root + root.conj().T) / 2


def fidelity(sigma: np.ndarray, rho: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Symmetric in its arguments and equal to 1 iff sigma == rho. For a pure
    rho this reduces to the overlap square root that
    ``qsteer.model.fidelity_to_pure`` computes directly.
    """
    if sigma.shape != rho.shape:
        raise ShapeMismatch(f"fidelity operands {sigma.shape} vs {rho.shape}")
    root = matrix_sqrt_psd(rho)
    inner = root @ sigma @ root
    # inner is PSD up to round-off; its eigenvalue square roots sum to F.
    # Eigenvalues at the round-off floor must be zeroed first: the square
    # root amplifies O(eps) noise to O(sqrt(eps)).
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    cutoff = inner.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    w = np.where(w > cutoff, w, 0.0)
    return float(min(1.0, np.sum(np.sqrt(w))))


def assert_density_matrix(rho: np.ndarray, herm_tol: float = 1e-9,
                          trace_tol: float = 1e-9, eig_floor: float = -1e-9) -> None:
    """Validate Hermiticity, unit trace, and positivity within tolerances."""
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise AssertionError(f"Hermiticity defect {defect:.3e} > {herm_tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise AssertionError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] < eig_floor:
        raise AssertionError(f"eigenvalue {w[0]:.3e} below {eig_floor:.1e}")


def decode_state(encoding: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of ``qsteer.env.encode_state``, restoring Hermiticity and
    unit trace."""
    iu, ju = np.triu_indices(dim)
    iu, ju = iu[:-1], ju[:-1]  # the last diagonal entry is fixed by the unit trace
    entries = encoding[0::2] + 1j * encoding[1::2]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[iu, ju] = entries
    lower = rho.conj().T.copy()
    np.fill_diagonal(lower, 0.0)
    rho += lower
    rho[dim - 1, dim - 1] = 1.0 - np.sum(rho.diagonal()[: dim - 1]).real
    return rho


def verify_steady_state(n_bath: int, repetitions: int) -> list[float]:
    """Fidelity trajectory of repeated x+ projections on an even bath.

    Replays, from the x+ central state over a maximally mixed bath of the
    default model, one idle step and then ``repetitions`` x+ projections,
    each after one interval of evolution. Returns the bath fidelity to a
    tensor product of singlet pairs after each projection; a branch at or
    below the floor, or a success, ends the list early. An odd bath is a
    ValueError.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    env = QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=n_bath), target="psi-"))
    actions = (DO_NOTHING,) + (ACTION_TOKENS.index("Px+"),) * repetitions
    _, diagnostics = replay_sequence(env, actions)
    return [fid for fid, _, _ in diagnostics[1:]]


def random_starts_per_row(env: QSEEnv, rngs):
    """``QSEEnv.starts`` for a random start, one state at a time: each
    state divided by its own ``np.linalg.norm``, once when it is drawn
    and once more when its product state is built. Returns (rho,
    labels)."""
    def unit(v):
        return v / np.linalg.norm(v)

    central = np.stack([unit(g.standard_normal(2) + 1j * g.standard_normal(2))
                        for g in rngs]) + 0
    labels = _labels_for(central)
    central = np.stack([unit(v) for v in central])
    outer = central[:, :, None] * central[:, None, :].conj()
    rho = kron_all(outer, *([IDENTITY_2 / 2] * env.cfg.model.n_bath))
    return rho, labels


def collect_per_row(env: QSEEnv, params, eps: float, rngs, columns):
    """``qsteer.agent._collect`` with one state row per live episode:
    every step conjugates, scores, encodes and forwards each episode's
    state, shared or not. Same arguments and results."""
    rho, start_labels = env.starts(rngs)
    n = len(rngs)
    rho = np.broadcast_to(rho, (n,) + rho.shape[1:])
    live = np.arange(n)
    totals = np.zeros(n)
    episode = []
    held = {name: [] for name in columns}
    while len(live):
        enc = encode_state(rho)
        actions = select_action(params, enc, eps, [rngs[i] for i in live])
        out = env.step_batch(rho, actions, len(episode) + 1)
        totals[live] += env.rewards[out.code]
        episode.append(live)
        row = dict(s=enc, a=actions, code=out.code, prob=out.prob, fidelity=out.fidelity)
        for name, column in held.items():
            column.append(row[name])
        go = out.code == CONTINUE
        live, rho = live[go], out.rho[go]
    episode = np.concatenate(episode)
    order = np.argsort(episode, kind="stable")
    offsets = np.searchsorted(episode[order], np.arange(n + 1))
    steps = {name: np.concatenate(column)[order] for name, column in held.items()}
    return start_labels, totals, offsets, steps


def replay_per_step(env: QSEEnv, actions):
    """``qsteer.sequences.replay_sequence`` one step at a time: each
    action is one ``QSEEnv.step_batch`` row judged by its own outcome
    code, stopping at the first step that does not continue, and the
    baths reached are stacked for the diagnostics. Same arguments and
    results."""
    if not len(actions):
        raise ValueError("cannot replay an empty sequence")
    start = env.reset()
    rho = start.rho[None]
    probs: list[float] = []
    fids: list[float] = []
    baths: list[np.ndarray] = []
    for step, action in enumerate(actions[:env.cfg.max_steps], start=1):
        out = env.step_batch(rho, [action], step)
        probs.append(float(out.prob[0]))
        fids.append(float(out.fidelity[0]))  # NaN on a fatal step
        code = out.code[0]
        if code == FATAL:
            break
        rho = out.rho
        baths.append(out.bath[0])
        if code != CONTINUE:
            break

    diagnostics = []
    if baths:
        stack = np.stack(baths)
        diagnostics = list(zip(fids, trace_distance(stack, env.target_matrix).tolist(),
                               purity(stack).tolist()))
    record = SequenceRecord(start.start_label, tuple(map(int, actions[:len(probs)])),
                            tuple(probs), fids[-1], OUTCOMES[code])
    return record, diagnostics


def search_unscreened(env: QSEEnv, max_len: int,
                      rate_cutoff: float = 1e-6) -> list[SequenceRecord]:
    """``qsteer.sequences.exhaustive_search`` without its screen: every
    node, the leaves' parents and grandparents too, steps all seven
    children in one every-action ``QSEEnv.step_batch`` call. Same
    arguments, budget and results."""
    check_search_budget(env.cfg, max_len)
    root = env.reset()
    moves = np.arange(ACTION_COUNT)
    found: list[SequenceRecord] = []

    def expand(rho, prefix, probs, rate):
        # every child at once; flattened row-major, node i's child by
        # action a is row 7*i + a
        out = env.step_batch(rho, None, prefix.shape[1] + 1)
        prob, fid, code = out.prob.ravel(), out.fidelity.ravel(), out.code.ravel()
        actions = np.tile(moves, len(rate))
        prefix = np.column_stack([np.repeat(prefix, ACTION_COUNT, axis=0), actions])
        probs = np.column_stack([np.repeat(probs, ACTION_COUNT, axis=0), prob])
        rate = np.repeat(rate, ACTION_COUNT) * prob
        kept = rate >= rate_cutoff
        for i in np.flatnonzero(kept & (code == SUCCESS)):
            found.append(SequenceRecord(root.start_label, tuple(prefix[i].tolist()),
                                        tuple(probs[i].tolist()), float(fid[i]), "success"))
        if prefix.shape[1] < max_len:
            # keep only the continuing rows while their subtrees run
            todo = np.flatnonzero(kept & (code == CONTINUE))
            rho, prefix, probs, rate = (out.rho.reshape((-1,) + rho.shape[1:])[todo],
                                        prefix[todo], probs[todo], rate[todo])
            del out
            for lo in range(0, len(todo), SEARCH_BLOCK):
                block = slice(lo, lo + SEARCH_BLOCK)
                expand(rho[block], prefix[block], probs[block], rate[block])

    if max_len > 0:
        expand(root.rho[None], np.empty((1, 0), dtype=np.intp), np.empty((1, 0)), np.ones(1))
    found.sort(key=lambda r: (len(r.actions), -r.success_rate, r.actions))
    return found
