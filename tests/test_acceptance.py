"""Acceptance suite: one test per exit criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance. The golden numbers live in
conftest.py. The learning criteria train the bundled fixed-start singlet
configuration from scratch for three seeds, so this module dominates the
suite's runtime (a few minutes).
"""

import dataclasses
import time
from itertools import pairwise

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    FIDELITY_ATOL,
    GOLDEN_FIXED_START,
    GOLDEN_TAU2_START,
    RATE_ATOL,
    random_density_matrix,
    reduced_config,
    train_seed,
    training_workers,
)
from oracles import decode_state, fidelity, verify_steady_state
from qsteer import cli
from qsteer.agent import evaluate_policy
from qsteer.config import parse_config
from qsteer.env import DO_NOTHING, QSEEnv, encode_state
from qsteer.model import (
    BELL_STATES,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN_STATES,
    central_projector,
    kron_all,
    partial_trace_first,
)
from qsteer.network import MLPSpec, forward, gradients, init_params, load_params
from qsteer.sequences import (
    SequenceRecord,
    combination_histogram,
    exhaustive_search,
    parse_sequence,
    replay_sequence,
)
from test_network import max_rel_error, numeric_grads

# the whole module is the slow tier: pytest -m "not slow" leaves it out
pytestmark = pytest.mark.slow

LEARNING_SEEDS = (11, 23, 47)

SUPERPOSITION_AND_IDLE = {2, 3, 4, 5, DO_NOTHING}  # x/y projections plus idle
PZ_PLUS = 0
PX_PLUS = 2


def report(cid, ok: bool, detail: str):
    print(f"[criterion {cid:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def run_cfg():
    return parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")


@pytest.fixture(scope="module")
def trained_agents(run_cfg, tmp_path_factory):
    """Best parameter sets from training the bundled configuration once
    per seed, shared by the learning-related criteria. The seeds train in
    worker processes, as they would in this one
    (test_worker_trains_as_in_process)."""
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text()
    with training_workers(len(LEARNING_SEEDS)) as pool:
        trained = list(pool.map(train_seed, [text] * len(LEARNING_SEEDS), LEARNING_SEEDS,
                                timeout=1200))
    out, best = tmp_path_factory.mktemp("trained"), {}
    for seed, (checkpoint, _, _) in zip(LEARNING_SEEDS, trained):
        (out / f"best_seed{seed}.npz").write_bytes(checkpoint)
        best[seed] = load_params(out / f"best_seed{seed}.npz", run_cfg.mlp)[0]
    return best


# -- prerequisite: operator-normalization sweep -------------------------

def _candidate_replay(central_scale, bath_scale):
    """Replay the singlet golden row under a candidate normalization,
    sharing no code with the production Hamiltonian builder."""
    s_z = central_scale * PAULI_Z
    paulis = [bath_scale * PAULI_X, bath_scale * PAULI_Y, bath_scale * PAULI_Z]
    dim = 8
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(2):
        ops = [s_z, IDENTITY_2, IDENTITY_2]
        ops[1 + k] = paulis[0]  # coupling vector (1, 0, 0)
        h += kron_all(*ops)
        ops = [IDENTITY_2, IDENTITY_2, IDENTITY_2]
        ops[1 + k] = paulis[2]
        h += 0.5 * kron_all(*ops)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T

    xplus = SPIN_STATES["x+"]
    rho = kron_all(np.outer(xplus, xplus.conj()), IDENTITY_2 / 2, IDENTITY_2 / 2)
    proj = kron_all(np.outer(xplus, xplus.conj()), IDENTITY_2, IDENTITY_2)
    rate = 1.0
    rho = u @ rho @ u.conj().T  # leading idle interval
    for _ in range(5):
        rho = u @ rho @ u.conj().T
        rho = proj @ rho @ proj
        p = float(np.trace(rho).real)
        rate *= p
        rho /= p
    bath = partial_trace_first(rho, 2)
    psi = BELL_STATES["psi-"]
    fid = float(np.sqrt(max(0.0, (psi.conj() @ bath @ psi).real)))
    return fid, rate


def test_prerequisite_convention_sweep():
    candidates = {
        ("diag(1,-1)", "sigma/2"): (1.0, 0.5),
        ("diag(1,-1)", "sigma"): (1.0, 1.0),
        ("diag(1,-1)/2", "sigma/2"): (0.5, 0.5),
        ("diag(1,-1)/2", "sigma"): (0.5, 1.0),
    }
    matches = []
    for label, (cs, bs) in candidates.items():
        fid, rate = _candidate_replay(cs, bs)
        if abs(fid - 0.99454) < FIDELITY_ATOL and abs(rate - 0.25275) < RATE_ATOL:
            matches.append(label)
    report("P", matches == [("diag(1,-1)", "sigma")],
           f"exactly one normalization matches the golden row: {matches} "
           f"(production uses central diag(1,-1) with full Pauli bath operators)")


# -- replay criteria -----------------------------------------------------

def test_criterion_1_fixed_start_golden_rows(run_cfg):
    t0 = time.monotonic()
    failures = []
    for target, start_label, tokens, fid_ref, rate_ref in GOLDEN_FIXED_START:
        cfg = dataclasses.replace(run_cfg.env, target=target)
        rec, _ = replay_sequence(QSEEnv(cfg), parse_sequence(tokens))
        if abs(rec.final_fidelity - fid_ref) >= FIDELITY_ATOL:
            failures.append(f"{target} fidelity {rec.final_fidelity:.5f} vs {fid_ref}")
        if abs(rec.success_rate - rate_ref) >= RATE_ATOL:
            failures.append(f"{target} rate {rec.success_rate:.5f} vs {rate_ref}")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (budget 1s)")
    report(1, not failures,
           f"six fixed-start rows within 5e-3 fidelity / 0.1pp rate in "
           f"{elapsed * 1000:.0f}ms {failures or ''}")


def test_criterion_2_doubled_interval_golden_rows(run_cfg):
    # these reference sequences come from runs at tau = 2; with tau = 1 the
    # mixed x+/y- sequence misses both tolerances (see the repo notes)
    model = dataclasses.replace(run_cfg.env.model, tau=2.0)
    failures = []
    for target, start_label, tokens, fid_ref, rate_ref in GOLDEN_TAU2_START:
        cfg = dataclasses.replace(
            run_cfg.env, model=model, start_mode="fixed_custom",
            custom_start=tuple(complex(c) for c in SPIN_STATES[start_label]))
        rec, _ = replay_sequence(QSEEnv(cfg), parse_sequence(tokens))
        if abs(rec.final_fidelity - fid_ref) >= FIDELITY_ATOL:
            failures.append(f"{start_label}/{tokens}: fidelity {rec.final_fidelity:.5f}")
        if abs(rec.success_rate - rate_ref) >= RATE_ATOL:
            failures.append(f"{start_label}/{tokens}: rate {rec.success_rate:.5f}")
    report(2, not failures,
           f"five doubled-interval sequences from x+/x- starts match "
           f"0.99227 and rates 25.391/12.695/6.348% {failures or ''}")


def _replay_singlet_row(env_cfg):
    """Per-step (fidelity, trace_distance, purity) of the golden singlet row."""
    tokens = GOLDEN_FIXED_START[3][2]
    return replay_sequence(QSEEnv(env_cfg), parse_sequence(tokens))[1]


def test_criterion_3_monotone_fidelity_and_trace_distance(run_cfg):
    fids, dists, _ = zip(*_replay_singlet_row(run_cfg.env))
    fid_monotone = all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    dist_monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    report(3, fid_monotone and dist_monotone,
           f"singlet route: fidelity non-decreasing ({fids[0]:.3f}->{fids[-1]:.5f}), "
           f"trace distance non-increasing ({dists[0]:.3f}->{dists[-1]:.5f})")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the exact dynamics that reproduce the "
    "golden fidelity 0.99454 pin the final bath purity at 0.97847; the bath "
    "is a ~0.989/0.011 two-component mixture, so purity cannot reach 0.98 "
    "(it lands at roughly fidelity^4 + (1-fidelity^2)^2). See the repo notes.",
)
def test_criterion_3_final_purity_clause(run_cfg):
    final_purity = _replay_singlet_row(run_cfg.env)[-1][2]
    report("3p", final_purity >= 0.98, f"final bath purity {final_purity:.5f} >= 0.98")


def test_criterion_4_threshold_reward_rationale(run_cfg):
    cfg = dataclasses.replace(run_cfg.env, target="phi+")
    tokens = GOLDEN_FIXED_START[0][2]
    rec, diagnostics = replay_sequence(QSEEnv(cfg), parse_sequence(tokens))
    fourth = diagnostics[3][0]
    final = rec.final_fidelity
    report(4, fourth < 0.2 and final > 0.99,
           f"phi+ route dips to {fourth:.4f} at step 4 yet ends at {final:.5f}: "
           f"raw fidelity would be a misleading reward")


def test_criterion_5_steady_state_product_form():
    two = verify_steady_state(2, 5)
    ok_two = two[-1] >= 0.99
    four = verify_steady_state(4, 10)
    ok_four = all(b >= a - 1e-12 for a, b in zip(four, four[1:]))
    report(5, ok_two and ok_four,
           f"n=2 reaches {two[-1]:.5f} within 5 projections; n=4 fidelity to the "
           f"double singlet grows monotonically ({four[0]:.3f}->{four[-1]:.3f})")


# -- search criteria -----------------------------------------------------

def test_criterion_6_exhaustive_oracle(run_cfg, trained_agents):
    records = exhaustive_search(QSEEnv(dataclasses.replace(run_cfg.env, target="psi+")), 5)
    best = [r for r in records
            if r.final_fidelity >= 0.999 and abs(r.success_rate - 0.20313) < RATE_ATOL]
    found_table_row = bool(best)

    oracle = {r.actions for r in exhaustive_search(QSEEnv(run_cfg.env), 5)}
    evaluation = evaluate_policy(trained_agents[LEARNING_SEEDS[0]], run_cfg.env, 0.1, 500,
                                 master_seed=LEARNING_SEEDS[0])
    agent_short = {rec.actions for rec in evaluation.records
                   if rec.succeeded and len(rec.actions) <= 5}
    dominated = agent_short <= oracle
    report(6, found_table_row and dominated and agent_short,
           f"psi+ oracle holds the known 20.313% row; all {len(agent_short)} "
           f"distinct short successful agent sequences appear among the "
           f"oracle's {len(oracle)}")


# -- learning criteria ---------------------------------------------------

def test_criterion_7_learning_beats_random(run_cfg, trained_agents):
    details = []
    ok = True
    for seed in LEARNING_SEEDS:
        params = trained_agents[seed]
        trained = evaluate_policy(params, run_cfg.env, 0.1, 500, master_seed=seed)
        baseline = evaluate_policy(params, run_cfg.env, 1.0, 500,
                                   master_seed=seed, seed_stream=4)
        seed_ok = (trained.mean_return >= baseline.mean_return + 10
                   and trained.success_fraction >= 0.30
                   and baseline.success_fraction <= 0.10)
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: trained {trained.mean_return:.1f}/{trained.success_fraction:.0%} "
            f"vs random {baseline.mean_return:.1f}/{baseline.success_fraction:.0%}")
    report(7, ok, "; ".join(details))


def policy_pair_histogram(records, env_cfg, greedy):
    """Adjacent-pair counts over the unique successful records, keeping
    only the pairs whose two actions were both the policy's own choice.

    Each unique successful sequence is stepped again from ``env.reset()``.
    For a fixed start this reproduces exactly the states the policy saw,
    because every measured branch is post-selected. An action is the
    policy's choice when it equals ``greedy(encoding)`` in the state where
    it was taken; an exploratory draw that happens to coincide with it
    counts as the policy's. Returns the counts and the number of pairs
    left out because one of their actions was an exploratory draw.
    """
    env = QSEEnv(env_cfg)
    counts: dict[tuple[int, int], int] = {}
    left_out = 0
    for actions in dict.fromkeys(rec.actions for rec in records if rec.succeeded):
        state = env.reset()
        chosen = []
        for action in actions:
            chosen.append(action == greedy(encode_state(state.rho)))
            result = env.step(state, action)
            state = result.next
        assert result.outcome == "success", f"replay of {actions} did not succeed"
        for pair, both_chosen in zip(pairwise(actions), map(all, pairwise(chosen))):
            if both_chosen:
                counts[pair] = counts.get(pair, 0) + 1
            else:
                left_out += 1
    return counts, left_out


def _superposition_share(counts):
    total = sum(counts.values())
    assert total > 0, "no adjacent pairs to count"
    return sum(c for (a, b), c in counts.items()
               if a in SUPERPOSITION_AND_IDLE and b in SUPERPOSITION_AND_IDLE) / total


def test_criterion_8_successful_sequences_avoid_z(run_cfg, trained_agents):
    # At eps = 0.01 a successful route can still carry an exploratory
    # projection, drawn uniformly over all seven actions (z among them).
    # Deduplication gives each such variant the weight of the greedy route,
    # so only the pairs the trained policy chose itself are held to the
    # bound; the all-pairs share is reported alongside for comparison.
    details = []
    ok = True
    for seed in LEARNING_SEEDS:
        params = trained_agents[seed]
        evaluation = evaluate_policy(params, run_cfg.env, 0.01, 500,
                                     master_seed=seed, seed_stream=5)
        counts, left_out = policy_pair_histogram(
            evaluation.records, run_cfg.env,
            lambda s, params=params: int(np.argmax(forward(params, s[None])[0])))
        frac = _superposition_share(counts)
        n_pairs = sum(counts.values())
        z_frac = counts.get((PZ_PLUS, PZ_PLUS), 0) / n_pairs
        all_frac = _superposition_share(
            combination_histogram(dict.fromkeys(
                rec.actions for rec in evaluation.records if rec.succeeded)))
        ok = ok and frac >= 0.90 and z_frac < 0.01
        details.append(
            f"seed {seed}: {frac:.1%} of {n_pairs} policy pairs, "
            f"z+z+ {z_frac:.2%}, all pairs {all_frac:.1%}, "
            f"{left_out} exploratory pairs left out")
    report(8, ok,
           "adjacent pairs chosen by the trained policy in unique successful "
           "sequences stay on superposition projections or idle: "
           + "; ".join(details))


def _successful(actions):
    return SequenceRecord("x+", actions, (), 1.0, "success")


def test_criterion_8_counting_still_rejects_policy_z(run_cfg):
    detour = parse_sequence("U1 Px+ U1 Pz- U1 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+")
    records = [_successful(parse_sequence("U1 Px+ U1 Px+ U1 Px+ U1 Px+")),
               _successful(detour), _successful(detour)]

    # a policy that always projects on x+: the z in the detour was drawn
    # by exploration, so both pairs touching it are left out
    counts, left_out = policy_pair_histogram(records, run_cfg.env, lambda s: PX_PLUS)
    assert left_out == 2
    assert sum(counts.values()) == 3 + 4
    assert _superposition_share(counts) == 1.0

    # a policy that picks the z itself, scripted state by state
    env = QSEEnv(run_cfg.env)
    script, state = {}, env.reset()
    for action in detour:
        script[encode_state(state.rho).tobytes()] = action
        state = env.step(state, action).next
    counts, left_out = policy_pair_histogram(
        records[1:], run_cfg.env, lambda s: script[s.tobytes()])
    assert left_out == 0
    assert _superposition_share(counts) == 4 / 6 < 0.90


# -- numerical criteria --------------------------------------------------

def test_criterion_9_invariant_walk(run_cfg):
    t0 = time.monotonic()
    env = QSEEnv(run_cfg.env)
    u = env.branch_operators[DO_NOTHING]
    unitary_defect = np.linalg.norm(u @ u.conj().T - np.eye(env.dim))
    n_bath = run_cfg.env.model.n_bath
    completeness = max(
        np.linalg.norm(central_projector(axis, "+", n_bath) + central_projector(axis, "-", n_bath)
                       - np.eye(env.dim))
        for axis in "zxy")

    rng = np.random.default_rng(424242)
    state = env.reset()
    bath_states = []
    worst_trace = worst_eig = worst_roundtrip = 0.0
    steps = 0
    while steps < 1000:
        action = int(rng.integers(7))
        result = env.step(state, action)
        steps += 1
        rho = result.next.rho
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(rho)[0]))
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.linalg.norm(decode_state(encode_state(rho), env.dim) - rho)))
        if len(bath_states) < 200:
            bath_states.append(partial_trace_first(rho, 2))
        state = result.next if not result.done else env.reset()

    worst_symmetry = 0.0
    for a, b in zip(bath_states, bath_states[1:]):
        worst_symmetry = max(worst_symmetry, abs(fidelity(a, b) - fidelity(b, a)))
    elapsed = time.monotonic() - t0

    ok = (worst_trace < 1e-9 and worst_eig < 1e-9 and unitary_defect < 1e-10
          and completeness < 1e-12 and worst_symmetry < 1e-8
          and worst_roundtrip < 1e-12 and elapsed < 30.0)
    report(9, ok,
           f"1000-step walk: trace {worst_trace:.1e}, eig floor {worst_eig:.1e}, "
           f"unitarity {unitary_defect:.1e}, completeness {completeness:.1e}, "
           f"fidelity symmetry {worst_symmetry:.1e}, roundtrip {worst_roundtrip:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_10_gradient_check():
    spec = MLPSpec(input_size=70, hidden=(64, 32), output_size=7, init_seed=12345)
    params = init_params(spec)
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((8, 70))
        a = rng.integers(7, size=8)
        y = rng.standard_normal(8)
        gw, gb, _ = gradients(params, x, a, y)
        nw, nb = numeric_grads(params, x, a, y)
        worst = max(worst, max_rel_error(gw + gb, nw + nb))
    report(10, worst < 1e-4,
           f"backprop vs central differences on a 70-64-32-7 network over "
           f"10 batches: max relative error {worst:.2e}")


def test_criterion_11_training_determinism(tmp_path, monkeypatch):
    config_path = tmp_path / "reduced.cfg"
    config_path.write_text(reduced_config())

    curves = []
    for run in ("first", "second"):
        root = tmp_path / run
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(root))
        assert cli.main(["train", str(config_path)]) == 0
        curves.append((root / "out" / "learning_curve.tsv").read_bytes())
    report(11, curves[0] == curves[1],
           f"two full training commands produced byte-identical learning curves "
           f"({len(curves[0])} bytes)")


def test_worker_trains_as_in_process():
    # the trained_agents fixture trains in spawned workers: one of them
    # writes the checkpoints and learning curve of a run in this process
    text = reduced_config()
    with training_workers(1) as pool:
        in_worker = pool.submit(train_seed, text, LEARNING_SEEDS[0]).result(timeout=300)
    assert in_worker == train_seed(text, LEARNING_SEEDS[0])
