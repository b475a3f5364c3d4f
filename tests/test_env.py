import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_density_matrix
from oracles import decode_state, random_starts_per_row
from qsteer.env import (ACTION_TOKENS, CONTINUE, DO_NOTHING, FATAL, OUTCOMES, STEP_LIMIT, SUCCESS,
                        TIMEOUT, EnvConfig, QSEEnv, _labels_for, _setup, encode_state, encoding_length)
from qsteer.errors import EpisodeFinished
from qsteer.model import (
    BELL_NAMES,
    BELL_STATES,
    SPIN_STATES,
    ModelParams,
    build_propagator,
    central_projector,
    fidelity_to_pure,
    measure,
    partial_trace_first,
    purity,
)


class TestReset:
    def test_fixed_start_purity_and_trace(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        state = env.reset()
        assert abs(np.trace(state.rho) - 1.0) < 1e-12
        assert purity(state.rho) == pytest.approx(0.25, abs=1e-12)
        assert state.step_count == 0 and not state.done

    def test_fixed_start_central_reduced_state(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        rho = env.reset().rho
        # trace out the bath: reorder so the central spin is last
        reshaped = rho.reshape(2, 4, 2, 4)
        central = np.einsum("ikjk->ij", reshaped)
        xplus = SPIN_STATES["x+"]
        assert np.allclose(central, np.outer(xplus, xplus.conj()), atol=1e-12)

    def test_random_start_reproducible(self):
        cfg = dataclasses.replace(EnvConfig(), start="random")
        env = QSEEnv(cfg)
        a = env.reset(np.random.default_rng(7)).rho
        b = env.reset(np.random.default_rng(7)).rho
        c = env.reset(np.random.default_rng(8)).rho
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_random_start_marginal_is_maximally_mixed(self):
        # averaging the central-spin state over many draws approaches I/2
        cfg = dataclasses.replace(EnvConfig(), start="random")
        env = QSEEnv(cfg)
        n = 10_000
        rho, _labels = env.starts([np.random.default_rng(i) for i in range(n)])
        acc = np.einsum("nikjk->ij", rho.reshape(n, 2, 4, 2, 4))
        assert np.linalg.norm(acc / n - np.eye(2) / 2) < 0.02

    def test_fixed_start_is_built_once_and_read_only(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        a, b = env.reset(), env.reset(np.random.default_rng(3))
        assert np.shares_memory(a.rho, b.rho) and not a.rho.flags.writeable
        rho, labels = env.starts([None] * 5)
        assert rho.shape == (1, 8, 8) and labels == ["x+"] * 5
        assert np.shares_memory(rho, a.rho)

    @pytest.mark.parametrize("start", ["random", "x+", (0.3 + 0.1j, -0.7j)],
                             ids=["random_pure", "fixed_xplus", "fixed_custom"])
    def test_starts_match_reset_row_by_row(self, start):
        env = QSEEnv(dataclasses.replace(EnvConfig(), start=start))
        rho, labels = env.starts([np.random.default_rng(i) for i in range(40)])
        # one row per episode, or a fixed start's one shared row
        assert rho.shape == (40 if start == "random" else 1, 8, 8) and len(labels) == 40
        for i in range(40):
            one = env.reset(np.random.default_rng(i))
            # tobytes() also tells a signed zero from an unsigned one
            assert rho[i % len(rho)].tobytes() == one.rho.tobytes()
            assert labels[i] == one.start_label

    def test_random_starts_match_the_one_state_formula(self):
        env = QSEEnv(dataclasses.replace(EnvConfig(), start="random"))
        rho, _labels = env.starts([np.random.default_rng(i) for i in range(40)])
        for i in range(40):
            g = np.random.default_rng(i)
            raw = g.standard_normal(2) + 1j * g.standard_normal(2)
            v = raw / np.linalg.norm(raw)
            v = v / np.linalg.norm(v)
            expected = np.kron(np.kron(np.outer(v, v.conj()), np.eye(2) / 2), np.eye(2) / 2)
            assert rho[i].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 20, 512])
    @pytest.mark.parametrize("n_bath", [2, 4])
    def test_random_starts_are_the_per_row_expression(self, n_bath, n):
        env = QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=n_bath),
                               start="random"))
        for seed in range(8 if n == 512 else 25):
            rngs = [np.random.default_rng([seed, i]) for i in range(n)]
            rho, labels = env.starts(rngs)
            rho_, labels_ = random_starts_per_row(
                env, [np.random.default_rng([seed, i]) for i in range(n)])
            assert rho.tobytes() == rho_.tobytes()
            assert labels == labels_

    def test_labels_are_the_per_row_expression(self, rng):
        # the cardinal name up to global phase, or else the amplitudes
        # formatted from each row's numpy scalars
        def per_row(central):
            names, refs = zip(*SPIN_STATES.items())
            match = np.abs(np.abs(central @ np.conj(refs).T) - 1.0) < 1e-12
            return [names[m.argmax()] if m.any() else f"({v[0]:.6f},{v[1]:.6f})"
                    for v, m in zip(central, match)]

        draws = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(SPIN_STATES), 1)))
        central = np.concatenate([
            draws / np.linalg.norm(draws, axis=1, keepdims=True),
            np.stack(list(SPIN_STATES.values())) * phases,
            [[0.6, 0.8j], [0.6, -0.8], [np.cos(1e-3), np.sin(1e-3)]],
            [[complex(0.6, -0.0), 0.8j], [complex(-0.0, 0.8), 0.6], [1, -0.0]],
        ])
        labels = _labels_for(central)
        assert labels == per_row(central)
        assert labels[200:206] == list(SPIN_STATES)
        assert labels[-3] == "(0.600000-0.000000j,0.000000+0.800000j)"

    def test_custom_start(self):
        cfg = dataclasses.replace(EnvConfig(), start=(1 + 0j, -1 + 0j))
        env = QSEEnv(cfg)
        state = env.reset()
        assert state.start_label == "x-"


class TestEncoding:
    def test_length_for_two_bath_spins(self):
        assert encoding_length(8) == 70

    def test_maximally_mixed_encoding(self):
        vec = encode_state(np.eye(8, dtype=complex) / 8)
        assert vec.shape == (70,)
        # seven real diagonal entries of 1/8 survive; everything else is 0
        assert np.count_nonzero(vec) == 7
        assert np.allclose(vec[vec != 0], 1 / 8)

    def test_stack_rows_match_single_matrices(self, rng):
        stack = np.stack([random_density_matrix(rng, 8) for _ in range(5)])
        encoded = encode_state(stack)
        assert encoded.shape == (5, 70)
        for rho, row in zip(stack, encoded):
            assert np.array_equal(encode_state(rho), row)

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, 8)
            rebuilt = decode_state(encode_state(rho), 8)
            assert np.linalg.norm(rebuilt - rho) < 1e-12


class TestStep:
    def test_success_case(self, default_env_cfg):
        # the known singlet route ends with the success reward
        env = QSEEnv(default_env_cfg)
        state = env.reset()
        for action in (DO_NOTHING, 2, 2, 2, 2):
            result = env.step(state, action)
            assert result.outcome == "continue"
            state = result.next
        result = env.step(state, 2)
        assert result.outcome == "success"
        assert result.reward == default_env_cfg.r_plus
        assert result.done
        assert result.fidelity > default_env_cfg.theta

    def test_continue_case(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        result = env.step(env.reset(), 2)
        assert result.outcome == "continue"
        assert result.reward == default_env_cfg.r_minus
        assert not result.done
        assert result.next.step_count == 1

    def test_timeout_case(self):
        cfg = dataclasses.replace(EnvConfig(), max_steps=3)
        env = QSEEnv(cfg)
        state = env.reset()
        outcomes = []
        for _ in range(3):
            result = env.step(state, DO_NOTHING)
            outcomes.append(result.outcome)
            state = result.next
        assert outcomes == ["continue", "continue", "timeout"]
        assert state.done

    def test_fatal_case(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        state = env.step(env.reset(), 0).next  # project onto z+
        result = env.step(state, 1)  # orthogonal z- branch has probability 0
        assert result.outcome == "fatal"
        assert result.reward == default_env_cfg.r_fatal
        assert result.done
        assert result.success_prob <= default_env_cfg.floor

    def test_step_after_done_raises(self, default_env_cfg):
        cfg = dataclasses.replace(default_env_cfg, max_steps=1)
        env = QSEEnv(cfg)
        result = env.step(env.reset(), DO_NOTHING)
        assert result.done
        with pytest.raises(EpisodeFinished):
            env.step(result.next, DO_NOTHING)

    def test_do_nothing_probability_is_one(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        state = env.reset()
        for _ in range(10):
            result = env.step(state, DO_NOTHING)
            assert result.success_prob == 1.0
            assert result.outcome in ("continue", "timeout")
            if result.done:
                break
            state = result.next

    def test_deterministic_given_state_and_action(self, default_env_cfg):
        env_a, env_b = QSEEnv(default_env_cfg), QSEEnv(default_env_cfg)
        sa, sb = env_a.reset(), env_b.reset()
        for action in (2, DO_NOTHING, 4, 2):
            ra, rb = env_a.step(sa, action), env_b.step(sb, action)
            assert np.array_equal(ra.next.rho, rb.next.rho)
            assert ra.reward == rb.reward and ra.success_prob == rb.success_prob
            sa, sb = ra.next, rb.next

    def test_exactly_one_outcome_per_step(self, default_env_cfg, rng):
        # random walk: each step lands in exactly one of the four cases
        env = QSEEnv(default_env_cfg)
        state = env.reset()
        for _ in range(200):
            action = int(rng.integers(7))
            result = env.step(state, action)
            assert result.outcome in ("success", "continue", "timeout", "fatal")
            matches = [
                result.outcome == "success" and result.reward == env.cfg.r_plus and result.done,
                result.outcome == "continue" and result.reward == env.cfg.r_minus and not result.done,
                result.outcome == "timeout" and result.reward == env.cfg.r_minus and result.done,
                result.outcome == "fatal" and result.reward == env.cfg.r_fatal and result.done,
            ]
            assert sum(matches) == 1
            state = result.next if not result.done else env.reset()

    def test_return_bounds_over_random_episodes(self, default_env_cfg, rng):
        env = QSEEnv(default_env_cfg)
        cfg = default_env_cfg
        for _ in range(30):
            state = env.reset()
            total, steps = 0.0, 0
            while True:
                result = env.step(state, int(rng.integers(7)))
                total += result.reward
                steps += 1
                state = result.next
                if result.done:
                    break
            assert steps <= cfg.max_steps
            assert cfg.r_fatal - cfg.max_steps * abs(cfg.r_minus) <= total <= cfg.r_plus


def _separate_products_reference(env, rho, action):
    """Evolve, then project and renormalize as separate products:
    P (U rho U^dagger) P / p, U rho U^dagger when idle, and the
    unnormalized P (U rho U^dagger) P when fatal."""
    u = env.branch_operators[DO_NOTHING]
    evolved = u @ rho @ u.conj().T
    if action == DO_NOTHING:
        return evolved, 1.0, False
    axis, sign = ACTION_TOKENS[action][1:]
    p = central_projector(axis, sign, env.cfg.model.n_bath)
    projected = p @ evolved @ p
    prob = float(np.trace(projected).real)
    if prob <= env.cfg.floor:
        return projected, prob, True
    return projected / prob, prob, False


def _kernel_inputs(env, rng):
    """Random states under every action, plus fatal rows: z- after z+."""
    after_zplus = env.step(env.reset(), 0).next.rho
    states = [random_density_matrix(rng, 8) for _ in range(3 * 7)] + [after_zplus] * 2
    actions = list(range(7)) * 3 + [1, 1]
    order = rng.permutation(len(actions))
    return np.stack([states[i] for i in order]), np.array([actions[i] for i in order])


class TestStepBatch:
    def test_rows_are_bit_identical_to_one_row_calls(self, default_env_cfg, rng):
        env = QSEEnv(default_env_cfg)
        rho, actions = _kernel_inputs(env, rng)
        batch = env.step_batch(rho, actions, 1)
        fatal = batch.code == FATAL
        assert fatal.sum() == 2
        for i, action in enumerate(actions):
            row = env.step_batch(rho[i:i + 1], [action], 1)
            for got, want in zip(row, batch):
                assert np.array_equal(got[0], want[i], equal_nan=True)
            result = env.step(dataclasses.replace(env.reset(), rho=rho[i]), int(action))
            if fatal[i]:
                # step ends a fatal step in the idle row, where step_batch
                # keeps the unnormalized branch
                idle = env.step_batch(rho[i:i + 1], [DO_NOTHING], 1)
                assert result.next.rho.tobytes() == idle.rho[0].tobytes()
            else:
                assert np.array_equal(result.next.rho, batch.rho[i])
            assert result.success_prob == batch.prob[i]
            assert result.fidelity == batch.fidelity[i] or fatal[i]
            assert result.outcome == OUTCOMES[batch.code[i]]

    def test_matches_separate_evolve_and_project(self, default_env_cfg, rng):
        env = QSEEnv(default_env_cfg)
        rho, actions = _kernel_inputs(env, rng)
        batch = env.step_batch(rho, actions, 1)
        for i, action in enumerate(actions):
            want, prob, fatal = _separate_products_reference(env, rho[i], action)
            assert (batch.code[i] == FATAL) == fatal
            assert np.abs(batch.rho[i] - want).max() < 1e-12
            assert abs(batch.prob[i] - prob) < 1e-12
            assert np.abs(encode_state(batch.rho[i]) - encode_state(want)).max() < 1e-12
            if fatal:
                assert np.isnan(batch.fidelity[i])
            else:
                bath = partial_trace_first(want, 2)
                want_fid = fidelity_to_pure(bath[None], env.target_vector)[0]
                assert abs(batch.fidelity[i] - want_fid) < 1e-12

    @pytest.mark.parametrize("n_bath", [2, 4])
    def test_every_action_form_is_seven_one_row_calls(self, n_bath, rng):
        model = ModelParams.uniform(n_bath=n_bath)
        env = QSEEnv(EnvConfig(model=model))
        zplus = QSEEnv(EnvConfig(model=model, start=(1, 0)))
        rho = np.stack([random_density_matrix(rng, model.dim) for _ in range(3)]
                       + [env.reset().rho, zplus.reset().rho, env.step(env.reset(), 2).next.rho])
        every = env.step_batch(rho, None, 1)
        assert every.prob.shape == every.fidelity.shape == every.code.shape == (6, 7)
        assert every.rho.shape == (6, 7) + rho.shape[1:]
        for i, a in np.ndindex(6, 7):
            one = env.step_batch(rho[i:i + 1], [a], 1)
            for got, want in zip(every, one):
                assert np.asarray(got[i, a]).tobytes() == want[0].tobytes()
        assert np.all(every.prob[:, DO_NOTHING] == 1.0)
        # z- after the z+ start: fatal, the branch left unnormalized
        fatal = every.code == FATAL
        assert fatal.sum() == 1 and fatal[4, 1] and np.isnan(every.fidelity[4, 1])
        assert abs(np.trace(every.rho[4, 1])) <= env.cfg.floor

    def test_rejects_unknown_actions(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        rho = env.reset().rho[None]
        # a float or bool action used to index as the integer it truncates to
        for action in (-1, 7, 2.5, np.float64(2.0), True):
            with pytest.raises(ValueError):
                env.step_batch(rho, [action], 1)
            with pytest.raises(ValueError):
                env.step(env.reset(), action)
        for action in (-1, 7, np.int64(7), 2.5, np.float64(2.0), "2", [2], True):
            with pytest.raises(ValueError):
                env.conjugate(rho[0], action)
        # an empty list is a float64 array, and an empty stack takes it
        out, prob = env.conjugate(rho[:0], [])
        assert out.shape == (0, env.dim, env.dim) and prob.shape == (0,)

    def test_score_takes_one_step_count_per_row(self, default_env_cfg):
        env = QSEEnv(dataclasses.replace(default_env_cfg, max_steps=3, r_fatal=-4.0))
        # Px+ four times from x+ reaches psi- on the fourth step; z- after z+ is fatal
        rho, branches = env.reset().rho[None], []
        for action in (2, 2, 2, 2):
            rho, prob = env.conjugate(rho, [action])
            branches.append((rho, prob))
        branches.append(env.conjugate(env.conjugate(env.reset().rho[None], [0])[0], [1]))
        rows = [0, 3, 1, 4, 3, 0, 4]
        counts = np.array([1, 4, 3, 1, 2, 5, 4])
        out = env.score(*map(np.concatenate, zip(*[branches[r] for r in rows])), counts)
        one_by_one = [env.score(*branches[r], int(m)).code[0] for r, m in zip(rows, counts)]
        assert out.code.tolist() == one_by_one == [CONTINUE, SUCCESS, TIMEOUT, FATAL, SUCCESS,
                                                   TIMEOUT, FATAL]


_AMPLITUDES = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def kernel_stacks(draw, max_rows=8, dims=(8,)):
    """A stack of density matrices of random rank, each normalized
    A A^dagger, and one action per row, at one of the given dimensions."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_rows))
    rank = draw(st.integers(1, 8))
    re, im = (draw(hnp.arrays(np.float64, (n, dim, rank), elements=_AMPLITUDES))
              for _ in range(2))
    a = re + 1j * im
    rho = a @ a.conj().swapaxes(-1, -2)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    assume(np.all(tr > 1e-6))
    actions = draw(hnp.arrays(np.intp, n, elements=st.integers(0, 6)))
    return rho / tr[:, None, None], actions


class TestStepBatchProperties:
    # two and four bath spins
    envs = {8: QSEEnv(EnvConfig()),
            32: QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=4)))}

    @settings(max_examples=200, deadline=None)
    @given(kernel_stacks(dims=(8, 32)))
    def test_rows_are_density_matrices(self, stack):
        rho, actions = stack
        out = self.envs[rho.shape[-1]].step_batch(rho, actions, 1)
        # a branch certain in exact arithmetic can read 1 + 2.2e-16
        assert np.all((out.prob >= 0.0) & (out.prob <= 1.0 + 1e-12))
        assert np.all(out.prob[actions == DO_NOTHING] == 1.0)
        for row in out.rho[out.code != FATAL]:
            assert abs(np.trace(row) - 1.0) < 1e-9
            assert np.abs(row - row.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh((row + row.conj().T) / 2)[0] >= -1e-9
        # a fatal row keeps its branch unnormalized
        for row in out.rho[out.code == FATAL]:
            assert abs(np.trace(row)) <= self.envs[rho.shape[-1]].cfg.floor

    @settings(max_examples=100, deadline=None)
    @given(kernel_stacks(dims=(8, 32)))
    def test_rows_do_not_depend_on_the_stack(self, stack):
        rho, actions = stack
        env = self.envs[rho.shape[-1]]
        out = env.step_batch(rho, actions, 1)
        for i, action in enumerate(actions):
            alone = env.step_batch(rho[i:i + 1], [action], 1)
            for got, want in zip(alone, out):
                assert got[0].tobytes() == want[i].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(kernel_stacks(max_rows=4, dims=(8, 32)))
    def test_every_action_rows_are_one_row_calls(self, stack):
        rho, _ = stack
        env = self.envs[rho.shape[-1]]
        out = env.step_batch(rho, None, 1)
        for i, a in np.ndindex(out.prob.shape):
            alone = env.step_batch(rho[i:i + 1], [a], 1)
            for got, want in zip(alone, out):
                assert got[0].tobytes() == want[i, a].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(kernel_stacks(max_rows=1, dims=(8, 32)))
    def test_single_state_rows_are_one_row_calls(self, stack):
        self.assert_single_state_layout(self.envs[stack[0].shape[-1]], stack[0][0])

    @pytest.mark.parametrize("dim", [8, 32])
    def test_single_state_fatal_branch_stays_unnormalized(self, dim):
        # z- after a z+ start: the branch probability is at the floor
        model = self.envs[dim].cfg.model
        env = QSEEnv(EnvConfig(model=model, start=(1, 0)))
        out, prob = self.assert_single_state_layout(env, env.reset().rho)[1]
        assert prob <= env.cfg.floor and abs(np.trace(out)) <= env.cfg.floor

    @staticmethod
    def assert_single_state_layout(env, rho):
        """Each action's single-state measure and conjugate give the bytes
        of the one-row stack and of the every-action form; returns the
        single-state conjugates."""
        floor, ops = env.cfg.floor, env.branch_operators
        every_measure = measure(rho[None, None], ops, floor)
        every_conjugate = env.conjugate(rho[None], None)
        singles = []
        for a, op in enumerate(ops):
            single = measure(rho, op, floor)
            forms = (measure(rho[None], op[None], floor), [x[:, a] for x in every_measure])
            single_env = env.conjugate(rho, a)
            forms_env = (env.conjugate(rho[None], [a]), [x[:, a] for x in every_conjugate])
            for got, stacks in ((single, forms), (single_env, forms_env)):
                assert got[0].shape == rho.shape and np.ndim(got[1]) == 0
                for want in stacks:
                    assert got[0].tobytes() == want[0][0].tobytes()
                    assert np.float64(got[1]).tobytes() == want[1][0].tobytes()
            if a == DO_NOTHING:
                assert single_env[1] == 1.0
            singles.append(single_env)
        return singles


@settings(max_examples=100, deadline=None)
@given(kernel_stacks(max_rows=1))
def test_decode_inverts_encode(stack):
    rho = stack[0][0]
    assert np.abs(decode_state(encode_state(rho), 8) - rho).max() < 1e-12


class TestEnvConfigValidation:
    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            EnvConfig(theta=1.5)

    def test_rejects_tempting_fatal_reward(self):
        with pytest.raises(ValueError):
            EnvConfig(r_fatal=-10.0, max_steps=50, r_minus=-1.0)

    def test_max_steps_is_bounded_by_the_step_limit(self):
        EnvConfig(max_steps=STEP_LIMIT, r_fatal=-(STEP_LIMIT + 1.0))
        with pytest.raises(ValueError, match="max_steps"):
            EnvConfig(max_steps=STEP_LIMIT + 1, r_fatal=-(STEP_LIMIT + 2.0))

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            EnvConfig(target="sigma+")

    @pytest.mark.parametrize("start", ["x", "Random", (1, 0, 0), (1,), (0, 0), (np.nan, 1)])
    def test_rejects_a_start_it_cannot_build(self, start):
        with pytest.raises(ValueError, match="start"):
            EnvConfig(start=start)

    @pytest.mark.parametrize("n_bath", [0, 1, 3])
    def test_rejects_unpaired_bath(self, n_bath):
        with pytest.raises(ValueError, match="n_bath"):
            EnvConfig(model=ModelParams.uniform(n_bath=n_bath))


@pytest.mark.parametrize("target", BELL_NAMES)
def test_four_spin_target_is_two_pairs(target):
    env = QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=4), target=target))
    pair = BELL_STATES[target]
    assert np.linalg.norm(env.target_vector) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(env.target_vector, np.kron(pair, pair))


def test_action_tokens_cover_seven_actions():
    assert len(ACTION_TOKENS) == 7
    assert ACTION_TOKENS[DO_NOTHING] == "-"


class TestSharedOperators:
    _ARRAYS = ("branch_operators", "target_vector", "target_matrix")

    def test_equal_configs_share_read_only_arrays(self):
        # separately built, equal configs: one set-up for both envs
        env_a, env_b = (QSEEnv(EnvConfig(model=ModelParams.uniform(), target="psi+"))
                        for _ in range(2))
        for name in self._ARRAYS:
            assert getattr(env_a, name) is getattr(env_b, name)
        a, b = env_a.reset(), env_b.reset()
        assert np.shares_memory(a.rho, b.rho)
        for array in (env_a.branch_operators, env_a.target_matrix, a.rho):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            env_a.target_vector[0] = 0.0

    def test_other_model_gets_its_own_operators(self):
        env = QSEEnv(EnvConfig(model=ModelParams.uniform(tau=2.0)))
        assert env.branch_operators is not QSEEnv(EnvConfig()).branch_operators
        assert np.array_equal(env.branch_operators[DO_NOTHING],
                              build_propagator(ModelParams.uniform(tau=2.0)))

    def test_other_target_gets_its_own_arrays(self):
        # one set-up per config: the same model under another target is built again
        env, base = QSEEnv(EnvConfig(target="phi+")), QSEEnv(EnvConfig())
        for name in self._ARRAYS:
            assert getattr(env, name) is not getattr(base, name)
        assert not np.shares_memory(env.reset().rho, base.reset().rho)

    @pytest.mark.parametrize("signed, unsigned", [
        ((1, -0.0), (1, 0)),
        ((0.6, complex(-0.0, 0.8)), (0.6, 0.8j)),
        ((complex(0.6, -0.0), 0.8j), (0.6, 0.8j)),
        ((0.6, complex(-0.0, -0.8)), (0.6, complex(0.0, -0.8))),
        ((-0.6, complex(0.0, -0.0)), (-0.6, 0.0)),
    ], ids=["real-one", "real-two", "imaginary", "state-bits", "cardinal-bits"])
    def test_signed_zero_starts_give_the_same_state(self, signed, unsigned):
        # equal amplitudes, one state and one label, whichever is built first
        assert signed == unsigned
        starts = []
        for amplitudes in (signed, unsigned):
            _setup.cache_clear()  # build each, not the other's shared start
            starts.append(QSEEnv(EnvConfig(start=amplitudes)).reset())
        a, b = starts
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.start_label == b.start_label

    @pytest.mark.parametrize("signed, unsigned", [
        (dict(coupling=(1, -0.0, -0.0)), dict(coupling=(1, 0, 0))),
        (dict(omega=-0.0), dict(omega=0.0)),
    ], ids=["coupling", "omega"])
    def test_signed_zero_models_give_the_same_bits(self, signed, unsigned):
        # equal keys of the operator cache: whichever is built first is shared
        a, b = ModelParams.uniform(**signed), ModelParams.uniform(**unsigned)
        assert a == b and hash(a) == hash(b)
        assert build_propagator(a).tobytes() == build_propagator(b).tobytes()
