import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles import collect_per_row
from qsteer.agent import (
    AgentConfig,
    ReplayMemory,
    _collect,
    _generators,
    _SeedBlock,
    _SeedRow,
    ddqn_targets,
    dqn_targets,
    epsilon_at,
    evaluate_policy,
    run_training,
    select_action,
)
from qsteer.config import parse_config
from qsteer.env import CONTINUE, EnvConfig, QSEEnv, encode_state
from qsteer.network import MLPParams, MLPSpec, init_params, load_params

ROOT = Path(__file__).resolve().parent.parent


def fixed_output_params(values):
    """Single linear layer with zero weights: output equals the bias row."""
    values = np.asarray(values, dtype=float)
    return MLPParams(weights=[np.zeros((1, len(values)))], biases=[values.copy()])


def tiny_agent_cfg(**kw):
    defaults = dict(training_steps=6, episodes_per_training_step=3, batch_size=16,
                    replay_capacity=500, updates_per_training_step=2,
                    eps_decay_steps=4)
    defaults.update(kw)
    return AgentConfig(**defaults)


def tiny_env_cfg():
    return dataclasses.replace(EnvConfig(), max_steps=8, r_fatal=-9.0)


def tiny_mlp_spec(**kw):
    defaults = dict(input_size=70, hidden=(16,), output_size=7, init_seed=3)
    defaults.update(kw)
    return MLPSpec(**defaults)


class TestSelectAction:
    def test_greedy_argmax(self):
        params = fixed_output_params([1, 5, 2, 0, 0, 0, 0])
        a = select_action(params, np.zeros(1)[None], 0.0, [np.random.default_rng(0)])[0]
        assert a == 1

    def test_tie_breaks_to_lowest_index(self):
        params = fixed_output_params([0, 0, 3, 0, 3, 0, 0])
        a = select_action(params, np.zeros(1)[None], 0.0, [np.random.default_rng(0)])[0]
        assert a == 2

    def test_uniform_when_fully_random(self):
        params = fixed_output_params([9, 0, 0, 0, 0, 0, 0])
        rng = np.random.default_rng(99)
        n = 10_000
        counts = np.zeros(7)
        for _ in range(n):
            counts[select_action(params, np.zeros(1)[None], 1.0, [rng])[0]] += 1
        expected = n / 7
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 6 degrees of freedom; 20.1 is the two-sided 3-sigma-ish cutoff
        assert chi2 < 20.1


    def test_batch_matches_one_state_at_a_time(self):
        params = init_params(tiny_mlp_spec())
        states = np.random.default_rng(5).standard_normal((12, 70))
        batch = select_action(params, states, 0.5,
                              [np.random.default_rng(i) for i in range(12)])
        single = [select_action(params, s[None], 0.5, [np.random.default_rng(i)])[0]
                  for i, s in enumerate(states)]
        assert batch.tolist() == single


class TestEpsilonSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = AgentConfig(eps_start=1.0, eps_min=0.1, eps_decay_steps=100)
        assert epsilon_at(0, cfg) == 1.0
        assert epsilon_at(100, cfg) == pytest.approx(0.1)
        assert epsilon_at(500, cfg) == pytest.approx(0.1)
        assert epsilon_at(50, cfg) == pytest.approx(0.55)

    def test_monotone_and_bounded(self):
        cfg = AgentConfig(eps_start=0.8, eps_min=0.05, eps_decay_steps=37)
        values = [epsilon_at(s, cfg) for s in range(120)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.05 <= v <= 0.8 for v in values)

    def test_default_decay_span(self):
        cfg = AgentConfig(training_steps=1000, eps_decay_steps=None)
        assert cfg.decay_steps == 600


def make_batch(rewards, terminals, n_state=4):
    n = len(rewards)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((n, n_state))
    s_next = rng.standard_normal((n, n_state))
    a = np.zeros(n, dtype=int)
    return (s, a, s_next, np.asarray(rewards, dtype=float),
            np.asarray(terminals, dtype=bool))


class TestTargets:
    def test_terminal_gets_raw_reward(self):
        batch = make_batch([10.0, -1.0], [True, True], n_state=1)
        params = fixed_output_params([7, 7, 7, 7, 7, 7, 7])
        y = dqn_targets(batch, params, 0.95)
        assert np.allclose(y, [10.0, -1.0])

    def test_bootstrap_formula(self):
        batch = make_batch([-1.0], [False], n_state=1)
        params = fixed_output_params([0, 2, 1, 0, 0, 0, 0])
        y = dqn_targets(batch, params, 0.95)
        assert y[0] == pytest.approx(-1.0 + 0.95 * 2.0)

    def test_zero_gamma_reduces_to_reward(self):
        batch = make_batch([-1.0, 3.0], [False, False], n_state=1)
        params = fixed_output_params([4, 0, 0, 0, 0, 0, 0])
        assert np.allclose(dqn_targets(batch, params, 0.0), [-1.0, 3.0])

    def test_ddqn_equals_dqn_when_networks_match(self):
        rng = np.random.default_rng(4)
        spec = MLPSpec(input_size=6, hidden=(8,), output_size=7, init_seed=5)
        params = init_params(spec)
        batch = (rng.standard_normal((10, 6)), rng.integers(7, size=10),
                 rng.standard_normal((10, 6)), rng.standard_normal(10),
                 rng.random(10) < 0.3)
        assert np.allclose(dqn_targets(batch, params, 0.9),
                           ddqn_targets(batch, params, params, 0.9))

    def test_ddqn_terminal_ignores_networks(self):
        batch = make_batch([5.0], [True], n_state=1)
        main = fixed_output_params([1, 2, 3, 4, 5, 6, 7])
        target = fixed_output_params([7, 6, 5, 4, 3, 2, 1])
        assert ddqn_targets(batch, main, target, 0.9)[0] == 5.0

    def test_ddqn_uses_main_choice_with_target_value(self):
        # main prefers action 1; target values action 1 at 0.5 even though
        # the target's own maximum sits elsewhere
        batch = make_batch([0.0], [False], n_state=1)
        main = fixed_output_params([0, 9, 0, 0, 0, 0, 0])
        target = fixed_output_params([4, 0.5, 4, 4, 4, 4, 4])
        y = ddqn_targets(batch, main, target, 1.0)
        assert y[0] == pytest.approx(0.5)
        # while the single-network rule on the target net alone would say 4
        assert dqn_targets(batch, target, 1.0)[0] == pytest.approx(4.0)


def transition_block(start, n, state_size=2):
    """n distinguishable transitions numbered from start; the last ends an
    episode, as every pushed block must."""
    k = np.arange(start, start + n)
    terminal = k % 3 == 0
    terminal[-1:] = True
    return (np.repeat(k[:, None], state_size, axis=1).astype(float), k, 0.5 * k, terminal)


def one_row_ring(capacity, state_size, blocks):
    """Reference ring: the columns, write index and size after writing
    each row of each block on its own."""
    columns = (np.zeros((capacity, state_size)), np.zeros(capacity, dtype=np.int64),
               np.zeros(capacity), np.zeros(capacity, dtype=bool))
    write = size = 0
    for block in blocks:
        for k in range(len(block[1])):
            for column, values in zip(columns, block):
                column[write] = values[k]
            write = (write + 1) % capacity
            size = min(size + 1, capacity)
    return columns, write, size


class TestReplayMemory:
    def test_eviction_is_oldest_first(self):
        mem = ReplayMemory(capacity=5, state_size=1, seed_seq=0)
        for first, n in ((0, 3), (3, 5)):
            k = np.arange(first, first + n)
            mem.push(k[:, None].astype(float), k, np.zeros(n), np.arange(n) == n - 1)
        assert len(mem) == 5
        # 0, 1, 2 were evicted
        assert set(mem.sample(1000)[1]) == {3, 4, 5, 6, 7}

    def test_sampling_shapes(self):
        mem = ReplayMemory(capacity=10, state_size=3, seed_seq=1)
        mem.push(np.zeros((4, 3)), np.arange(4), np.full(4, -1.0), np.arange(4) == 3)
        s, a, s2, r, t = mem.sample(16)
        assert s.shape == (16, 3) and s2.shape == (16, 3)
        assert a.shape == r.shape == t.shape == (16,)

    @pytest.mark.parametrize("sizes", [(3, 5, 4, 6), (4, 17, 2), (0, 3, 0, 9, 0)],
                             ids=["wrapping", "longer-than-capacity", "empty"])
    def test_block_push_matches_one_row_writes(self, sizes):
        capacity, state_size = 7, 2
        starts = np.cumsum((0,) + sizes[:-1])
        blocks = [transition_block(start, n, state_size) for start, n in zip(starts, sizes)]
        mem = ReplayMemory(capacity, state_size, seed_seq=0)
        columns, write, size = one_row_ring(capacity, state_size, blocks)
        for block in blocks:
            mem.push(*block)
        for got, want in zip(mem._columns, columns):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert (mem._write, len(mem)) == (write, size)

    @pytest.mark.parametrize("sizes", [(3, 5, 4, 6, 2, 5), (4, 17, 2), (2, 1, 1, 1)],
                             ids=["wrapping", "longer-than-capacity", "one-row-episodes"])
    def test_sampled_next_state_is_the_true_next_state(self, sizes):
        # state k is the vector (k, k); within an episode k's next state is k + 1
        capacity, state_size = 7, 2
        starts = np.cumsum((0,) + sizes[:-1])
        mem = ReplayMemory(capacity, state_size, seed_seq=3)
        params = init_params(MLPSpec(input_size=state_size, hidden=(4,), init_seed=1))
        for start, n in zip(starts, sizes):
            mem.push(*transition_block(start, n, state_size))
            s, a, s_next, r, terminal = batch = mem.sample(200)
            assert set(a.tolist()) == set(range(start + n - len(mem), start + n))
            assert np.array_equal(s_next[~terminal], s[~terminal] + 1)
            # a terminal row's next state is another episode's, and counts for
            # nothing: its target is its reward, bit for bit
            assert terminal.any()
            for y in (dqn_targets(batch, params, 0.95),
                      ddqn_targets(batch, params, params.clone(), 0.95)):
                assert y[terminal].tobytes() == r[terminal].tobytes()

    def test_block_must_end_terminal(self):
        mem = ReplayMemory(capacity=8, state_size=2, seed_seq=0)
        s, a, r, terminal = transition_block(0, 4)
        terminal[-1] = False
        with pytest.raises(ValueError, match="terminal"):
            mem.push(s, a, r, terminal)
        assert len(mem) == 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=4, state_size=1, seed_seq=0).sample(2)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            ReplayMemory(capacity=4, state_size=1)
        with pytest.raises(ValueError, match="seed_seq"):
            ReplayMemory(capacity=4, state_size=1, seed_seq=None)


class TestRunTraining:
    def test_reproducible_logs(self):
        env_cfg, agent_cfg, spec = tiny_env_cfg(), tiny_agent_cfg(), tiny_mlp_spec()
        a = run_training(env_cfg, agent_cfg, spec, master_seed=77)
        b = run_training(env_cfg, agent_cfg, spec, master_seed=77)
        assert a.log == b.log
        for wa, wb in zip(a.final_params.weights, b.final_params.weights):
            assert np.array_equal(wa, wb)

    def test_log_shape_and_bounds(self):
        env_cfg, agent_cfg = tiny_env_cfg(), tiny_agent_cfg()
        result = run_training(env_cfg, agent_cfg, tiny_mlp_spec(), master_seed=5)
        assert [row.step for row in result.log] == list(range(1, 7))
        for row in result.log:
            assert env_cfg.r_fatal - env_cfg.max_steps <= row.avg_return <= env_cfg.r_plus
            assert 0.0 <= row.success_fraction <= 1.0

    def test_fully_random_policy_is_stationary(self):
        # with epsilon pinned at 1 the policy never changes, so step
        # averages stay in one band instead of trending
        env_cfg = tiny_env_cfg()
        agent_cfg = tiny_agent_cfg(eps_start=1.0, eps_min=1.0, training_steps=8,
                                   episodes_per_training_step=20)
        result = run_training(env_cfg, agent_cfg, tiny_mlp_spec(), master_seed=13)
        averages = [row.avg_return for row in result.log]
        first, second = averages[:4], averages[4:]
        assert abs(np.mean(first) - np.mean(second)) < 3.0

    def test_checkpoints_written_and_loadable(self, tmp_path):
        from qsteer.network import load_params

        env_cfg, agent_cfg, spec = tiny_env_cfg(), tiny_agent_cfg(), tiny_mlp_spec()
        run_training(env_cfg, agent_cfg, spec, master_seed=3,
                     checkpoint_steps=(2, 4), checkpoint_dir=str(tmp_path))
        for step in (2, 4):
            params, _, meta = load_params(tmp_path / f"checkpoint_step{step}.npz",
                                          expected_spec=spec)
            assert meta["step"] == step
        _, _, meta = load_params(tmp_path / "checkpoint_best.npz")
        assert 1 <= meta["step"] <= agent_cfg.training_steps
        _, _, meta = load_params(tmp_path / "checkpoint_final.npz")
        assert meta["step"] == agent_cfg.training_steps

    def test_best_copy_is_the_policy_that_collected_its_step(self):
        # the parameters that collected step k's episodes are the final
        # parameters of a run that stops after step k - 1
        env_cfg, agent_cfg, spec = tiny_env_cfg(), tiny_agent_cfg(), tiny_mlp_spec()
        result = run_training(env_cfg, agent_cfg, spec, master_seed=5)
        assert result.best_step > 1
        earlier = run_training(env_cfg, dataclasses.replace(
            agent_cfg, training_steps=result.best_step - 1), spec, master_seed=5)
        for got, want in zip(result.best_params.weights, earlier.final_params.weights):
            assert np.array_equal(got, want)
        assert result.best_avg_return == result.log[result.best_step - 1].avg_return

    def test_ddqn_mode_runs(self):
        env_cfg = tiny_env_cfg()
        agent_cfg = tiny_agent_cfg(algorithm="ddqn")
        result = run_training(env_cfg, agent_cfg, tiny_mlp_spec(), master_seed=21)
        assert len(result.log) == agent_cfg.training_steps


ALL_COLUMNS = ("s", "a", "code", "prob", "fidelity")


class TestCollect:
    @staticmethod
    def collect(columns, seeds=range(12)):
        env = QSEEnv(dataclasses.replace(tiny_env_cfg(), start_mode="random_pure"))
        params = init_params(tiny_mlp_spec())
        return env, _collect(env, params, 0.5, [np.random.default_rng(i) for i in seeds],
                             columns)

    def test_episodes_are_contiguous_chains_in_step_order(self):
        seeds = range(12)
        env, (_, totals, offsets, ep) = self.collect(ALL_COLUMNS, seeds)
        final, final_fidelity = ep["code"][offsets[1:] - 1], ep["fidelity"][offsets[1:] - 1]
        assert offsets[0] == 0 and offsets[-1] == len(ep["a"])
        assert len(set(np.diff(offsets).tolist())) > 1  # lengths differ
        for i, lo, hi in zip(seeds, offsets[:-1], offsets[1:]):
            assert hi > lo
            # row j holds the state episode i's action j was chosen in
            state = env.reset(np.random.default_rng(i))
            for j in range(lo, hi):
                assert np.array_equal(ep["s"][j], encode_state(state.rho))
                result = env.step(state, int(ep["a"][j]))
                assert ep["prob"][j] == result.success_prob
                state = result.next
            assert state.done
            assert repr(final_fidelity[i].item()) == repr(result.fidelity)
            assert (ep["code"][lo:hi - 1] == CONTINUE).all() and ep["code"][hi - 1] != CONTINUE
            assert final[i] == ep["code"][hi - 1]
            assert totals[i] == sum(env.rewards[ep["code"][lo:hi]].tolist())

    @pytest.mark.parametrize("columns", [("s", "a", "code"), ("a", "code", "prob", "fidelity"),
                                         ("fidelity",), ()],
                             ids=["training", "evaluation", "one", "none"])
    def test_keeps_only_the_named_columns(self, columns):
        _, (labels, totals, offsets, every) = self.collect(ALL_COLUMNS)
        _, (labels_, totals_, offsets_, some) = self.collect(columns)
        assert labels_ == labels
        assert np.array_equal(totals_, totals) and np.array_equal(offsets_, offsets)
        assert sorted(some) == sorted(columns)
        for name in columns:
            assert some[name].dtype == every[name].dtype
            assert some[name].tobytes() == every[name].tobytes()


#: start_mode and custom_start of each start the shared-state collector is checked on
STARTS = {"x+": ("fixed_xplus", None), "z+": ("fixed_custom", (1, 0)),
          "non-cardinal": ("fixed_custom", (0.6, 0.3 - 0.2j)), "random": ("random_pure", None)}


class TestSharedStates:
    """A fixed start's episodes share their state rows; the columns are
    those of the row-per-episode collector in tests/oracles.py, bit for
    bit. The agent is the bundled psi_minus_fixed reference, whose greedy
    episodes walk a few routes."""

    @pytest.fixture(scope="class")
    def agent(self):
        env_cfg = parse_config(ROOT / "configs" / "psi_minus_fixed.cfg").env
        params, _, _ = load_params(ROOT / "perfbench" / "reference" / "psi_minus_fixed.npz")
        return env_cfg, params

    @staticmethod
    def env(agent, start):
        mode, custom = STARTS[start]
        return QSEEnv(dataclasses.replace(agent[0], start_mode=mode, custom_start=custom))

    @pytest.mark.parametrize("n", [1, 2, 20, 500])
    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("start", list(STARTS))
    def test_columns_are_the_row_per_episode_collectors(self, agent, start, eps, n):
        env, params = self.env(agent, start), agent[1]
        labels, totals, offsets, steps = _collect(env, params, eps, _generators(7, 3, 0, n),
                                                  ALL_COLUMNS)
        labels_, totals_, offsets_, steps_ = collect_per_row(
            env, params, eps, _generators(7, 3, 0, n), ALL_COLUMNS)
        assert labels == labels_
        assert totals.tobytes() == totals_.tobytes()
        assert offsets.tobytes() == offsets_.tobytes()
        for name in ALL_COLUMNS:
            assert steps[name].dtype == steps_[name].dtype
            assert steps[name].tobytes() == steps_[name].tobytes(), name

    @pytest.mark.parametrize("start", ["x+", "non-cardinal"])
    def test_a_greedy_fixed_start_steps_one_row(self, agent, start, monkeypatch):
        stepped = []
        step_batch = QSEEnv.step_batch

        def counted(env, rho, actions, step_count):
            stepped.append(len(rho))
            return step_batch(env, rho, actions, step_count)

        monkeypatch.setattr(QSEEnv, "step_batch", counted)
        _, _, offsets, _ = _collect(self.env(agent, start), agent[1], 0.0,
                                    _generators(7, 3, 0, 50), ())
        assert len(stepped) == max(np.diff(offsets)) > 1
        assert stepped == [1] * len(stepped)


class TestEvaluatePolicy:
    def test_rejects_zero_episodes(self):
        with pytest.raises(ValueError):
            evaluate_policy(init_params(tiny_mlp_spec()), tiny_env_cfg(), 0.5, 0, 1)

    def test_records_match_returns(self):
        params = init_params(tiny_mlp_spec())
        res = evaluate_policy(params, tiny_env_cfg(), 1.0, 20, master_seed=9)
        assert len(res.returns) == len(res.records) == 20
        for rec in res.records:
            assert rec.outcome in ("success", "timeout", "fatal")
            assert rec.succeeded == (rec.outcome == "success")
            assert len(rec.actions) == len(rec.probs)

    @pytest.mark.parametrize("block", [1, 7, 64, 512])
    def test_records_do_not_depend_on_collection_order(self, monkeypatch, block):
        # 50 episodes run as one lockstep block, then as the first of 500
        # episodes run in blocks of another size; random starts, and a fixed
        # start, whose episodes share their state rows
        params = init_params(tiny_mlp_spec())
        for start_mode in ("random_pure", "fixed_xplus"):
            env_cfg = dataclasses.replace(tiny_env_cfg(), start_mode=start_mode)
            monkeypatch.setattr("qsteer.agent.EVAL_BLOCK", 512)
            short = evaluate_policy(params, env_cfg, 0.3, 50, master_seed=4)
            monkeypatch.setattr("qsteer.agent.EVAL_BLOCK", block)
            full = evaluate_policy(params, env_cfg, 0.3, 500, master_seed=4)
            assert short.returns == full.returns[:50]
            assert [r.outcome for r in short.records] == [r.outcome for r in full.records[:50]]
            assert [repr(r) for r in short.records] == [repr(r) for r in full.records[:50]]

    def test_deterministic_given_seed(self):
        params = init_params(tiny_mlp_spec())
        a = evaluate_policy(params, tiny_env_cfg(), 0.7, 10, master_seed=2)
        b = evaluate_policy(params, tiny_env_cfg(), 0.7, 10, master_seed=2)
        assert a.returns == b.returns
        assert [r.actions for r in a.records] == [r.actions for r in b.records]


def _numpy_generator(master_seed, stream, index):
    return np.random.default_rng(np.random.SeedSequence((master_seed, stream, index)))


class TestSeeding:
    """The block hash against numpy's own SeedSequence, one index at a time."""

    @pytest.mark.parametrize("n", [1, 20, 512])
    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 5])
    def test_generators_are_numpys_streams(self, master_seed, n):
        for stream in range(5):
            first = stream * n
            got = _generators(master_seed, stream, first, n)
            assert len(got) == n
            for i, g in enumerate(got):
                want = _numpy_generator(master_seed, stream, first + i)
                assert g.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("master_seed", [0, 2**32, 2**40 + 5])
    def test_a_block_across_two_to_the_32(self, master_seed):
        # indices below 2**32 hash one word, those above it two
        first = 2**32 - 3
        got = _generators(master_seed, 2, first, 6)
        for i, g in enumerate(got):
            want = _numpy_generator(master_seed, 2, first + i)
            assert g.bit_generator.state == want.bit_generator.state
            assert g.random(4).tobytes() == want.random(4).tobytes()

    def test_pool_and_words_are_numpys(self):
        block = _SeedBlock(2**33 + 7, 3, 2**32 - 2, 4)
        for k, row in enumerate(block.pool):
            seq = np.random.SeedSequence((2**33 + 7, 3, 2**32 - 2 + k))
            assert np.array_equal(row, seq.pool)
            for n_words in (1, 4, 7):
                assert np.array_equal(block.generate_state(n_words)[k],
                                      seq.generate_state(n_words, np.uint64))

    def test_bad_requests_raise(self):
        with pytest.raises(ValueError):
            _SeedBlock(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            _SeedBlock(1, 0, -1, 1)
        words = _SeedBlock(1, 0, 0, 1).generate_state(4)[0]
        with pytest.raises(ValueError):
            _SeedRow(words).generate_state(8, np.uint32)
