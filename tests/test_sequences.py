import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIDELITY_ATOL, GOLDEN_FIXED_START, GOLDEN_TAU2_START, RATE_ATOL
from oracles import replay_per_step, search_unscreened, verify_steady_state
from qsteer import sequences
from qsteer.agent import evaluate_policy
from qsteer.env import ACTION_COUNT, DO_NOTHING, STEP_LIMIT, EnvConfig, QSEEnv, encoding_length
from qsteer.errors import BudgetExceeded, SequenceParseError
from qsteer.model import SPIN_STATES, ModelParams, purity, trace_distance
from qsteer.network import MLPParams
from qsteer.sequences import (
    combination_histogram,
    exhaustive_search,
    format_sequence,
    parse_sequence,
    replay_sequence,
)

PX_PLUS, PX_MINUS, PY_MINUS, PZ_PLUS, PZ_MINUS = 2, 3, 5, 0, 1

#: Successful sequences per target from the fixed x+ start, by maximum
#: length; frozen from the one-child-at-a-time enumeration.
SEARCH_COUNTS = {
    4: {"phi+": 0, "phi-": 0, "psi+": 13, "psi-": 1},
    5: {"phi+": 0, "phi-": 0, "psi+": 99, "psi-": 9},
    6: {"phi+": 12, "phi-": 4, "psi+": 612, "psi-": 95},
    7: {"phi+": 151, "phi-": 46, "psi+": 4801, "psi-": 799},
}


@pytest.fixture(scope="module")
def searched():
    """Search results by (max_len, target) from the default config."""
    return {(n, t): exhaustive_search(QSEEnv(EnvConfig(target=t)), n)
            for n, counts in SEARCH_COUNTS.items() for t in counts}


class TestParseFormat:
    def test_parse_compressed_notation(self):
        actions = parse_sequence("U2 Px+ U1 Px+")
        assert actions == (DO_NOTHING, PX_PLUS, PX_PLUS)

    def test_parse_plain_tokens(self):
        assert parse_sequence("Px+ - Px-") == (PX_PLUS, DO_NOTHING, PX_MINUS)
        assert parse_sequence("nop Py-") == (DO_NOTHING, PY_MINUS)

    def test_trailing_idle_intervals(self):
        assert parse_sequence("Px+ U2") == (PX_PLUS, DO_NOTHING, DO_NOTHING)

    def test_format_round_trip(self):
        for text in ("U2 Px+ U1 Px+ U1 Px- U2 Px+ U1 Px+",
                     "U1 Px+ U2 Px+ U1 Px+ U1 Px-"):
            assert format_sequence(parse_sequence(text)) == text

    def test_parse_error_carries_position(self):
        with pytest.raises(SequenceParseError) as err:
            parse_sequence("U2 Px+ Pq- Px+")
        assert err.value.position == 3

    def test_empty_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_sequence("   ")

    @pytest.mark.parametrize("text, position", [
        ("U99999999999999999999", 1),
        ("Px+ U00000000000000000000000000000000000000000000000009999999999999999999 Px-", 2),
        ("U1048576 U1 Px+", 2),
        ("U1048576 Px+ Px-", 3),
        ("Px+ U1048576", 2),
        ("U1000000000", 1),
        ("U" + "9" * 5000, 1),
    ])
    def test_count_too_large_to_list_is_a_parse_error(self, text, position):
        # no episode runs that many steps: not a list of them, an OverflowError
        # from the list repetition, nor int()'s ValueError for very long digit strings
        with pytest.raises(SequenceParseError, match="too large") as err:
            parse_sequence(text)
        assert err.value.position == position

    def test_the_longest_sequence_is_the_longest_episode(self):
        assert len(parse_sequence(f"U{STEP_LIMIT} Px+")) == STEP_LIMIT

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, DO_NOTHING), min_size=1, max_size=30))
    def test_format_parse_round_trip(self, actions):
        actions = tuple(actions)
        assert parse_sequence(format_sequence(actions)) == actions


class TestReplay:
    def test_golden_row_replays(self, default_env_cfg):
        target, start, tokens, fid_ref, rate_ref = GOLDEN_FIXED_START[3]
        cfg = dataclasses.replace(default_env_cfg, target=target)
        rec, _ = replay_sequence(QSEEnv(cfg), parse_sequence(tokens))
        assert rec.start_label == start
        assert rec.final_fidelity == pytest.approx(fid_ref, abs=FIDELITY_ATOL)
        assert rec.success_rate == pytest.approx(rate_ref, abs=RATE_ATOL)
        assert rec.outcome == "success"

    def test_success_rate_is_product_of_probs(self, default_env_cfg):
        rec, _ = replay_sequence(QSEEnv(default_env_cfg),
                                 parse_sequence("U2 Px+ U1 Py+ U1 Px+"))
        product = 1.0
        for p in rec.probs:
            product *= p
        assert rec.success_rate == pytest.approx(product, abs=1e-12)
        # idle steps carry probability exactly 1
        assert rec.probs[0] == 1.0

    def test_underflow_aborts_with_partial_record(self, default_env_cfg):
        # z+ then z-: the second branch has probability zero
        rec, diagnostics = replay_sequence(QSEEnv(default_env_cfg), (PZ_PLUS, PZ_MINUS))
        assert rec.outcome == "fatal"
        assert rec.actions == (PZ_PLUS, PZ_MINUS)
        assert len(rec.probs) == 2 and len(diagnostics) == 1
        assert rec.success_rate == 0.0 and np.isnan(rec.final_fidelity)

    def test_aborted_replay_matches_aborted_episode(self, default_env_cfg):
        # from z+, Pz- is fatal at once; an episode of a policy that always
        # picks Pz- must leave the same record as replaying that one step
        zplus = SPIN_STATES["z+"]
        cfg = dataclasses.replace(default_env_cfg, start=(complex(zplus[0]), complex(zplus[1])))
        n_inputs = encoding_length(QSEEnv(cfg).dim)
        # one linear layer with zero weights: the bias row picks Pz- everywhere
        params = MLPParams(weights=[np.zeros((n_inputs, 7))],
                           biases=[np.eye(7)[PZ_MINUS]])
        episode = evaluate_policy(params, cfg, 0.0, 1, master_seed=0).records[0]
        replayed, diagnostics = replay_sequence(QSEEnv(cfg), (PZ_MINUS, PX_PLUS))
        assert repr(replayed) == repr(episode)
        assert replayed.actions == (PZ_MINUS,) and diagnostics == []

    def test_replay_stops_at_the_step_budget(self, default_env_cfg):
        # an episode of a policy that always picks Px+ times out at step 3;
        # replaying four Px+ must leave that record, not a step-4 success
        cfg = dataclasses.replace(default_env_cfg, max_steps=3, r_fatal=-4.0)
        n_inputs = encoding_length(QSEEnv(cfg).dim)
        params = MLPParams(weights=[np.zeros((n_inputs, 7))],
                           biases=[np.eye(7)[PX_PLUS]])
        result = evaluate_policy(params, cfg, 0.0, 1, master_seed=0)
        assert [rec.outcome for rec in result.records] == ["timeout"]
        replayed, diagnostics = replay_sequence(QSEEnv(cfg), (PX_PLUS,) * 4)
        assert repr(replayed) == repr(result.records[0])
        assert replayed.actions == (PX_PLUS,) * 3 and len(diagnostics) == 3
        assert replayed.outcome == "timeout"

    @pytest.mark.parametrize("max_steps, outcome", [(4, "continue"), (2, "timeout")])
    def test_replay_names_how_it_ended(self, default_env_cfg, max_steps, outcome):
        # the same two steps: the actions run out before the step budget,
        # or the budget ends them, as it would an episode
        cfg = dataclasses.replace(default_env_cfg, max_steps=max_steps)
        rec, diagnostics = replay_sequence(QSEEnv(cfg), (PX_PLUS, PX_PLUS))
        assert rec.actions == (PX_PLUS, PX_PLUS) and len(diagnostics) == 2
        assert rec.outcome == outcome and not rec.succeeded

    def test_empty_sequence_is_rejected(self, default_env_cfg):
        with pytest.raises(ValueError):
            replay_sequence(QSEEnv(default_env_cfg), ())
        with pytest.raises(ValueError):
            replay_sequence(QSEEnv(default_env_cfg), np.array([], dtype=np.intp))

    @pytest.mark.parametrize("actions", [(PZ_PLUS,), (PX_MINUS, PZ_MINUS),
                                         parse_sequence("U1 Px+ U2 Px+ U1 Px+ U1 Px-")])
    def test_numpy_actions_replay_as_ints(self, actions):
        # search prefixes are arrays; a replay of one is the replay of its
        # ints, and its record holds Python ints, as a search record does
        env = QSEEnv(EnvConfig(target="psi+"))
        want = replay_sequence(env, actions)
        for given_as in (np.array(actions), tuple(np.array(actions))):
            got = replay_sequence(env, given_as)
            assert _replay_bits(got) == _replay_bits(want)
            assert all(type(a) is int for a in got[0].actions)

    def test_replay_stops_at_the_first_success(self, searched):
        # psi+ is reached at step 5, where an episode ends: the Pz+ is not run
        actions = parse_sequence("U1 Px+ U2 Px+ U1 Px+ U1 Px- U1 Pz+")
        replayed, diagnostics = replay_sequence(QSEEnv(EnvConfig(target="psi+")), actions)
        assert replayed.succeeded and replayed.actions == actions[:5]
        assert len(diagnostics) == 5 and replayed in searched[5, "psi+"]

    @pytest.mark.xfail(
        strict=True,
        reason="float64 round-off revives a bath sector that a projection removed: "
        "with uniform couplings H annihilates the bath singlet, so after U1 Py- U1 Px- "
        "the central state in the singlet block is x-, and the next Px+ removes that "
        "block exactly; from then on the exact fidelity to psi- is 0. Round-off left "
        "in the block survives every later Px+ while the triplet part keeps only its "
        "branch probability p, so it grows by about 1/p per step, and the replay "
        "reports success at step 41 with fidelity 0.9916. See the repo notes.",
    )
    def test_removed_singlet_sector_stays_removed(self, default_env_cfg):
        actions = parse_sequence("U1 Py- U1 Px-" + " U1 Px+" * 48)
        _, diagnostics = replay_sequence(QSEEnv(default_env_cfg), actions)
        fids = [fid for fid, _, _ in diagnostics]
        assert max(fids[2:]) <= 1e-6, f"fidelity {max(fids[2:]):.4f} after the removal"

    def test_deterministic(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        actions = parse_sequence("U2 Px+ U1 Px+ U1 Px+")
        assert replay_sequence(env, actions) == replay_sequence(env, actions)


class TestSteadyState:
    def test_two_spin_trajectory(self):
        fids = verify_steady_state(2, 5)
        assert len(fids) == 5
        assert fids[-1] >= 0.99
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))

    def test_rejects_odd_bath(self):
        with pytest.raises(ValueError):
            verify_steady_state(3, 4)


class TestExhaustiveSearch:
    def test_zero_length_finds_nothing(self, default_env_cfg):
        assert exhaustive_search(QSEEnv(default_env_cfg), 0) == []

    def test_budget_guard(self, default_env_cfg):
        with pytest.raises(BudgetExceeded):
            exhaustive_search(QSEEnv(default_env_cfg), 20)

    def test_short_singlet_solutions_found(self, default_env_cfg):
        records = exhaustive_search(QSEEnv(default_env_cfg), 4)
        assert records, "expected at least one 4-step solution"
        sequences = {rec.actions for rec in records}
        assert (PX_PLUS,) * 4 in sequences
        for rec in records:
            assert rec.final_fidelity > default_env_cfg.theta
            assert all(p > default_env_cfg.floor for p in rec.probs)
        # sorted by length, then decreasing rate
        keys = [(len(r.actions), -r.success_rate) for r in records]
        assert keys == sorted(keys)

    def test_no_short_route_to_two_singlet_pairs(self):
        env = QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=4)))
        for max_len in (4, 5, 6, 7):
            assert exhaustive_search(env, max_len) == []

    def test_frozen_counts(self, searched):
        counts = {n: {t: len(searched[n, t]) for t in c} for n, c in SEARCH_COUNTS.items()}
        assert counts == SEARCH_COUNTS
        for t in SEARCH_COUNTS[5]:
            # every sequence found up to length 5 is found again up to length 6
            assert ({r.actions for r in searched[5, t]}
                    <= {r.actions for r in searched[6, t]})

    def test_golden_psi_plus_row(self, searched):
        target, start, tokens, fid_ref, rate_ref = GOLDEN_FIXED_START[2]
        rows = [r for r in searched[5, target] if r.actions == parse_sequence(tokens)]
        assert len(rows) == 1 and rows[0].start_label == start
        assert rows[0].final_fidelity == pytest.approx(fid_ref, abs=FIDELITY_ATOL)
        assert rows[0].success_rate == pytest.approx(rate_ref, abs=RATE_ATOL)

    def test_replay_reproduces_every_record_bit_for_bit(self, searched):
        for t in SEARCH_COUNTS[5]:
            env = QSEEnv(dataclasses.replace(EnvConfig(), target=t))
            for rec in searched[5, t]:
                again, _ = replay_sequence(env, rec.actions)
                assert again.succeeded and again.actions == rec.actions
                assert again.start_label == rec.start_label
                assert again.success_rate == rec.success_rate
                assert again.final_fidelity == rec.final_fidelity
                assert again.probs == rec.probs

    @pytest.mark.parametrize("target", sorted(SEARCH_COUNTS[6]))
    def test_block_size_changes_no_record(self, searched, monkeypatch, target):
        def bits(records):
            return [(r.actions, [p.hex() for p in r.probs], r.final_fidelity.hex())
                    for r in records]

        # searched ran in blocks of SEARCH_BLOCK nodes
        assert sequences.SEARCH_BLOCK > 1
        monkeypatch.setattr(sequences, "SEARCH_BLOCK", 1)
        one_node = exhaustive_search(QSEEnv(EnvConfig(target=target)), 6)
        assert bits(one_node) == bits(searched[6, target])

    def test_custom_start_is_labelled_and_searched(self, default_env_cfg):
        xminus = SPIN_STATES["x-"]
        model = dataclasses.replace(default_env_cfg.model, tau=2.0)
        cfg = dataclasses.replace(default_env_cfg, model=model,
                                  start=(complex(xminus[0]), complex(xminus[1])))
        records = {r.actions: r for r in exhaustive_search(QSEEnv(cfg), 5)}
        for target, start, tokens, fid_ref, rate_ref in GOLDEN_TAU2_START:
            if start == "x-":
                rec = records[parse_sequence(tokens)]
                assert rec.start_label == "x-"
                assert rec.final_fidelity == pytest.approx(fid_ref, abs=FIDELITY_ATOL)
                assert rec.success_rate == pytest.approx(rate_ref, abs=RATE_ATOL)

    def test_random_start_is_rejected(self, default_env_cfg):
        cfg = dataclasses.replace(default_env_cfg, start="random")
        with pytest.raises(ValueError):
            exhaustive_search(QSEEnv(cfg), 3)

    def test_results_are_minimal(self, default_env_cfg):
        # no record is a strict prefix of another (episodes stop at success)
        records = exhaustive_search(QSEEnv(default_env_cfg), 4)
        seqs = [r.actions for r in records]
        for s in seqs:
            for t in seqs:
                assert not (len(t) > len(s) and t[: len(s)] == s)


    def test_search_stops_at_the_step_budget(self, searched):
        # an episode times out after max_steps, so no longer sequence is executable
        short = exhaustive_search(QSEEnv(EnvConfig(target="psi+", max_steps=3)), 5)
        assert short == [r for r in searched[5, "psi+"] if len(r.actions) <= 3]
        assert short


class TestHistogram:
    def test_single_record_counts(self):
        counts = combination_histogram([(PX_PLUS, PX_PLUS, PX_PLUS)])
        assert counts == {(PX_PLUS, PX_PLUS): 2}

    def test_empty_input(self):
        assert combination_histogram([]) == {}

    def test_manual_two_records(self):
        counts = combination_histogram([(PX_PLUS, PY_MINUS, PY_MINUS),
                                        (DO_NOTHING, PX_PLUS)])
        assert counts == {(PX_PLUS, PY_MINUS): 1, (PY_MINUS, PY_MINUS): 1,
                          (DO_NOTHING, PX_PLUS): 1}

    def test_unique_successful_filter(self):
        # every sequence is counted; callers deduplicate with dict.fromkeys
        sequences = [(PX_PLUS, PX_PLUS), (PX_PLUS, PX_PLUS), (PY_MINUS, PY_MINUS)]
        assert combination_histogram(sequences) == {(PX_PLUS, PX_PLUS): 2,
                                                    (PY_MINUS, PY_MINUS): 1}
        assert combination_histogram(dict.fromkeys(sequences[:2])) == {(PX_PLUS, PX_PLUS): 1}


class TestDiagnosticTrace:
    def test_full_record_rows(self, default_env_cfg):
        rec, rows = replay_sequence(QSEEnv(default_env_cfg), parse_sequence("U2 Px+ U1 Px+"))
        assert len(rows) == 3
        assert rec.actions[0] == DO_NOTHING and rec.probs[0] == 1.0
        for fid, dist, pur in rows:
            assert 0.0 <= fid <= 1.0 and 0.0 <= dist <= 1.0 and 0.0 < pur <= 1.0
        assert rows[-1][0] == rec.final_fidelity

    @pytest.mark.parametrize("tokens, max_steps, outcome", [
        ("U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+", 50, "success"),
        ("Pz+ Px+ Pz+ Pz- Px+", 50, "fatal"),
        ("U1 Px+ U1 Px+ U1 Px+ U1 Px+", 3, "timeout"),
    ], ids=["success", "fatal", "timeout"])
    def test_stacked_diagnostics_match_one_matrix_calls(self, default_env_cfg, tokens,
                                                        max_steps, outcome):
        cfg = dataclasses.replace(default_env_cfg, max_steps=max_steps,
                                  r_fatal=-(max_steps + 1.0))
        env = QSEEnv(cfg)
        rec, rows = replay_sequence(env, parse_sequence(tokens))
        assert rec.outcome == outcome
        # walk the replay again, one bath state at a time
        rho, baths = env.reset().rho[None], []
        for action in rec.actions[:len(rows)]:
            out = env.step_batch(rho, [action], 1)
            rho = out.rho
            baths.append(out.bath[0])
        assert len(rows) > 1
        for (_fid, dist, pur), bath in zip(rows, baths, strict=True):
            assert dist.hex() == float(trace_distance(bath, env.target_matrix)).hex()
            assert pur.hex() == float(purity(bath)).hex()


def _replay_bits(result):
    """A replay's record and diagnostics, every float as its bytes."""
    rec, diagnostics = result
    return (rec.start_label, rec.actions, np.array(rec.probs).tobytes(),
            np.float64(rec.final_fidelity).tobytes(), rec.outcome, len(diagnostics),
            np.array(diagnostics, dtype=float).tobytes(), repr(rec))


_ZPLUS = QSEEnv(EnvConfig(start=(1, 0)))
#: Envs the replays run on: the four Bell targets from x+, a z+ start, a
#: non-cardinal custom start, and four bath spins.
_REPLAY_ENVS = ([QSEEnv(EnvConfig(target=t)) for t in ("phi+", "phi-", "psi+", "psi-")]
                + [_ZPLUS,
                   QSEEnv(EnvConfig(start=(0.6, 0.8j))),
                   QSEEnv(EnvConfig(model=ModelParams.uniform(n_bath=4)))])


class TestReplayScoresOnce:
    """replay_sequence conjugates step by step and scores the sequence
    once; its records and diagnostics are those of one step_batch and one
    classify call per step, byte for byte."""

    def assert_same(self, env, actions):
        got = replay_sequence(env, actions)
        assert _replay_bits(got) == _replay_bits(replay_per_step(env, actions))
        return got[0]

    @pytest.mark.parametrize("target", sorted(SEARCH_COUNTS[6]))
    def test_every_length_six_record(self, searched, target):
        env = QSEEnv(EnvConfig(target=target))
        for rec in searched[6, target]:
            assert self.assert_same(env, rec.actions) == rec

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_REPLAY_ENVS),
           st.lists(st.integers(0, ACTION_COUNT - 1), min_size=1, max_size=60))
    def test_random_sequences(self, env, actions):
        self.assert_same(env, tuple(actions))

    @pytest.mark.parametrize("extra", [(PX_PLUS,), (PZ_MINUS, DO_NOTHING, PY_MINUS),
                                       (DO_NOTHING,) * 50])
    def test_sequences_that_pass_through_the_target(self, searched, extra):
        env = QSEEnv(EnvConfig(target="psi+"))
        for rec in searched[5, "psi+"]:
            replayed = self.assert_same(env, rec.actions + extra)
            assert replayed == rec

    @pytest.mark.parametrize("tokens", ["U1 Pz-", "U1 Px+ U1 Pz+ U1 Pz-",
                                        "U1 Pz- U1 Px+ U3", "U1 Px+ U1 Pz+ U1 Pz- U1 Pz+ U2"])
    def test_fatal_from_z_plus(self, tokens):
        rec = self.assert_same(_ZPLUS, parse_sequence(tokens))
        assert rec.outcome == "fatal"

    @pytest.mark.parametrize("steps", [1, 2, 7, 49, 50, 51, 60])
    @pytest.mark.parametrize("env", _REPLAY_ENVS[3:], ids=["x+", "z+", "custom", "n_bath4"])
    def test_idle_only(self, env, steps):
        rec = self.assert_same(env, (DO_NOTHING,) * steps)
        assert rec.probs == (1.0,) * min(steps, 50)

    @pytest.mark.parametrize("env", _REPLAY_ENVS[5:], ids=["custom", "n_bath4"])
    def test_custom_start_and_four_bath_spins(self, env):
        for tokens in ("U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+", "U1 Py- U1 Pz+ U2 Px-",
                       "U1 Px+ U1 Py- U1 Py- U1 Py- U1 Py- U5"):
            self.assert_same(env, parse_sequence(tokens))

    @pytest.mark.parametrize("max_steps", [1, 3, 5])
    def test_cut_at_the_step_budget(self, max_steps):
        env = QSEEnv(EnvConfig(max_steps=max_steps, r_fatal=-(max_steps + 1.0)))
        for tokens in ("U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+", "U1 Pz+ U1 Pz- U4", "U9"):
            rec = self.assert_same(env, parse_sequence(tokens))
            assert len(rec.actions) <= max_steps

    def test_one_score_call_per_replay(self, monkeypatch):
        env = QSEEnv(EnvConfig())
        calls = []
        score = env.score

        def counted(*args):
            calls.append(len(args[0]))
            return score(*args)
        monkeypatch.setattr(env, "score", counted)
        monkeypatch.setattr(env, "step_batch", None)
        rec, _ = replay_sequence(env, parse_sequence("U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+"))
        assert rec.succeeded and calls == [6]


def _search_bits(records):
    """Search records, every float as its hex string."""
    return [(r.start_label, r.actions, [p.hex() for p in r.probs], r.final_fidelity.hex(),
             r.outcome) for r in records]


_XMINUS = SPIN_STATES["x-"]
#: (env config, max_len, rate_cutoff) the screened search is checked on
#: beside the four Bell targets: an x- start at tau 2, a z+ start with no
#: rate cutoff, four bath spins, and a step budget under max_len.
_SCREEN_CASES = {
    "x- tau2": (EnvConfig(model=ModelParams(tau=2.0),
                          start=(complex(_XMINUS[0]), complex(_XMINUS[1]))), 5, 1e-6),
    "z+ cutoff0": (EnvConfig(start=(1, 0)), 5, 0.0),
    "n_bath4": (EnvConfig(model=ModelParams.uniform(n_bath=4)), 5, 1e-6),
    "max_steps3": (EnvConfig(target="psi+", max_steps=3, r_fatal=-4.0), 5, 1e-6),
}


class TestLeafScreen:
    """exhaustive_search screens its last two levels with two quadratic
    forms per action and per pair of actions and steps only the children
    that could be recorded or lead to a grandchild that could; its
    records are those of stepping every child, byte for byte."""

    @pytest.mark.parametrize("max_len", range(1, 8))
    @pytest.mark.parametrize("target", sorted(SEARCH_COUNTS[6]))
    def test_bell_targets(self, searched, target, max_len):
        env = QSEEnv(EnvConfig(target=target))
        got = searched.get((max_len, target)) or exhaustive_search(env, max_len)
        assert _search_bits(got) == _search_bits(search_unscreened(env, max_len))

    @pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
    def test_other_starts_cutoffs_baths_and_budgets(self, case):
        cfg, max_len, rate_cutoff = _SCREEN_CASES[case]
        env = QSEEnv(cfg)
        got = exhaustive_search(env, max_len, rate_cutoff)
        assert _search_bits(got) == _search_bits(search_unscreened(env, max_len, rate_cutoff))

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
           .filter(lambda v: np.linalg.norm(v) > 1e-3),
           st.floats(0.1, 3.0), st.sampled_from(sorted(SEARCH_COUNTS[6])))
    def test_custom_starts_and_taus(self, amplitudes, tau, target):
        re0, im0, re1, im1 = amplitudes
        cfg = EnvConfig(model=ModelParams(tau=tau), target=target,
                        start=(complex(re0, im0), complex(re1, im1)))
        env = QSEEnv(cfg)
        assert _search_bits(exhaustive_search(env, 4)) == _search_bits(search_unscreened(env, 4))

    #: (max_len, depth) of the psi+ records the kept-then-dropped tests
    #: move each limit across: the leaves of a length-4 search, and the
    #: children and grandchildren of the leaves' grandparents in a
    #: length-5 one
    SCREEN_LEVELS = [(4, 4), (5, 4), (5, 5)]

    @staticmethod
    def screened_records(max_len, depth):
        # the psi+ records that end at that depth: every one at depth 4; at
        # depth 5 every seventh of the 86, and the 4 whose lowest branch
        # probability is the screened child's
        records = exhaustive_search(QSEEnv(EnvConfig(target="psi+")), max_len)
        found = [r for r in records if len(r.actions) == depth]
        assert len(found) == {4: 12, 5: 86}[depth]
        if depth == 5:
            found = [r for i, r in enumerate(found) if i % 7 == 0 or np.argmin(r.probs) == 3]
            assert len(found) == 17
        return found

    def assert_kept_then_dropped(self, rec, max_len, values):
        # at each value the two searches agree; the record is found at the
        # first value and not at the second
        present = []
        for changes in values:
            cfg = dataclasses.replace(EnvConfig(target="psi+"), **changes.get("env", {}))
            env, cutoff = QSEEnv(cfg), changes.get("rate_cutoff", 1e-6)
            got = exhaustive_search(env, max_len, cutoff)
            assert _search_bits(got) == _search_bits(search_unscreened(env, max_len, cutoff))
            present.append(rec.actions in {r.actions for r in got})
        assert present == [True, False]

    @pytest.mark.parametrize("max_len, depth", SCREEN_LEVELS)
    def test_theta_at_a_screened_fidelity(self, max_len, depth):
        for rec in self.screened_records(max_len, depth):
            fid = rec.final_fidelity
            self.assert_kept_then_dropped(rec, max_len, [
                {"env": {"theta": float(np.nextafter(fid, 0))}}, {"env": {"theta": fid}}])

    @pytest.mark.parametrize("max_len, depth", SCREEN_LEVELS)
    def test_rate_cutoff_at_a_screened_rate(self, max_len, depth):
        for rec in self.screened_records(max_len, depth):
            rate = rec.success_rate
            self.assert_kept_then_dropped(rec, max_len, [
                {"rate_cutoff": rate}, {"rate_cutoff": float(np.nextafter(rate, np.inf))}])

    @pytest.mark.parametrize("max_len, depth", SCREEN_LEVELS)
    def test_floor_at_a_screened_branch_probability(self, max_len, depth):
        # a floor at a record's lowest branch probability cuts it at that
        # step: a leaf, a screened child or a grandchild, or one above
        for rec in self.screened_records(max_len, depth):
            p = min(rec.probs)
            self.assert_kept_then_dropped(rec, max_len, [
                {"env": {"floor": float(np.nextafter(p, 0))}}, {"env": {"floor": p}}])

    @pytest.mark.parametrize("max_len", [1, 2, 5])
    def test_the_last_level_makes_no_every_action_call(self, monkeypatch, max_len):
        # nor does the level above it: the nodes above the screened ones
        # are stepped as before, in as many every-action calls as a search
        # two levels shorter makes
        def every_action_calls(search, env, n):
            calls = []
            step_batch = env.step_batch

            def counted(rho, actions, step_count):
                calls.append(actions is None)
                return step_batch(rho, actions, step_count)
            monkeypatch.setattr(env, "step_batch", counted)
            search(env, n)
            monkeypatch.undo()
            return sum(calls)

        env = QSEEnv(EnvConfig(target="psi+"))
        screened = every_action_calls(exhaustive_search, env, max_len)
        assert screened == every_action_calls(search_unscreened, env, max(max_len - 2, 0))
        assert screened == (5 if max_len == 5 else 0)

    @pytest.mark.parametrize("target", ["psi+", "psi-"])
    def test_one_screen_per_parent_block(self, monkeypatch, target):
        # all the continuing children of an every-action block are the
        # leaves' grandparents here, screened in one call, which steps the
        # children that pass in at most one one-action call; their
        # continuing children are screened in one call, which steps the
        # leaves that pass in at most one more: no three one-action calls
        # follow each other
        env = QSEEnv(EnvConfig(target=target))
        calls = []
        step_batch = env.step_batch

        def counted(rho, actions, step_count):
            calls.append("every" if actions is None else "one")
            return step_batch(rho, actions, step_count)
        monkeypatch.setattr(env, "step_batch", counted)
        exhaustive_search(env, 5)
        assert calls.count("every") == 5 and "one" in calls
        assert ("one",) * 3 not in set(zip(calls, calls[1:], calls[2:]))


class TestReplayChunks:
    """replay_sequence conjugates, scores and classifies in chunks of 8,
    16, 32, ... steps and runs none after the chunk its record ends in."""

    _PSI_PLUS = QSEEnv(EnvConfig(target="psi+"))
    _SUCCESS = parse_sequence("U1 Px+ U2 Px+ U1 Px+ U1 Px-")

    @pytest.mark.parametrize("idle_before", [0, 3, 4, 19, 20, 44])
    def test_success_with_an_idle_tail(self, idle_before):
        # the five steps end their record in the first, second or third
        # chunk, or are cut by the step budget, with idle steps before and after
        actions = (DO_NOTHING,) * idle_before + self._SUCCESS + (DO_NOTHING,) * 45
        got = replay_sequence(self._PSI_PLUS, actions)
        assert _replay_bits(got) == _replay_bits(replay_per_step(self._PSI_PLUS, actions))

    @pytest.mark.parametrize("tokens", ["U1 Pz- U49", "U1 Px+ U1 Pz+ U1 Pz- U47",
                                        "U9 Pz- U40", "U30 Pz- U15"])
    def test_fatal_z_plus_with_an_idle_tail(self, tokens):
        actions = parse_sequence(tokens)
        got = replay_sequence(_ZPLUS, actions)
        assert got[0].outcome == "fatal"
        assert _replay_bits(got) == _replay_bits(replay_per_step(_ZPLUS, actions))

    def test_tailed_success_conjugates_one_chunk(self, monkeypatch):
        env = QSEEnv(EnvConfig(target="psi+"))
        calls = []
        conjugate = env.conjugate

        def counted(rho, actions):
            calls.append(actions)
            return conjugate(rho, actions)
        monkeypatch.setattr(env, "conjugate", counted)
        actions = self._SUCCESS + (DO_NOTHING,) * 45
        rec, _ = replay_sequence(env, actions)
        assert rec.succeeded and rec.actions == self._SUCCESS
        assert len(actions) == 50 and len(calls) == sequences.REPLAY_CHUNK == 8
