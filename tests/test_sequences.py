import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIDELITY_ATOL, GOLDEN_FIXED_START, GOLDEN_TAU2_START, RATE_ATOL
from qsteer.env import DO_NOTHING, EnvConfig, QSEEnv, start_state_vector
from qsteer.errors import BudgetExceeded, SequenceParseError
from qsteer.linalg import partial_trace_first
from qsteer.model import ModelParams, fidelity
from qsteer.sequences import (
    SequenceRecord,
    StepStats,
    combination_histogram,
    diagnostic_trace,
    exhaustive_search,
    format_sequence,
    parse_records,
    parse_sequence,
    records_to_lines,
    replay_sequence,
    verify_steady_state,
)

PX_PLUS, PX_MINUS, PY_MINUS, PZ_PLUS = 2, 3, 5, 0

#: Successful sequences per target from the fixed x+ start, by maximum
#: length; frozen from the one-child-at-a-time enumeration.
SEARCH_COUNTS = {
    5: {"phi+": 0, "phi-": 0, "psi+": 99, "psi-": 9},
    6: {"phi+": 12, "phi-": 4, "psi+": 612, "psi-": 95},
}


@pytest.fixture(scope="module")
def searched():
    """Search results by (max_len, target) from the default config."""
    return {(n, t): exhaustive_search(n, t, EnvConfig())
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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, DO_NOTHING), min_size=1, max_size=30), st.booleans())
    def test_format_parse_round_trip(self, actions, compress):
        actions = tuple(actions)
        assert parse_sequence(format_sequence(actions, compress)) == actions


class TestReplay:
    def test_golden_row_replays(self, default_env_cfg):
        target, start, tokens, fid_ref, rate_ref = GOLDEN_FIXED_START[3]
        cfg = dataclasses.replace(default_env_cfg, target=target)
        start_rho = QSEEnv(cfg).reset().rho
        rec = replay_sequence(start_rho, parse_sequence(tokens), cfg, start)
        assert rec.final_fidelity == pytest.approx(fid_ref, abs=FIDELITY_ATOL)
        assert rec.success_rate == pytest.approx(rate_ref, abs=RATE_ATOL)
        assert rec.succeeded and not rec.aborted

    def test_success_rate_is_product_of_probs(self, default_env_cfg):
        start_rho = QSEEnv(default_env_cfg).reset().rho
        rec = replay_sequence(start_rho, parse_sequence("U2 Px+ U1 Py+ U1 Px+"),
                              default_env_cfg)
        product = 1.0
        for s in rec.per_step:
            product *= s.success_prob
        assert rec.success_rate == pytest.approx(product, abs=1e-12)
        # idle steps carry probability exactly 1
        assert rec.per_step[0].success_prob == 1.0

    def test_empty_sequence_reports_evolved_start(self, default_env_cfg):
        env = QSEEnv(default_env_cfg)
        start_rho = env.reset().rho
        rec = replay_sequence(start_rho, (), default_env_cfg)
        assert rec.actions == () and rec.per_step == ()
        evolved = env.propagator @ start_rho @ env.propagator.conj().T
        expected = fidelity(partial_trace_first(evolved, 2), env.target_matrix)
        assert rec.final_fidelity == pytest.approx(expected, abs=1e-12)

    def test_underflow_aborts_with_partial_record(self, default_env_cfg):
        start_rho = QSEEnv(default_env_cfg).reset().rho
        # z+ then z-: the second branch has probability zero
        rec = replay_sequence(start_rho, (PZ_PLUS, 1), default_env_cfg)
        assert rec.aborted and not rec.succeeded
        assert rec.actions == (PZ_PLUS,)
        assert len(rec.per_step) == 1

    def test_deterministic(self, default_env_cfg):
        start_rho = QSEEnv(default_env_cfg).reset().rho
        actions = parse_sequence("U2 Px+ U1 Px+ U1 Px+")
        a = replay_sequence(start_rho, actions, default_env_cfg)
        b = replay_sequence(start_rho, actions, default_env_cfg)
        assert a == b


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
        assert exhaustive_search(0, "psi-", default_env_cfg) == []

    def test_budget_guard(self, default_env_cfg):
        with pytest.raises(BudgetExceeded):
            exhaustive_search(20, "psi-", default_env_cfg)

    def test_short_singlet_solutions_found(self, default_env_cfg):
        records = exhaustive_search(4, "psi-", default_env_cfg)
        assert records, "expected at least one 4-step solution"
        sequences = {rec.actions for rec in records}
        assert (PX_PLUS,) * 4 in sequences
        for rec in records:
            assert rec.final_fidelity > default_env_cfg.theta
            assert all(s.success_prob > default_env_cfg.floor for s in rec.per_step)
        # sorted by length, then decreasing rate
        keys = [(len(r.actions), -r.success_rate) for r in records]
        assert keys == sorted(keys)

    def test_no_short_route_to_two_singlet_pairs(self):
        cfg = EnvConfig(model=ModelParams.uniform(n_bath=4))
        assert exhaustive_search(4, "psi-", cfg) == []

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
            start = env.reset()
            for rec in searched[5, t]:
                again = replay_sequence(start.rho, rec.actions, env, start.start_label)
                assert again.succeeded and again.actions == rec.actions
                assert again.success_rate == rec.success_rate
                assert again.final_fidelity == rec.final_fidelity
                assert ([s.success_prob for s in again.per_step]
                        == [s.success_prob for s in rec.per_step])

    def test_custom_start_is_labelled_and_searched(self, default_env_cfg):
        xminus = start_state_vector("x-")
        model = dataclasses.replace(default_env_cfg.model, tau=2.0)
        cfg = dataclasses.replace(default_env_cfg, model=model, start_mode="fixed_custom",
                                  custom_start=(complex(xminus[0]), complex(xminus[1])))
        records = {r.actions: r for r in exhaustive_search(5, "psi-", cfg)}
        for target, start, tokens, fid_ref, rate_ref in GOLDEN_TAU2_START:
            if start == "x-":
                rec = records[parse_sequence(tokens)]
                assert rec.start_label == "x-"
                assert rec.final_fidelity == pytest.approx(fid_ref, abs=FIDELITY_ATOL)
                assert rec.success_rate == pytest.approx(rate_ref, abs=RATE_ATOL)

    def test_random_start_is_rejected(self, default_env_cfg):
        cfg = dataclasses.replace(default_env_cfg, start_mode="random_pure")
        with pytest.raises(ValueError):
            exhaustive_search(3, "psi-", cfg)

    def test_results_are_minimal(self, default_env_cfg):
        # no record is a strict prefix of another (episodes stop at success)
        records = exhaustive_search(4, "psi-", default_env_cfg)
        seqs = [r.actions for r in records]
        for s in seqs:
            for t in seqs:
                assert not (len(t) > len(s) and t[: len(s)] == s)


class TestHistogram:
    def make(self, actions, succeeded=True):
        stats = tuple(StepStats(1.0, 0.0, float("nan"), float("nan")) for _ in actions)
        return SequenceRecord("x+", tuple(actions), stats, 1.0,
                              0.999 if succeeded else 0.1, succeeded)

    def test_single_record_counts(self):
        counts = combination_histogram([self.make([PX_PLUS, PX_PLUS, PX_PLUS])])
        assert counts == {(PX_PLUS, PX_PLUS): 2}

    def test_empty_input(self):
        assert combination_histogram([]) == {}

    def test_manual_two_records(self):
        records = [self.make([PX_PLUS, PY_MINUS, PY_MINUS]),
                   self.make([DO_NOTHING, PX_PLUS])]
        counts = combination_histogram(records)
        assert counts == {(PX_PLUS, PY_MINUS): 1, (PY_MINUS, PY_MINUS): 1,
                          (DO_NOTHING, PX_PLUS): 1}

    def test_unique_successful_filter(self):
        records = [self.make([PX_PLUS, PX_PLUS]),
                   self.make([PX_PLUS, PX_PLUS]),  # duplicate, dropped
                   self.make([PY_MINUS, PY_MINUS], succeeded=False)]
        counts = combination_histogram(records, unique_successful=True)
        assert counts == {(PX_PLUS, PX_PLUS): 1}


class TestDiagnosticTrace:
    def test_full_record_rows(self, default_env_cfg):
        start_rho = QSEEnv(default_env_cfg).reset().rho
        rec = replay_sequence(start_rho, parse_sequence("U2 Px+ U1 Px+"),
                              default_env_cfg)
        rows = diagnostic_trace(rec)
        assert len(rows) == 3
        assert rows[0][1] == "-" and rows[0][2] == 1.0
        for row in rows:
            assert 0.0 <= row[3] <= 1.0  # fidelity column

    def test_rejects_records_without_stats(self):
        stats = (StepStats(0.5, 0.7, float("nan"), float("nan")),)
        rec = SequenceRecord("x+", (PX_PLUS,), stats, 0.5, 0.7, False)
        with pytest.raises(ValueError):
            diagnostic_trace(rec)


class TestRecordFiles:
    def test_round_trip(self, default_env_cfg):
        start_rho = QSEEnv(default_env_cfg).reset().rho
        original = [
            replay_sequence(start_rho, parse_sequence(tokens), default_env_cfg, "x+")
            for tokens in ("U2 Px+ U1 Px+", "U1 Py- U1 Py-")
        ]
        lines = records_to_lines(original)
        parsed = parse_records(lines)
        for before, after in zip(original, parsed):
            assert after.start_label == before.start_label
            assert after.actions == before.actions
            assert after.success_rate == pytest.approx(before.success_rate, rel=1e-10)
            assert after.final_fidelity == pytest.approx(before.final_fidelity, rel=1e-10)
            assert after.succeeded == before.succeeded
            probs_before = [s.success_prob for s in before.per_step]
            probs_after = [s.success_prob for s in after.per_step]
            assert probs_after == pytest.approx(probs_before, rel=1e-10)

    def test_bad_line_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_records(["just one field"])
