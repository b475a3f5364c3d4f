from pathlib import Path

import numpy as np
import pytest

from qsteer import cli
from qsteer.config import parse_config
from qsteer.network import MLPSpec, init_params, save_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MICRO_CONFIG = """\
[model]
n_bath = 2
coupling = 1, 0, 0
omega = 0.5
tau = 1

[env]
target = psi-
theta = 0.99
r_plus = 10
r_minus = -1
r_fatal = -11
max_steps = 10
start_mode = fixed_xplus
floor = 1e-8

[agent]
gamma = 0.95
eps_start = 1.0
eps_min = 0.1
eps_decay_steps = 5
episodes_per_training_step = 4
batch_size = 32
algorithm = dqn
replay_capacity = 2000
target_mix = 0.01
training_steps = 8
updates_per_training_step = 2
learning_rate = 1e-3
grad_clip = 10

[mlp]
hidden = 16
activation = relu
init_seed = 0

[run]
master_seed = 5
checkpoint_steps = 3
output_dir = out
"""


@pytest.fixture
def micro_config(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CONFIG)
    return path


def read_out(tmp_path, name):
    return (tmp_path / "out" / name).read_text()


class TestTrain:
    def test_writes_tables_checkpoints_manifest(self, micro_config, tmp_path, capsys):
        assert cli.main(["train", str(micro_config)]) == 0
        curve = read_out(tmp_path, "learning_curve.tsv")
        lines = curve.splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "master_seed=5" in lines[0]
        assert lines[2] == "step\tepsilon\tavg_return\tsuccess_fraction\tloss_mean"
        assert len(lines) == 3 + 8  # two header lines, columns, one row per step
        for name in ("manifest.txt", "checkpoint_step3.npz", "checkpoint_best.npz",
                     "checkpoint_final.npz"):
            assert (tmp_path / "out" / name).exists()
        manifest = read_out(tmp_path, "manifest.txt")
        assert "config_hash=" in manifest and "[agent]" in manifest

    def test_byte_identical_reruns(self, micro_config, tmp_path):
        assert cli.main(["train", str(micro_config)]) == 0
        first = read_out(tmp_path, "learning_curve.tsv")
        assert cli.main(["train", str(micro_config)]) == 0
        second = read_out(tmp_path, "learning_curve.tsv")
        assert first == second

    def test_invalid_config_exit_code(self, micro_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("theta = 0.99", "theta = 1.5"))
        assert cli.main(["train", str(bad)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, micro_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("[run]\n", "[run]\nworkers = 4\n"))
        assert cli.main(["train", str(bad)]) == 2
        assert "run.workers" in capsys.readouterr().err

    def test_odd_bath_exit_code(self, micro_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("n_bath = 2", "n_bath = 3"))
        assert cli.main(["train", str(bad)]) == 2
        assert "n_bath" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluate_with_baseline(self, micro_config, tmp_path, capsys):
        assert cli.main(["train", str(micro_config)]) == 0
        checkpoint = tmp_path / "out" / "checkpoint_best.npz"
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                         "--eps", "0.1", "--episodes", "20", "--baseline"]) == 0
        for name in ("evaluation.tsv", "evaluation_baseline.tsv", "records.txt",
                     "records_baseline.txt"):
            assert (tmp_path / "out" / name).exists()
        table = read_out(tmp_path, "evaluation.tsv")
        assert table.splitlines()[2].startswith("episode\tstart\treturn")
        assert len(table.splitlines()) == 3 + 20

    def test_zero_episodes_rejected(self, micro_config, tmp_path, capsys):
        assert cli.main(["train", str(micro_config)]) == 0
        checkpoint = tmp_path / "out" / "checkpoint_final.npz"
        assert cli.main(["evaluate", str(micro_config), "--checkpoint",
                         str(checkpoint), "--episodes", "0"]) == 2

    def test_mismatched_checkpoint_rejected(self, micro_config, tmp_path):
        other = tmp_path / "other.npz"
        spec = MLPSpec(input_size=12, hidden=(4,), output_size=7, init_seed=0)
        save_params(other, init_params(spec), spec)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint",
                         str(other), "--episodes", "5"]) == 2

    def test_unknown_start_is_a_config_error(self, micro_config, tmp_path, capsys):
        spec = parse_config(micro_config).mlp
        checkpoint = tmp_path / "init.npz"
        save_params(checkpoint, init_params(spec), spec)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                         "--episodes", "5", "--start", "bogus"]) == 2
        assert "--start" in capsys.readouterr().err

    def test_eps_out_of_range_is_a_config_error(self, micro_config, tmp_path, capsys):
        spec = parse_config(micro_config).mlp
        checkpoint = tmp_path / "init.npz"
        save_params(checkpoint, init_params(spec), spec)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                         "--episodes", "5", "--eps", "2"]) == 2
        assert "--eps" in capsys.readouterr().err

    def test_start_override(self, micro_config, tmp_path, capsys):
        assert cli.main(["train", str(micro_config)]) == 0
        checkpoint = tmp_path / "out" / "checkpoint_best.npz"
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                         "--episodes", "5", "--start", "x-"]) == 0
        records = read_out(tmp_path, "records.txt")
        data_lines = [ln for ln in records.splitlines() if not ln.startswith("#")]
        assert all(ln.startswith("x-\t") for ln in data_lines)


class TestReplay:
    def test_known_singlet_row_summary(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence",
                         "U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+"]) == 0
        out = capsys.readouterr().out
        assert "final fidelity 0.99454" in out
        assert "success rate 25.275%" in out
        assert "success" in out

    def test_diagnostic_file(self, micro_config, tmp_path, capsys):
        out_file = tmp_path / "diag.tsv"
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Px+ U1 Px+",
                         "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[2] == "step\taction\tsuccess_prob\tfidelity\ttrace_distance\tpurity"
        assert len(lines) == 3 + 3

    def test_start_and_target_overrides(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence",
                         "U1 Px+ U2 Px+ U1 Px+ U1 Px-", "--target", "psi+",
                         "--start", "x+"]) == 0
        out = capsys.readouterr().out
        assert "final fidelity 1.00000" in out

    def test_unknown_start_is_a_config_error(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Px+",
                         "--start", "bogus"]) == 2
        assert "--start" in capsys.readouterr().err

    def test_parse_error_exit_code(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Pq+"]) == 2
        assert "token" in capsys.readouterr().err


class TestSearch:
    def test_small_search_writes_results(self, micro_config, tmp_path, capsys):
        assert cli.main(["search", str(micro_config), "--target", "psi-",
                         "--max-len", "4"]) == 0
        files = list((tmp_path / "out").glob("search_*_len4.tsv"))
        assert files, "expected a search results table"
        body = files[0].read_text().splitlines()
        assert body[2] == "steps\tsuccess_rate\tfinal_fidelity\tsequence"
        assert len(body) > 3

    def test_negative_length_is_a_config_error(self, micro_config, capsys):
        assert cli.main(["search", str(micro_config), "--target", "psi-",
                         "--max-len", "-1"]) == 2
        assert "--max-len" in capsys.readouterr().err

    def test_out_of_range_flags_are_config_errors(self, micro_config, capsys):
        search = ["search", str(micro_config), "--target", "psi-", "--max-len", "3"]
        for flag, value in (("--show", "-1"), ("--rate-cutoff", "-1"),
                            ("--rate-cutoff", "2")):
            assert cli.main(search + [flag, value]) == 2
            assert flag in capsys.readouterr().err

    def test_budget_exit_code(self, micro_config, capsys):
        assert cli.main(["search", str(micro_config), "--target", "psi-",
                         "--max-len", "20"]) == 4

    def test_random_start_needs_a_start_flag(self, micro_config, tmp_path, capsys):
        random_cfg = tmp_path / "random.cfg"
        random_cfg.write_text(MICRO_CONFIG.replace("start_mode = fixed_xplus",
                                                   "start_mode = random_pure"))
        search = ["search", str(random_cfg), "--target", "psi-", "--max-len", "4"]
        assert cli.main(search) == 2
        assert "--start" in capsys.readouterr().err
        assert cli.main(search + ["--start", "bogus"]) == 2
        assert "--start" in capsys.readouterr().err

    def test_start_flag_sets_the_root(self, micro_config, tmp_path, capsys):
        def rows():
            table = next((tmp_path / "out").glob("search_psiminus_len4.tsv"))
            return table.read_text().splitlines()[2:]

        search = ["search", str(micro_config), "--target", "psi-", "--max-len", "4"]
        assert cli.main(search) == 0
        fixed = rows()
        random_cfg = tmp_path / "random.cfg"
        random_cfg.write_text(MICRO_CONFIG.replace("start_mode = fixed_xplus",
                                                   "start_mode = random_pure"))
        assert cli.main(["search", str(random_cfg)] + search[2:] + ["--start", "x+"]) == 0
        assert rows() == fixed
        assert cli.main(search + ["--start", "x-"]) == 0
        assert rows() != fixed


class TestHistogram:
    def test_counts_from_records_file(self, micro_config, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text(
            "x+\tPx+ Px+ Px+\t0.5,0.9,0.9\t0.405\t0.995\t1\n"
            "x+\tPy- Px+\t0.5,0.5\t0.25\t0.4\t0\n"
        )
        assert cli.main(["histogram", "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert "first\tsecond\tcount" in out
        assert "Px+\tPx+\t2" in out
        assert "Py-\tPx+\t1" in out

    def test_unique_successful_filter(self, micro_config, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text(
            "x+\tPx+ Px+\t0.5,0.9\t0.45\t0.995\t1\n"
            "x+\tPx+ Px+\t0.5,0.9\t0.45\t0.995\t1\n"
            "x+\tPy- Py-\t0.5,0.5\t0.25\t0.4\t0\n"
        )
        assert cli.main(["histogram", "--records", str(records),
                         "--unique-successful"]) == 0
        out = capsys.readouterr().out
        assert "Px+\tPx+\t1" in out
        assert "Py-" not in out

    def test_empty_file(self, micro_config, tmp_path, capsys):
        records = tmp_path / "empty.txt"
        records.write_text("")
        assert cli.main(["histogram", "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "first\tsecond\tcount"
