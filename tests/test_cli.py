import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsteer import agent as qsteer_agent
from qsteer import cli
from qsteer import config as qsteer_config
from qsteer import env as qsteer_env
from qsteer.agent import EvaluationResult, evaluate_policy
from qsteer.config import config_hash, parse_config
from qsteer.env import ACTION_TOKENS, STEP_LIMIT, QSEEnv
from qsteer.errors import NonFiniteLoss
from qsteer.model import SPIN_STATES
from qsteer.network import MLPSpec, init_params, load_params, save_params
from qsteer.sequences import (SequenceRecord, combination_histogram, format_sequence,
                              parse_sequence, replay_sequence)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

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
start = x+
floor = 1e-8

[agent]
gamma = 0.95
eps_start = 1.0
eps_min = 0.1
eps_decay_steps = 5
episodes_per_training_step = 4
batch_size = 32
replay_capacity = 2000
target_mix = none
training_steps = 8
updates_per_training_step = 2
learning_rate = 1e-3
grad_clip = 10

[mlp]
hidden = 16
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


def npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


def read_out(tmp_path, name):
    return (tmp_path / "out" / name).read_text()


def _row_alone(i, ret, outcome, rec):
    """One evaluation row formatted from its record alone, every field
    afresh: the reference for the route-level formatting."""
    return "\t".join((
        str(i), rec.start_label, cli._fmt(ret), outcome, str(len(rec.actions)),
        cli._fmt(rec.success_rate), cli._fmt(rec.final_fidelity),
        format_sequence(rec.actions), ",".join(format(p, ".12g") for p in rec.probs)))


EVAL_COLUMNS = ("episode\tstart\treturn\toutcome\tsteps\tsuccess_rate\tfinal_fidelity"
                "\tsequence\tprobs")


def write_table(path, rows, columns=EVAL_COLUMNS):
    """An evaluation table as evaluate writes it, from (outcome, sequence)
    pairs; the columns histogram does not read hold placeholders."""
    lines = ["# config_hash=0 master_seed=0", "# qsteer=0", columns]
    lines += [f"{i}\tx+\t0\t{outcome}\t0\t0\t0\t{sequence}\t1"
              for i, (outcome, sequence) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


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

    def test_non_utf8_config_exit_code(self, micro_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[model]\nn_bath = 2\xff\n")
        assert cli.main(["train", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_unusable_output_dir_is_a_config_error(self, micro_config, tmp_path, capsys):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("output_dir = out", "output_dir = blocker/sub"))
        assert cli.main(["train", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "run.output_dir" in err and "blocker/sub" in err
        assert f"{cli.OUTPUT_ROOT_ENV}={tmp_path}" in err

    def test_checkpoint_past_the_last_step_is_reported(self, micro_config, tmp_path,
                                                      capsys):
        late = tmp_path / "late.cfg"
        late.write_text(MICRO_CONFIG.replace("checkpoint_steps = 3",
                                             "checkpoint_steps = 3, 99999"))
        assert cli.main(["train", str(late)]) == 0
        assert "checkpoint_steps [99999]" in capsys.readouterr().err
        assert (tmp_path / "out" / "checkpoint_step3.npz").exists()
        assert not (tmp_path / "out" / "checkpoint_step99999.npz").exists()

    def test_unknown_key_exit_code(self, micro_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("[run]\n", "[run]\nworkers = 4\n"))
        assert cli.main(["train", str(bad)]) == 2
        assert "run.workers" in capsys.readouterr().err

    def test_verbose_prints_progress_to_stderr(self, micro_config, capsys):
        # eight steps: only the first is a progress step
        assert cli.main(["train", str(micro_config)]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["train", str(micro_config), "--verbose"]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("step     1  eps=1.000  avg_return=")

    def test_diverged_loss_is_dumped_and_exits_3(self, micro_config, tmp_path, capsys,
                                                 monkeypatch):
        def diverge(*args, **kwargs):
            raise NonFiniteLoss("loss diverged to nan")
        monkeypatch.setattr(qsteer_agent, "train_batch", diverge)
        assert cli.main(["train", str(micro_config)]) == 3
        assert capsys.readouterr().err == "error: loss diverged to nan\n"
        (dump,) = (tmp_path / "out").glob("diverged_step*.npz")
        with np.load(dump) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta["diverged"] is True and meta["master_seed"] == 5
        assert dump.name == f"diverged_step{meta['step']}.npz" and meta["step"] >= 1
        assert not (tmp_path / "out" / "learning_curve.tsv").exists()

    def test_a_real_divergence_is_dumped_and_exits_3(self, micro_config, tmp_path, capsys):
        # under the suite's filterwarnings = error, any overflow warning on
        # the way to the non-finite loss would end the run instead
        micro_config.write_text(MICRO_CONFIG.replace("learning_rate = 1e-3",
                                                     "learning_rate = 1e150")
                                .replace("grad_clip = 10", "grad_clip = none"))
        assert cli.main(["train", str(micro_config)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: loss diverged to ")
        with np.load(tmp_path / "out" / "diverged_step1.npz") as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta["diverged"] is True and meta["step"] == 1

    @pytest.mark.parametrize("text, lineno", [
        ("n_bath = 2\n[model]\n", 1),
        ("[model]\nn_bath = 2\nn_bath = 4\n", 3),
        ("[model]\nn_bath = 2\nstray\n", 3),
    ], ids=["no-section-header", "duplicate-key", "stray-line"])
    def test_unreadable_config_is_one_line_naming_file_and_line(self, tmp_path, monkeypatch,
                                                                capsys, text, lineno):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["train", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(path) in line
        assert re.search(rf"\bline:? {lineno}\b", line)
        assert list(tmp_path.iterdir()) == [path]

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
        assert sorted(p.name for p in (tmp_path / "out").glob("evaluation*")) == [
            "evaluation.tsv", "evaluation_baseline.tsv"]
        assert not list((tmp_path / "out").glob("records*"))
        table = read_out(tmp_path, "evaluation.tsv")
        assert table.splitlines()[2] == EVAL_COLUMNS
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

    @pytest.mark.parametrize("content", [None, b"a text file\n", b"", b"PK\x03\x04torn",
                                         npy_bytes()],
                             ids=["missing", "text", "empty", "torn-zip", "npy"])
    def test_unreadable_checkpoint_is_a_config_error(self, micro_config, tmp_path, capsys,
                                                     content):
        bad = tmp_path / "bad.npz"
        if content is not None:
            bad.write_bytes(content)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(bad),
                         "--episodes", "5"]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and str(bad) in err

    @pytest.mark.parametrize("dtype", [np.complex128, object])
    def test_layer_arrays_must_be_float64(self, micro_config, tmp_path, capsys, dtype):
        spec = parse_config(micro_config).mlp
        good, bad = tmp_path / "init.npz", tmp_path / "bad.npz"
        save_params(good, init_params(spec), spec)
        with np.load(good) as data:
            arrays = dict(data)
        arrays["w0"] = arrays["w0"].astype(dtype)
        np.savez(bad, **arrays)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(bad),
                         "--episodes", "5"]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and str(bad) in err and "w0" in err

    @pytest.mark.parametrize("edit", ["one-nan", "all-inf", "tanh-header"])
    def test_reference_agent_edits_are_refused(self, tmp_path, monkeypatch, capsys, edit):
        # a NaN row's argmax is action 0, so such an agent used to evaluate
        # to a plausible-looking table
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        with np.load(REFERENCE_DIR / "psi_minus_fixed.npz") as data:
            arrays = dict(data)
        if edit == "one-nan":
            arrays["w0"][3, 5] = np.nan
        elif edit == "all-inf":
            arrays["w0"][:] = np.inf
        else:
            meta = json.loads(bytes(arrays["meta"]).decode())
            assert meta["activation"] == "relu"
            meta["activation"] = "tanh"
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert cli.main(["evaluate", str(CONFIG_DIR / "psi_minus_fixed.cfg"), "--checkpoint",
                         str(bad), "--episodes", "20", "--eps", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and str(bad) in err
        assert ("tanh" if edit == "tanh-header" else "w0") in err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("edit", [[1, 2], {"hidden": "ab"}, {"hidden": 5},
                                      {"input_size": None}, {"init_seed": "0"}],
                             ids=["list", "hidden-text", "hidden-number", "input-null",
                                  "seed-text"])
    def test_reference_agent_header_of_the_wrong_shape_is_refused(self, tmp_path, monkeypatch,
                                                                  capsys, edit):
        # valid JSON of the wrong shape used to escape as AttributeError or TypeError
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        with np.load(REFERENCE_DIR / "psi_minus_fixed.npz") as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta = edit if isinstance(edit, list) else {**meta, **edit}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert cli.main(["evaluate", str(CONFIG_DIR / "psi_minus_fixed.cfg"), "--checkpoint",
                         str(bad), "--episodes", "20", "--eps", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and str(bad) in err and "header" in err
        assert list(tmp_path.iterdir()) == [bad]

    def test_unreadable_checkpoint_makes_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        assert cli.main(["evaluate", str(CONFIG_DIR / "psi_minus_fixed.cfg"), "--checkpoint",
                         str(tmp_path / "missing.npz")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_start_override_heads_the_table_with_its_own_hash(self, micro_config, tmp_path):
        cfg = parse_config(micro_config)
        checkpoint = tmp_path / "init.npz"
        save_params(checkpoint, init_params(cfg.mlp), cfg.mlp)
        evaluate = ["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                    "--episodes", "2"]
        ran = dataclasses.replace(cfg, env=dataclasses.replace(
            cfg.env, start="random"))
        for flags, hashed in (([], cfg), (["--start", "random"], ran)):
            assert cli.main(evaluate + flags) == 0
            header = read_out(tmp_path, "evaluation.tsv").splitlines()[0]
            assert header == f"# config_hash={config_hash(hashed)} master_seed=5"
        assert config_hash(ran) != config_hash(cfg)

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
        rows = read_out(tmp_path, "evaluation.tsv").splitlines()[3:]
        assert len(rows) == 5 and all(row.split("\t")[1] == "x-" for row in rows)

    @pytest.mark.parametrize("name, start", [("psi_minus_fixed", None),
                                             ("psi_minus_random", "random")],
                             ids=["fixed-start", "random-start"])
    def test_each_row_is_its_record_formatted_alone(self, tmp_path, monkeypatch, name,
                                                    start):
        # rows are formatted once per distinct route; each must still read
        # as its own record formatted on its own
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        config, checkpoint = CONFIG_DIR / f"{name}.cfg", REFERENCE_DIR / f"{name}.npz"
        argv = ["evaluate", str(config), "--checkpoint", str(checkpoint),
                "--episodes", "200", "--eps", "0.01"] + (["--start", start] if start else [])
        assert cli.main(argv) == 0
        cfg = cli._run_config(cli.build_parser().parse_args(argv))
        res = evaluate_policy(load_params(checkpoint)[0], cfg.env,
                              0.01, 200, cfg.master_seed, seed_stream=3)
        table = (tmp_path / cfg.output_dir / "evaluation.tsv").read_text().splitlines()[3:]
        assert table == [_row_alone(i, ret, rec.outcome, rec) for i, (ret, rec)
                         in enumerate(zip(res.returns, res.records))]
        routes = {(rec.actions, rec.probs) for rec in res.records}
        if start is None:
            assert len(routes) < len(res.records) / 4
        else:
            # some episodes share their actions but not their probabilities
            assert len({rec.actions for rec in res.records}) < len(routes)

    def test_signed_zero_routes_are_formatted_apart(self, micro_config, tmp_path,
                                                    monkeypatch):
        spec = parse_config(micro_config).mlp
        checkpoint = tmp_path / "init.npz"
        save_params(checkpoint, init_params(spec), spec)
        records = [SequenceRecord("x+", (0, 1), (0.5, zero), float("nan"), "fatal")
                   for zero in (0.0, -0.0, 0.0)]
        res = EvaluationResult([-11.0] * 3, records)
        monkeypatch.setattr(cli, "evaluate_policy", lambda *args, **kwargs: res)
        assert cli.main(["evaluate", str(micro_config), "--checkpoint", str(checkpoint),
                         "--episodes", "3"]) == 0
        table = read_out(tmp_path, "evaluation.tsv").splitlines()[3:]
        assert table == [_row_alone(i, -11.0, "fatal", rec) for i, rec in enumerate(records)]
        assert [row.split("\t")[8] for row in table] == ["0.5,0", "0.5,-0", "0.5,0"]


class TestReplay:
    @pytest.mark.parametrize("command", [["replay", "--sequence", "Px+"],
                                         ["search", "--target", "psi-", "--max-len", "2"]])
    def test_start_random_is_named_as_not_definite(self, tmp_path, monkeypatch, capsys,
                                                   command):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        argv = [command[0], str(CONFIG_DIR / "psi_minus_fixed.cfg"), *command[1:],
                "--start", "random"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{command[0]} needs a definite start state, not --start random" in err
        assert all(f"'{name}'" in err for name in SPIN_STATES)

    def test_known_singlet_row_summary(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence",
                         "U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+"]) == 0
        out = capsys.readouterr().out
        assert "final fidelity 0.99454" in out
        assert "success rate 25.275%" in out
        assert "success" in out

    def test_diagnostic_file(self, micro_config, tmp_path, capsys):
        out_file = tmp_path / "diag.tsv"
        tokens = "U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+"
        assert cli.main(["replay", str(micro_config), "--sequence", tokens,
                         "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[2] == "step\taction\tsuccess_prob\tfidelity\ttrace_distance\tpurity"
        rows = [line.split("\t") for line in lines[3:]]
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        assert " ".join(r[1] for r in rows) == "- Px+ Px+ Px+ Px+ Px+"
        assert rows[0][2] == "1"
        env = QSEEnv(parse_config(micro_config).env)
        record, _ = replay_sequence(env, parse_sequence(tokens))
        assert rows[-1][3] == cli._fmt(record.final_fidelity)

    def test_aborted_replay_writes_executed_steps(self, micro_config, tmp_path, capsys):
        # a fatal step ends the replay: the table holds the states reached before it
        out_file = tmp_path / "diag.tsv"
        for flags, executed in ((["--sequence", "Pz+ Pz-"], [["1", "Pz+"]]),
                                (["--sequence", "U1 Px+ U1 Pz+ U1 Pz-", "--start", "z+"],
                                 [["1", "Px+"], ["2", "Pz+"]])):
            assert cli.main(["replay", str(micro_config), "--out", str(out_file)] + flags) == 0
            rows = out_file.read_text().splitlines()[3:]
            assert [row.split("\t")[:2] for row in rows] == executed
            assert "(aborted (branch probability under floor))" in capsys.readouterr().out

    def test_replay_past_the_step_budget_times_out(self, micro_config, tmp_path, capsys):
        # the fourth Px+ would succeed, but an episode times out at step 3
        budget = tmp_path / "budget.cfg"
        budget.write_text(MICRO_CONFIG.replace("max_steps = 10", "max_steps = 3")
                          .replace("r_fatal = -11", "r_fatal = -4"))
        out_file = tmp_path / "diag.tsv"
        assert cli.main(["replay", str(budget), "--sequence", "U1 Px+ U1 Px+ U1 Px+ U1 Px+",
                         "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "(success)" not in out
        assert "(timeout at max_steps = 3; the last 1 action(s) not run)" in out
        assert "sequence: U1 Px+ U1 Px+ U1 Px+  [" in out
        assert len(out_file.read_text().splitlines()[3:]) == 3

    def test_replay_stops_at_the_first_success(self, micro_config, capsys):
        # psi+ is reached at step 5, where an episode ends: the Pz+ is not run
        assert cli.main(["replay", str(micro_config), "--target", "psi+", "--sequence",
                         "U1 Px+ U2 Px+ U1 Px+ U1 Px- U1 Pz+"]) == 0
        out = capsys.readouterr().out
        assert "sequence: U1 Px+ U2 Px+ U1 Px+ U1 Px-  [" in out
        assert "success rate 20.313%  (success; the last 1 action(s) not run)" in out

    @pytest.mark.parametrize("model, code", [
        ("omega = 1e308", 2),
        ("coupling = 1e308, 0, 0", 2),
        ("coupling = 1e200, 0, 0\ntau = 1e200", 2),
        ("tau = 1e300", 0),
    ], ids=["omega", "coupling", "coupling-and-tau", "long-tau"])
    def test_overflowing_model_is_a_config_error(self, tmp_path, capsys, model, code):
        # the three overflows made eigh fail to converge (exit 3) after a RuntimeWarning
        path = tmp_path / "model.cfg"
        path.write_text(f"[model]\n{model}\n")
        assert cli.main(["replay", str(path), "--sequence", "U1 Px+"]) == code
        if code:
            err = capsys.readouterr().err
            assert all(name in err for name in ("coupling", "omega", "tau"))

    def test_out_in_missing_directory_is_a_config_error(self, micro_config, tmp_path, capsys):
        out_file = tmp_path / "nodir" / "x.tsv"
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Px+",
                         "--out", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out_file) in err

    def test_start_and_target_overrides(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence",
                         "U1 Px+ U2 Px+ U1 Px+ U1 Px-", "--target", "psi+",
                         "--start", "x+"]) == 0
        out = capsys.readouterr().out
        assert "final fidelity 1.00000" in out and "(success)" in out

    def test_header_hashes_the_config_that_ran(self, tmp_path):
        config = CONFIG_DIR / "psi_minus_fixed.cfg"
        cfg = parse_config(config)
        phi_plus = dataclasses.replace(cfg, env=dataclasses.replace(cfg.env, target="phi+"))
        # psi- is the file's own target: no override differs from the file
        for target, hashed in (("phi+", config_hash(phi_plus)), ("psi-", "96e31332740c")):
            out = tmp_path / f"{target}.tsv"
            assert cli.main(["replay", str(config), "--sequence", "U2 Px+", "--target",
                             target, "--out", str(out)]) == 0
            header = out.read_text().splitlines()[0]
            assert header == f"# config_hash={hashed} master_seed={cfg.master_seed}"
        assert config_hash(phi_plus) != "96e31332740c" == config_hash(cfg)

    def test_unknown_start_is_a_config_error(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Px+",
                         "--start", "bogus"]) == 2
        assert "--start" in capsys.readouterr().err

    def test_parse_error_exit_code(self, micro_config, capsys):
        assert cli.main(["replay", str(micro_config), "--sequence", "U2 Pq+"]) == 2
        assert "token" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens, message", [
        ("Pq+", "unknown action token 'Pq+' (token 1)"),
        ("U0 Px+", "U count must be >= 1, got 'U0' (token 1)"),
    ])
    def test_sequence_errors_name_the_flag(self, micro_config, capsys, tokens, message):
        assert cli.main(["replay", str(micro_config), "--sequence", tokens]) == 2
        assert capsys.readouterr().err == f"error: argument --sequence: {message}\n"

    def test_count_too_large_to_list_exit_code(self, micro_config, capsys):
        # a configuration error naming the token, not an OverflowError traceback
        assert cli.main(["replay", str(micro_config), "--sequence",
                         "U2 Px+ U99999999999999999999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'U99999999999999999999'" in err
        assert "(token 3)" in err

    @pytest.mark.parametrize("count", [STEP_LIMIT + 1, 10 ** 9])
    def test_sequence_past_the_longest_episode_exit_code(self, count, capsys):
        # refused before its idle steps are listed
        assert cli.main(["replay", str(CONFIG_DIR / "psi_minus_fixed.cfg"),
                         "--sequence", f"U{count}"]) == 2
        err = capsys.readouterr().err
        assert f"'U{count}'" in err and "(token 1)" in err

    def test_episode_past_the_step_limit_is_a_config_error(self, micro_config, tmp_path,
                                                           capsys):
        long = tmp_path / "long.cfg"
        long.write_text(MICRO_CONFIG.replace("max_steps = 10", f"max_steps = {STEP_LIMIT + 1}")
                        .replace("r_fatal = -11", f"r_fatal = {-(STEP_LIMIT + 2)}"))
        assert cli.main(["replay", str(long), "--sequence", "U1 Px+"]) == 2
        assert "env: max_steps" in capsys.readouterr().err


def test_outputs_do_not_depend_on_call_history(micro_config, tmp_path):
    # the parser, parsed config texts and env set-ups that one command
    # builds serve the later ones; none of them may carry anything over
    search_table = tmp_path / "out" / "search_psiminus_len4.tsv"
    replay_table = tmp_path / "replay.tsv"
    search = (["search", str(micro_config), "--target", "psi-", "--max-len", "4"],
              search_table)
    replay = (["replay", str(micro_config), "--sequence", "U2 Px+ U1 Py+ U1 Px+ U1 Px+",
               "--out", str(replay_table)], replay_table)
    # custom starts that compare equal but differ in the sign of a zero; the
    # evaluation table shows each start's label in its start column
    spec = parse_config(micro_config).mlp
    checkpoint = tmp_path / "init.npz"
    save_params(checkpoint, init_params(spec), spec)
    starts = []
    for i, amplitudes in enumerate(["1, -0.0", "1, 0", "0.6, -0.0+0.8j", "0.6, 0.8j",
                                    "0.6-0j, 0.8j"]):
        path = tmp_path / f"start{i}.cfg"
        path.write_text(MICRO_CONFIG.replace(
            "start = x+", f"start = {amplitudes}"))
        starts.append((["evaluate", str(path), "--checkpoint", str(checkpoint),
                        "--episodes", "2", "--eps", "0"], tmp_path / "out" / "evaluation.tsv"))

    def tables(*commands, cold=False):
        if cold:
            for cache in (cli.build_parser, qsteer_config.parse_config_text,
                          qsteer_env._setup):
                cache.cache_clear()
        out = []
        for argv, table in commands:
            assert cli.main(argv) == 0
            out.append(table.read_bytes())
            table.unlink()
        return out

    first_search, first_replay = tables(search, replay, cold=True)
    assert tables(search, replay, search) == [first_search, first_replay, first_search]
    assert tables(replay, search, cold=True) == [first_replay, first_search]
    alone = [tables(start, cold=True)[0] for start in starts]
    assert tables(*starts, cold=True) == alone
    assert tables(*starts[::-1], cold=True) == alone[::-1]
    # equal starts, one table
    assert alone[0] == alone[1]
    assert alone[2] == alone[3] == alone[4]


class TestArgv:
    """The parser types, bounds and refuses every flag: a bad argv is one
    error line naming the flag and exit 2, not argparse's usage block and
    SystemExit."""

    @pytest.mark.parametrize("argv, flag", [
        (["search", "{cfg}", "--target", "psi+", "--max-len", "abc"], "--max-len"),
        (["evaluate", "{cfg}", "--checkpoint", "x.npz", "--episodes", "0"], "--episodes"),
        (["evaluate", "{cfg}", "--checkpoint", "x.npz", "--eps", "nan"], "--eps"),
        (["search", "{cfg}", "--target", "psi+", "--max-len", "2", "--rate-cutoff", "2"],
         "--rate-cutoff"),
        (["search", "{cfg}", "--target", "psi+", "--max-len", "2", "--show", "-1"], "--show"),
        (["search", "{cfg}", "--target", "bogus", "--max-len", "2"], "--target"),
        (["replay", "{cfg}", "--sequence", "Px+", "--start", "bogus"], "--start"),
        (["replay", "{cfg}"], "--sequence"),
        ([], "command"),
        (["replay", "{cfg}", "--sequence", "Px+", "--bogus"], "--bogus"),
    ], ids=["non-number", "episodes", "eps-nan", "rate-cutoff", "show", "target", "start",
            "missing-flag", "no-command", "unknown-flag"])
    def test_bad_argv_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = str(CONFIG_DIR / "psi_minus_fixed.cfg")
        assert cli.main([cfg if a == "{cfg}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and flag in line
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["search", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qsteer search")


class TestSearch:
    def test_small_search_writes_results(self, micro_config, tmp_path, capsys):
        assert cli.main(["search", str(micro_config), "--target", "psi-",
                         "--max-len", "4"]) == 0
        files = list((tmp_path / "out").glob("search_*_len4.tsv"))
        assert files, "expected a search results table"
        body = files[0].read_text().splitlines()
        assert body[2] == "steps\tsuccess_rate\tfinal_fidelity\tsequence"
        assert len(body) > 3
        assert capsys.readouterr().out.startswith(
            f"{len(body) - 3} successful sequences up to length 4 for target psi-\n")

    @pytest.mark.parametrize("output_dir", ["runs/50%", "%(here)s/x"])
    def test_output_dir_is_literal(self, micro_config, tmp_path, output_dir):
        # a % used to be read as interpolation and end in a traceback
        micro_config.write_text(MICRO_CONFIG.replace("output_dir = out",
                                                     f"output_dir = {output_dir}"))
        assert cli.main(["search", str(micro_config), "--target", "psi-",
                         "--max-len", "1"]) == 0
        assert list((tmp_path / output_dir).glob("search_*_len1.tsv"))

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

    @pytest.mark.parametrize("max_len", ["5200", str(10 ** 18)])
    def test_any_length_past_the_budget_is_refused_at_once(self, tmp_path, max_len):
        # in a fresh interpreter, so that a refusal that never returns is
        # cut off by the timeout: the budget's estimate must not grow with
        # the length, and no huge integer may reach the message
        code = ("import sys, time; from qsteer import cli; t = time.perf_counter(); "
                "code = cli.main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)")
        env = dict(os.environ, **{cli.OUTPUT_ROOT_ENV: str(tmp_path)})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(CONFIG_DIR.parent / "src"),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, "search",
                               str(CONFIG_DIR / "psi_minus_fixed.cfg"),
                               "--target", "psi+", "--max-len", max_len],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 4, done.stderr
        assert f"max_len {max_len}" in done.stderr
        assert float(done.stdout.splitlines()[-1]) < 1.0

    def test_refused_search_makes_no_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        assert cli.main(["search", str(CONFIG_DIR / "psi_minus_fixed.cfg"),
                         "--target", "psi+", "--max-len", "20"]) == 4
        assert list(tmp_path.iterdir()) == []
        assert "max_len 20 at n_bath 2" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("start = x+", "start = 0, 0", "error: env: start (0j, 0j) is not two amplitudes"),
        ("start = x+", "start = nan, 1", "error: env.start: must be finite"),
        ("start = x+", "start = bogus", "error: env: start must be one of"),
        ("coupling = 1, 0, 0", "coupling = nan, 0, 0", "model.coupling"),
        ("tau = 1", "tau = inf", "model.tau"),
        ("eps_decay_steps = 5", "eps_decay_steps = 0", "eps_decay_steps"),
        ("eps_decay_steps = 5", "eps_decay_steps = -5", "eps_decay_steps"),
        ("learning_rate = 1e-3", "learning_rate = 0", "learning_rate"),
        ("learning_rate = 1e-3", "learning_rate = -1", "learning_rate"),
        ("grad_clip = 10", "grad_clip = 0", "grad_clip"),
        ("grad_clip = 10", "grad_clip = -10", "grad_clip"),
        ("init_seed = 0", "init_seed = -1", "init_seed"),
        ("master_seed = 5", "master_seed = -1", "master_seed"),
        ("checkpoint_steps = 3", "checkpoint_steps = 0", "checkpoint_steps"),
        ("checkpoint_steps = 3", "checkpoint_steps = 3, -3", "checkpoint_steps"),
        ("replay_capacity = 2000", "replay_capacity = 31", "batch_size"),
    ], ids=["zero_start", "nan_start", "unknown_start", "nan_coupling", "inf_tau", "zero_decay",
            "negative_decay", "zero_learning_rate", "negative_learning_rate", "zero_clip",
            "negative_clip", "negative_init_seed", "negative_master_seed",
            "zero_checkpoint", "negative_checkpoint", "batch_over_capacity"])
    def test_bad_numbers_are_config_errors(self, micro_config, tmp_path, capsys, old, new,
                                           field):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace(old, new))
        assert cli.main(["search", str(bad), "--target", "psi-", "--max-len", "2"]) == 2
        assert field in capsys.readouterr().err

    def test_unusable_output_dir_stops_before_the_search(self, micro_config, tmp_path,
                                                         capsys, monkeypatch):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("output_dir = out", "output_dir = blocker/sub"))

        def no_search(*args, **kwargs):
            raise AssertionError("searched before making the output directory")
        monkeypatch.setattr(cli, "exhaustive_search", no_search)
        assert cli.main(["search", str(bad), "--target", "psi-", "--max-len", "4"]) == 2
        err = capsys.readouterr().err
        assert "run.output_dir" in err and "blocker/sub" in err

    def test_random_start_needs_a_start_flag(self, micro_config, tmp_path, capsys):
        random_cfg = tmp_path / "random.cfg"
        random_cfg.write_text(MICRO_CONFIG.replace("start = x+", "start = random"))
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
        random_cfg.write_text(MICRO_CONFIG.replace("start = x+", "start = random"))
        assert cli.main(["search", str(random_cfg)] + search[2:] + ["--start", "x+"]) == 0
        assert rows() == fixed
        assert cli.main(search + ["--start", "x-"]) == 0
        assert rows() != fixed


class TestStartHash:
    """An override equal to the file's value keeps the file's hash: --start
    NAME on a file whose start is NAME heads its tables with that file's
    hash, and any other start with a hash of its own."""

    def header(self, path):
        return path.read_text().splitlines()[0]

    def run(self, tmp_path, monkeypatch, command, config, start):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / start))
        flags = {"replay": ["--sequence", "U1 Px+", "--out", str(tmp_path / f"{start}.tsv")],
                 "evaluate": ["--checkpoint", str(REFERENCE_DIR / "psi_minus_fixed.npz"),
                              "--episodes", "2"],
                 "search": ["--target", "psi-", "--max-len", "2"]}[command]
        assert cli.main([command, str(config)] + flags + ["--start", start]) == 0
        if command == "replay":
            return self.header(tmp_path / f"{start}.tsv")
        (table,) = (tmp_path / start).rglob("*.tsv")
        return self.header(table)

    @pytest.mark.parametrize("start", SPIN_STATES)
    @pytest.mark.parametrize("command", ["replay", "evaluate", "search"])
    def test_named_start_keeps_the_file_hash(self, tmp_path, monkeypatch, command, start):
        config = tmp_path / "named.cfg"
        config.write_text((CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
            "start = x+", f"start = {start}"))
        cfg = parse_config(config)
        assert cfg.env.start == start
        header = self.run(tmp_path, monkeypatch, command, config, start)
        assert header == f"# config_hash={config_hash(cfg)} master_seed={cfg.master_seed}"
        other = "z-" if start == "z+" else "z+"
        assert self.run(tmp_path, monkeypatch, command, config, other) != header

    def test_random_on_the_random_file(self, tmp_path, monkeypatch):
        config = CONFIG_DIR / "psi_minus_random.cfg"
        cfg = parse_config(config)
        header = self.run(tmp_path, monkeypatch, "evaluate", config, "random")
        assert header == f"# config_hash={config_hash(cfg)} master_seed={cfg.master_seed}"

    def test_x_plus_on_a_random_start_file(self, tmp_path, monkeypatch):
        config = CONFIG_DIR / "psi_minus_random.cfg"
        cfg = parse_config(config)
        fixed = dataclasses.replace(cfg, env=dataclasses.replace(cfg.env, start="x+"))
        header = self.run(tmp_path, monkeypatch, "replay", config, "x+")
        assert header == f"# config_hash={config_hash(fixed)} master_seed={cfg.master_seed}"
        assert config_hash(fixed) != config_hash(cfg)


class TestStartKey:
    """[env] start is a spin-state name, random or two amplitudes; the keys
    it replaced are unknown keys."""

    @pytest.mark.parametrize("old", ["start_mode = fixed_xplus", "custom_start = 0.6, 0.8j"])
    def test_replaced_keys_are_unknown(self, micro_config, tmp_path, capsys, old):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("start = x+", old))
        assert cli.main(["replay", str(bad), "--sequence", "U1 Px+"]) == 2
        assert capsys.readouterr().err == f"error: unknown key(s) env.{old.split()[0]}\n"

    def test_amplitudes_run_as_their_named_state(self, micro_config, tmp_path):
        # y+ by amplitudes replays as y+ by name: the same rows under another hash
        tables = []
        for start in ("y+", "0.7071067811865476, 0.7071067811865476j"):
            path = tmp_path / "start.cfg"
            path.write_text(MICRO_CONFIG.replace("start = x+", f"start = {start}"))
            out = tmp_path / "replay.tsv"
            assert cli.main(["replay", str(path), "--sequence", "U2 Px+ U1 Py+",
                             "--out", str(out)]) == 0
            tables.append(out.read_text().splitlines())
        assert tables[0][1:] == tables[1][1:] and tables[0][0] != tables[1][0]


class TestTargetMixKey:
    """[agent] target_mix alone picks the target rule; the algorithm key it
    replaced is an unknown key."""

    @pytest.mark.parametrize("old", ["algorithm = dqn", "algorithm = ddqn"])
    def test_algorithm_key_is_unknown(self, micro_config, tmp_path, capsys, old):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MICRO_CONFIG.replace("target_mix = none", f"{old}\ntarget_mix = none"))
        assert cli.main(["train", str(bad)]) == 2
        assert capsys.readouterr().err == "error: unknown key(s) agent.algorithm\n"


class TestHistogram:
    def test_counts_from_records_file(self, tmp_path, capsys):
        table = write_table(tmp_path / "evaluation.tsv", [
            ("success", "U1 Px+ U1 Px+ U1 Px+"),
            ("timeout", "U1 Py- U1 Px+"),
        ])
        assert cli.main(["histogram", "--records", str(table)]) == 0
        out = capsys.readouterr().out
        assert "first\tsecond\tcount" in out
        assert "Px+\tPx+\t2" in out
        assert "Py-\tPx+\t1" in out

    def test_unique_successful_filter(self, tmp_path, capsys):
        table = write_table(tmp_path / "evaluation.tsv", [
            ("success", "U1 Px+ U1 Px+"),
            ("success", "U1 Px+ U1 Px+"),
            ("fatal", "U1 Py- U1 Py-"),
        ])
        assert cli.main(["histogram", "--records", str(table),
                         "--unique-successful"]) == 0
        out = capsys.readouterr().out
        assert "Px+\tPx+\t1" in out
        assert "Py-" not in out

    def test_missing_records_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert cli.main(["histogram", "--records", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "--records" in err and str(missing) in err

    @pytest.mark.parametrize("content", [
        b"\xff not utf-8\n",
        EVAL_COLUMNS.encode() + b"\n0\tx+\t0\tsuccess\t2\t1\t1\tU1 Pq+\t1\n",
        EVAL_COLUMNS.encode() + b"\n0\tx+\t0\tsuccess\t2\t1\t1\tU1 Px+\n",
    ], ids=["not-utf8", "bad-token", "wrong-field-count"])
    def test_malformed_records_is_a_config_error(self, tmp_path, capsys, content):
        records = tmp_path / "evaluation.tsv"
        records.write_bytes(content)
        assert cli.main(["histogram", "--records", str(records)]) == 2
        err = capsys.readouterr().err
        assert "--records" in err and str(records) in err

    def test_table_without_sequence_and_outcome_columns(self, tmp_path, capsys):
        table = write_table(tmp_path / "learning_curve.tsv", [],
                            columns="step\tepsilon\tavg_return")
        assert cli.main(["histogram", "--records", str(table)]) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "'sequence'" in err and "'outcome'" in err

    def test_malformed_records_error_names_the_line(self, tmp_path, capsys):
        # two comment lines, the column names, one good row: the bad row is line 5
        for sequence, message in (
                ("U1 Pq+", "unknown action token 'Pq+' (token 2)"),
                ("U1 Px+\textra", "expected 9 tab-separated fields, got 10")):
            table = write_table(tmp_path / "evaluation.tsv",
                                [("success", "U1 Px+ U1 Px+"), ("timeout", sequence)])
            assert cli.main(["histogram", "--records", str(table)]) == 2
            assert f"--records: {table}: line 5: {message}" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        records = tmp_path / "empty.tsv"
        records.write_text("")
        assert cli.main(["histogram", "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "first\tsecond\tcount"

    def test_evaluate_then_histogram(self, micro_config, tmp_path, capsys):
        # the baseline table must give the histogram of the in-process
        # records, and carry each record's branch probabilities; at
        # theta = 0.9 some random episodes succeed, some on the same route
        loose = tmp_path / "loose.cfg"
        loose.write_text(MICRO_CONFIG.replace("theta = 0.99", "theta = 0.9"))
        cfg = parse_config(loose)
        checkpoint = tmp_path / "init.npz"
        save_params(checkpoint, init_params(cfg.mlp), cfg.mlp)
        assert cli.main(["evaluate", str(loose), "--checkpoint", str(checkpoint),
                         "--episodes", "200", "--baseline"]) == 0
        table = tmp_path / "out" / "evaluation_baseline.tsv"
        capsys.readouterr()
        assert cli.main(["histogram", "--records", str(table), "--unique-successful"]) == 0
        printed = capsys.readouterr().out.splitlines()

        records = evaluate_policy(load_params(checkpoint)[0], cfg.env, 1.0, 200,
                                  cfg.master_seed, seed_stream=4).records
        counts = combination_histogram(
            dict.fromkeys(rec.actions for rec in records if rec.succeeded))
        assert counts, "expected successful baseline episodes with adjacent pairs"
        expected = [f"{ACTION_TOKENS[a]}\t{ACTION_TOKENS[b]}\t{n}"
                    for (a, b), n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert printed == ["first\tsecond\tcount"] + expected

        rows = [line.split("\t") for line in table.read_text().splitlines()[3:]]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert parse_sequence(row[7]) == rec.actions
            probs = tuple(float(p) for p in row[8].split(","))
            assert probs == pytest.approx(rec.probs, rel=1e-11, abs=0)
