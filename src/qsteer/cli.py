"""Command-line front end: train, evaluate, replay, search, histogram.

Runs are driven entirely by a configuration file; the other flags select
operational details (which checkpoint, how many episodes, which sequence)
or override its start state and target. Every output file starts with a
header naming the hash and master seed of the configuration that ran,
overrides applied, and a manifest records versions, so any table can be
traced to the exact run that produced it. Outputs are plain
tab-separated tables; plotting is downstream.

Exit codes: 0 success, 2 configuration error (a bad flag included),
3 numeric failure, 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, __version__
from .agent import evaluate_policy, run_training
from .config import RunConfig, config_hash, parse_config, serialize_config
from .env import ACTION_TOKENS, QSEEnv
from .errors import (
    BudgetExceeded,
    ConfigError,
    QsteerError,
    SchemaMismatch,
    SequenceParseError,
)
from .model import BELL_NAMES, SPIN_STATES
from .network import load_params
from .sequences import (
    SEARCH_WORK_BUDGET,
    check_search_budget,
    combination_histogram,
    exhaustive_search,
    format_sequence,
    parse_sequence,
    replay_sequence,
)

OUTPUT_ROOT_ENV = "QSTEER_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _output_dir(cfg: RunConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    out = Path(cfg.output_dir)
    if root:
        out = Path(root) / out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        where = f" under {OUTPUT_ROOT_ENV}={root}" if root else ""
        raise ConfigError(f"run.output_dir {cfg.output_dir!r}{where}: cannot make {out}: "
                          f"{exc.strerror or exc}") from exc
    return out


def _header(cfg: RunConfig) -> list[str]:
    return [
        f"# config_hash={config_hash(cfg)} master_seed={cfg.master_seed}",
        f"# qsteer={__version__} numpy={np.__version__} python={platform.python_version()}",
    ]


def _write_table(path: Path, cfg: RunConfig, columns: list[str], rows) -> None:
    lines = _header(cfg)
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(x: float) -> str:
    return format(x, ".10g")


# -- subcommands -------------------------------------------------------

def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    out = _output_dir(cfg)
    late = [step for step in cfg.checkpoint_steps if step > cfg.agent.training_steps]
    if late:
        print(f"warning: run.checkpoint_steps {late} are past agent.training_steps; "
              "no checkpoint is written for them", file=sys.stderr)

    def progress(row):
        if args.verbose and (row.step % 50 == 0 or row.step == 1):
            print(f"step {row.step:5d}  eps={row.epsilon:.3f}  "
                  f"avg_return={row.avg_return:8.2f}  "
                  f"success={row.success_fraction:.2f}", file=sys.stderr)

    result = run_training(cfg.env, cfg.agent, cfg.mlp, cfg.master_seed,
                          checkpoint_steps=cfg.checkpoint_steps,
                          checkpoint_dir=str(out), progress=progress)
    rows = [
        (str(r.step), _fmt(r.epsilon), _fmt(r.avg_return),
         _fmt(r.success_fraction), _fmt(r.loss_mean))
        for r in result.log
    ]
    _write_table(out / "learning_curve.tsv", cfg,
                 ["step", "epsilon", "avg_return", "success_fraction", "loss_mean"],
                 rows)

    manifest = _header(cfg)
    manifest.append(f"# wall_seconds={result.wall_seconds:.1f}")
    manifest.append(f"# openblas_threads={BLAS_THREADS}")
    manifest.append(f"# best_step={result.best_step} best_avg_return={_fmt(result.best_avg_return)}")
    manifest.append("")
    manifest.append(serialize_config(cfg))
    (out / "manifest.txt").write_text("\n".join(manifest), encoding="utf-8")
    print(f"wrote {out / 'learning_curve.tsv'}")
    print(f"best step {result.best_step} (avg return {result.best_avg_return:.2f}); "
          f"checkpoints in {out}")
    return EXIT_OK


def _run_config(args) -> RunConfig:
    """The configuration the command runs: the file's, with --start and --target applied."""
    cfg = parse_config(args.config)
    env, start, target = cfg.env, args.start, getattr(args, "target", None)
    if start is not None:
        env = dataclasses.replace(env, start=start)
    if target:
        env = dataclasses.replace(env, target=target)
    if args.command != "evaluate" and env.start == "random":
        given = "--start random" if start == "random" else "the config's random start"
        raise ConfigError(f"{args.command} needs a definite start state, not {given}; "
                          f"pass --start with one of {sorted(SPIN_STATES)}")
    return dataclasses.replace(cfg, env=env)


def cmd_evaluate(args) -> int:
    cfg = _run_config(args)
    try:
        params, _spec, meta = load_params(args.checkpoint, expected_spec=cfg.mlp)
    except SchemaMismatch as exc:
        raise ConfigError(f"--checkpoint: {exc}") from exc
    out = _output_dir(cfg)

    runs = [("trained", args.eps)]
    if args.baseline:
        runs.append(("baseline", 1.0))

    for tag, eps in runs:
        res = evaluate_policy(params, cfg.env, eps, args.episodes, cfg.master_seed,
                              seed_stream=3 if tag == "trained" else 4)
        routes = {}  # the fields of each distinct route, formatted once
        rows = []
        for i, (ret, rec) in enumerate(zip(res.returns, res.records)):
            # equal floats print alike but for signed zeros, and a zero
            # probability is fatal, so only the last can be one
            key = (rec.actions, rec.probs, math.copysign(1.0, rec.probs[-1]))
            route = routes.get(key)
            if route is None:
                route = routes[key] = (
                    str(len(rec.actions)), _fmt(rec.success_rate), format_sequence(rec.actions),
                    ",".join(format(p, ".12g") for p in rec.probs))
            steps, rate, sequence, probs = route
            rows.append((str(i), rec.start_label, _fmt(ret), rec.outcome, steps, rate,
                         _fmt(rec.final_fidelity), sequence, probs))
        suffix = "" if tag == "trained" else "_baseline"
        _write_table(out / f"evaluation{suffix}.tsv", cfg,
                     ["episode", "start", "return", "outcome", "steps",
                      "success_rate", "final_fidelity", "sequence", "probs"], rows)
        print(f"{tag} (eps={eps}, checkpoint step {meta.get('step')}): "
              f"mean return {res.mean_return:.2f}, "
              f"success {res.success_fraction:.1%} over {args.episodes} episodes")
    print(f"wrote evaluation tables to {out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = _run_config(args)
    record, diagnostics = replay_sequence(QSEEnv(cfg.env), args.sequence)

    rows = [
        (str(step), ACTION_TOKENS[a], _fmt(prob), _fmt(fid), _fmt(td), _fmt(pur))
        for step, (a, prob, (fid, td, pur)) in enumerate(
            zip(record.actions, record.probs, diagnostics), start=1)
    ]
    columns = ["step", "action", "success_prob", "fidelity", "trace_distance", "purity"]
    if args.out:
        try:
            _write_table(Path(args.out), cfg, columns, rows)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(row))
    # a timeout ends the step that reached max_steps
    status = {"fatal": "aborted (branch probability under floor)",
              "timeout": f"timeout at max_steps = {len(record.actions)}",
              "continue": "below threshold"}.get(record.outcome, record.outcome)
    if len(record.actions) < len(args.sequence):
        status += f"; the last {len(args.sequence) - len(record.actions)} action(s) not run"
    print(f"sequence: {format_sequence(record.actions)}  [start {record.start_label}, "
          f"target {cfg.env.target}]")
    print(f"final fidelity {record.final_fidelity:.5f}, "
          f"success rate {100 * record.success_rate:.3f}%  ({status})")
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = _run_config(args)
    # refused before it makes the output directory
    check_search_budget(cfg.env, args.max_len)
    out = _output_dir(cfg)
    records = exhaustive_search(QSEEnv(cfg.env), args.max_len, rate_cutoff=args.rate_cutoff)
    rows = [
        (str(len(rec.actions)), _fmt(rec.success_rate), _fmt(rec.final_fidelity),
         format_sequence(rec.actions))
        for rec in records
    ]
    path = out / f"search_{args.target.replace('+', 'plus').replace('-', 'minus')}_len{args.max_len}.tsv"
    _write_table(path, cfg, ["steps", "success_rate", "final_fidelity", "sequence"], rows)
    print(f"{len(records)} successful sequences up to length {args.max_len} "
          f"for target {args.target}")
    for rec in records[: args.show]:
        print(f"  {format_sequence(rec.actions):40s} rate {100 * rec.success_rate:7.3f}%  "
              f"fidelity {rec.final_fidelity:.5f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_histogram(args) -> int:
    where = f"--records: {args.records}"
    try:
        with open(args.records, "r", encoding="utf-8") as fh:
            rows = [(lineno, line.rstrip("\n").split("\t"))
                    for lineno, line in enumerate(fh, start=1)
                    if line.strip() and not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"--records: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    sequences = []
    if rows:
        columns = rows[0][1]
        if "sequence" not in columns or "outcome" not in columns:
            raise ConfigError(f"{where}: not an evaluation table; the header needs "
                              f"'sequence' and 'outcome' columns")
        seq_col, outcome_col = columns.index("sequence"), columns.index("outcome")
        for lineno, fields in rows[1:]:
            if len(fields) != len(columns):
                raise ConfigError(f"{where}: line {lineno}: expected {len(columns)} "
                                  f"tab-separated fields, got {len(fields)}")
            try:
                actions = parse_sequence(fields[seq_col])
            except SequenceParseError as exc:
                raise ConfigError(f"{where}: line {lineno}: {exc}") from exc
            if not args.unique_successful or fields[outcome_col] == "success":
                sequences.append(actions)
    if args.unique_successful:
        sequences = list(dict.fromkeys(sequences))
    counts = combination_histogram(sequences)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    print("\t".join(["first", "second", "count"]))
    for (a, b), count in ordered:
        print(f"{ACTION_TOKENS[a]}\t{ACTION_TOKENS[b]}\t{count}")
    return EXIT_OK


# -- entry point -------------------------------------------------------

def _refuse(message: str):
    raise ConfigError(message)


class _Parser(argparse.ArgumentParser):
    error = staticmethod(_refuse)  # main prints the message on one line; no usage, no exit


def _number(kind, low, high=math.inf):
    """A flag's type: a kind number in [low, high]; nan is refused."""
    def convert(text):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {text}")
        return value
    convert.__name__ = kind.__name__  # argparse's "invalid int value: 'abc'"
    return convert


def _sequence(text: str) -> tuple[int, ...]:
    try:
        return parse_sequence(text)
    except SequenceParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use: parsing
    leaves no state in it. It types, bounds and refuses every flag."""
    parser = _Parser(
        prog="qsteer",
        description="Measurement-sequence engineering on a central-spin system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    start = dict(choices=[*SPIN_STATES, "random"], help="override the start state")

    p = sub.add_parser("train", help="train an agent per the configuration")
    p.add_argument("config")
    p.add_argument("--verbose", action="store_true", help="progress lines to stderr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run a trained checkpoint without learning")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eps", type=_number(float, 0, 1), default=0.1)
    p.add_argument("--episodes", type=_number(int, 1), default=500)
    p.add_argument("--baseline", action="store_true",
                   help="also evaluate a random policy (eps=1) for comparison")
    p.add_argument("--start", **start)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="deterministically replay a sequence")
    p.add_argument("config")
    p.add_argument("--sequence", type=_sequence, required=True,
                   help="tokens like 'U2 Px+ U1 Px+' or 'Px+ - Px-'")
    p.add_argument("--start", **start)
    p.add_argument("--target", default=None, choices=BELL_NAMES)
    p.add_argument("--out", default=None, help="write the diagnostic table here")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("search", help="enumerate successful sequences")
    p.add_argument("config")
    p.add_argument("--target", required=True, choices=BELL_NAMES)
    p.add_argument("--max-len", type=_number(int, 0), required=True,
                   help=f"the longest sequence; exit 4 past the work budget, "
                        f"7^(L-2) dim^3 <= {SEARCH_WORK_BUDGET:g} for L = min(max-len, "
                        f"max_steps)")
    p.add_argument("--rate-cutoff", type=_number(float, 0, 1), default=1e-6)
    p.add_argument("--start", **start)
    p.add_argument("--show", type=_number(int, 0), default=10, help="print the top N results")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("histogram",
                       help="adjacent action-pair counts from an evaluation table")
    p.add_argument("--records", required=True, help="an evaluation*.tsv from evaluate")
    p.add_argument("--unique-successful", action="store_true")
    p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (QsteerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, ConfigError)
                else EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
