"""Command-line front end: train, evaluate, replay, search, histogram.

Runs are driven entirely by a configuration file; the only other flags
select operational details (which checkpoint, how many episodes, which
sequence). Every output file starts with a header naming the
configuration hash and master seed, and a manifest records versions, so
any table can be traced to the exact run that produced it. Outputs are
plain tab-separated tables; plotting is downstream.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .agent import evaluate_policy, run_training
from .config import RunConfig, config_hash, parse_config, serialize_config
from .env import ACTION_TOKENS, EnvConfig, QSEEnv, start_state_vector
from .errors import (
    BudgetExceeded,
    ConfigError,
    QsteerError,
    SchemaMismatch,
    SequenceParseError,
)
from .network import load_params
from .sequences import (
    combination_histogram,
    diagnostic_trace,
    exhaustive_search,
    format_sequence,
    parse_records,
    parse_sequence,
    records_to_lines,
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
    out.mkdir(parents=True, exist_ok=True)
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
    manifest.append(f"# best_step={result.best_step} best_avg_return={_fmt(result.best_avg_return)}")
    manifest.append("")
    manifest.append(serialize_config(cfg))
    (out / "manifest.txt").write_text("\n".join(manifest), encoding="utf-8")
    print(f"wrote {out / 'learning_curve.tsv'}")
    print(f"best step {result.best_step} (avg return {result.best_avg_return:.2f}); "
          f"checkpoints in {out}")
    return EXIT_OK


def _env_with_start(cfg: RunConfig, start: str | None) -> EnvConfig:
    if start is None:
        return cfg.env
    if start == "random":
        return dataclasses.replace(cfg.env, start_mode="random_pure", custom_start=None)
    try:
        v = start_state_vector(start)
    except ValueError as exc:
        raise ConfigError(f"--start: {exc}") from exc
    return dataclasses.replace(cfg.env, start_mode="fixed_custom",
                               custom_start=(complex(v[0]), complex(v[1])))


def _definite_start(cfg: RunConfig, start: str | None, command: str) -> EnvConfig:
    env_cfg = _env_with_start(cfg, start)
    if env_cfg.start_mode == "random_pure":
        raise ConfigError(f"{command} needs a definite start state; pass --start")
    return env_cfg


def cmd_evaluate(args) -> int:
    cfg = parse_config(args.config)
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    if not 0 <= args.eps <= 1:
        raise ConfigError(f"--eps must be in [0, 1], got {args.eps}")
    env_cfg = _env_with_start(cfg, args.start)
    out = _output_dir(cfg)
    params, _spec, meta = load_params(args.checkpoint, expected_spec=cfg.mlp)

    runs = [("trained", args.eps)]
    if args.baseline:
        runs.append(("baseline", 1.0))

    for tag, eps in runs:
        res = evaluate_policy(params, env_cfg, eps, args.episodes, cfg.master_seed,
                              seed_stream=3 if tag == "trained" else 4)
        rows = [
            (str(i), rec.start_label, _fmt(ret), outcome, str(len(rec.actions)),
             _fmt(rec.success_rate), _fmt(rec.final_fidelity),
             format_sequence(rec.actions))
            for i, (ret, outcome, rec) in enumerate(
                zip(res.returns, res.outcomes, res.records))
        ]
        suffix = "" if tag == "trained" else "_baseline"
        _write_table(out / f"evaluation{suffix}.tsv", cfg,
                     ["episode", "start", "return", "outcome", "steps",
                      "success_rate", "final_fidelity", "sequence"], rows)
        rec_path = out / f"records{suffix}.txt"
        rec_lines = _header(cfg) + records_to_lines(res.records)
        rec_path.write_text("\n".join(rec_lines) + "\n", encoding="utf-8")
        print(f"{tag} (eps={eps}, checkpoint step {meta.get('step')}): "
              f"mean return {res.mean_return:.2f}, "
              f"success {res.success_fraction:.1%} over {args.episodes} episodes")
    print(f"wrote evaluation tables to {out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = parse_config(args.config)
    actions = parse_sequence(args.sequence)
    env_cfg = _definite_start(cfg, args.start, "replay")
    if args.target:
        env_cfg = dataclasses.replace(env_cfg, target=args.target)
    env = QSEEnv(env_cfg)
    start_state = env.reset()
    record = replay_sequence(start_state.rho, actions, env,
                             start_label=start_state.start_label)

    rows = [
        (str(step), token, _fmt(prob), _fmt(fid), _fmt(td), _fmt(pur))
        for step, token, prob, fid, td, pur in diagnostic_trace(record)
    ]
    columns = ["step", "action", "success_prob", "fidelity", "trace_distance", "purity"]
    if args.out:
        _write_table(Path(args.out), cfg, columns, rows)
        print(f"wrote {args.out}")
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(row))
    status = "aborted (branch probability under floor)" if record.aborted else (
        "success" if record.succeeded else "below threshold")
    print(f"sequence: {format_sequence(record.actions)}  [start {record.start_label}, "
          f"target {env_cfg.target}]")
    print(f"final fidelity {record.final_fidelity:.5f}, "
          f"success rate {100 * record.success_rate:.3f}%  ({status})")
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = parse_config(args.config)
    if args.max_len < 0:
        raise ConfigError(f"--max-len must be >= 0, got {args.max_len}")
    if not 0 <= args.rate_cutoff <= 1:
        raise ConfigError(f"--rate-cutoff must be in [0, 1], got {args.rate_cutoff}")
    if args.show < 0:
        raise ConfigError(f"--show must be >= 0, got {args.show}")
    env_cfg = _definite_start(cfg, args.start, "search")
    records = exhaustive_search(args.max_len, args.target, env_cfg,
                                rate_cutoff=args.rate_cutoff)
    out = _output_dir(cfg)
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
    with open(args.records, "r", encoding="utf-8") as fh:
        records = parse_records(fh)
    counts = combination_histogram(records, unique_successful=args.unique_successful)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    print("\t".join(["first", "second", "count"]))
    for (a, b), count in ordered:
        print(f"{ACTION_TOKENS[a]}\t{ACTION_TOKENS[b]}\t{count}")
    return EXIT_OK


# -- entry point -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteer",
        description="Measurement-sequence engineering on a central-spin system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an agent per the configuration")
    p.add_argument("config")
    p.add_argument("--verbose", action="store_true", help="progress lines to stderr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run a trained checkpoint without learning")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--baseline", action="store_true",
                   help="also evaluate a random policy (eps=1) for comparison")
    p.add_argument("--start", default=None,
                   help="override start state: x+, x-, y+, y-, z+, z-, or random")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="deterministically replay a sequence")
    p.add_argument("config")
    p.add_argument("--sequence", required=True,
                   help="tokens like 'U2 Px+ U1 Px+' or 'Px+ - Px-'")
    p.add_argument("--start", default=None)
    p.add_argument("--target", default=None, choices=["phi+", "phi-", "psi+", "psi-"])
    p.add_argument("--out", default=None, help="write the diagnostic table here")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("search", help="enumerate successful sequences")
    p.add_argument("config")
    p.add_argument("--target", required=True, choices=["phi+", "phi-", "psi+", "psi-"])
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--rate-cutoff", type=float, default=1e-6)
    p.add_argument("--start", default=None,
                   help="override start state: x+, x-, y+, y-, z+, z-")
    p.add_argument("--show", type=int, default=10, help="print the top N results")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("histogram", help="adjacent action-pair counts from records")
    p.add_argument("--records", required=True)
    p.add_argument("--unique-successful", action="store_true")
    p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SequenceParseError, SchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QsteerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
