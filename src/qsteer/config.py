"""Run configuration: a flat, sectioned key-value text format.

A run is fully determined by its configuration file plus nothing else;
the manifest written next to every output embeds the canonical
serialization's hash so results can be traced back. Sections: [model],
[env], [agent], [mlp], [run]. The network input width is derived from
the model (encoding length), never set by hand.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .agent import AgentConfig
from .env import EnvConfig, encoding_length
from .errors import ConfigError
from .model import ModelParams, hilbert_dim
from .network import MLPSpec

__all__ = ["RunConfig", "parse_config", "parse_config_text", "serialize_config",
           "config_hash"]


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    env: EnvConfig
    agent: AgentConfig
    mlp: MLPSpec
    master_seed: int = 0
    checkpoint_steps: tuple[int, ...] = ()
    output_dir: str = "runs/default"


class _Section:
    """Typed reads from one config section with field-named errors."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self._section = parser[name] if parser.has_section(name) else {}
        self._read: set[str] = set()

    def unknown_keys(self) -> list[str]:
        """Keys present in the section that no read asked for."""
        return [f"{self.name}.{key}" for key in self._section if key not in self._read]

    def _convert(self, key: str, conv, default):
        self._read.add(key)
        if key not in self._section:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        raw = self._section[key].strip()
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{self.name}.{key}: {exc}") from exc

    def get_float(self, key, default=None):
        return self._convert(key, float, default)

    def get_int(self, key, default=None):
        return self._convert(key, int, default)

    def get_str(self, key, default=None):
        return self._convert(key, str, default)

    def get_floats(self, key, default=None):
        return self._convert(
            key, lambda raw: tuple(float(x) for x in raw.split(",")), default
        )

    def get_ints(self, key, default=None):
        return self._convert(
            key,
            lambda raw: tuple(int(x) for x in raw.split(",")) if raw else (),
            default,
        )

    def get_optional_float(self, key, default=None):
        return self._convert(
            key, lambda raw: None if raw.lower() in ("", "none") else float(raw), default
        )

    def get_optional_int(self, key, default=None):
        return self._convert(
            key, lambda raw: None if raw.lower() in ("", "none") else int(raw), default
        )


_REQUIRED = object()
_SECTIONS = ("model", "env", "agent", "mlp", "run")


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError naming the bad field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable configuration: {exc}") from exc

    unknown = [name for name in parser.sections() if name not in _SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section(s) {', '.join(f'[{n}]' for n in unknown)}; "
                          f"expected {', '.join(f'[{n}]' for n in _SECTIONS)}")
    sections = [_Section(parser, name) for name in _SECTIONS]
    model_s, env_s, agent_s, mlp_s, run_s = sections

    try:
        coupling = model_s.get_floats("coupling", (1.0, 0.0, 0.0))
        if len(coupling) != 3:
            raise ConfigError(
                f"model.coupling: expected 3 comma-separated values, got {len(coupling)}"
            )
        model = ModelParams.uniform(
            n_bath=model_s.get_int("n_bath", 2),
            coupling=coupling,
            omega=model_s.get_float("omega", 0.5),
            tau=model_s.get_float("tau", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    try:
        custom = env_s.get_str("custom_start", None)
        custom_start = None
        if custom is not None:
            parts = [complex(p.strip()) for p in custom.split(",")]
            if len(parts) != 2:
                raise ValueError("custom_start needs exactly 2 complex amplitudes")
            custom_start = (parts[0], parts[1])
        env = EnvConfig(
            model=model,
            target=env_s.get_str("target", "psi-"),
            theta=env_s.get_float("theta", 0.99),
            r_plus=env_s.get_float("r_plus", 10.0),
            r_minus=env_s.get_float("r_minus", -1.0),
            r_fatal=env_s.get_float("r_fatal", -51.0),
            max_steps=env_s.get_int("max_steps", 50),
            start_mode=env_s.get_str("start_mode", "fixed_xplus"),
            custom_start=custom_start,
            floor=env_s.get_float("floor", 1e-8),
        )
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from exc

    try:
        agent = AgentConfig(
            gamma=agent_s.get_float("gamma", 0.95),
            eps_start=agent_s.get_float("eps_start", 1.0),
            eps_min=agent_s.get_float("eps_min", 0.1),
            eps_decay_steps=agent_s.get_optional_int("eps_decay_steps", None),
            episodes_per_training_step=agent_s.get_int("episodes_per_training_step", 20),
            batch_size=agent_s.get_int("batch_size", 64),
            algorithm=agent_s.get_str("algorithm", "dqn"),
            replay_capacity=agent_s.get_int("replay_capacity", 50_000),
            target_mix=agent_s.get_float("target_mix", 0.01),
            training_steps=agent_s.get_int("training_steps", 800),
            updates_per_training_step=agent_s.get_int("updates_per_training_step", 1),
            learning_rate=agent_s.get_float("learning_rate", 1e-3),
            grad_clip=agent_s.get_optional_float("grad_clip", None),
        )
    except ValueError as exc:
        raise ConfigError(f"agent: {exc}") from exc

    try:
        mlp = MLPSpec(
            input_size=encoding_length(hilbert_dim(model.n_bath)),
            hidden=mlp_s.get_ints("hidden", (128, 128)),
            output_size=7,
            activation=mlp_s.get_str("activation", "relu"),
            init_seed=mlp_s.get_int("init_seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(f"mlp: {exc}") from exc

    cfg = RunConfig(
        model=model,
        env=env,
        agent=agent,
        mlp=mlp,
        master_seed=run_s.get_int("master_seed", 0),
        checkpoint_steps=run_s.get_ints("checkpoint_steps", ()),
        output_dir=run_s.get_str("output_dir", "runs/default"),
    )
    unknown = [key for section in sections for key in section.unknown_keys()]
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)}")
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return parse_config_text(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    lines.append("[model]")
    lines.append(f"n_bath = {cfg.model.n_bath}")
    g = cfg.model.couplings[0] if cfg.model.couplings else (1.0, 0.0, 0.0)
    lines.append(f"coupling = {g[0]:.12g}, {g[1]:.12g}, {g[2]:.12g}")
    lines.append(f"omega = {cfg.model.omega:.12g}")
    lines.append(f"tau = {cfg.model.tau:.12g}")
    lines.append("")
    lines.append("[env]")
    lines.append(f"target = {cfg.env.target}")
    lines.append(f"theta = {cfg.env.theta:.12g}")
    lines.append(f"r_plus = {cfg.env.r_plus:.12g}")
    lines.append(f"r_minus = {cfg.env.r_minus:.12g}")
    lines.append(f"r_fatal = {cfg.env.r_fatal:.12g}")
    lines.append(f"max_steps = {cfg.env.max_steps}")
    lines.append(f"start_mode = {cfg.env.start_mode}")
    if cfg.env.custom_start is not None:
        c0, c1 = cfg.env.custom_start
        lines.append(f"custom_start = {c0}, {c1}")
    lines.append(f"floor = {cfg.env.floor:.12g}")
    lines.append("")
    lines.append("[agent]")
    lines.append(f"gamma = {cfg.agent.gamma:.12g}")
    lines.append(f"eps_start = {cfg.agent.eps_start:.12g}")
    lines.append(f"eps_min = {cfg.agent.eps_min:.12g}")
    eds = cfg.agent.eps_decay_steps
    lines.append(f"eps_decay_steps = {'none' if eds is None else eds}")
    lines.append(f"episodes_per_training_step = {cfg.agent.episodes_per_training_step}")
    lines.append(f"batch_size = {cfg.agent.batch_size}")
    lines.append(f"algorithm = {cfg.agent.algorithm}")
    lines.append(f"replay_capacity = {cfg.agent.replay_capacity}")
    lines.append(f"target_mix = {cfg.agent.target_mix:.12g}")
    lines.append(f"training_steps = {cfg.agent.training_steps}")
    lines.append(f"updates_per_training_step = {cfg.agent.updates_per_training_step}")
    lines.append(f"learning_rate = {cfg.agent.learning_rate:.12g}")
    gc = cfg.agent.grad_clip
    lines.append(f"grad_clip = {'none' if gc is None else format(gc, '.12g')}")
    lines.append("")
    lines.append("[mlp]")
    lines.append(f"hidden = {', '.join(str(h) for h in cfg.mlp.hidden)}")
    lines.append(f"activation = {cfg.mlp.activation}")
    lines.append(f"init_seed = {cfg.mlp.init_seed}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"master_seed = {cfg.master_seed}")
    lines.append(f"checkpoint_steps = {', '.join(str(s) for s in cfg.checkpoint_steps)}")
    lines.append(f"output_dir = {cfg.output_dir}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
