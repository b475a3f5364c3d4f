"""Run configuration: a flat, sectioned key-value text format.

A run is fully determined by its configuration file plus nothing else;
the manifest written next to every output embeds the canonical
serialization's hash so results can be traced back. Sections: [model],
[env], [agent], [mlp], [run]. Each key is a field of its section's
dataclass and takes that field's default when absent; the dataclasses are
the one list of keys. The network input width is derived from the model
(encoding length), never set by hand.
"""

from __future__ import annotations

import cmath
import configparser
import hashlib
import typing
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

from .agent import AgentConfig
from .env import ACTION_COUNT, EnvConfig, encoding_length
from .errors import ConfigError
from .model import ModelParams
from .network import MLPSpec

__all__ = ["RunConfig", "parse_config", "parse_config_text", "serialize_config",
           "config_hash"]


@dataclass(frozen=True)
class RunConfig:
    """One run; its model is ``env.model``, written as the [model] section."""

    env: EnvConfig
    agent: AgentConfig
    mlp: MLPSpec
    master_seed: int = 0
    checkpoint_steps: tuple[int, ...] = ()
    output_dir: str = "runs/default"

    def __post_init__(self):
        # the text format holds one coupling vector for every bath spin
        couplings = self.env.model.couplings
        if len(set(couplings)) > 1:
            raise ValueError(f"model.couplings must be uniform, got {couplings}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        # steps past training_steps are reported by the train command, not
        # rejected: a shortened copy of a bundled config keeps its list
        if any(step < 1 for step in self.checkpoint_steps):
            raise ValueError(f"checkpoint_steps must be >= 1, got {self.checkpoint_steps}")


#: Section -> (dataclass, fields not read from the file). The skipped
#: fields are derived: the env's model is [model], the network's widths
#: follow from the model and the action set, and [run] holds the sections.
_SECTIONS = {
    "model": (ModelParams, ()),
    "env": (EnvConfig, ("model",)),
    "agent": (AgentConfig, ()),
    "mlp": (MLPSpec, ("input_size", "output_size")),
    "run": (RunConfig, ("env", "agent", "mlp")),
}


def _finite(tp):
    def convert(raw):
        value = tp(raw)
        if not cmath.isfinite(value):
            raise ValueError(f"must be finite, got {raw!r}")
        return value
    return convert


def _converter(tp):
    """Text-to-value converter for a field annotation; float and complex
    values must be finite."""
    args = typing.get_args(tp)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        conv = _converter(inner)
        return lambda raw: None if raw.lower() in ("", "none") else conv(raw)
    if tp in (float, complex):
        return _finite(tp)
    if typing.get_origin(tp) is not tuple:
        return tp
    if args[-1] is Ellipsis:
        item = _converter(args[0])
        return lambda raw: tuple(item(x.strip()) for x in raw.split(",")) if raw else ()
    items = [_converter(a) for a in args]

    def fixed(raw):
        parts = raw.split(",")
        if len(parts) != len(items):
            raise ValueError(
                f"expected {len(items)} comma-separated values, got {len(parts)}")
        return tuple(conv(x.strip()) for conv, x in zip(items, parts))
    return fixed


def _section_keys(cls, skipped):
    """File key -> (value getter, converter) for one section, in field order."""
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        if f.name in skipped:
            continue
        if cls is ModelParams and f.name == "couplings":
            # one vector in the file; ModelParams.uniform repeats it per spin
            keys["coupling"] = (lambda m: m.couplings[0],
                                _converter(typing.get_args(hints[f.name])[0]))
        else:
            keys[f.name] = (attrgetter(f.name), _converter(hints[f.name]))
    return keys


_KEYS = {name: _section_keys(cls, skipped) for name, (cls, skipped) in _SECTIONS.items()}


def _read(parser: configparser.ConfigParser, name: str) -> dict:
    values = {}
    for key, raw in (parser[name].items() if parser.has_section(name) else ()):
        _, convert = _KEYS[name][key]
        try:
            values[key] = convert(raw.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    return values


def _build(name: str, make, values: dict, **derived):
    try:
        return make(**values, **derived)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@lru_cache(maxsize=8)
def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError naming the bad field.

    Memoized on the text: a RunConfig is frozen all the way down, so one
    object serves every call with the same text. Bad text is not cached
    and raises on every call.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable configuration: {exc}") from exc

    unknown = [name for name in parser.sections() if name not in _SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section(s) {', '.join(f'[{n}]' for n in unknown)}; "
                          f"expected {', '.join(f'[{n}]' for n in _SECTIONS)}")
    unknown = [f"{name}.{key}" for name in parser.sections() for key in parser[name]
               if key not in _KEYS[name]]
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)}")

    values = {name: _read(parser, name) for name in _SECTIONS}
    model = _build("model", ModelParams.uniform, values["model"])
    return _build(
        "run", RunConfig, values["run"],
        env=_build("env", EnvConfig, values["env"], model=model),
        agent=_build("agent", AgentConfig, values["agent"]),
        mlp=_build("mlp", MLPSpec, values["mlp"],
                   input_size=encoding_length(model.dim), output_size=ACTION_COUNT),
    )


def parse_config(path) -> RunConfig:
    """Read and parse a configuration file; the file is read on every call,
    so an edited file is seen."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return parse_config_text(text)


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, (float, complex)):
        value += 0  # -0.0 == 0.0: equal configs print, and so hash, alike
    if isinstance(value, float):
        short = format(value, ".12g")  # where exact, keeps the text and hash of old configs
        return short if float(short) == value else repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    blocks = []
    for name, keys in _KEYS.items():
        obj = cfg if name == "run" else cfg.env.model if name == "model" else getattr(cfg, name)
        blocks.append("\n".join([f"[{name}]"] + [
            f"{key} = {_format(get(obj))}" for key, (get, _) in keys.items()]))
    return "\n\n".join(blocks) + "\n"


@lru_cache(maxsize=8)
def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the canonical serialization, computed once
    per process for each config: equal configs serialize alike."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
