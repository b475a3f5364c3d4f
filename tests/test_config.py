from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer.agent import AgentConfig
from qsteer.config import (
    RunConfig,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)
from qsteer.env import START_MODES, EnvConfig
from qsteer.errors import ConfigError
from qsteer.model import BELL_NAMES, ModelParams
from qsteer.network import MLPSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BUNDLED = [
    "psi_minus_fixed.cfg",
    "psi_plus_fixed.cfg",
    "phi_plus_fixed.cfg",
    "phi_minus_fixed.cfg",
    "psi_minus_random.cfg",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_parse(name):
    cfg = parse_config(CONFIG_DIR / name)
    assert cfg.model.n_bath == 2
    assert cfg.mlp.input_size == 70
    assert cfg.mlp.output_size == 7


def test_bundled_singlet_fixed_values():
    cfg = parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")
    assert cfg.env.target == "psi-"
    assert cfg.env.theta == 0.99
    assert cfg.env.r_plus == 10 and cfg.env.r_minus == -1
    assert cfg.env.max_steps == 50 and cfg.env.r_fatal == -51
    assert cfg.model.omega == 0.5 and cfg.model.tau == 1
    assert cfg.model.couplings == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert cfg.agent.algorithm == "dqn"
    assert cfg.agent.eps_min == 0.1


def test_bundled_random_start_values():
    cfg = parse_config(CONFIG_DIR / "psi_minus_random.cfg")
    assert cfg.env.start_mode == "random_pure"
    assert cfg.model.tau == 2
    assert cfg.agent.algorithm == "ddqn"
    assert cfg.checkpoint_steps == (1900, 2000, 2290, 2500)


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip_identity(name):
    cfg = parse_config(CONFIG_DIR / name)
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg)


def test_hash_tracks_content():
    base = parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")
    changed = parse_config_text(
        serialize_config(base).replace("master_seed = 1", "master_seed = 2"))
    assert config_hash(base) != config_hash(changed)


def test_invalid_theta_rejected_before_simulation(tmp_path):
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
        "theta = 0.99", "theta = 1.5")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "theta" in str(err.value)


def test_bad_value_names_field():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[model]\nomega = not_a_number\n")
    assert "model.omega" in str(err.value)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_defaults_fill_missing_sections():
    cfg = parse_config_text("[run]\nmaster_seed = 4\n")
    assert cfg.master_seed == 4
    assert cfg.env.target == "psi-"
    assert cfg.agent.gamma == 0.95


def test_misspelled_key_is_rejected():
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
        "[agent]\n", "[agent]\nlearning_rte = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "agent.learning_rte" in str(err.value)


def test_leftover_workers_key_is_rejected():
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
        "[run]\n", "[run]\nworkers = 4\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "run.workers" in str(err.value)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nmaster_seed = 4\n\n[agnet]\ngamma = 0.9\n")
    assert "[agnet]" in str(err.value)


def test_non_uniform_couplings_are_rejected():
    # the text format holds one coupling vector for every bath spin
    model = ModelParams(couplings=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    with pytest.raises(ValueError) as err:
        RunConfig(model=model, env=EnvConfig(model=model), agent=AgentConfig(),
                  mlp=MLPSpec(input_size=70))
    assert "couplings" in str(err.value)


def test_custom_start_round_trip():
    cfg = parse_config_text(
        "[env]\nstart_mode = fixed_custom\ncustom_start = 0.6, -0.8j\n")
    assert cfg.env.custom_start == (0.6 + 0j, -0.8j)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_custom_start_needs_two_amplitudes():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[env]\nstart_mode = fixed_custom\ncustom_start = 1, 0, 0\n")
    assert "env.custom_start" in str(err.value)


# Floats the canonical text writes with 12 significant digits, so that
# serializing is exact.
def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(lambda x: float(f"{x:.12g}"))


_SEEDS = st.integers(0, 2**32)
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", max_size=20)


@st.composite
def run_configs(draw):
    model = ModelParams.uniform(
        coupling=draw(st.tuples(*[_floats(-5, 5)] * 3)),
        omega=draw(_floats(-5, 5)), tau=draw(_floats(1e-3, 10)))
    max_steps = draw(st.integers(1, 100))
    r_minus = draw(_floats(-5, 0))
    start_mode = draw(st.sampled_from(START_MODES))
    amplitude = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
    custom = st.tuples(amplitude, amplitude)
    env = EnvConfig(
        model=model, target=draw(st.sampled_from(BELL_NAMES)),
        theta=draw(_floats(1e-3, 0.999)), r_plus=draw(_floats(0, 100)),
        r_minus=r_minus, r_fatal=float(f"{r_minus * max_steps - draw(_floats(1, 100)):.12g}"),
        max_steps=max_steps, start_mode=start_mode,
        custom_start=draw(custom if start_mode == "fixed_custom" else st.none() | custom),
        floor=draw(_floats(1e-12, 1e-3)))
    eps_min = draw(_floats(0, 1))
    agent = AgentConfig(
        gamma=draw(_floats(0, 1)), eps_start=draw(_floats(eps_min, 1)), eps_min=eps_min,
        eps_decay_steps=draw(st.none() | st.integers(1, 10**6)),
        episodes_per_training_step=draw(st.integers(1, 100)),
        batch_size=draw(st.integers(1, 512)),
        algorithm=draw(st.sampled_from(("dqn", "ddqn"))),
        replay_capacity=draw(st.integers(1, 10**6)),
        target_mix=draw(_floats(0, 1)), training_steps=draw(st.integers(1, 10**4)),
        updates_per_training_step=draw(st.integers(1, 64)),
        learning_rate=draw(_floats(1e-6, 1)),
        grad_clip=draw(st.none() | _floats(1e-3, 100)))
    mlp = MLPSpec(input_size=70, hidden=draw(st.lists(st.integers(1, 256), max_size=3).map(tuple)),
                  activation=draw(st.sampled_from(("relu", "tanh"))), init_seed=draw(_SEEDS))
    return RunConfig(model=model, env=env, agent=agent, mlp=mlp, master_seed=draw(_SEEDS),
                     checkpoint_steps=tuple(draw(st.lists(st.integers(0, 10**4), max_size=5))),
                     output_dir=draw(_WORDS))


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text
