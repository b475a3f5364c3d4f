from pathlib import Path

import numpy as np
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

#: Bundled config -> its config_hash, which every run's manifest records.
BUNDLED = {
    "psi_minus_fixed.cfg": "a2f3f2582f83",
    "psi_plus_fixed.cfg": "ad7835c02173",
    "phi_plus_fixed.cfg": "1fcf995af232",
    "phi_minus_fixed.cfg": "314232213554",
    "psi_minus_random.cfg": "4a4b6c0839b9",
}


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_parse(name):
    cfg = parse_config(CONFIG_DIR / name)
    assert cfg.env.model.n_bath == 2
    assert cfg.mlp.input_size == 70
    assert cfg.mlp.output_size == 7


def test_bundled_singlet_fixed_values():
    cfg = parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")
    assert cfg.env.target == "psi-"
    assert cfg.env.theta == 0.99
    assert cfg.env.r_plus == 10 and cfg.env.r_minus == -1
    assert cfg.env.max_steps == 50 and cfg.env.r_fatal == -51
    assert cfg.env.model.omega == 0.5 and cfg.env.model.tau == 1
    assert cfg.env.model.couplings == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert cfg.agent.algorithm == "dqn"
    assert cfg.agent.eps_min == 0.1


def test_bundled_random_start_values():
    cfg = parse_config(CONFIG_DIR / "psi_minus_random.cfg")
    assert cfg.env.start_mode == "random_pure"
    assert cfg.env.model.tau == 2
    assert cfg.agent.algorithm == "ddqn"
    assert cfg.checkpoint_steps == (1900, 2000, 2290, 2500)


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip_identity(name):
    cfg = parse_config(CONFIG_DIR / name)
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg) == BUNDLED[name]


def test_hash_tracks_content():
    base = parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")
    changed = parse_config_text(
        serialize_config(base).replace("master_seed = 1", "master_seed = 2"))
    assert config_hash(base) != config_hash(changed)
    # a signed zero is the same value: one text, one hash
    for signed, unsigned in (("omega = -0.0", "omega = 0.0"),
                             ("coupling = 1, -0, -0", "coupling = 1, 0, 0")):
        a, b = (parse_config_text(f"[model]\n{line}\n") for line in (signed, unsigned))
        assert a == b
        assert serialize_config(a) == serialize_config(b)
        assert config_hash(a) == config_hash(b)


def test_text_is_exact():
    # 12 significant digits wrote this tau as 1: the bundled hash for another propagator
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
        "tau = 1 ", "tau = 1.0000000000001 ")
    cfg = parse_config_text(text)
    assert cfg.env.model.tau == 1.0000000000001
    assert "tau = 1.0000000000001\n" in serialize_config(cfg)
    assert parse_config_text(serialize_config(cfg)) == cfg
    assert config_hash(cfg) != BUNDLED["psi_minus_fixed.cfg"]


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


def test_same_text_parses_to_the_same_object():
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text()
    assert parse_config_text(text) is parse_config_text(text)
    assert parse_config_text(text) == parse_config(CONFIG_DIR / "psi_minus_fixed.cfg")


def test_bad_text_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ConfigError, match="model.omega"):
            parse_config_text("[model]\nomega = not_a_number\n")


def test_edited_file_is_read_again(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nmaster_seed = 4\n")
    assert parse_config(path).master_seed == 4
    path.write_text("[run]\nmaster_seed = 5\n")
    assert parse_config(path).master_seed == 5


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_non_utf8_file_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[model]\nn_bath = 2\xff\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        parse_config(path)


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


def test_activation_key_is_rejected():
    # the hidden layers are always ReLU
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text().replace(
        "[mlp]\n", "[mlp]\nactivation = relu\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "mlp.activation" in str(err.value)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nmaster_seed = 4\n\n[agnet]\ngamma = 0.9\n")
    assert "[agnet]" in str(err.value)


def test_non_uniform_couplings_are_rejected():
    # the text format holds one coupling vector for every bath spin
    model = ModelParams(couplings=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    with pytest.raises(ValueError) as err:
        RunConfig(env=EnvConfig(model=model), agent=AgentConfig(), mlp=MLPSpec(input_size=70))
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


@pytest.mark.parametrize("section, key, value", [
    ("model", "tau", "inf"),
    ("env", "r_plus", "nan"),
    ("env", "floor", "inf"),
    ("agent", "learning_rate", "nan"),
    ("model", "coupling", "nan, 0, 0"),
    ("model", "omega", "inf"),
    ("env", "custom_start", "nan, 1"),
])
def test_non_finite_value_names_field(section, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[{section}]\n{key} = {value}\n")
    assert f"{section}.{key}" in str(err.value)


@pytest.mark.parametrize("amplitudes", ["0, 0", "1e-200, 1e-200j"])
def test_custom_start_that_cannot_be_normalized(amplitudes):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[env]\nstart_mode = fixed_custom\ncustom_start = {amplitudes}\n")
    assert "custom_start" in str(err.value)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


_SEEDS = st.integers(0, 2**32)
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./%", max_size=20)


@st.composite
def run_configs(draw):
    model = ModelParams.uniform(
        coupling=draw(st.tuples(*[_floats(-5, 5)] * 3)),
        omega=draw(_floats(-5, 5)), tau=draw(_floats(1e-3, 10)))
    max_steps = draw(st.integers(1, 100))
    r_minus = draw(_floats(-5, 0))
    start_mode = draw(st.sampled_from(START_MODES))
    amplitude = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
    # EnvConfig rejects amplitudes that cannot be normalized
    custom = st.tuples(amplitude, amplitude).filter(
        lambda v: 0 < np.linalg.norm(np.asarray(v, dtype=complex)) < np.inf)
    env = EnvConfig(
        model=model, target=draw(st.sampled_from(BELL_NAMES)),
        theta=draw(_floats(1e-3, 0.999)), r_plus=draw(_floats(0, 100)),
        r_minus=r_minus, r_fatal=r_minus * max_steps - draw(_floats(1, 100)),
        max_steps=max_steps, start_mode=start_mode,
        custom_start=draw(custom) if start_mode == "fixed_custom" else None,
        floor=draw(_floats(1e-12, 1e-3)))
    eps_min = draw(_floats(0, 1))
    batch_size = draw(st.integers(1, 512))
    agent = AgentConfig(
        gamma=draw(_floats(0, 1)), eps_start=draw(_floats(eps_min, 1)), eps_min=eps_min,
        eps_decay_steps=draw(st.none() | st.integers(1, 10**6)),
        episodes_per_training_step=draw(st.integers(1, 100)),
        batch_size=batch_size,
        algorithm=draw(st.sampled_from(("dqn", "ddqn"))),
        replay_capacity=draw(st.integers(batch_size, 10**6)),
        target_mix=draw(_floats(0, 1)), training_steps=draw(st.integers(1, 10**4)),
        updates_per_training_step=draw(st.integers(1, 64)),
        learning_rate=draw(_floats(1e-6, 1)),
        grad_clip=draw(st.none() | _floats(1e-3, 100)))
    mlp = MLPSpec(input_size=70, hidden=draw(st.lists(st.integers(1, 256), max_size=3).map(tuple)),
                  init_seed=draw(_SEEDS))
    steps = st.integers(1, agent.training_steps)
    return RunConfig(env=env, agent=agent, mlp=mlp, master_seed=draw(_SEEDS),
                     checkpoint_steps=tuple(draw(st.lists(steps, max_size=5))),
                     output_dir=draw(_WORDS))


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text
