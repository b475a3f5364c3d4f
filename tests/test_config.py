from pathlib import Path

import pytest

from qsteer.config import config_hash, parse_config, parse_config_text, serialize_config
from qsteer.errors import ConfigError

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
