"""Shared fixtures: golden replay rows, independent numeric oracles, and
the reduced training run and worker processes the training tests share.
The acceptance trainings start at collection and run beside the rest of
the suite (pytest_collection_modifyitems).

The golden rows are known successful measurement sequences together with
their final fidelity and post-selection success rate. The numbers were
frozen from the exact dynamics after being derived with a separate
throwaway implementation (plain matrix products, no shared code), so they
double as an end-to-end check of the operator conventions.
"""

# qsteer before numpy: importing it defaults OPENBLAS_NUM_THREADS to 1, and
# OpenBLAS reads the setting only when numpy first loads, so the suite's
# in-process trainings run on the thread count the program uses
import qsteer  # noqa: F401  isort: skip

import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from qsteer.agent import run_training
from qsteer.config import parse_config_text
from qsteer.env import EnvConfig
from qsteer.model import ModelParams

# (target, start, sequence tokens, final fidelity, success rate)
GOLDEN_FIXED_START = [
    ("phi+", "x+", "U2 Px+ U1 Px+ U1 Px- U2 Px+ U1 Px+", 0.99673, 0.02811),
    ("phi-", "x+", "U2 Px+ U1 Px+ U1 Px- U1 Py- U1 Px- U1 Px-", 0.99803, 0.00998),
    ("psi+", "x+", "U1 Px+ U2 Px+ U1 Px+ U1 Px-", 1.00000, 0.20313),
    ("psi-", "x+", "U2 Px+ U1 Px+ U1 Px+ U1 Px+ U1 Px+", 0.99454, 0.25275),
    ("psi-", "x+", "U2 Py- U1 Py- U1 Py- U1 Py- U1 Py-", 0.99160, 0.12713),
    ("psi-", "x+", "U1 Px+ U1 Py- U1 Py- U1 Py- U1 Py-", 0.99184, 0.12707),
]

# Shortest known singlet solutions at the doubled interval (tau = 2),
# reachable from either x-axis start.
GOLDEN_TAU2_START = [
    ("psi-", "x+", "U1 Px+ U1 Px+ U1 Px+ U1 Px+", 0.99227, 0.25391),
    ("psi-", "x+", "U1 Py- U1 Py- U1 Py- U1 Py- U1 Py-", 0.99227, 0.12695),
    ("psi-", "x+", "U1 Py- U1 Py- U1 Py- U1 Px+ U1 Px+", 0.99227, 0.06348),
    ("psi-", "x-", "U1 Px- U1 Px- U1 Px- U1 Px-", 0.99227, 0.25391),
    ("psi-", "x-", "U1 Py- U1 Py- U1 Py- U1 Py- U1 Py-", 0.99227, 0.12695),
    ("psi-", "x-", "U1 Py- U1 Py- U1 Py- U1 Px+ U1 Px+", 0.99227, 0.06348),
]

FIDELITY_ATOL = 5e-3
RATE_ATOL = 1e-3  # 0.1 percentage points on the 0..1 scale

# First branch probability of the singlet golden row (after two intervals
# of evolution, projecting the central spin onto x+). Frozen from the
# independent prototype.
FIRST_XPLUS_BRANCH_PROB = 0.5000464772


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor series for exp(a); test-only oracle,
    independent of the eigendecomposition route."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    small = a / (2 ** squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 40):
        term = term @ small / k
        total += term
        if np.linalg.norm(term) < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random mixed state: normalized A A^dagger for a complex Gaussian A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def default_model():
    return ModelParams()


@pytest.fixture
def default_env_cfg():
    return EnvConfig()


# -- trainings ----------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: The reduced training run of criterion 11 and of the thread and worker
#: checks: (line of psi_minus_fixed.cfg, its replacement).
REDUCED_RUN = (("training_steps = 800", "training_steps = 40"),
               ("hidden = 128, 128", "hidden = 32, 32"),
               ("updates_per_training_step = 16", "updates_per_training_step = 4"),
               ("batch_size = 128", "batch_size = 32"),
               ("output_dir = runs/psi_minus_fixed", "output_dir = out"))


def reduced_config(keep: tuple[str, ...] = ()) -> str:
    """psi_minus_fixed.cfg's text under REDUCED_RUN, except for the lines
    that start with a prefix in keep."""
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text()
    for old, new in REDUCED_RUN:
        assert old in text
        if not old.startswith(keep):
            text = text.replace(old, new)
    return text


def train_seed(config_text: str, seed: int) -> tuple[bytes, bytes, bytes]:
    """Train one seed of a configuration: the bytes of its best and final
    checkpoints, and its pickled log. Runs in a worker process as in
    this one; this module imports qsteer first, so either way training
    runs on the program's one BLAS thread."""
    cfg = parse_config_text(config_text)
    with tempfile.TemporaryDirectory() as out:
        result = run_training(cfg.env, cfg.agent, cfg.mlp, master_seed=seed,
                              checkpoint_dir=out)
        best, final = (Path(out, f"checkpoint_{name}.npz").read_bytes()
                       for name in ("best", "final"))
    return best, final, pickle.dumps(result.log)


def training_workers(n_tasks: int) -> ProcessPoolExecutor:
    """A pool of spawned processes for n_tasks trainings: at most two
    workers, and never more than the host has vCPUs."""
    return ProcessPoolExecutor(min(2, n_tasks, os.cpu_count() or 1),
                               mp_context=get_context("spawn"))


#: Seeds of the acceptance suite's learning criteria
LEARNING_SEEDS = (11, 23, 47)

#: Seed -> future of ``train_seed`` on psi_minus_fixed.cfg, once started
TRAININGS = pytest.StashKey[dict]()


def _uses_trainings(item) -> bool:
    return "trained_agents" in getattr(item, "fixturenames", ())


@pytest.hookimpl(trylast=True)  # after -k and -m have deselected
def pytest_collection_modifyitems(config, items):
    """When a collected test uses trained_agents, submit the acceptance
    trainings now, so that they run while the other tests do, and move
    the tests that use them to the end, in their own order. A run that
    collects none of them starts nothing; the pool shuts down at session
    end."""
    if config.option.collectonly or not any(map(_uses_trainings, items)):
        return
    pool = training_workers(len(LEARNING_SEEDS))
    config.add_cleanup(lambda: pool.shutdown(cancel_futures=True))
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text()
    config.stash[TRAININGS] = {seed: pool.submit(train_seed, text, seed)
                               for seed in LEARNING_SEEDS}
    items.sort(key=_uses_trainings)  # stable: every other test keeps its place
