"""Measurement-driven entanglement engineering on a central-spin system.

Exact density-matrix simulation of one controllable spin coupled to a
small bath, an episodic environment whose actions are projective
measurements of the central spin, a from-scratch deep Q-learning agent
that searches for measurement sequences preparing entangled bath states,
and tooling to replay, enumerate, and analyze those sequences.
"""

__version__ = "0.1.0"

import importlib
import os
import sys

# Training's network products gain no wall time from a second BLAS thread
# and spend twice the CPU on one; results do not depend on the count.
# OpenBLAS reads the setting when numpy loads, so it holds only when qsteer
# is imported first, and a value set by the user wins. BLAS_THREADS is the
# setting this process runs with ("default": numpy came first, unset).
if "numpy" in sys.modules:
    BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "default")
else:
    BLAS_THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import agent, config, env, errors, model, network, sequences
from .env import EnvConfig, QSEEnv
from .model import ModelParams

__all__ = [
    "__version__",
    "agent",
    "cli",
    "config",
    "env",
    "errors",
    "model",
    "network",
    "sequences",
    "EnvConfig",
    "QSEEnv",
    "ModelParams",
]


def __getattr__(name):
    # cli loads on first use, so `python -m qsteer.cli` does not find it
    # already imported by the package
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
