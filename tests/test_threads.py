"""The BLAS thread policy: importing qsteer first runs numpy on one
OpenBLAS thread unless the user chose otherwise, and training writes the
same bytes at any thread count. Each check runs in a fresh interpreter,
because OpenBLAS reads its setting once, when numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# criterion 11's reduced training run (tests/test_acceptance.py)
REDUCED = (("training_steps = 800", "training_steps = 40"),
           ("hidden = 128, 128", "hidden = 32, 32"),
           ("updates_per_training_step = 16", "updates_per_training_step = 4"),
           ("batch_size = 128", "batch_size = 32"),
           ("output_dir = runs/psi_minus_fixed", "output_dir = out"))


def run_python(code: str, threads: str | None, cwd=None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


REPORT = "import os, qsteer; print(os.environ['OPENBLAS_NUM_THREADS'], qsteer.BLAS_THREADS)"


def test_import_defaults_to_one_thread():
    assert run_python(REPORT, None).split() == ["1", "1"]


def test_user_setting_wins():
    assert run_python(REPORT, "2").split() == ["2", "2"]


def test_numpy_imported_first_is_reported_as_default():
    out = run_python("import os, numpy, qsteer; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'), qsteer.BLAS_THREADS)",
                     None)
    assert out.split() == ["None", "default"]


# At criterion 11's reduced widths (32) OpenBLAS keeps every product on one
# thread, so the run is repeated at the bundled widths, where the 128-row
# products are split between threads.
@pytest.mark.parametrize("widths", ["reduced", "bundled"])
def test_training_bytes_do_not_depend_on_thread_count(tmp_path, widths):
    text = (CONFIG_DIR / "psi_minus_fixed.cfg").read_text()
    for old, new in REDUCED:
        if widths == "bundled" and old.startswith(("hidden", "batch_size")):
            continue
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "run.cfg").write_text(text)

    outputs = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        run_python(f"import os, sys; os.environ['QSTEER_OUTPUT_ROOT'] = {str(root)!r}\n"
                   "from qsteer import cli; sys.exit(cli.main(['train', 'run.cfg']))",
                   threads, cwd=tmp_path)
        out = root / "out"
        manifest = (out / "manifest.txt").read_text()
        assert f"# openblas_threads={threads}\n" in manifest
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "manifest.txt"})
    assert sorted(outputs[0]) == ["checkpoint_best.npz", "checkpoint_final.npz",
                                  "learning_curve.tsv"]
    assert outputs[0] == outputs[1]
