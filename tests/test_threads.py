"""The BLAS thread policy: importing qsteer first runs numpy on one
OpenBLAS thread unless the user chose otherwise, and training writes the
same bytes at any thread count. Each check runs in a fresh interpreter,
because OpenBLAS reads its setting once, when numpy loads. The package's
import order is checked the same way: it loads cli only on first use, so
running it as a module warns nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reduced_config

ROOT = Path(__file__).resolve().parent.parent


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


def test_this_suite_runs_on_the_programs_setting():
    # tests/conftest.py imports qsteer before numpy
    import qsteer
    assert qsteer.BLAS_THREADS == os.environ.get("OPENBLAS_NUM_THREADS")


def test_numpy_imported_first_is_reported_as_default():
    out = run_python("import os, numpy, qsteer; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'), qsteer.BLAS_THREADS)",
                     None)
    assert out.split() == ["None", "default"]


def test_running_the_cli_module_warns_nothing():
    # the package loads cli only on first use, so runpy does not find it
    # imported before it runs it as __main__
    out = run_python("import runpy, sys, warnings; warnings.simplefilter('error'); "
                     "sys.argv = ['qsteer', '--help']; "
                     "runpy.run_module('qsteer.cli', run_name='__main__')", None)
    assert out.startswith("usage: qsteer")


# At the reduced run's widths (32) OpenBLAS keeps every product on one
# thread, so the run is repeated at the bundled widths, where the 128-row
# products are split between threads.
@pytest.mark.parametrize("widths", ["reduced", "bundled"])
def test_training_bytes_do_not_depend_on_thread_count(tmp_path, widths):
    keep = ("hidden", "batch_size") if widths == "bundled" else ()
    (tmp_path / "run.cfg").write_text(reduced_config(keep))

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
