"""One benchmark workload, run in its own process.

The harness (run.py) starts this file twice over:

    python3 perfbench/workload.py setup CONFIG
        time import + parse_config + QSEEnv construction once; print seconds

    python3 perfbench/workload.py run WORKLOAD SEED OUT_DIR SECONDS TRACE RESULT
        set up, then repeat the workload's body for at least SECONDS and at
        least MIN_PASSES untraced passes (one pair when traced), check every
        output, and write a JSON result to RESULT

The program is driven only through ``qsteer.cli.main``, ``parse_config``
and ``QSEEnv``. With TRACE=1 each repetition is a pair: an untraced pass,
then a traced pass that must write byte-identical tables.

Nothing but the stdlib is imported before the set-up clock starts.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Untraced passes a run makes at least, so that every timing is a median.
MIN_PASSES = 3
#: Pass k of a run trains with master_seed = seed + k * SEED_STRIDE. Whether
#: a 200-step agent learns depends on its seed, and one that does not learn
#: runs longer episodes; with a new agent per pass, one such agent cannot
#: set a run's medians.
SEED_STRIDE = 1_000_000
TRAIN_STEPS = 200
EVAL_EPISODES = 500
EVAL_EPS = "0.01"
#: Each pass times ``qsteer evaluate`` of the workload's reference agent
#: this many times; eval_s is the median over all of a run's evaluations.
EVAL_REPEATS = 8
#: Trained agents stored with the benchmark, one per train config. Their
#: evaluation does the same work on every seed, where the run's own agents
#: take routes of different lengths, or fail and run every episode out.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEARCH_MAX_LEN = 5
#: Successful sequences per target from the fixed x+ start up to length 5,
#: recorded when the benchmark was defined.
SEARCH_COUNTS = {"phi+": 0, "phi-": 0, "psi+": 99, "psi-": 9}
#: Iterations of the host-speed kernel, and about its median time on the
#: 2-vCPU host the benchmark was defined on. Times are reported at that
#: speed.
HOST_ITERATIONS = 1600
HOST_REFERENCE_S = 0.100
#: Which of a pass's three host readings bracket the timed body and the
#: evaluation phase.
BODY, EVAL = slice(0, 2), slice(1, 3)
#: Golden replay row (tests/conftest.py) that the psi+ search must contain.
GOLDEN_PSI_PLUS = ("U1 Px+ U2 Px+ U1 Px+ U1 Px-", 0.20313)
#: The search workload's evaluation replays up to this many of each
#: target's most likely sequences through ``qsteer replay``, each
#: REPLAY_ROUNDS times so that the timed phase is not a short one.
REPLAYS_PER_TARGET = 100
REPLAY_ROUNDS = 2

WORKLOADS = {
    "train-dqn-fixed": ("train", "psi_minus_fixed.cfg"),
    "train-ddqn-random": ("train", "psi_minus_random.cfg"),
    "search-bell": ("search", "psi_minus_fixed.cfg"),
}

# Tables that must be identical between passes of one config; manifest.txt
# carries a wall time and the checkpoints are checked by loading them.
COMPARED_SUFFIXES = (".tsv", ".txt")
UNCOMPARED = {"manifest.txt"}


def _import_program():
    import qsteer
    import qsteer.cli
    import qsteer.config
    import qsteer.env

    src = (ROOT / "src").resolve()
    if src not in Path(qsteer.__file__).resolve().parents:
        raise RuntimeError(f"qsteer imported from {qsteer.__file__}, not from {src}")
    return qsteer


def write_config(run_dir: Path, workload: str, master_seed: int) -> Path:
    """The bundled config with the benchmark's seed, length and output dir."""
    bundled = ROOT / "configs" / WORKLOADS[workload][1]
    text = bundled.read_text(encoding="utf-8")
    for key, value in (("master_seed", master_seed), ("training_steps", TRAIN_STEPS),
                       ("output_dir", "out")):
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"{bundled}: expected one '{key} =' line, found {n}")
    path = run_dir / f"seed{master_seed}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def setup(q, cfg_path: Path):
    """What a user waits for before the first step: config and propagator."""
    q.env.QSEEnv(q.config.parse_config(cfg_path).env)


# -- running commands and checking their outputs --------------------------

class Pass:
    """One execution of a workload body and what its checks found."""

    def __init__(self, out_root: Path, workload: str, cfg: Path):
        self.out_root = out_root
        self.workload = workload
        self.cfg = cfg
        self.out = out_root / "out"
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.problems: list[str] = []
        self.wall_s = self.cpu_s = 0.0
        self.host_s: list[float] = []
        self.eval_times: list[float] = []
        self.eval_steps = 0
        self.eval_success = 0.0
        self.found = {}

    def command(self, q, tracer, argv, log) -> int:
        self.attempted += 1
        span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = q.cli.main(argv)
        if rc != 0:
            self.fail(" ".join(argv[:4]), f"exit code {rc}")
        return rc

    def scale(self, phase: slice) -> float:
        """Factor that puts a phase's times at the reference host speed.

        The host speed is read before the timed body, between it and the
        evaluation phase, and after; a phase uses the two readings around it.
        """
        return HOST_REFERENCE_S / statistics.mean(self.host_s[phase])

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{self.out_root.name} {op}: {message}")

    def tables(self) -> dict[str, bytes]:
        return {str(p.relative_to(self.out_root)): p.read_bytes()
                for p in sorted(self.out_root.rglob("*"))
                if p.suffix in COMPARED_SUFFIXES and p.name not in UNCOMPARED}


def _rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return [ln.split("\t") for ln in lines[1:]]


def _check_curve(p: Pass) -> None:
    rows = _rows(p.out / "learning_curve.tsv")
    if len(rows) != TRAIN_STEPS:
        p.fail("train", f"learning curve has {len(rows)} rows, want {TRAIN_STEPS}")
    losses = [float(r[4]) for r in rows]
    # the loss is NaN only for the steps before replay holds one batch
    first = next((i for i, v in enumerate(losses) if not math.isnan(v)), len(rows))
    if first == len(rows):
        p.fail("train", "learning curve has no loss")
    for i, (step, eps, ret, succ, _loss) in enumerate(rows):
        values = [float(eps), float(ret), float(succ)]
        if i >= first:
            values.append(losses[i])
        if not all(math.isfinite(v) for v in values):
            p.fail("train", f"learning curve step {step} is not finite")
            return


def _check_checkpoints(p: Pass, np) -> None:
    for name in ("checkpoint_best.npz", "checkpoint_final.npz"):
        try:
            with np.load(p.out / name, allow_pickle=False) as data:
                keys = set(data.files)
                arrays = [data[k] for k in keys]
        except (OSError, ValueError) as exc:
            p.fail("train", f"{name} does not load: {exc}")
            continue
        want = {"meta"} | {f"{k}{i}" for k in "wb" for i in range(3)}
        finite = all(np.all(np.isfinite(a)) for a in arrays if a.dtype.kind == "f")
        if keys != want or not finite:
            p.fail("train", f"{name} holds {sorted(keys)} or non-finite values")


def _check_evaluation(p: Pass, out: Path, op: str) -> list[list[str]]:
    rows = _rows(out / "evaluation.tsv")
    if len(rows) != EVAL_EPISODES:
        p.fail(op, f"{len(rows)} rows, want {EVAL_EPISODES}")
    elif not {r[3] for r in rows} <= {"success", "timeout", "fatal"}:
        p.fail(op, f"outcomes {sorted({r[3] for r in rows})}")
    return rows


def train_body(q, p: Pass, tracer, log, np) -> None:
    cfg = str(p.cfg)
    evaluate = ["evaluate", cfg, "--eps", EVAL_EPS, "--episodes", str(EVAL_EPISODES),
                "--checkpoint"]
    w0, c0 = time.perf_counter(), time.process_time()
    trained = p.command(q, tracer, ["train", cfg], log) == 0
    evaluated = p.command(q, tracer, evaluate + [str(p.out / "checkpoint_best.npz")],
                          log) == 0
    w1, c1 = time.perf_counter(), time.process_time()
    p.wall_s, p.cpu_s = w1 - w0, c1 - c0
    p.host_s.append(host_speed_s(np))
    if trained:
        _check_curve(p)
        _check_checkpoints(p, np)
    if evaluated:
        rows = _check_evaluation(p, p.out, "evaluate")
        p.eval_success = sum(r[3] == "success" for r in rows) / max(len(rows), 1)

    # the reference agent's evaluation writes beside this pass's own tables
    os.environ["QSTEER_OUTPUT_ROOT"] = str(p.out_root / "reference")
    reference = REFERENCE_DIR / WORKLOADS[p.workload][1].replace(".cfg", ".npz")
    for _ in range(EVAL_REPEATS):
        e0 = time.perf_counter()
        if p.command(q, tracer, evaluate + [str(reference)], log) == 0:
            p.eval_times.append(time.perf_counter() - e0)
    os.environ["QSTEER_OUTPUT_ROOT"] = str(p.out_root)
    if p.eval_times:
        p.eval_steps = sum(int(r[4]) for r in _check_evaluation(
            p, p.out_root / "reference" / "out", "evaluate reference"))


def _search_table(p: Pass, target: str) -> Path:
    tag = target.replace("+", "plus").replace("-", "minus")
    return p.out / f"search_{tag}_len{SEARCH_MAX_LEN}.tsv"


def search_body(q, p: Pass, tracer, log, np) -> None:
    """Search every Bell target, then replay each target's most likely
    sequences as the evaluation phase: replay must confirm the search."""
    cfg = str(p.cfg)
    w0, c0 = time.perf_counter(), time.process_time()
    searched = []
    for t in SEARCH_COUNTS:
        if p.command(q, tracer, ["search", cfg, "--target", t, "--max-len",
                                 str(SEARCH_MAX_LEN), "--show", "0"], log) == 0:
            searched.append(t)
    e0 = time.perf_counter()
    picks = []
    for t in searched:
        for i, row in enumerate(_rows(_search_table(p, t))[:REPLAYS_PER_TARGET]):
            out = p.out / f"replay_{t}_{i}.tsv"
            argv = ["replay", cfg, "--sequence", row[3], "--target", t, "--out", str(out)]
            if all(p.command(q, tracer, argv, log) == 0 for _ in range(REPLAY_ROUNDS)):
                picks.append((row, out))
    w1, c1 = time.perf_counter(), time.process_time()
    p.wall_s, p.cpu_s, p.eval_times = w1 - w0, c1 - c0, [w1 - e0]
    p.host_s.append(host_speed_s(np))

    for t in searched:
        rows = _rows(_search_table(p, t))
        p.found[t] = len(rows)
        if len(rows) != SEARCH_COUNTS[t]:
            p.fail(f"search {t}", f"found {len(rows)}, reference {SEARCH_COUNTS[t]}")
        if t == "psi+" and not any(
                r[3] == GOLDEN_PSI_PLUS[0] and round(float(r[1]), 5) == GOLDEN_PSI_PLUS[1]
                for r in rows):
            p.fail("search psi+", "the golden 20.313% row is missing")
    confirmed = 0
    for (steps, rate, fid, _seq), out in picks:
        diag = _rows(out)
        p.eval_steps += len(diag)
        replay_rate = math.prod(float(r[2]) for r in diag)
        if (len(diag) == int(steps) and math.isclose(replay_rate, float(rate), rel_tol=1e-6)
                and math.isclose(float(diag[-1][3]), float(fid), abs_tol=1e-6)):
            confirmed += 1
        else:
            p.fail(f"replay {out.name}", "disagrees with the search")
    p.eval_success = confirmed / len(picks) if picks else 0.0


BODIES = {"train": train_body, "search": search_body}


# -- tracing --------------------------------------------------------------

def _forward_label(name, args, kwargs):
    return name + (".row1" if getattr(args[1], "ndim", 2) == 1 else ".batch")


def _count_outcome(tracer, args, kwargs, result):
    if result.done:
        tracer.count("env.ended")
        tracer.count("env.outcome." + result.outcome)


def _count_scored(tracer, args, kwargs, result):
    tracer.count("sequences.children_scored")


def _count_found(tracer, args, kwargs, result):
    tracer.count("sequences.found", len(result))


def install(tracer: Tracer, q) -> None:
    """Wrap every layer boundary at the names its callers look up."""
    env, agent, net, seqs, cli, config = (q.env, q.agent, q.network, q.sequences,
                                          q.cli, q.config)
    w = tracer.wrap

    def step_label(name, args, kwargs):
        action = args[2] if len(args) > 2 else kwargs["action"]
        return name + (".idle" if action == env.DO_NOTHING else ".project")

    for owner in (env, seqs):
        w(owner, "partial_trace_first", "linalg.partial_trace_first")
        w(owner, "measure", "model.measure")
    w(env, "fidelity_to_pure", "model.fidelity_to_pure")
    w(seqs, "fidelity_to_pure", "model.fidelity_to_pure", observe=_count_scored)
    w(env, "encode_state", "env.encode_state")
    w(env, "build_propagator", "model.build_propagator")
    w(env.QSEEnv, "step", "env.step", label=step_label, observe=_count_outcome)
    w(env.QSEEnv, "reset", "env.reset")
    w(agent, "select_action", "agent.select_action")
    w(agent, "forward", "network.forward", label=_forward_label)
    w(agent, "dqn_targets", "agent.dqn_targets")
    w(agent, "ddqn_targets", "agent.ddqn_targets")
    w(agent, "train_batch", "network.train_batch")
    w(agent, "soft_update", "network.soft_update")
    w(agent, "save_params", "network.save_params")
    w(agent.ReplayMemory, "push", "agent.replay_push")
    w(agent.ReplayMemory, "sample", "agent.replay_sample")
    w(net, "gradients", "network.gradients")
    w(cli, "run_training", "agent.run_training", coarse=True)
    w(cli, "evaluate_policy", "agent.evaluate_policy", coarse=True)
    w(cli, "exhaustive_search", "sequences.exhaustive_search", coarse=True,
      observe=_count_found)
    for owner in (cli, config):
        w(owner, "parse_config", "config.parse_config")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer the workload never
    calls reads 0."""
    def p50_us(name):
        st = t.stats.get(name)
        return st.percentile_ns(50) / 1e3 if st else 0.0

    def share(num, den):
        return num / den if den else 0.0

    c = t.counters
    m = {name + ".self_s": t.self_s(name) for name in (
        "env.step", "env.reset", "env.encode_state", "model.measure",
        "model.fidelity_to_pure", "linalg.partial_trace_first",
        "sequences.exhaustive_search", "network.gradients", "network.train_batch",
        "network.forward.batch", "network.forward.row1", "agent.dqn_targets",
        "agent.ddqn_targets", "agent.replay_sample", "agent.replay_push",
        "agent.select_action", "agent.run_training", "agent.evaluate_policy",
        "network.soft_update", "model.build_propagator", "config.parse_config",
        "network.save_params", "cli")}
    m.update({name + ".calls": t.calls(name) for name in (
        "env.step", "model.measure", "network.forward.batch", "network.forward.row1",
        "network.soft_update")})
    m.update({
        "env.step.project_us_p50": p50_us("env.step.project"),
        "env.step.idle_us_p50": p50_us("env.step.idle"),
        "env.success_share": share(c.get("env.outcome.success", 0), c.get("env.ended", 0)),
        "env.fatal_share": share(c.get("env.outcome.fatal", 0), c.get("env.ended", 0)),
        "model.measure.underflows": t.errors("model.measure"),
        "sequences.children_scored": c.get("sequences.children_scored", 0),
        "sequences.found": c.get("sequences.found", 0),
        "agent.select_action.greedy_share": share(t.calls("network.forward.row1"),
                                                  t.calls("agent.select_action")),
    })
    return m


# -- host speed -----------------------------------------------------------

def host_speed_s(np) -> float:
    """Seconds a fixed numpy kernel takes now: the host's current speed.

    The kernel has the workloads' two instruction mixes, 8x8 complex
    products with a partial trace (the physics) and 128-wide float64
    matrix products (the network), and none of the program's code, so a
    change to the program cannot move it. It stays on one thread: waking
    BLAS worker threads here would leave them spinning into the next
    timed phase. On a shared host the speed drifts by tens of percent
    within minutes; passes are scaled by it.
    """
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
    u_dag = u.conj().T
    rho = np.eye(8, dtype=complex) / 8
    w = rng.standard_normal((128, 128)) / 12
    h = rng.standard_normal((8, 128))  # small enough that BLAS runs it on one thread
    t0 = time.perf_counter()
    for _ in range(HOST_ITERATIONS):
        rho = u @ rho @ u_dag
        rho = rho / np.trace(rho).real
        np.einsum("ikil->kl", rho.reshape(2, 4, 2, 4))
        h = np.maximum(h @ w, 0.0)
        h = h / (h.max() + 1.0)
    return time.perf_counter() - t0


# -- machine facts --------------------------------------------------------

def blas_facts(np) -> dict:
    """BLAS build as numpy reports it, and the thread count it runs with."""
    facts = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by release
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in Path(path).name.lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts.update(library=path, threads=fn())
                return facts
    facts["threads"] = None
    return facts


# -- entry points ---------------------------------------------------------

def _traced_pass(q, body, p: Pass, log, np) -> Tracer:
    tracer = Tracer()
    install(tracer, q)
    try:
        with tracer.span("setup"):
            setup(q, p.cfg)
        body(q, p, tracer, log, np)
    finally:
        tracer.restore()
    return tracer


def run(workload: str, seed: int, out_dir: Path, seconds: float, trace: bool) -> dict:
    first_cfg = write_config(out_dir, workload, seed)
    t0 = time.perf_counter()
    q = _import_program()
    setup(q, first_cfg)
    setup_s = time.perf_counter() - t0
    import numpy as np

    body = BODIES[WORKLOADS[workload][0]]
    plain: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    everything: list[Pass] = []
    start = time.perf_counter()
    with open(out_dir / "program.log", "w", encoding="utf-8") as log:
        while (len(plain) < (1 if trace else MIN_PASSES)
               or time.perf_counter() - start < seconds):
            cfg = write_config(out_dir, workload, seed + len(plain) * SEED_STRIDE)
            p = Pass(out_dir / f"pass{len(everything)}", workload, cfg)
            os.environ["QSTEER_OUTPUT_ROOT"] = str(p.out_root)
            p.host_s.append(host_speed_s(np))
            body(q, p, None, log, np)
            p.host_s.append(host_speed_s(np))
            plain.append(p)
            everything.append(p)
            if trace:
                tp = Pass(out_dir / f"pass{len(everything)}", workload, cfg)
                os.environ["QSTEER_OUTPUT_ROOT"] = str(tp.out_root)
                traced.append((tp, _traced_pass(q, body, tp, log, np)))
                everything.append(tp)

    # passes of one config, traced or not, must write the same tables
    first: dict[Path, tuple[str, dict]] = {}
    for p in everything:
        tables = p.tables()
        name, reference = first.setdefault(p.cfg, (p.out_root.name, tables))
        differ = sorted(k for k in tables.keys() | reference.keys()
                        if tables.get(k) != reference.get(k))
        if differ:
            p.fail("tables", f"differ from {name}: {differ}")

    med = statistics.median
    if trace:
        per_pass = [layer_metrics(t) for _, t in traced]
        metrics = {k: med(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = med(tp.wall_s - p.wall_s
                                          for p, (tp, _) in zip(plain, traced))
    else:
        metrics = {
            "wall_s": med(p.wall_s * p.scale(BODY) for p in plain),
            "cpu_s": med(p.cpu_s * p.scale(BODY) for p in plain),
            "eval_s": med(t * p.scale(EVAL) for p in plain for t in p.eval_times),
            "eval_success": med(p.eval_success for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(len(p.failed_ops) for p in everything),
        "problems": [msg for p in everything for msg in p.problems],
        "setup_s": setup_s,
        "metrics": metrics,
        "passes": [{"config": p.cfg.name, "traced": any(p is tp for tp, _ in traced),
                    "wall_s": p.wall_s, "cpu_s": p.cpu_s, "eval_times_s": p.eval_times,
                    "host_s": p.host_s,
                    "eval_steps": p.eval_steps, "eval_success": p.eval_success,
                    "found": p.found} for p in everything],
        "trace": [{"summary": t.summary(), "coarse": t.coarse, "counters": t.counters}
                  for _, t in traced],
        "facts": {"python": platform.python_version(), "numpy": np.__version__,
                  "blas": blas_facts(np)},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        t0 = time.perf_counter()
        setup(_import_program(), Path(argv[1]))
        setup_s = time.perf_counter() - t0
        import numpy as np
        print(json.dumps({"setup_s": setup_s, "host_s": host_speed_s(np)}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 7:
        workload, seed, out_dir, seconds, trace, result_path = argv[1:]
        result = run(workload, int(seed), Path(out_dir), float(seconds), trace == "1")
        Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
