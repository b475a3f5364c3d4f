"""Benchmark harness: run one qsteer workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It writes a config generated from the
bundled one (the seed becomes ``master_seed``), times set-up in several
fresh processes, then runs the workload in one more process that repeats
the workload's body for at least S seconds and checks every output. N must
be a non-negative integer.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a traced run. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. Everything else
(machine facts, load and steal before and after, every pass, the traced
spans) goes to .perfbench_runs/<workload>-s<seed>-t<trace>/run_record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import HOST_REFERENCE_S, WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170


def host_load() -> dict:
    """Load average and cumulative steal ticks, to spot a noisy host."""
    with open("/proc/stat", encoding="utf-8") as fh:
        cpu = fh.readline().split()
    return {"time": time.time(), "loadavg": os.getloadavg(),
            "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(HERE / "workload.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    t_start = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bundled = ROOT / "configs" / WORKLOADS[args.workload][1]
    if not (ROOT / "src" / "qsteer" / "__init__.py").is_file() or not bundled.is_file():
        print(f"error: {ROOT} holds no qsteer sources and configs", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = write_config(run_dir, args.workload, args.seed)

    before = host_load()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = python("setup", str(cfg_path), timeout=30)
        if probe.returncode != 0:
            print(f"error: set-up failed:\n{probe.stderr}", file=sys.stderr)
            return 1
        setups.append(json.loads(probe.stdout))

    result_path = run_dir / "result.json"
    remaining = DEADLINE_S - (time.monotonic() - t_start)
    try:
        child = python("run", args.workload, str(args.seed), str(run_dir), str(args.seconds),
                       str(args.trace), str(result_path), timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: {args.workload} exited with {child.returncode}:\n{child.stderr}",
              file=sys.stderr)
        return 1
    after = host_load()
    result = json.loads(result_path.read_text(encoding="utf-8"))

    measured = dict(result["metrics"], setup_s=statistics.median(
        p["setup_s"] * HOST_REFERENCE_S / p["host_s"] for p in setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "cpu": cpu_model(), "platform": platform.platform(),
                    **result["facts"]},
        "host_before": before, "host_after": after,
        "steal_ticks_during": (after["steal_ticks"] - before["steal_ticks"]
                               if before["steal_ticks"] is not None else None),
        "setup_probes_s": setups, "metrics": metrics,
        **{k: result[k] for k in ("attempted", "failed", "problems", "passes", "trace")},
    }
    (run_dir / "run_record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    blas = result["facts"]["blas"]
    print(f"# nproc={os.cpu_count()} blas_threads={blas.get('threads')} "
          f"load={before['loadavg'][0]:.2f}->{after['loadavg'][0]:.2f} "
          f"steal_ticks={record['steal_ticks_during']} passes={len(result['passes'])}")
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
