"""Benchmark of realsurf: one workload per call.

    python3 perfbench/run.py --workload exact-large|exact-small|scan|cli-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times the workload with
tracing off and prints the end-to-end metrics; ``--trace 1`` runs a fixed
prefix of the job stream twice, untraced and traced, and prints the
per-layer metrics and the tracing overhead.  Each metric is printed by
name with its unit and sample count; the last line of standard output is
one JSON object (correct, attempted, failed, metrics).  The full record,
with the environment, goes to ``.perfbench_out/``.  The exit code is 1
when any job's output fails its known-answer check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = workloads.ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Tail percentile reported as job_p90_ms.  A workload whose runs hold
# too few jobs for ten samples beyond p90 reports the highest percentile
# that has them at the expected job count (see README.md).
TAIL_PERCENTILE = {"exact-large": 75, "exact-small": 90, "scan": 90, "cli-mix": 80}

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn(worker_args: list[str], env: dict, timeout: float = WORKER_TIMEOUT_S):
    """Start a worker; return (seconds from start to READY, result dict or None)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), *worker_args], stdout=subprocess.PIPE,
                          text=True, cwd=workloads.ROOT, env=env) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def tail(latencies_ms: list[float], percentile: int):
    """Nearest-rank percentile with at least ten samples beyond it,
    lowering the percentile when the run is too short for that."""
    values = sorted(latencies_ms)
    n = len(values)
    rank = math.ceil(percentile / 100 * n)
    if n - rank < 10:
        percentile = max(50, math.floor(100 * (n - 10) / n))
        rank = math.ceil(percentile / 100 * n)
    return values[max(rank, 1) - 1], percentile, n - rank


PROBES = 5


def python_floor_ms(env: dict) -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=workloads.ROOT, check=True,
                       timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def import_ms(module: str, env: dict) -> float:
    """Median time of ``import module``, timed inside fresh processes."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT,
                             check=True, timeout=60, capture_output=True, text=True).stdout)
        for _ in range(PROBES)
    ]
    return statistics.median(times) * 1000.0


def environment(seed: int, env: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")),
                       None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "realsurf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: env[var] for var in workloads.THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_untraced(args, env) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    spawn(base + ["--mode", "setup"], env)  # compiles bytecode, warms the file cache
    # Set-up samples on both sides of the timed run, so that a slow
    # spell of the machine does not set the median.
    setups = [spawn(base + ["--mode", "setup"], env)[0] for _ in range(SETUP_SAMPLES // 2)]
    ready, result = spawn(base + ["--mode", "timed", "--seconds", str(args.seconds)], env)
    setups.append(ready)
    setups += [spawn(base + ["--mode", "setup"], env)[0] for _ in range(SETUP_SAMPLES // 2)]
    latencies = [t * 1000.0 for t in result["latencies_s"]]
    if not latencies:
        raise BenchError("no job completed")
    p_tail, used, beyond = tail(latencies, TAIL_PERCENTILE[args.workload])
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "jobs_per_s": (n / result["elapsed_s"], f"{n} jobs in {result['elapsed_s']:.2f} s"),
        "job_p50_ms": (statistics.median(latencies), f"n={n}"),
        "job_p90_ms": (p_tail, f"p{used} of n={n}, {beyond} beyond"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0,
                        "largest CLI process" if args.workload == "cli-mix" else "worker"),
    }
    return metrics, result


def run_traced(args, env) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "fixed",
            "--jobs", str(workloads.TRACED_JOBS[args.workload])]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    spawn(["--workload", args.workload, "--seed", str(args.seed), "--mode", "setup"], env)
    _, plain = spawn(base, env)
    _, traced = spawn(base + ["--trace", "--spans", str(spans)], env)
    n_traced = traced["attempted"]
    layers = {name: (value, f"total over {n_traced} jobs")
              for name, value in traced.pop("layers").items()}
    layers["cli.python_floor_ms"] = (python_floor_ms(env), f"median of {PROBES} processes")
    layers["cli.numpy_import_ms"] = (import_ms("numpy", env), f"median of {PROBES} processes")
    layers["cli.import_ms"] = (import_ms("realsurf", env), f"median of {PROBES} processes")
    overhead = (n_traced / traced["elapsed_s"]) / (plain["attempted"] / plain["elapsed_s"])
    layers["bench.tracing_overhead"] = (overhead, "traced / untraced jobs_per_s")
    metrics = {name: layers[name] for name, _, _ in PER_LAYER}
    result = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "spans_file": str(spans.relative_to(workloads.ROOT)),
    }
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "realsurf" / "__init__.py").is_file():
        print(f"perfbench: no realsurf sources under {workloads.SRC}", file=sys.stderr)
        return 2
    env = workloads.child_env()
    try:
        if args.trace:
            metrics, result = run_traced(args, env)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, result = run_untraced(args, env)
            units = dict(END_TO_END)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, env),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": result["failures"],
        "metrics": {name: {"value": v, "unit": units[name], "samples": note}
                    for name, (v, note) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    env_line = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env_line['python']} "
          f"numpy={env_line['numpy']} nproc={env_line['nproc']} cpu={env_line['cpu_model']!r} "
          f"threads={env_line['threads']['OMP_NUM_THREADS']}")
    width = max(len(name) for name in metrics)
    for name, (value, note) in metrics.items():
        print(f"{name:<{width}}  {value:14.4f} {units[name]:<6} ({note})")
    print(f"{'fail_ratio':<{width}}  {failed / attempted:14.4f} {'ratio':<6} "
          f"({failed} of {attempted} jobs)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
