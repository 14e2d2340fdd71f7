"""One workload process: set up, say READY, run jobs in a closed loop
(one job at a time), and print one JSON result line.

    python3 perfbench/worker.py --workload W --seed N --mode setup|timed|fixed
        [--seconds S] [--jobs J] [--trace] [--spans PATH]

``setup`` exits after READY (the parent times process start to READY);
``timed`` runs whole rounds of jobs until S seconds have passed or the
stream ends (exact-large: until its list ends); ``fixed`` runs the first J jobs of the stream, traced with
``--trace``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback

import workloads
from tracing import NULL_TRACER, Tracer, aggregate, layer_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    if args.workload != "cli-mix":
        import realsurf  # noqa: F401  (import cost belongs to set-up)
    tracer = Tracer() if args.trace else NULL_TRACER
    if args.trace and args.workload != "cli-mix":
        tracer.install()
    runner = workloads.Runner(args.workload, tracer)
    stream = workloads.STREAMS[args.workload](args.seed)
    if args.workload == "exact-large":
        stream = iter(list(stream))  # finite: generate it all during set-up
    runner.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "fixed":
        stream = itertools.islice(stream, args.jobs)
    round_jobs = workloads.ROUND_JOBS[args.workload]
    limit = args.seconds * workloads.BUDGET_FACTOR.get(args.workload, 1)
    latencies: list[float] = []
    failures: list[str] = []
    clock = time.perf_counter
    begin = clock()
    for index, job in enumerate(stream):
        if args.mode == "timed" and index % round_jobs == 0 and clock() - begin >= limit:
            break
        tracer.job = index
        start = clock()
        try:
            problems = runner.run(job)
        except Exception:  # a failing job is counted and the run goes on
            problems = [traceback.format_exc(limit=3)]
        latencies.append(clock() - start)
        if problems:
            failures.append(f"job {index} {json.dumps(job)}: {'; '.join(problems)}")
    elapsed = clock() - begin

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }
    if args.trace:
        result["layers"] = layer_metrics(aggregate(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
