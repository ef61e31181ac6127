"""One repetition of a workload in a fresh interpreter, so caches start cold.

    python3 perfbench/worker.py --workload NAME [--trace SPANS.tsv] [--setup-only]

Needs the package on PYTHONPATH (run.py sets it to src/).  Prints one JSON
line.  Times are time.perf_counter() readings, which on Linux share one
monotonic clock across processes, so the parent can subtract its own spawn
time from `t_ready` to get the set-up time including interpreter start.
"""

import argparse
import json
import resource
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", metavar="SPANS_PATH")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import layers
    import workloads
    make_plan, pinned = workloads.WORKLOADS[args.workload]
    plan = make_plan()
    t_ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return

    tracer = kept_by_n = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.workload)
        kept_by_n = layers.install(tracer)
    before = layers.cache_snapshot()
    t_start = time.perf_counter()
    outcome = workloads.sweep(plan)
    t_end = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    caches = layers.cache_delta(before, layers.cache_snapshot())
    if tracer:
        tracer.uninstall()
    failures = workloads.check(plan, pinned, outcome)

    report = {"t_ready": t_ready, "work_s": t_end - t_start,
              "latencies": outcome.latencies, "work": outcome.work,
              "attempted": len(outcome.answers), "failures": failures,
              "peak_rss_mb": peak_kb / 1024, "caches": caches}
    if tracer:
        report["layers"] = layers.metrics(tracer, kept_by_n, caches)
        report["spans_written"] = tracer.write(args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
