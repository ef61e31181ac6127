"""Benchmark of the convexgeom package: exhaustive registry sweeps.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from src/.  Each
repetition runs in a fresh interpreter (perfbench/worker.py), one client,
one process, jobs=1, so caches start cold as they do for a CLI run.
Repetitions continue while the next one is expected to end within
--seconds (at least one).  Every end-to-end metric is the median over the
repetitions of the run.  Both workloads are exhaustive sweeps, so the seed
only names the result file.

End-to-end metrics (names and bounds in BENCHMARK.json):
  wall_s         the timed phase of one repetition, set-up excluded
  checks_per_s   graph x entry evaluations per second at that wall time
  setup_s        interpreter start and imports, median over set-up-only
                 probes and the repetitions
  peak_rss_mb    peak resident memory of a repetition's process
failed_frac (failed / attempted operations, an operation being one registry
entry's sweep) is printed; in the JSON line it is carried by `attempted`
and `failed`, since it is 0 when all is well.  The median and slowest
entry times are printed beside the metrics.

--trace 1 adds one repetition with the layer entry points wrapped
(perfbench/tracer.py) and reports the per-layer metrics instead, plus the
tracing overhead: traced wall_s minus the untraced median.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Results, with the Python version, CPU
count and load average, also go to .perfbench/results/, and spans of a
traced run to .perfbench/spans/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("registry-n7", "sweep-n8")
SETUP_PROBES_PER_REP = 8
RUN_DEADLINE_S = 170      # per workload, set-up probes included
OUT_DIR = ".perfbench"


class BenchError(Exception):
    pass


def spawn(root, args, deadline):
    """Run one worker, killed at the perf_counter() deadline; returns (spawn
    time, its JSON report)."""
    # a fixed hash seed keeps string hashing, and so dict and set layout, the
    # same in every worker, which removes one source of run-to-run variance
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root, name, seed, seconds, trace):
    base = ["--workload", name]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup, reps, durations = [], [], []
    started = time.perf_counter()
    while not reps or (time.perf_counter() - started
                       + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        # probes before every repetition, so set-up is sampled over the
        # same stretch of the run as the work
        for _ in range(SETUP_PROBES_PER_REP):
            t_spawn, rep = spawn(root, base + ["--setup-only"], deadline)
            setup.append(rep["t_ready"] - t_spawn)
        t_spawn, rep = spawn(root, base, deadline)
        durations.append(time.perf_counter() - t0)
        setup.append(rep["t_ready"] - t_spawn)
        reps.append(rep)
    traced = None
    if trace:
        spans = os.path.join(root, OUT_DIR, "spans", f"{name}-seed{seed}.tsv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        traced = spawn(root, base + ["--trace", spans], deadline)[1]

    wall_s = statistics.median(r["work_s"] for r in reps)
    metrics = {
        "wall_s": (wall_s, "s"),
        "checks_per_s": (reps[0]["work"] / wall_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"].values()]
    notes = {
        "seed": f"{seed} (ignored: exhaustive sweep)",
        "repetitions": len(reps),
        "repetition_wall_s": [r["work_s"] for r in reps],
        "entries_per_repetition": len(reps[0]["latencies"]),
        "entry_median_s": statistics.median(statistics.median(r["latencies"])
                                            for r in reps),
        "entry_slowest_s": statistics.median(max(r["latencies"]) for r in reps),
        "failed_frac": len(failures) / attempted,
        "caches": reps[0]["caches"],
    }
    if traced:
        layer_metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        layer_metrics["trace.overhead_s"] = (traced["work_s"] - wall_s, "s")
        notes["traced_wall_s"] = traced["work_s"]
        notes["spans_written"] = traced["spans_written"]
        metrics = layer_metrics
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "failures": failures[:20],
            "metrics": metrics, "notes": notes}


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def report(root, name, seed, trace, result, spec):
    """Print the run, check its metric names against BENCHMARK.json, and save it."""
    want = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in want}
    if names != set(result["metrics"]):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(names ^ set(result['metrics']))}")
    print(f"== {name}  trace={trace}")
    for key, value in result["notes"].items():
        print(f"   {key}: {json.dumps(value)}")
    for m in want:
        value, unit = result["metrics"][m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit} != {m['unit']} in BENCHMARK.json")
        print(f"   {m['name']} = {value:.6g} {unit}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    path = os.path.join(root, OUT_DIR, "results", f"{name}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=name, trace=trace), fh, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "convexgeom", "__init__.py")):
        sys.exit("run.py: no src/convexgeom here; run it from the repository root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env_before = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, args.trace)
            result["notes"]["environment"] = {"before": env_before,
                                              "after": environment()}
            report(root, name, args.seed, args.trace, result, spec)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit) in result["metrics"].items():
                total["metrics"][prefix + key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"run.py: {exc}")
    print(json.dumps(total))


if __name__ == "__main__":
    main()
