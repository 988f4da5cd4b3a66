#!/usr/bin/env python3
"""Run the benchmark several times per workload and record the results.

    python3 perfbench/baseline.py --seed-base 1 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --seed-base 101 --out perfbench/BASELINE.json

Reads BENCHMARK.json for the command, run length, workloads and bounds.  One
call makes a set: each workload runs ten times with --trace 0, on seeds
seed-base to seed-base + 9, then once with --trace 1.  For every end-to-end
metric it reports the median, the quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median, against the metric's bound.  When --out
already holds sets, the new set is added (replacing one with the same seed
base), and each later set's medians are compared with the first set's: the
shift is how much worse the later median is, as a share of the first.  The
output also holds the machine metadata the numbers depend on.  Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def summarize(values, bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3.0,
        "values": values,
    }


def run_set(bench, seed_base) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [
            run_once(bench["command"], workload, seed_base + i, bench["run_seconds"], 0)
            for i in range(RUNS)
        ]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [r["wall_s"] for r in results],
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()
            },
        }
        for name, s in entry["end_to_end"].items():
            flag = "" if s["steady"] else "  NOT STEADY"
            print(
                f"{workload:10s} {name:14s} median {s['median']:12.6g}  "
                f"spread {s['spread']:.4f} (bound {s['bound']}){flag}",
                flush=True,
            )
        traced = run_once(bench["command"], workload, seed_base, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_run_wall_s"] = traced["wall_s"]
        workloads[workload] = entry
    return {"seed_base": seed_base, "workloads": workloads}


def median_shifts(bench, first, later) -> dict:
    """{workload: {metric: {"shift", "bound", "within"}}}: how much worse the
    later set's median is than the first's, as a share of the first."""
    shifts = {}
    for workload, entry in later["workloads"].items():
        shifts[workload] = {}
        for m in bench["end_to_end"]:
            a = first["workloads"][workload]["end_to_end"][m["name"]]["median"]
            b = entry["end_to_end"][m["name"]]["median"]
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            shifts[workload][m["name"]] = {"shift": shift, "bound": m["bound"], "within": shift <= m["bound"]}
    return shifts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed-base", type=int, default=1, help="first seed; run i uses seed-base + i")
    parser.add_argument("--out", default=None, help="JSON file to add the set to (default: print only)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    new_set = run_set(bench, args.seed_base)
    sets = []
    if args.out and os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            sets = [s for s in json.load(fh)["sets"] if s["seed_base"] != args.seed_base]
    sets.append(new_set)
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "runs": RUNS, "sets": sets}
    if len(sets) > 1:
        report["median_shift"] = [
            {"seed_base": s["seed_base"], "workloads": median_shifts(bench, sets[0], s)} for s in sets[1:]
        ]
        for entry in report["median_shift"]:
            for workload, metrics in entry["workloads"].items():
                for name, m in metrics.items():
                    flag = "" if m["within"] else "  OUT OF BOUND"
                    print(f"shift {workload:10s} {name:14s} {m['shift']:+.4f} (bound {m['bound']}){flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
