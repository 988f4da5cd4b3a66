#!/usr/bin/env python3
"""udwpair benchmark: one workload per invocation, timed from outside the package.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 50 --trace 0

Run from the repository root.  The benchmark imports udwpair from the
checkout's src/ (never from an installed copy) and exits with code 2 when
those sources are missing.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters that import udwpair and finish one warm-up operation),
then a closed loop of operations with one worker thread for --seconds,
checking every output.  --trace 1 measures the per-layer metrics instead:
import breakdown and CLI probes, then rounds that run the same fixed pass of
operations untraced and span-traced in turn.  Either way the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and what each should move.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import COUNTERS, LAYER_NAMES, OP_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 7
IMPORT_REPS = 3
CLI_PROBE_CALLS = 20
# Operations in the fixed pass that a traced run repeats; a figures pass is
# always all 14 curves.
TRACE_PASS = {"verify": 4, "cli_point": 20}
# Highest percentile op_ms.tail may take.  Above it, on the hundreds of
# operations a figures or verify run makes, the tail is the few operations
# that other processes on the host pre-empted, not the program's own cost.
TAIL_MAX_PCT = 90

# The end-to-end metrics listed in BENCHMARK.json.  op_ms.p50, the tail
# without the p90 cap and failed_frac are printed beside them but not
# listed: see README.md.
END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def tail_percentile(samples, max_pct=100) -> tuple:
    """(percentile, value): the highest whole percentile up to max_pct with
    at least ten samples beyond it, by the nearest-rank rule; the maximum
    when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    pct = min(max_pct, (100 * (n - 10)) // n)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return pct, ordered[rank - 1]


def run_op(wl, run, op, tracer=None) -> tuple:
    """(seconds, ok) of one operation.  An exception or a wrong output is a
    failed operation; the check runs outside the timed region."""
    span = tracer.begin_op() if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = run(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False
    finally:
        if span is not None:
            tracer.end_op(span)
    dt = time.perf_counter() - t0
    try:
        ok = wl.check(op, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"wrong output from {wl.name} op {op!r}", file=sys.stderr)
    return dt, ok


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter until it has imported
    udwpair and completed one warm-up operation."""
    from workloads import child_env

    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed with exit code {code}")
        times.append(dt)
    return statistics.median(times)


def closed_loop(wl, seconds: float) -> dict:
    """Whole passes of operations until `seconds` have passed."""
    times, failed, points = [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for op in wl.pass_ops(1):
            dt, ok = run_op(wl, wl.run, op)
            times.append(dt)
            failed += not ok
            points += wl.points(op)
    return {"times": times, "failed": failed, "points": points}


def end_to_end(wl, workload: str, seed: int, seconds: float) -> tuple:
    setup_s = measure_setup(workload, seed)
    # warm-up in this process: lazy set-up and caches settle before timing
    op = wl.pass_ops(1)[0]
    run_op(wl, wl.run, op)
    loop = closed_loop(wl, seconds)
    times = loop["times"]
    pct, tail = tail_percentile(times, TAIL_MAX_PCT)
    far_pct, far_tail = tail_percentile(times)
    if workload == "cli_point":
        rss_kb = wl.peak_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "points_per_s": loop["points"] / sum(times),
        "op_ms.tail": 1000.0 * tail,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "op_ms.tail": f"p{pct} of {len(times)} ops",
        "peak_rss_mb": "largest CLI child" if workload == "cli_point" else "benchmark process",
    }
    print(f"failed_frac = {loop['failed'] / len(times):.6g} 1 ({loop['failed']} of {len(times)} ops)")
    print(f"op_ms.p50 = {1000.0 * statistics.median(times):.6g} ms")
    print(f"op_ms.p{far_pct} = {1000.0 * far_tail:.6g} ms  (last percentile with ten samples beyond)")
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return metrics, len(times), loop["failed"], notes


def per_layer_names() -> list:
    """Every per-layer metric name, in print order."""
    names = []
    for layer in LAYER_NAMES:
        names += [f"{layer}.calls", f"{layer}.self_us", f"{layer}.self_share"]
    names += list(COUNTERS)
    names += [
        "detector_state.dust_clamp.max",
        "sweep_engine.run_sweep.self_us_per_point",
        "sweep_engine.emit_csv.mb_per_s",
        "import.udwpair_ms",
        "import.scipy_ms",
        "import.numpy_ms",
        "import.interpreter_floor_ms",
        "import.numpy_floor_ms",
        "cli.main_ms",
        "trace.overhead_frac",
    ]
    return names


def _per_layer_unit(name: str) -> str:
    if name.endswith(".self_us") or name.endswith("_per_point"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_frac") or name.endswith(".max"):
        return "1"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".mb_per_s"):
        return "MB/s"
    return "count"


def traced(wl, workload: str, seed: int, seconds: float) -> tuple:
    import import_probe
    from workloads import cli_inproc, random_point_flags

    deadline = time.perf_counter() + seconds
    values = import_probe.measure(IMPORT_REPS)

    rng = random.Random(seed)
    cli_times = []
    for _ in range(CLI_PROBE_CALLS):
        flags = random_point_flags(rng)
        t0 = time.perf_counter()
        code, _ = cli_inproc(flags)
        cli_times.append(time.perf_counter() - t0)
        if code != 0:
            raise BenchError(f"cli.main point {flags!r} exited with {code}")
    values["cli.main_ms"] = 1000.0 * statistics.median(cli_times)

    tracer = Tracer()
    ops = wl.pass_ops(TRACE_PASS.get(workload, 1))
    run_op(wl, wl.run_inproc, ops[0])  # warm-up
    wall = {False: 0.0, True: 0.0}
    attempted = failed = rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for on in ((False, True) if rounds % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                for op in ops:
                    dt, ok = run_op(wl, wl.run_inproc, op, tracer if on else None)
                    wall[on] += dt
                    attempted += 1
                    failed += not ok
            finally:
                tracer.uninstall()
        rounds += 1

    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{workload}.npz"))
    totals = tracer.layer_totals()
    traced_ns = totals[OP_SPAN][1]
    for layer in LAYER_NAMES:
        calls, _total_ns, self_ns = totals.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.calls"] = calls / rounds
        values[f"{layer}.self_us"] = self_ns / calls / 1000.0 if calls else 0.0
        values[f"{layer}.self_share"] = self_ns / traced_ns
    for counter, count in tracer.counts.items():
        values[counter] = count / rounds
    values["detector_state.dust_clamp.max"] = tracer.dust_max
    sweep_self_ns = totals.get("sweep_engine.run_sweep", (0, 0.0, 0.0))[2]
    swept = tracer.counts["sweep_engine.run_sweep.points"]
    values["sweep_engine.run_sweep.self_us_per_point"] = sweep_self_ns / swept / 1000.0 if swept else 0.0
    emit_ns = totals.get("sweep_engine.emit_csv", (0, 0.0, 0.0))[1]
    written = tracer.counts["sweep_engine.emit_csv.bytes"]
    values["sweep_engine.emit_csv.mb_per_s"] = written / emit_ns * 1000.0 if emit_ns else 0.0
    values["trace.overhead_frac"] = wall[True] / wall[False] - 1.0

    metrics = {name: (values[name], _per_layer_unit(name)) for name in per_layer_names()}
    notes = {"trace.overhead_frac": f"{rounds} rounds of {len(ops)} ops each way"}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "verify", "cli_point"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "udwpair", "__init__.py")):
        print(f"error: no udwpair sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import udwpair

    if os.path.dirname(os.path.dirname(os.path.abspath(udwpair.__file__))) != SRC:
        print(f"error: imported udwpair from {udwpair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workload

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = make_workload(args.workload, args.seed, tmp)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(wl, args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
