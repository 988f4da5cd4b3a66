"""The three benchmark workloads: inputs from a seed, one operation, and its check.

Each workload exposes the same small interface to the harness in run.py:

    pass_ops(n)      the next pass of operations (inputs only, drawn from the
                     workload's seeded generator)
    run(op)          perform one operation through the package's public API
    run_inproc(op)   the in-process form of run(); differs only for
                     cli_point, whose run() is a fresh interpreter that the
                     span tracer cannot see into
    check(op, out)   True when the output is correct
    points(op)       parameter points the operation evaluates

Why these three: `figures` is the survey path (runtime routes plus CSV
output, with inputs that repeat along fig3/fig4 curves); `verify` is the
dual-route self-check on random draws, dominated by the oracle routes; and
`cli_point` is a one-off CLI call, dominated by interpreter start and
imports.  A change to one of those costs should move its own workload and
leave the others alone.

The udwpair package must be importable when this module is imported; run.py
puts the checkout's src/ first on sys.path.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading

import numpy as np

from udwpair import cli, sweep_engine, verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference", "figures.npz")

FIGURE_PRESETS = ("fig1", "fig2", "fig3-top", "fig3-bottom", "fig4")

# Absolute tolerance for every compared value (CSV against the stored
# reference, CLI JSON against in-process evaluate_point).
VALUE_TOL = 1e-12

# Seconds after which a CLI child is killed (its op then fails).
CLI_TIMEOUT_S = 120

# Draws per sampled self-check in one verify operation; run_all has five
# sampled checks, so one operation checks 5 * VERIFY_POINTS draws.
VERIFY_POINTS = 100

# SweepRow fields that a `point` JSON payload also carries.
_POINT_FIELDS = (
    ("correlators", "f_a"),
    ("correlators", "f_b"),
    ("correlators", "kappa"),
    ("correlators", "omega"),
    ("correlators", "gamma"),
    ("state", "rho11"),
    ("state", "rho22"),
    ("state", "rho33"),
    ("state", "rho44"),
    ("measures", "c_l1"),
    ("measures", "c_rec"),
    ("measures", "negativity"),
)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    return dict(os.environ, PYTHONPATH=SRC)


def parse_csv(text: str):
    """(header, float64 array) of an emit_csv output."""
    header, *lines = text.splitlines()
    values = np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)
    return header, values


def load_reference() -> dict:
    """{"header": str, <curve label>: array} as written by make_reference.py."""
    with np.load(REFERENCE_PATH, allow_pickle=False) as data:
        ref = {key: data[key] for key in data.files}
    ref["header"] = str(ref["header"])
    return ref


class Figures:
    """All 14 curves of the five presets; one op is one curve swept and
    written as CSV.  The seed sets the curve order of every pass."""

    name = "figures"

    def __init__(self, seed: int, out_dir: str, reference: dict | None = None):
        self.rng = random.Random(seed)
        self.specs = [s for p in FIGURE_PRESETS for s in sweep_engine.figure_preset(p)]
        # loaded on the first check, so that set-up time holds none of it
        self.reference = reference
        self.out_dir = out_dir

    def pass_ops(self, n: int = 1) -> list:
        # n is ignored: a pass is always every curve once, so the cost mix
        # is the same whatever the run length
        ops = list(self.specs)
        self.rng.shuffle(ops)
        return ops

    def run(self, spec):
        rows = sweep_engine.run_sweep(spec)
        path = os.path.join(self.out_dir, f"{spec.label}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            sweep_engine.emit_csv(rows, fh)
        return path

    run_inproc = run

    def check(self, spec, path) -> bool:
        if self.reference is None:
            self.reference = load_reference()
        with open(path, "r", encoding="utf-8") as fh:
            header, values = parse_csv(fh.read())
        ref_header = self.reference["header"]
        ref = self.reference.get(spec.label)
        if header != ref_header or ref is None or values.shape != ref.shape:
            return False
        if not np.all(np.abs(values - ref) <= VALUE_TOL):
            return False
        col = {name: i for i, name in enumerate(ref_header.split(","))}
        trace = values[:, [col["rho11"], col["rho22"], col["rho33"], col["rho44"]]].sum(axis=1)
        neg = values[:, col["negativity"]]
        return bool(
            np.all(np.abs(trace - 1.0) <= VALUE_TOL)
            and np.all(values[:, col["c_l1"]] <= 1.0 + VALUE_TOL)
            and np.all((neg >= 0.0) & (neg <= 0.5))
        )

    def points(self, spec) -> int:
        return spec.steps


class Verify:
    """Repeated in-process run_all calls, each with a new seed drawn from
    the workload's generator, so no work is shared between draws."""

    name = "verify"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pass_ops(self, n: int = 1) -> list:
        return [self.rng.getrandbits(32) for _ in range(n)]

    def run(self, op_seed):
        return verify.run_all(seed=op_seed, points=VERIFY_POINTS)

    run_inproc = run

    def check(self, op_seed, results) -> bool:
        return len(results) == 6 and all(r.passed for r in results)

    def points(self, op_seed) -> int:
        return 5 * VERIFY_POINTS


def random_point_flags(rng: random.Random) -> dict:
    """CLI flags for one point inside the validated domain."""
    return {
        "theta": rng.uniform(0.0, math.pi / 2.0),
        "lambda-a": rng.uniform(0.0, 8.0),
        "lambda-b": rng.uniform(0.0, 8.0),
        "eta": rng.uniform(0.2, 2.0),
        "omega-a": rng.uniform(0.0, 4.0),
        "omega-b": rng.uniform(0.0, 4.0),
        "l": rng.uniform(0.01, 10.0),
        "dtau": rng.uniform(-10.0, 10.0),
        "tau-a0": rng.uniform(-5.0, 5.0),
    }


def point_argv(flags: dict) -> list:
    argv = ["point"]
    for key, value in flags.items():
        argv += [f"--{key}", repr(value)]
    return argv


def cli_inproc(flags: dict):
    """(exit code, stdout) of cli.main on one point, in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(point_argv(flags))
    return code, buf.getvalue()


class CliPoint:
    """One `python -m udwpair.cli point` per op, in a fresh interpreter,
    with flags drawn from the seed."""

    name = "cli_point"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # largest ru_maxrss (KiB) of any CLI child so far
        self.peak_child_rss_kb = 0

    def pass_ops(self, n: int = 1) -> list:
        return [random_point_flags(self.rng) for _ in range(n)]

    def run(self, flags):
        proc = subprocess.Popen(
            [sys.executable, "-m", "udwpair.cli", *point_argv(flags)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            # reaped here rather than by Popen, for this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    run_inproc = staticmethod(cli_inproc)

    def check(self, flags, out) -> bool:
        code, stdout = out
        if code != 0:
            return False
        payload = json.loads(stdout)
        p = sweep_engine.ModelParams(
            theta=flags["theta"],
            lambda_a=flags["lambda-a"],
            lambda_b=flags["lambda-b"],
            eta_a=flags["eta"],
            eta_b=flags["eta"],
            gap_a=flags["omega-a"],
            gap_b=flags["omega-b"],
            separation=flags["l"],
            delay=flags["dtau"],
            tau_a0=flags["tau-a0"],
        )
        row = sweep_engine.evaluate_point(p)
        got = [payload[group][key] for group, key in _POINT_FIELDS]
        want = [getattr(row, key) for _, key in _POINT_FIELDS]
        got += [math.hypot(*payload["state"]["rho14"]), math.hypot(*payload["state"]["rho23"])]
        want += [row.abs_rho14, row.abs_rho23]
        return all(abs(g - w) <= VALUE_TOL for g, w in zip(got, want))

    def points(self, flags) -> int:
        return 1


WORKLOADS = ("figures", "verify", "cli_point")


def make_workload(name: str, seed: int, out_dir: str):
    if name == "figures":
        return Figures(seed, out_dir)
    if name == "verify":
        return Verify(seed)
    if name == "cli_point":
        return CliPoint(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
