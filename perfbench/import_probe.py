"""Import cost of udwpair, measured in fresh interpreters.

`python -X importtime -c "import udwpair"` gives the cumulative time of the
package and of the numpy and scipy imports it triggers; two floors measured
in the same run (an empty interpreter, and one that imports only numpy) size
what a lazier import could still save.  importtime adds its own overhead, so
its figures read higher than a plain wall-clock import.
"""

import statistics
import subprocess
import sys
import time

from workloads import ROOT, child_env


def parse_importtime(text: str) -> list:
    """[(depth, module, self_us, cumulative_us)] in output order."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the column header line
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), self_us, cum_us))
    return rows


def import_breakdown(rows) -> dict:
    """Cumulative ms of the outermost udwpair import, of the scipy imports
    (with everything they pull in, numpy submodules included), and of the
    numpy imports made outside scipy."""
    totals = {"udwpair": 0, "numpy": 0, "scipy": 0}
    stack = []
    # importtime prints children before their parent; walking it backwards
    # visits each parent first, so `stack` holds the ancestors of each row
    for depth, module, _self_us, cum_us in reversed(rows):
        del stack[depth:]
        top = module.split(".")[0]
        if top in totals and not any(name.split(".")[0] in (top, "scipy") for name in stack):
            totals[top] += cum_us
        stack.append(module)
    return {k: v / 1000.0 for k, v in totals.items()}


def _spawn(args) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args!r} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stderr


def measure(reps: int) -> dict:
    """import.* metrics in ms, each the median of `reps` fresh interpreters."""
    floor, numpy_floor, parts = [], [], []
    for _ in range(reps):
        floor.append(_spawn(["-c", "pass"])[0])
        numpy_floor.append(_spawn(["-c", "import numpy"])[0])
        stderr = _spawn(["-X", "importtime", "-c", "import udwpair"])[1]
        parts.append(import_breakdown(parse_importtime(stderr)))
    return {
        "import.udwpair_ms": statistics.median(p["udwpair"] for p in parts),
        "import.scipy_ms": statistics.median(p["scipy"] for p in parts),
        "import.numpy_ms": statistics.median(p["numpy"] for p in parts),
        "import.interpreter_floor_ms": 1000.0 * statistics.median(floor),
        "import.numpy_floor_ms": 1000.0 * statistics.median(numpy_floor),
    }
