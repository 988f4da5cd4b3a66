"""Print each preset curve's transient memory and its page faults per op.

    python tests/op_memory.py [CHECKOUT]     (default: this repository)

CHECKOUT is a repository root; its src/ is imported.  For each of the 14
preset curves one line gives the tracemalloc peaks of run_sweep and of
emit_csv into a file, and the minor page faults per op of a warm loop that
runs the curve, writes its CSV and parses it back between ops, as the
`figures` benchmark's output check does.  A last line gives the faults per
op of a loop over all 14 curves in shuffled passes.  A warm loop that takes
fresh heap pages on every op, because the allocator returned them after the
last one, shows here as tens of faults per op.

pytest does not collect this file, and it stores nothing: the CSVs go to a
temporary directory.
"""

import os
import random
import resource
import sys
import tempfile
import time
import tracemalloc

WARM_OPS = 3  # ops before the faults are counted: lazy tables and caches settle
LOOP_OPS = 40


def _parse(path):
    # the benchmark check's parse: the text, its lines, one float per value
    import numpy as np

    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    return header, np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv) -> int:
    root = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
    sys.path.insert(0, os.path.join(root, "src"))
    from udwpair import sweep_engine

    specs = [s for p in sweep_engine.FIGURE_PRESETS for s in sweep_engine.figure_preset(p)]
    with tempfile.TemporaryDirectory() as work:

        def op(spec):
            rows = sweep_engine.run_sweep(spec)
            path = os.path.join(work, f"{spec.label}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                sweep_engine.emit_csv(rows, fh)
            _parse(path)

        def faults_per_op(ops) -> float:
            for spec in ops[:WARM_OPS]:
                op(spec)
            before = _minflt()
            for spec in ops[WARM_OPS:]:
                op(spec)
            return (_minflt() - before) / (len(ops) - WARM_OPS)

        # the loops first, so that no tracemalloc bookkeeping sits on the heap
        t0 = time.perf_counter()
        faults = {s.label: faults_per_op([s] * (WARM_OPS + LOOP_OPS)) for s in specs}
        rng = random.Random(1)
        shuffled = []
        for _ in range(1 + (WARM_OPS + 5 * LOOP_OPS) // len(specs)):
            shuffled += rng.sample(specs, len(specs))
        mixed = faults_per_op(shuffled)
        loops_s = time.perf_counter() - t0

        print(f"{'curve':<24} {'run_sweep KiB':>12} {'emit_csv KiB':>12} {'faults/op':>10}")
        for spec in specs:
            path = os.path.join(work, f"{spec.label}.csv")
            tracemalloc.start()
            rows = sweep_engine.run_sweep(spec)
            sweep_kb = tracemalloc.get_traced_memory()[1] / 1024.0
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with open(path, "w", encoding="utf-8", newline="") as fh:
                sweep_engine.emit_csv(rows, fh)
            emit_kb = (tracemalloc.get_traced_memory()[1] - base) / 1024.0
            tracemalloc.stop()
            print(f"{spec.label:<24} {sweep_kb:>13.1f} {emit_kb:>12.1f} {faults[spec.label]:>10.2f}")
        print(f"{'all 14, shuffled':<24} {'':>13} {'':>12} {mixed:>10.2f}")
        print(f"# loops took {loops_s:.1f} s; tracemalloc peaks in KiB above what each call started with")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
