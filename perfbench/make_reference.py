#!/usr/bin/env python3
"""Regenerate the reference values that the `figures` workload checks against.

Runs every curve of the five figure presets through `run_sweep` and
`emit_csv`, parses the CSV back, and stores the header and one
(steps x columns) float64 array per curve label in
perfbench/reference/figures.npz.  Run from the repository root:

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter the CSV values, and say so
in that change: the benchmark counts every value that moves by more than
1e-12 as a failed operation.
"""

import io
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from udwpair import sweep_engine  # noqa: E402

from workloads import FIGURE_PRESETS, REFERENCE_PATH, parse_csv  # noqa: E402


def main() -> int:
    arrays = {}
    header = None
    for preset in FIGURE_PRESETS:
        for spec in sweep_engine.figure_preset(preset):
            buf = io.StringIO()
            sweep_engine.emit_csv(sweep_engine.run_sweep(spec), buf)
            header, values = parse_csv(buf.getvalue())
            arrays[spec.label] = values
    np.savez_compressed(REFERENCE_PATH, header=np.array(header), **arrays)
    print(f"wrote {REFERENCE_PATH}: {len(arrays)} curves")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
