"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import import_probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from udwpair import sweep_engine  # noqa: E402


def _one_pass(wl):
    results = [run.run_op(wl, wl.run, op) for op in wl.pass_ops()]
    return sum(not ok for _, ok in results) / len(results)


def test_corrupted_reference_raises_failed_frac(tmp_path):
    reference = workloads.load_reference()
    assert _one_pass(workloads.Figures(3, str(tmp_path), reference)) == 0.0

    corrupted = dict(reference)
    label = sorted(k for k in reference if k != "header")[0]
    corrupted[label] = reference[label].copy()
    corrupted[label][200, -1] += 1e-9
    assert _one_pass(workloads.Figures(3, str(tmp_path), corrupted)) == pytest.approx(1 / 14)

    corrupted = dict(reference, header=reference["header"].replace("c_rec", "c_re"))
    assert _one_pass(workloads.Figures(3, str(tmp_path), corrupted)) == 1.0


def test_cli_check_rejects_a_wrong_value():
    wl = workloads.CliPoint(5)
    flags = wl.pass_ops(1)[0]
    code, stdout = workloads.cli_inproc(flags)
    assert wl.check(flags, (code, stdout))
    payload = json.loads(stdout)
    payload["measures"]["negativity"] += 1e-9
    assert not wl.check(flags, (code, json.dumps(payload)))
    assert not wl.check(flags, (1, stdout))


def test_cli_run_reports_its_own_child_rss():
    wl = workloads.CliPoint(5)
    flags = wl.pass_ops(1)[0]
    out = wl.run(flags)
    assert wl.check(flags, out)
    assert wl.peak_child_rss_kb > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=""),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._per_layer_unit(m["name"]) for m in bench["per_layer"])
    assert set(w["name"] for w in bench["workloads"]) <= set(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 26, 100, 401):
        samples = list(range(n))
        pct, value = run.tail_percentile(samples)
        assert n - 1 - value >= 10
        assert n - 1 - value < 10 + n / 100 + 1
        assert pct == (100 * (n - 10)) // n
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_tail_percentile_stops_at_p90():
    for n in (101, 401, 700):
        pct, value = run.tail_percentile(list(range(n)), run.TAIL_MAX_PCT)
        assert pct == 90
        assert value == -(-90 * n // 100) - 1


def test_import_breakdown_attributes_nested_imports():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy._core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |       numpy.testing",
            "import time:       400 |        450 |     scipy",
            "import time:       500 |        500 |     scipy.integrate",
            "import time:        10 |        960 |   udwpair.field_correlators",
            "import time:        40 |       1300 | udwpair",
        ]
    )
    rows = import_probe.parse_importtime(text)
    assert rows[0] == (2, "numpy._core", 100, 100)
    assert import_probe.import_breakdown(rows) == {"udwpair": 1.3, "numpy": 0.3, "scipy": 0.95}


def test_tracer_counts_and_self_time_then_restores():
    original = sweep_engine.negativity_full
    spec = sweep_engine.SweepSpec("l", start=0.5, stop=8.0, steps=3)
    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.begin_op()
        rows = sweep_engine.run_sweep(spec)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert sweep_engine.negativity_full is original
    assert len(rows) == 3
    totals = tracer.layer_totals()
    assert totals["sweep_engine.run_sweep"][0] == 1
    assert totals["field_correlators.closed_form_correlators"][0] == 3
    assert totals["special_functions.dawson"][0] == 6
    assert totals["quantum_measures.spectrum_general"][0] == 3  # called from coherence_rec
    branches = [v for k, v in tracer.counts.items() if ".branch." in k]
    assert sum(branches) == 6
    assert tracer.counts["sweep_engine.run_sweep.points"] == 3
    selfs = np.array([v[2] for v in totals.values()])
    assert np.all(selfs >= 0)
    assert selfs.sum() == pytest.approx(totals["op"][1])
