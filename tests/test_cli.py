import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import udwpair
from udwpair import (
    CSV_HEADER,
    AssemblyError,
    ModelParams,
    QuadratureError,
    SweepError,
    SweepSpec,
    evaluate_point,
    figure_preset,
    run_sweep,
    sweep_engine,
    verify,
)
from udwpair.cli import _join_negative_values, cmd_verify, main
from udwpair.sweep_engine import FIGURE_PRESETS

_SWEEP = ["sweep", "--vary", "dtau", "--from", "0", "--to", "1", "--steps", "3"]


def _fresh_python(*args):
    """Run a new interpreter that imports this checkout's udwpair."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(udwpair.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _sweep_row(p):
    # a two-point sweep that starts at p: its first row is p's
    return run_sweep(SweepSpec("dtau", p, start=p.delay, stop=p.delay + 1.0, steps=2))[0]


def _payload_row(payload):
    """The SweepRow fields after the value, as the point JSON gives them."""
    c, s, m = payload["correlators"], payload["state"], payload["measures"]
    return (
        *(c[k] for k in ("f_a", "f_b", "kappa", "omega", "gamma")),
        *(s[k] for k in ("rho11", "rho22", "rho33", "rho44")),
        abs(complex(*s["rho14"])),  # libm hypot, as the CSV modulus
        abs(complex(*s["rho23"])),
        *(m[k] for k in ("c_l1", "c_rec", "negativity")),
    )


def test_point_default_output(capsys):
    # point, evaluate_point and the sweep row of the same point agree bit
    # for bit in every field a SweepRow carries
    cases = [
        ([], ModelParams()),
        (
            ["--theta", "0.5", "--lambda", "2", "--l", "2", "--dtau", "-2"],
            ModelParams(theta=0.5, lambda_a=2.0, lambda_b=2.0, separation=2.0, delay=-2.0),
        ),
    ]
    for flags, p in cases:
        assert main(["point", *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"correlators", "state", "spectrum", "measures"}
        assert len(payload["spectrum"]) == 4
        row = _sweep_row(p)
        assert _payload_row(payload) == tuple(row[1:])
        assert evaluate_point(p)[1:] == row[1:]


def test_point_flags_override_defaults(capsys):
    assert main(["point", "--theta", "0", "--lambda", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = evaluate_point(ModelParams(theta=0.0, lambda_a=2.0, lambda_b=2.0))
    assert payload["state"]["rho11"] == row.rho11
    assert payload["measures"]["negativity"] == row.negativity


def test_point_bad_theta_is_usage_error(capsys):
    assert main(["point", "--theta", "9"]) == 2
    assert "theta" in capsys.readouterr().err
    assert main(["point", "--theta", "abc"]) == 2
    assert "invalid finite float value: 'abc'" in capsys.readouterr().err


def _decay(x):
    # f_j at lambda_j * eta_j = x and unit width
    return math.exp(-x * x / (2.0 * math.pi ** 2))


def test_config_resolution_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cases = [
        # flag --lambda-a beats config "lambda" for A; B falls back to config
        ({"lambda": 3.0, "l": 5.0}, ["--lambda-a", "1"], {"f_a": _decay(1.0), "f_b": _decay(3.0)}),
        # a generic flag beats a specific config entry
        ({"lambda-b": 0.5}, ["--lambda", "2"], {"f_a": _decay(2.0), "f_b": _decay(2.0)}),
        ({"eta": 0.5}, ["--eta", "2"], {"f_a": _decay(2.0), "f_b": _decay(2.0)}),
        # gamma = omega_b * (tau_a0 + dtau) = 3 omega_b at the defaults
        ({"omega-b": 2.0}, ["--omega-b", "3"], {"gamma": 9.0}),
    ]
    for config, flags, want in cases:
        cfg.write_text(json.dumps(config))
        assert main(["point", "--config", str(cfg), *flags]) == 0
        got = json.loads(capsys.readouterr().out)["correlators"]
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-15)


def test_config_rejects_non_finite_value(tmp_path, capsys):
    # json reads Infinity and 1e400 as inf; the error names the key
    cfg = tmp_path / "cfg.json"
    for text in ('{"l": Infinity}', '{"l": 1e400}'):
        cfg.write_text(text)
        assert main(["point", "--config", str(cfg)]) == 2
        assert "'l'" in capsys.readouterr().err


def test_bad_knob_values_are_usage_errors(capsys):
    # without the flag and theta checks a sweep would fail at its first
    # grid point with exit 1
    for argv, named in (
        (_SWEEP + ["--l", "inf"], "--l"),
        (_SWEEP + ["--theta", "9"], "theta"),
        (["point", "--lambda", "nan"], "--lambda"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err


def test_sweep_bad_fixed_flag_is_usage_error(capsys):
    # the same container message and exit code as point, before any grid
    # point runs
    assert main(["point", "--lambda", "-1"]) == 2
    point_err = capsys.readouterr().err
    assert main(_SWEEP + ["--lambda", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == point_err == "error: DetectorParams.coupling must be >= 0, got -1.0\n"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 1.0, "junk": 2.0}))
    assert main(["point", "--config", str(cfg)]) == 2
    assert "junk" in capsys.readouterr().err


def test_config_rejects_non_numeric_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": "big"}))
    assert main(["point", "--config", str(cfg)]) == 2


def test_config_rejects_malformed_json(tmp_path, capsys):
    # text that is not JSON, and bytes that are not UTF-8: both name the file
    cfg = tmp_path / "cfg.json"
    for data in (b"{not json", b"\xff\xfe"):
        cfg.write_bytes(data)
        assert main(["point", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {cfg} is not valid JSON: ")


def test_config_rejects_json_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    assert main(["point", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config {cfg} must hold a JSON object\n"


def test_config_missing_file(tmp_path):
    assert main(["point", "--config", str(tmp_path / "nope.json")]) == 2


def test_sweep_to_stdout(capsys):
    rc = main(["sweep", "--vary", "l", "--from", "1", "--to", "2", "--steps", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_sweep_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(
        ["sweep", "--vary", "dtau", "--from", "-2", "--to", "2", "--steps", "5",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6


def test_sweep_to_an_unwritable_file_exits_1(tmp_path, capsys):
    # a directory cannot be opened for writing
    assert main([*_SWEEP, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_sweep_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # an empty path is not stdout: only an absent --out writes there
    monkeypatch.chdir(tmp_path)
    for argv in ([*_SWEEP, "--out="], [*_SWEEP, "--out", ""]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --out: must not be empty" in captured.err
    assert not any(tmp_path.iterdir())


def test_sweep_missing_required_flag_exits_2(capsys):
    assert main(["sweep", "--vary", "l"]) == 2


def test_sweep_invalid_choice_exits_2(capsys):
    rc = main(["sweep", "--vary", "bogus", "--from", "0", "--to", "1", "--steps", "3"])
    assert rc == 2


def test_sweep_bad_bounds_exit_2(capsys):
    rc = main(["sweep", "--vary", "l", "--from", "2", "--to", "1", "--steps", "3"])
    assert rc == 2
    assert "start" in capsys.readouterr().err
    # finite bounds whose grid overflows are bad bounds too, not a runtime
    # failure at a grid value the user never asked for
    for vary, start, stop, steps in (("dtau", "-1e308", "1e308", "3"), ("l", "0", "1e308", "4")):
        argv = ["sweep", "--vary", vary, f"--from={start}", f"--to={stop}", "--steps", steps]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


def test_sweep_aborts_on_bad_grid_point(capsys):
    rc = main(["sweep", "--vary", "lambda", "--from", "-1", "--to", "1", "--steps", "3"])
    assert rc == 1
    assert "lambda=-1.0" in capsys.readouterr().err


def test_sweep_that_does_not_fit_in_memory_exits_1(monkeypatch, capsys):
    # a runtime failure that names the step count; the grid is never
    # allocated, since a host that overcommits memory may grant it
    def exhausted(spec):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(udwpair.cli, "run_sweep", exhausted)
    argv = ["sweep", "--vary", "l", "--from", "0", "--to", "1", "--steps", "100000000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a sweep of 100000000000 steps does not fit in memory\n"


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "point" in capsys.readouterr().out


def test_point_output_is_reproducible(capsys):
    assert main(["point", "--lambda", "2.5"]) == 0
    first = capsys.readouterr().out
    assert main(["point", "--lambda", "2.5"]) == 0
    assert capsys.readouterr().out == first


def test_point_scientific_notation_flags(capsys):
    # argparse would take -2.5e0 for an option name
    assert main(["point", "--lambda", "2.5e-1", "--l", "3e0", "--dtau", "-2.5e0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = evaluate_point(ModelParams(lambda_a=0.25, lambda_b=0.25, delay=-2.5))
    assert payload["correlators"]["f_a"] == row.f_a
    assert payload["correlators"]["kappa"] == row.kappa


def test_negative_values_after_a_bare_double_dash_stay_apart():
    argv = ["point", "--l", "-1e-3", "--", "-1e-3"]
    assert _join_negative_values(argv) == ["point", "--l=-1e-3", "--", "-1e-3"]


def test_point_separable_start_has_no_entanglement(capsys):
    assert main(["point", "--theta", "0", "--lambda", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measures"]["negativity"] <= 1e-12


def test_figures_writes_one_csv_per_curve(tmp_path, capsys):
    rc = main(["figures", "fig4", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig4_lightlike.csv", "fig4_spacelike.csv"]
    for p in tmp_path.iterdir():
        lines = p.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 402


def test_figures_split_presets(tmp_path, capsys):
    assert main(["figures", "fig3-top", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig3_lightlike.csv", "fig3_spacelike.csv"]


def test_figures_offers_exactly_the_presets(capsys):
    offered = ("fig1", "fig2", "fig3-top", "fig3-bottom", "fig4")
    assert main(["figures", "--help"]) == 0
    assert "{%s}" % ",".join(offered) in capsys.readouterr().out
    assert tuple(FIGURE_PRESETS) == offered
    for name in offered:
        assert figure_preset(name)


def test_figures_unknown_preset_exits_2():
    assert main(["figures", "fig9"]) == 2


def test_figures_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    rc = main(["figures", "fig4", "--out", str(blocker / "subdir")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_figures_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figures", "fig4", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --out: must not be empty" in captured.err
    assert not any(tmp_path.iterdir())


def test_figures_stops_at_the_first_curve_it_cannot_write(tmp_path, capsys):
    # the second curve's file name is taken by a directory
    (tmp_path / "fig1_dtau2.csv").mkdir()
    assert main(["figures", "fig1", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"wrote {tmp_path / 'fig1_dtau0.csv'} (")
    assert err.startswith(f"error: cannot write {tmp_path / 'fig1_dtau2.csv'}: ")
    assert not (tmp_path / "fig1_dtau4.csv").exists()


def test_verify_subcommand(capsys):
    rc = main(["verify", "--points", "20", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 6
    assert all("PASS" in ln for ln in lines)


def test_verify_passes_for_any_seed(capsys):
    assert main(["verify", "--points", "25", "--seed", "42"]) == 0
    assert main(["verify", "--points", "25", "--seed", "43"]) == 0
    capsys.readouterr()


def test_verify_rejects_non_positive_points(capsys):
    for points in ("-5", "0"):
        assert main(["verify", "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "points must be at least 1" in captured.err


def _raising(exc):
    def raises(*args, **kwargs):
        raise exc

    return raises


@pytest.mark.parametrize(
    "kernel, exc",
    [
        ("_oracle", QuadratureError("commutator integral: estimated error 1.000e-08")),
        ("_draw", MemoryError("Unable to allocate 745. GiB")),
        (
            "_batch_states",
            SweepError("verify failed at draw 3 of seed 0: element rho11 is not finite: nan"),
        ),
    ],
)
def test_verify_runtime_failures_exit_1(monkeypatch, capsys, kernel, exc):
    # no large draw is allocated: the kernel raises as it would
    monkeypatch.setattr(verify, kernel, _raising(exc))
    assert main(["verify", "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if isinstance(exc, MemoryError):
        assert captured.err == "error: verify with 5 draws per check does not fit in memory\n"
    else:
        assert captured.err == f"error: {exc}\n"


def _reject_row_1(monkeypatch):
    # the pass's measures reject row 1 of every batch
    measures = sweep_engine._measures

    def failing_row_1(*args):
        ok, values = measures(*args)
        return ok & (np.arange(ok.size) != 1), values

    monkeypatch.setattr(sweep_engine, "_measures", failing_row_1)


def test_verify_names_the_draw_that_fails(monkeypatch, capsys):
    # a row that only the pass's measures reject, and that its point alone
    # passes: the battery cannot run, and the error names the draw
    _reject_row_1(monkeypatch)
    assert main(["verify", "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify failed at draw 1 of seed 0: "
        "the point fails an invariant check only inside its batch\n"
    )


def test_verify_names_the_draw_whose_point_fails_to_assemble(monkeypatch, capsys):
    # the rerun point raises the assembly error, which reaches the command
    # inside the SweepError that names the draw
    _reject_row_1(monkeypatch)
    exc = AssemblyError("trace deviates from 1 by 1.000e-06")
    monkeypatch.setattr(sweep_engine, "assemble_main", _raising(exc))
    assert main(["verify", "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify failed at draw 1 of seed 0: {exc}\n"


def test_verify_without_draws_exits_1(capsys):
    # main rejects --points 0 as a usage error; run_all's own ValueError is
    # a runtime failure of the command
    assert cmd_verify(points=0) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points must be at least 1, got 0\n"


def test_point_accepts_a_large_time_origin(capsys):
    # 1e17 + 3 rounds to 1e17, so no switch-time difference can reproduce
    # the delay; the model takes the delay as given
    row = evaluate_point(ModelParams(tau_a0=1e17))
    assert abs(row.rho11 + row.rho22 + row.rho33 + row.rho44 - 1.0) <= 1e-12
    assert row.c_l1 <= 1.0
    assert main(["point", "--tau-a0", "1e17"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measures"]["c_l1"] == row.c_l1


def test_point_with_overflowing_state_exits_1(capsys):
    cases = [
        # f_a*f_b underflows while cosh(omega) overflows: no NaN payload
        (["--lambda", "90", "--l", "0.5", "--dtau", "0"], "element rho11 is not finite: nan"),
        # valid inputs whose correlators cannot be built are runtime
        # failures too, not usage errors
        (["--lambda", "1000"], "CorrelatorSet.f_a must lie in (0, 1], got 0.0"),
        (["--lambda", "1e155"], "CorrelatorSet.kappa must be finite, got -inf"),
        (["--l", "0", "--dtau", "1e103"], "CorrelatorSet.omega must be finite, got nan"),
        (["--tau-a0", "1e308", "--omega-a", "4"], "CorrelatorSet.phase_a must be finite, got inf"),
    ]
    for flags, message in cases:
        assert main(["point", *flags]) == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_import_leaves_scipy_unloaded():
    proc = _fresh_python(
        "-c", "import sys, udwpair; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_numpy_polynomial_unloaded():
    # the oracle builds its Gauss-Kronrod pair on first use
    proc = _fresh_python("-c", "import sys, udwpair; print('numpy.polynomial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_runs_without_scipy():
    # the quadrature oracle is numpy only
    proc = _fresh_python(
        "-c",
        "import sys, udwpair.verify; udwpair.verify.run_all(points=5); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_with_warnings_as_errors():
    # runpy warns when udwpair.cli is imported before it runs as __main__
    proc = _fresh_python("-W", "error", "-m", "udwpair.cli", "point")
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {"correlators", "state", "spectrum", "measures"}
