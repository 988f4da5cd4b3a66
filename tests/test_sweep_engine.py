import io
import math
from dataclasses import replace

import pytest

from udwpair import (
    CSV_HEADER,
    ModelParams,
    SweepError,
    SweepSpec,
    VARY_CHOICES,
    detector_pair,
    emit_csv,
    evaluate_point,
    figure_preset,
    run_sweep,
)


def test_detector_pair_timing():
    p = ModelParams(delay=2.5, tau_a0=1.0)
    a, b, g = detector_pair(p)
    assert g.time_origin == 1.0
    assert g.delay == 2.5
    assert g.smearing_width == 1.0


def test_evaluate_point_field_count():
    row = evaluate_point(ModelParams())
    assert len(row.astuple()) == len(CSV_HEADER.split(","))


def test_grid_hits_endpoints_exactly():
    spec = SweepSpec("l", start=0.1, stop=9.7, steps=7)
    rows = run_sweep(spec)
    assert len(rows) == 7
    assert rows[0].value == 0.1
    assert rows[-1].value == 9.7
    values = [r.value for r in rows]
    assert values == sorted(values)


def test_vary_lambda_moves_both_couplings():
    spec = SweepSpec("lambda", start=0.5, stop=2.0, steps=4)
    for row in run_sweep(spec):
        assert row.f_a == row.f_b


def test_vary_choices_cover_the_presets():
    assert set(VARY_CHOICES) == {"l", "dtau", "lambda", "omega-b"}


def test_batch_sweep_matches_pointwise():
    # the grid runs as one batch; every row must match the point evaluated
    # alone, and the grid must be start + span * i / (steps - 1), stop exact
    knobs = {
        "l": ((0.1, 9.7), ("separation",)),
        "dtau": ((-4.0, 4.0), ("delay",)),
        "lambda": ((0.0, 6.0), ("lambda_a", "lambda_b")),
        "omega-b": ((0.3, 3.7), ("gap_b",)),
    }
    for vary in VARY_CHOICES:
        (start, stop), names = knobs[vary]
        spec = SweepSpec(vary, start=start, stop=stop, steps=21)
        rows = run_sweep(spec)
        grid = [start + (stop - start) * i / 20 for i in range(20)] + [stop]
        assert [r.value for r in rows] == grid
        for row in rows:
            alone = evaluate_point(replace(spec.fixed, **dict.fromkeys(names, row.value)))
            assert max(abs(a - b) for a, b in zip(row[1:], alone[1:])) <= 1e-14


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("bogus", start=0.0, stop=1.0, steps=5)
    with pytest.raises(ValueError):
        SweepSpec("l", start=0.0, stop=1.0, steps=1)
    with pytest.raises(ValueError):
        SweepSpec("l", start=1.0, stop=1.0, steps=5)
    with pytest.raises(ValueError):
        SweepSpec("l", start=math.inf, stop=1.0, steps=5)


def test_failed_grid_point_names_the_value():
    spec = SweepSpec("lambda", start=-1.0, stop=1.0, steps=5)
    with pytest.raises(SweepError, match="lambda=-1.0"):
        run_sweep(spec)


def test_figure_presets_shape():
    fig1 = figure_preset("fig1")
    assert [s.label for s in fig1] == ["fig1_dtau0", "fig1_dtau2", "fig1_dtau4"]
    assert all(s.vary == "l" and s.steps == 401 for s in fig1)
    assert {s.fixed.delay for s in fig1} == {0.0, 2.0, 4.0}

    fig2 = figure_preset("fig2")
    assert [s.label for s in fig2] == ["fig2_l1", "fig2_l3", "fig2_l5"]
    assert all(s.vary == "dtau" and (s.start, s.stop) == (-10.0, 10.0) for s in fig2)

    top = figure_preset("fig3-top")
    assert [s.label for s in top] == ["fig3_lightlike", "fig3_spacelike"]
    assert all(s.vary == "lambda" and (s.start, s.stop) == (0.0, 12.0) for s in top)
    assert [(s.fixed.separation, s.fixed.delay) for s in top] == [(3.0, 3.0), (5.0, 3.0)]
    assert all(s.fixed.theta == math.pi / 4.0 for s in top)

    bottom = figure_preset("fig3-bottom")
    assert len(bottom) == 4
    assert {s.fixed.theta for s in bottom} == {0.0, math.pi / 2.0}
    assert {s.fixed.separation for s in bottom} == {3.0, 5.0}

    fig4 = figure_preset("fig4")
    assert [s.label for s in fig4] == ["fig4_lightlike", "fig4_spacelike"]
    assert all(s.vary == "omega-b" and (s.start, s.stop) == (0.0, 4.0) for s in fig4)

    with pytest.raises(ValueError):
        figure_preset("fig9")


def test_csv_header_and_roundtrip():
    spec = SweepSpec("l", start=1.0, stop=3.0, steps=3)
    rows = run_sweep(spec)
    sink = io.StringIO()
    size = emit_csv(rows, sink)
    text = sink.getvalue()
    assert size == len(text.encode("utf-8"))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == (
        "vary,f_a,f_b,kappa,omega,gamma,rho11,rho22,rho33,rho44,"
        "abs_rho14,abs_rho23,c_l1,c_rec,negativity"
    )
    assert len(lines) == 4
    assert text.endswith("\n")
    for line, row in zip(lines[1:], rows):
        parsed = [float(tok) for tok in line.split(",")]
        assert tuple(parsed) == row.astuple()  # 17 digits round-trip losslessly


def test_csv_requires_rows():
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())


def test_csv_is_deterministic():
    spec = SweepSpec("dtau", start=0.0, stop=5.0, steps=11)
    first, second = io.StringIO(), io.StringIO()
    emit_csv(run_sweep(spec), first)
    emit_csv(run_sweep(spec), second)
    assert first.getvalue() == second.getvalue()


def test_replaceable_fixed_params():
    base = ModelParams()
    moved = replace(base, separation=7.0)
    assert moved.separation == 7.0
    assert moved.delay == base.delay
