import io
import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import (
    CSV_HEADER,
    ModelParams,
    SweepError,
    SweepRow,
    SweepRows,
    SweepSpec,
    VARY_CHOICES,
    detector_pair,
    emit_csv,
    evaluate_point,
    figure_preset,
    run_sweep,
    sweep_engine,
)
from udwpair import _csv
from udwpair._csv import _CSV_BLOCK_ROWS

from conftest import emitted, oracle_csv


def test_detector_pair_timing():
    p = ModelParams(delay=2.5, tau_a0=1.0)
    a, b, g = detector_pair(p)
    assert g.time_origin == 1.0
    assert g.delay == 2.5
    assert g.smearing_width == 1.0


def test_evaluate_point_field_count():
    row = evaluate_point(ModelParams())
    assert len(row) == len(CSV_HEADER.split(","))


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
    # the grid runs as one batch; every row must equal the point evaluated
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
            assert row[1:] == alone[1:]


def test_sweep_rows_are_a_read_only_view_of_the_pass():
    spec = SweepSpec("omega-b", start=0.3, stop=3.7, steps=21)
    rows = run_sweep(spec)
    assert isinstance(rows, SweepRows)
    assert len(rows) == 21 == len(rows.array)
    listed = list(rows)
    assert rows[0] == listed[0] == rows[-21] and rows[0].value == 0.3
    assert rows[-1] == listed[-1] == rows[20] and rows[-1].value == 3.7
    with pytest.raises(IndexError):
        rows[21]
    part = rows[2:19:3]
    assert isinstance(part, SweepRows)
    assert list(part) == listed[2:19:3] == [rows[i] for i in range(2, 19, 3)]
    # rows of Python floats, each equal to its point evaluated alone
    for row in listed:
        assert type(row) is SweepRow and all(type(v) is float for v in row)
        assert row[1:] == evaluate_point(replace(spec.fixed, gap_b=row.value))[1:]
    for view in (rows, part):
        with pytest.raises(ValueError, match="read-only"):
            view.array[0, 0] = 1.0
    # only whole rows reach the kernel
    with pytest.raises(ValueError, match=r"^each row must have 15 real-number fields$"):
        SweepRows(rows.array[:, 1:])
    # a bool, int or float array of whole rows is taken as it is, and any
    # other rows of real numbers, an object array of floats too, are packed
    ones = np.ones((2, 15))
    for same in (ones.astype(bool), ones.astype(int), np.asfortranarray(ones), ones.astype(object)):
        assert np.array_equal(SweepRows(same).array, ones)
    for same in (ones.tolist(), iter(ones), [SweepRow(*row) for row in ones.tolist()]):
        view = SweepRows(same).array
        assert np.array_equal(view, ones) and view.flags.c_contiguous and not view.flags.writeable


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("bogus", start=0.0, stop=1.0, steps=5)
    with pytest.raises(ValueError):
        SweepSpec("l", start=0.0, stop=1.0, steps=1)
    with pytest.raises(ValueError):
        SweepSpec("l", start=1.0, stop=1.0, steps=5)
    with pytest.raises(ValueError):
        SweepSpec("l", start=math.inf, stop=1.0, steps=5)
    with pytest.raises(ValueError, match="overflows"):
        SweepSpec("dtau", start=-1e308, stop=1e308, steps=3)
    # a step count past the float range overflows in its conversion
    with pytest.raises(ValueError, match="overflows the float range"):
        SweepSpec("l", steps=10**400)
    for steps in (3.0, 2.5):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SweepSpec("l", start=0.0, stop=1.0, steps=steps)
    assert SweepSpec("l", steps=np.int64(3)).steps == 3


def test_failed_grid_point_names_the_value():
    spec = SweepSpec("lambda", start=-1.0, stop=1.0, steps=5)
    with pytest.raises(SweepError, match="lambda=-1.0"):
        run_sweep(spec)


def test_measures_ok_enters_the_mask_and_a_batch_only_failure_is_named(monkeypatch):
    # a row that only the measures reject, and that its point alone passes:
    # the mask must drop it, and the sweep must name it as failing in its
    # batch only
    measures = sweep_engine._measures

    def failing_row_1(*args):
        ok, values = measures(*args)
        return ok & (np.arange(ok.size) != 1), values

    monkeypatch.setattr(sweep_engine, "_measures", failing_row_1)
    spec = SweepSpec("l", start=1.0, stop=3.0, steps=5)
    fixed = {k: np.full(5, v) for k, v in vars(spec.fixed).items()}
    p = ModelParams(**(fixed | {"separation": np.array([1.0, 1.5, 2.0, 2.5, 3.0])}))
    assert sweep_engine._checked_states(p)[0].tolist() == [True, False, True, True, True]
    with pytest.raises(
        SweepError,
        match=r"^sweep failed at l=1\.5: the point fails an invariant check only inside its batch$",
    ):
        run_sweep(spec)


_REFERENCE = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "reference", "figures.npz"
)


def test_preset_csvs_match_the_stored_reference():
    # every preset curve through run_sweep and emit_csv, against the
    # reference values that the benchmark checks each figures run by, and
    # against the per-row format
    with np.load(_REFERENCE, allow_pickle=False) as data:
        reference = {key: data[key] for key in data.files}
    labels = []
    for preset in ("fig1", "fig2", "fig3-top", "fig3-bottom", "fig4"):
        for spec in figure_preset(preset):
            rows = run_sweep(spec)
            text = emitted(rows)
            assert text == oracle_csv(rows), spec.label
            header, *lines = text.splitlines()
            assert header == str(reference["header"])
            values = np.array([[float(v) for v in line.split(",")] for line in lines])
            ref = reference[spec.label]
            assert values.shape == ref.shape, spec.label
            worst = np.max(np.abs(values - ref))
            assert worst <= 1e-12, f"{spec.label}: {worst:.3e}"
            labels.append(spec.label)
    assert sorted(labels) == sorted(k for k in reference if k != "header")


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

    # the labels name the CSV files, so their order is pinned
    bottom = figure_preset("fig3-bottom")
    assert [s.label for s in bottom] == [
        "fig3_theta0_lightlike",
        "fig3_theta0_spacelike",
        "fig3_theta90_lightlike",
        "fig3_theta90_spacelike",
    ]
    assert [(s.fixed.theta, s.fixed.separation, s.fixed.delay) for s in bottom] == [
        (0.0, 3.0, 3.0),
        (0.0, 5.0, 3.0),
        (math.pi / 2.0, 3.0, 3.0),
        (math.pi / 2.0, 5.0, 3.0),
    ]
    assert all(s.vary == "lambda" and (s.start, s.stop) == (0.0, 12.0) for s in bottom)

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
    assert text.isascii() and size == len(text.encode("utf-8"))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == (
        "vary,f_a,f_b,kappa,omega,gamma,rho11,rho22,rho33,rho44,"
        "abs_rho14,abs_rho23,c_l1,c_rec,negativity"
    )
    assert len(lines) == 4
    assert text.endswith("\n")
    for line, row in zip(lines[1:], rows):
        parsed = [float(tok) for tok in line.split(",")]
        assert tuple(parsed) == row  # 17 digits round-trip losslessly


# bounds inside each swept knob's range, past the presets' spans
_VARY_BOUNDS = {
    "l": (0.0, 100.0),
    "dtau": (-100.0, 100.0),
    "lambda": (0.0, 12.0),
    "omega-b": (0.0, 10.0),
}


@st.composite
def _sweep_specs(draw):
    vary = draw(st.sampled_from(VARY_CHOICES))
    low, high = _VARY_BOUNDS[vary]
    start = draw(st.floats(low, high, exclude_max=True))
    stop = draw(st.floats(start, high, exclude_min=True))
    return SweepSpec(vary, start=start, stop=stop, steps=draw(st.integers(2, 300)))


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(_sweep_specs(), st.sampled_from((1, 2, 3, 7, 64)))
# two blocks and one row more at the shipped block size; and gamma = 2e300,
# which no block certifies
@example(SweepSpec("lambda", start=0.0, stop=12.0, steps=2 * _CSV_BLOCK_ROWS + 1), _CSV_BLOCK_ROWS)
@example(SweepSpec("l", ModelParams(tau_a0=1e300), start=0.1, stop=10.0, steps=300), 7)
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_sweep_rows_emit_as_their_tuples(spec, block_rows):
    # the view's array goes to the kernel as it is, the tuples through _ROW;
    # blocks of a few rows, so that 2 to 300 steps cross the block seams
    rows = run_sweep(spec)
    tuples = [tuple(row) for row in rows]
    with mock.patch.object(_csv, "_CSV_BLOCK_ROWS", block_rows):
        assert emitted(rows) == emitted(tuples) == oracle_csv(tuples)


def test_csv_requires_rows():
    for rows in ([], iter([])):
        with pytest.raises(ValueError, match=r"^no rows to emit$"):
            emit_csv(rows, io.StringIO())
    row = [0.0] * len(SweepRow._fields)
    malformed = ([row[:-1]], [row + [0.0]], [row, row[:-1] + [0.0, 0.0]], row, [None])
    shapes = (np.zeros(15), np.zeros((2, 14)), np.zeros((2, 16)))
    # a missing value or a numeric string is not a real number: neither
    # may reach the rows or the CSV as nan or as the number it spells
    not_real = ([[None] * 15], [["1"] * 15], np.array([["1"] * 15]), np.array([[None] * 15]))
    for rows in (*malformed, *shapes, *not_real, np.array([["1"] * 15], dtype=object)):
        with pytest.raises(ValueError, match=r"^each row must have 15 real-number fields$"):
            SweepRows(rows)
        with pytest.raises(ValueError, match=r"^each row must have 15 real-number fields$"):
            emit_csv(rows, io.StringIO())


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
