import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import (
    CSV_HEADER,
    ModelParams,
    SweepError,
    SweepRow,
    SweepSpec,
    VARY_CHOICES,
    detector_pair,
    emit_csv,
    evaluate_point,
    figure_preset,
    run_sweep,
    sweep_engine,
)


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


# The per-row format that emit_csv's array kernel replaced: the reference
# its text must equal byte for byte.
_ORACLE_ROW = ",".join(["%.17g"] * len(SweepRow._fields))


def _oracle_csv(rows) -> str:
    return "\n".join([CSV_HEADER, *(_ORACLE_ROW % tuple(row) for row in rows)]) + "\n"


def _emitted(rows) -> str:
    sink = io.StringIO()
    size = emit_csv(rows, sink)
    assert size == len(sink.getvalue())
    return sink.getvalue()


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
            text = _emitted(rows)
            assert text == _oracle_csv(rows), spec.label
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


def _row(*values) -> list:
    # a whole CSV row: the values, then zeros
    return [*values, *[0.0] * (len(SweepRow._fields) - len(values))]


def _either_side(x) -> tuple:
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(
    st.lists(
        st.lists(st.floats(), min_size=len(SweepRow._fields), max_size=len(SweepRow._fields)),
        min_size=1,
        max_size=3,
    )
)
@example([_row(0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308)])
@example([_row(*_either_side(1e-280), *_either_side(1e280), *_either_side(-1e-280))])
# the %g switches to and from e notation, and a carry into an 18th digit
@example([_row(9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999999.0)])
# exact ties of the 17th digit, which %g rounds half to even, and near ties
# within 1e-15 of one, closer than the double-double product resolves
@example([_row(1234567890123456.75, -1234567890123456.75, 1234567890123456.25, -1234567890123456.25)])
@example([_row(9.168015998995436e38, 6.742080897255841e41, 2.2422607587866907e-07, 4.974148370910348e-09)])
# ints and numpy reals, which '%.17g' takes as well as floats
@example([[1] * 15])
@example([[np.float32(0.1)] * 15])
# a failing property makes Hypothesis import libcst, which warns
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_csv_equals_the_per_row_format(rows):
    # nan, infinities and subnormals included: the kernel leaves what it
    # cannot certify to '%.17g'
    assert _emitted(rows) == _oracle_csv(rows)


def test_csv_equals_the_per_row_format_across_blocks():
    # two blocks and one row more, so the kernel's block seams are crossed
    steps = 2 * sweep_engine._CSV_BLOCK_ROWS + 1
    rows = run_sweep(SweepSpec("dtau", start=-10.0, stop=10.0, steps=steps))
    assert _emitted(rows) == _oracle_csv(rows)
    # one value per row that the kernel leaves to '%.17g', moving from
    # column to column, among values that it writes itself
    dense = []
    for i in range(steps):
        row = [(i + 1) / 7.0 * 10.0 ** (j - 7) for j in range(len(SweepRow._fields))]
        spelled = (math.nan, math.inf, -math.inf, 5e-324, 1e300 * (i + 1), 9.168015998995436e38)
        row[i % len(row)] = spelled[i % len(spelled)]
        dense.append(row)
    assert _emitted(dense) == _oracle_csv(dense)


def test_csv_requires_rows():
    for rows in ([], iter([])):
        with pytest.raises(ValueError, match=r"^no rows to emit$"):
            emit_csv(rows, io.StringIO())
    row = _row()
    malformed = ([row[:-1]], [row + [0.0]], [row, row[:-1] + [0.0, 0.0]], row, [None])
    # a missing value or a numeric string is not a real number: neither
    # may reach the CSV as nan or as the number it spells
    for rows in (*malformed, [[None] * 15], [["1"] * 15]):
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
