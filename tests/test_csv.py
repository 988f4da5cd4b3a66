import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import SweepRow, SweepSpec, _csv, emit_csv, figure_preset, run_sweep
from udwpair._csv import _CSV_BLOCK_ROWS, _K_MAX, _SPLIT, _TIE, _csv_tables, _decimal, _frames, format_rows
from udwpair.sweep_engine import FIGURE_PRESETS

from conftest import emitted, oracle_csv


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
    assert emitted(rows) == oracle_csv(rows)


def test_csv_equals_the_per_row_format_across_blocks():
    # two blocks and one row more, so the kernel's block seams are crossed:
    # at blocks of a few rows, then once at the shipped block size
    for block_rows in (3, 5, _CSV_BLOCK_ROWS):
        steps = 2 * block_rows + 1
        with mock.patch.object(_csv, "_CSV_BLOCK_ROWS", block_rows):
            rows = run_sweep(SweepSpec("dtau", start=-10.0, stop=10.0, steps=steps))
            assert emitted(rows) == oracle_csv(rows)
            # one value per row that the kernel leaves to '%.17g', moving from
            # column to column, among values that it writes itself
            dense = []
            for i in range(steps):
                row = [(i + 1) / 7.0 * 10.0 ** (j - 7) for j in range(len(SweepRow._fields))]
                spelled = (math.nan, math.inf, -math.inf, 5e-324, 1e300 * (i + 1), 9.168015998995436e38)
                row[i % len(row)] = spelled[i % len(spelled)]
                dense.append(row)
            assert emitted(dense) == oracle_csv(dense)


@pytest.mark.parametrize("width", [1, 4, 16])
@mock.patch.object(_csv, "_CSV_BLOCK_ROWS", 4)
def test_format_rows_takes_the_row_width_from_its_array(width):
    # across many block seams, at blocks of 4 rows, with every fifth value
    # one that the kernel leaves to '%.17g', so that each column, the last
    # one too, holds some
    size = 37 * width
    values = np.arange(1, size + 1) / 7.0 * 10.0 ** (np.arange(size) % 31 - 15)
    values[1::2] *= -1.0
    values[3::11] = 0.0
    values[::5] = np.resize([math.nan, math.inf, -math.inf, 5e-324, 1e300], values[::5].size)
    array = values.reshape(-1, width)
    lines = [",".join("%.17g" % v for v in row) + "\n" for row in array.tolist()]
    assert format_rows(array) == "".join(lines)


def test_a_preset_curve_takes_one_kernel_pass():
    for preset in FIGURE_PRESETS:
        for spec in figure_preset(preset):
            rows = run_sweep(spec)
            with mock.patch.object(_csv, "_format_block", wraps=_csv._format_block) as kernel:
                emit_csv(rows, io.StringIO())
            assert kernel.call_count == 1, spec.label


def _decimal_expression(x):
    """_decimal's two-product as the plain expression that it evaluates in
    place: the reference its (row, digits, exact) must equal bit for bit."""
    tables = _csv_tables()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        k = np.floor(np.log10(a))
        exact = np.abs(k) <= _K_MAX
        k[~exact] = 0.0
        row = k.astype(np.intp) + _K_MAX
        b = tables.hi[row]
        b_high = tables.hi_high[row]
        b_low = b - b_high
        p = a * b
        t = a * _SPLIT
        a_high = t - (t - a)
        a_low = a - a_high
        low = a_high * b_high - p + a_high * b_low + a_low * b_high + a_low * b_low + a * tables.lo[row]
        r = np.rint(low)
        digits = p.astype(np.int64) + r.astype(np.int64)
        low -= r
        exact &= np.abs(low) < 0.5 - _TIE
        exact &= digits < 10**17
        exact &= (p - 1e16) + r + low >= 0.0
    return row, digits, exact


def _frames_expression(digits, row):
    """The head and the tail frames as whole words, unmasked, then masked in
    one gather of all ten words of each value's row, and the tail ORed in a
    word after the head: the reference of _frames' six words, written word
    by word, and of where a tail prints a digit, which it returns."""
    tables = _csv_tables()
    frames = np.empty((digits.size, 10), np.uint32)
    bare = np.ones(digits.size, bool)
    for i in range(4, -1, -1):
        top = digits // 10**4
        q = digits - top * 10**4
        digits = top
        frames[:, i] = tables.quads[q]
        frames[:, 5 + i] = tables.quads[q + 10_000 * bare]
        bare &= q == 0
    frames &= np.take(tables.masks.T, row, axis=0)
    words = np.zeros((digits.size, 6), np.uint32)
    words[:, :5] = frames[:, :5]
    words[:, 1:] |= frames[:, 5:]
    return words, frames[:, 5:].any(axis=1)


def _kernel_inputs():
    """Every value of the 14 preset curves, the explicit examples of the
    property above, and 20,000 random bit patterns: every class of double,
    nan, infinities, subnormals and both zeros included."""
    presets = [run_sweep(spec).array.reshape(-1) for p in FIGURE_PRESETS for spec in figure_preset(p)]
    edges = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1234567890123456.75, -1234567890123456.25,
        9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999999.0, 9.168015998995436e38,
        *_either_side(1e-280), *_either_side(1e280), *_either_side(-1e-280),
    ]
    bits = np.random.default_rng(20261022).integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
    return [*presets, np.array(edges), bits.view(np.float64)]


def test_decimal_and_frames_equal_their_plain_expressions_bit_for_bit():
    for x in _kernel_inputs():
        row, digits, exact = _decimal(x)
        want = _decimal_expression(x)
        assert all(np.array_equal(g, w) for g, w in zip((row, digits, exact), want))
        row[~exact] = _K_MAX
        digits[~exact] = 0
        out = np.zeros((x.size, 4), np.uint64)
        words, tail = _frames_expression(digits.copy(), row)
        assert np.array_equal(_frames(digits, row, out), tail)
        assert np.array_equal(out.view(np.uint32)[:, :6], words)
