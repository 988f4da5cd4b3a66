import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import SweepRow, SweepSpec, run_sweep
from udwpair._csv import _CSV_BLOCK_ROWS, format_rows

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
    # two blocks and one row more, so the kernel's block seams are crossed
    steps = 2 * _CSV_BLOCK_ROWS + 1
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
def test_format_rows_takes_the_row_width_from_its_array(width):
    # across the block seams, with every fifth value one that the kernel
    # leaves to '%.17g', so that each column, the last one too, holds some
    size = (2 * _CSV_BLOCK_ROWS + 1) * width
    values = np.arange(1, size + 1) / 7.0 * 10.0 ** (np.arange(size) % 31 - 15)
    values[1::2] *= -1.0
    values[3::11] = 0.0
    values[::5] = np.resize([math.nan, math.inf, -math.inf, 5e-324, 1e300], values[::5].size)
    array = values.reshape(-1, width)
    lines = [",".join("%.17g" % v for v in row) + "\n" for row in array.tolist()]
    assert format_rows(array) == "".join(lines)
