"""Shared test helpers.

dawson_reference is the extended-precision series oracle the double
evaluator is judged against: a plain Maclaurin sum run at enough digits
that the catastrophic cancellation at large argument is absorbed by the
working precision instead of the result.  oracle_csv is the per-row
'%.17g' format that emit_csv's array kernel replaced: the reference its
text must equal byte for byte.
"""

import io
import random

import mpmath
import pytest

from udwpair import CSV_HEADER, SweepRow, emit_csv


def dawson_reference(x: float) -> float:
    """Maclaurin series in arbitrary precision, adaptive digit count.

    The series for D(x) alternates with terms growing like e^{x^2}, so
    the working precision is 60 digits plus the ~0.44 x^2 digits the
    cancellation destroys.  Safe over the tested range [1e-6, 40].
    """
    if x < 0.0:
        return -dawson_reference(-x)
    dps = 60 + int(0.44 * x * x)
    with mpmath.workdps(dps):
        mx = mpmath.mpf(x)
        term = mx
        total = mx
        k = 0
        floor = mpmath.mpf(10) ** (-(dps - 8))
        while abs(term) > floor * abs(total):
            term *= -2 * mx * mx / (2 * k + 3)
            total += term
            k += 1
        return float(total)


_ORACLE_ROW = ",".join(["%.17g"] * len(SweepRow._fields))


def oracle_csv(rows) -> str:
    return "\n".join([CSV_HEADER, *(_ORACLE_ROW % tuple(row) for row in rows)]) + "\n"


def emitted(rows) -> str:
    """emit_csv's text, checked against the size it returns."""
    sink = io.StringIO()
    size = emit_csv(rows, sink)
    assert size == len(sink.getvalue())
    return sink.getvalue()


@pytest.fixture(scope="session")
def draw_grid():
    """The 10^4-point random parameter grid shared by the physicality and
    dual-route acceptance checks (one batch, several consumers)."""
    from udwpair import XDensityMatrix
    from udwpair.sweep_engine import _batch_states, _row
    from udwpair.verify import _draw

    # one column draw: bit for bit the points of 10^4 random_model_params calls
    batch = _draw(random.Random(20260815), 10_000)
    state = _batch_states(batch, lambda i: f"draw {i} of the grid")[1]
    rows = zip(*(column.tolist() for column in state))
    return [(_row(batch, i), XDensityMatrix(*row)) for i, row in enumerate(rows)]
