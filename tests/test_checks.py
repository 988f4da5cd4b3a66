import math
from dataclasses import replace

import pytest

from udwpair import (
    AssemblyError,
    ModelParams,
    SweepError,
    SweepSpec,
    XDensityMatrix,
    evaluate_point,
    point_state,
    run_sweep,
)

# At lambda*eta near 90 and short separation, f_a*f_b underflows to 0 while
# cosh(omega) overflows, so the closed forms give 0*inf = nan populations.
_OVERFLOW = ModelParams(lambda_a=90.0, lambda_b=90.0, separation=0.5, delay=0.0)


def test_failing_fixed_parameter_names_the_first_grid_value():
    # a scalar check on a fixed parameter fails at every point of the grid
    spec = SweepSpec("l", fixed=ModelParams(eta_a=0.0), start=1.0, stop=2.0, steps=3)
    with pytest.raises(SweepError) as info:
        run_sweep(spec)
    assert str(info.value) == (
        "sweep failed at l=1.0: DetectorParams.switching_weight must be > 0, got 0.0"
    )


def test_non_finite_state_is_rejected():
    with pytest.raises(AssemblyError, match="element rho11 is not finite: nan"):
        evaluate_point(_OVERFLOW)
    with pytest.raises(AssemblyError, match="not finite"):
        point_state(_OVERFLOW)
    with pytest.raises(AssemblyError, match="element rho14 is not finite"):
        XDensityMatrix.from_elements(0.25, 0.25, 0.25, 0.25, complex(math.nan, 0.0), 0.0)


def test_sweep_reports_the_first_failing_grid_value():
    # the grid crosses from finite states into the overflow region; the
    # batch must name the first point a pointwise loop would fail on
    spec = SweepSpec("lambda", fixed=_OVERFLOW, start=60.0, stop=100.0, steps=41)
    with pytest.raises(SweepError) as info:
        run_sweep(spec)
    for i in range(spec.steps):
        value = spec.start + (spec.stop - spec.start) * i / (spec.steps - 1)
        try:
            evaluate_point(replace(_OVERFLOW, lambda_a=value, lambda_b=value))
        except AssemblyError as exc:
            assert str(info.value) == f"sweep failed at lambda={value!r}: {exc}"
            assert i > 0
            return
    pytest.fail("no grid point failed on its own")
