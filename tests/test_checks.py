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


_SPANS = {"l": (0.1, 10.0), "dtau": (-10.0, 10.0), "lambda": (0.0, 12.0), "omega-b": (0.0, 4.0)}
_NEGATIVE = {"lambda_a": -1.0, "lambda_b": -1.0}
_NO_WEIGHT = {"eta_a": 0.0, "eta_b": 0.0}
_HUGE = {"lambda_a": 1e155, "lambda_b": 1e155}


@pytest.mark.parametrize(
    "vary, fixed, message",
    [
        ("l", _NEGATIVE, "l=0.1: DetectorParams.coupling must be >= 0, got -1.0"),
        ("l", _NO_WEIGHT, "l=0.1: DetectorParams.switching_weight must be > 0, got 0.0"),
        ("l", _HUGE, "l=0.1: CorrelatorSet.kappa must be finite, got -inf"),
        ("dtau", _NEGATIVE, "dtau=-10.0: DetectorParams.coupling must be >= 0, got -1.0"),
        ("dtau", _NO_WEIGHT, "dtau=-10.0: DetectorParams.switching_weight must be > 0, got 0.0"),
        ("dtau", _HUGE, "dtau=-10.0: CorrelatorSet.kappa must be finite, got inf"),
        ("lambda", _NO_WEIGHT, "lambda=0.0: DetectorParams.switching_weight must be > 0, got 0.0"),
        ("omega-b", _NEGATIVE, "omega-b=0.0: DetectorParams.coupling must be >= 0, got -1.0"),
        ("omega-b", _NO_WEIGHT, "omega-b=0.0: DetectorParams.switching_weight must be > 0, got 0.0"),
        ("omega-b", _HUGE, "omega-b=0.0: CorrelatorSet.kappa must be finite, got -inf"),
    ],
)
def test_a_failing_fixed_knob_names_the_first_grid_value_of_each_sweep(vary, fixed, message):
    # the fixed knobs reach the batch as 1-element arrays: the replay of the
    # first point must see them broadcast to the grid, and raise its error
    start, stop = _SPANS[vary]
    spec = SweepSpec(vary, fixed=ModelParams(**fixed), start=start, stop=stop, steps=401)
    with pytest.raises(SweepError) as info:
        run_sweep(spec)
    assert str(info.value) == f"sweep failed at {message}"


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
