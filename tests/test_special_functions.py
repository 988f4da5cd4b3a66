import math

import numpy as np
import pytest

from udwpair import dawson
from udwpair.special_functions import _FAR_EDGE, _NEAR_EDGE

from conftest import dawson_reference

# frozen 21-digit reference values (adaptive-precision series)
SPOT_VALUES = [
    (0.5, 0.424436383502022295934),
    (1.0, 0.538079506912768419136),
    (2.0, 0.301340388923791966035),
    (3.7, 0.140751174115415405183),
    (10.0, 0.0502538471875985280327),
    (40.0, 0.0125039099178439731993),
]


def test_spot_values():
    for x, ref in SPOT_VALUES:
        assert dawson(x) == pytest.approx(ref, rel=1e-13)


def test_zero_and_oddness():
    assert dawson(0.0) == 0.0
    for x in (1e-8, 0.3, 1.0, 2.5, 4.0, 6.0, 17.5, 300.0):
        assert dawson(-x) == -dawson(x)


def test_small_argument_is_linear():
    # D(x) = x - 2x^3/3 + ..., so tiny arguments return x itself
    assert dawson(1e-200) == 1e-200
    assert dawson(3e-9) == pytest.approx(3e-9, rel=1e-15)


def test_peak_location_and_height():
    # global maximum is near x = 0.9241 with D = 0.5410442238...
    xs = [0.92 + i * 1e-4 for i in range(100)]
    peak = max(dawson(x) for x in xs)
    assert peak == pytest.approx(0.5410442238175845, rel=1e-8)


def test_against_reference_grid():
    lo, hi = math.log10(1e-6), math.log10(40.0)
    worst = 0.0
    for i in range(80):
        x = 10.0 ** (lo + (hi - lo) * i / 79)
        ref = dawson_reference(x)
        worst = max(worst, abs(dawson(x) - ref) / abs(ref))
    assert worst <= 1e-12


def test_continuity_across_guard_edges():
    # the Taylor and 1/(2x) guards meet the sampling series, and the
    # series' centre sample jumps where 2x crosses a half-integer
    for edge in (_NEAR_EDGE, 0.25, 1.25, 10.25, 39.75, _FAR_EDGE):
        below = dawson(math.nextafter(edge, 0.0))
        above = dawson(math.nextafter(edge, math.inf))
        assert abs(below - above) <= 1e-14 * abs(below)


def _grid():
    xs = np.concatenate(([0.0, 1e-200, 3e-9], np.geomspace(1e-6, 40.0, 97), [1e8, 1e151, 1e200]))
    return np.concatenate((xs, -xs))


def test_array_call_matches_float_calls():
    xs = _grid()
    got = dawson(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    want = np.array([dawson(float(x)) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_array_call_is_exactly_odd():
    xs = _grid()
    assert np.array_equal(dawson(-xs), -dawson(xs))


def test_asymptotic_leading_term():
    # 2x D(x) -> 1 from above, within 1e-3 by x = 30
    for x in (30.0, 50.0, 200.0):
        assert abs(2.0 * x * dawson(x) - 1.0) <= 1e-3


def test_single_peak_shape():
    # strictly rising up to 0.92, strictly falling from 0.93 to 5
    rising = [dawson(0.92 * i / 40) for i in range(41)]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    falling = [dawson(0.93 + (5.0 - 0.93) * i / 40) for i in range(41)]
    assert all(a > b for a, b in zip(falling, falling[1:]))


def test_huge_argument_tail():
    # beyond 1e150 the 1/(2x) leading term is the whole double value
    assert dawson(1e200) == 0.5e-200
    assert dawson(1e151) == pytest.approx(0.5e-151, rel=1e-15)


def test_nonfinite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dawson(bad)
