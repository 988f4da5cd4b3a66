import math
import random

import pytest

from udwpair import (
    XDensityMatrix,
    coherence_l1,
    coherence_rec,
    measure_set,
    negativity_closed,
    negativity_full,
    point_state,
    random_model_params,
    spectrum_closed,
    spectrum_general,
)


def _states(n, seed):
    rng = random.Random(seed)
    return [point_state(random_model_params(rng))[1] for _ in range(n)]


def test_l1_worked_example():
    m = XDensityMatrix.from_elements(0.35, 0.15, 0.15, 0.35, 0.3, 0.1j)
    assert coherence_l1(m) == pytest.approx(0.8, abs=1e-15)


def test_l1_equals_offdiagonal_modulus_sum():
    for state in _states(100, 21):
        mat = state.as_matrix()
        ref = math.fsum(
            abs(mat[i, j]) for i in range(4) for j in range(4) if i != j
        )
        assert coherence_l1(state) == ref


def test_spectra_agree_and_sum_to_one():
    for state in _states(2000, 22):
        closed = spectrum_closed(state).as_tuple()
        general = spectrum_general(state).as_tuple()
        assert max(abs(x - y) for x, y in zip(closed, general)) <= 1e-12
        assert math.fsum(general) == pytest.approx(1.0, abs=1e-12)
        assert min(general) >= -1e-10


def test_spectrum_cancellation_stability():
    # nearly pure outer block: the small eigenvalue comes from the
    # determinant route, not from subtracting near-equal numbers
    eps = 1e-14
    m = XDensityMatrix.from_elements(
        0.5 + eps, 0.0, 0.0, 0.5 - eps, math.sqrt(0.25 - 1e-15), 0.0
    )
    lo = spectrum_general(m).lam3
    assert 0.0 <= lo <= 5e-9
    det = (0.5 + eps) * (0.5 - eps) - (0.25 - 1e-15)
    assert lo == pytest.approx(det / spectrum_general(m).lam4, rel=1e-12)


def test_rec_pure_dephasing_example():
    # diag entropy 1 bit, state entropy H2(1/4): REC = 1 - H2(1/4)
    m = XDensityMatrix.from_elements(0.5, 0.0, 0.0, 0.5, 0.25, 0.0)
    assert coherence_rec(m) == pytest.approx(0.18872187554086713609, abs=1e-13)


def test_rec_zero_for_diagonal_state():
    m = XDensityMatrix.from_elements(0.4, 0.3, 0.2, 0.1, 0.0, 0.0)
    assert coherence_rec(m) == 0.0


def test_rec_nonnegative_on_random_states():
    for state in _states(500, 23):
        assert coherence_rec(state) >= 0.0


def test_rec_rejects_broken_spectrum():
    broken = XDensityMatrix(0.5, -1e-5, 1e-5, 0.5, 0j, 0j)
    with pytest.raises(ValueError):
        coherence_rec(broken)


def test_negativity_bell_state():
    m = XDensityMatrix.from_elements(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    assert negativity_full(m) == pytest.approx(0.5, abs=1e-12)
    assert negativity_closed(m) == pytest.approx(0.5, abs=1e-15)


def test_negativity_separable_state():
    m = XDensityMatrix.from_elements(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    assert negativity_full(m) == 0.0
    assert negativity_closed(m) == 0.0


def test_negativity_routes_agree_on_model_states():
    for state in _states(3000, 24):
        assert abs(negativity_full(state) - negativity_closed(state)) <= 1e-12


def test_negativity_closed_covers_one_block_only():
    # hand-built X state whose partial transpose dips negative in the
    # block the closed form does not track: the full route must win
    m = XDensityMatrix.from_elements(0.1, 0.35, 0.35, 0.2, 0.0, 0.3)
    full = negativity_full(m)
    expect = math.hypot(0.05, 0.3) - 0.15
    assert full == pytest.approx(expect, abs=1e-12)
    assert negativity_closed(m) == 0.0


def test_measure_set_bundles_the_three():
    state = _states(1, 25)[0]
    ms = measure_set(state)
    assert ms.c_l1 == coherence_l1(state)
    assert ms.c_rec == coherence_rec(state)
    assert ms.negativity == negativity_full(state)
