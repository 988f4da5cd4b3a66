"""The self-check battery fails on what it is meant to catch: a nan
discrepancy fails its check, and a draw that fails inside a batched oracle
raises the error that draw raises alone."""

import random

import numpy as np
import pytest

from udwpair import AssemblyError, CorrelatorSet, InitialState, assemble_appendix
from udwpair import detector_state, verify


def _nan_at(values, i=5):
    values = np.array(values, dtype=float)
    values[i] = np.nan
    return values


def _plant_in_reflection(dawson):
    # only the call on negated arguments, so that only the oddness term
    # sees the nan
    def planted(x):
        d = dawson(x)
        return _nan_at(d, 3) if (x < 0.0).all() else d

    return planted


def _plant_in_last(kernel):
    def planted(*args):
        *head, last = kernel(*args)
        return (*head, _nan_at(last))

    return planted


def _plant_in_rho22(batch_states):
    def planted(p):
        correlators, state = batch_states(p)
        return correlators, (state[0], _nan_at(state[1]), *state[2:])

    return planted


def _plant_in_array(kernel):
    return lambda *args: _nan_at(kernel(*args))


# each sampled check run alone on 20 draws, so that a nan planted for one
# check does not reach the others
_CHECKS = {
    "dawson-reference": lambda: verify._check_dawson(),
    "correlators-vs-quadrature": lambda: verify._check_correlators(
        random.Random(0), random.Random(1), 20
    ),
    "assembly-dual-route": lambda: verify._check_assembly(random.Random(0), 20),
    "spectrum-dual-route": lambda: verify._check_spectrum(random.Random(0), 20),
    "physicality": lambda: verify._check_physicality(random.Random(0), 20),
    "negativity-dual-route": lambda: verify._check_negativity(random.Random(0), 20),
}


@pytest.mark.parametrize(
    "check, kernel, plant",
    [
        ("dawson-reference", "_dawson", _plant_in_reflection),
        ("correlators-vs-quadrature", "_correlators", _plant_in_last),
        ("assembly-dual-route", "_batch_states", _plant_in_rho22),
        ("spectrum-dual-route", "_spectrum", _plant_in_last),
        ("physicality", "_batch_states", _plant_in_rho22),
        ("negativity-dual-route", "_negativity", _plant_in_array),
    ],
)
def test_a_nan_discrepancy_fails_its_check(monkeypatch, check, kernel, plant):
    assert _CHECKS[check]().passed
    # the nan sits at one draw, after finite errors in the same fold
    monkeypatch.setattr(verify, kernel, plant(getattr(verify, kernel)))
    result = _CHECKS[check]()
    assert result.name == check
    assert result.passed is False
    if check == "negativity-dual-route":
        assert "1 disagreements" in result.detail


def test_a_failing_appendix_draw_raises_its_scalar_error(monkeypatch):
    # push rho11 of two draws of the batched appendix route off trace; the
    # scalar view runs the same kernel, so each draw fails alone too
    appendix = detector_state._appendix
    inputs = []

    def planted(theta, *rest):
        r11, *others = appendix(theta, *rest)
        if np.ndim(theta) and not inputs:
            inputs.extend([(theta[i].item(), *(v[i].item() for v in rest)) for i in (3, 7)])
        first, second = (draw[0] for draw in inputs)
        bump = np.where(theta == first, 1e-6, np.where(theta == second, 2e-6, 0.0))
        return (r11 + bump, *others)

    monkeypatch.setattr(detector_state, "_appendix", planted)
    monkeypatch.setattr(verify, "_appendix", planted)
    with pytest.raises(AssemblyError) as batched:
        verify.run_all(seed=0, points=20)
    theta, *correlators = inputs[0]
    with pytest.raises(AssemblyError) as alone:
        assemble_appendix(InitialState(theta), CorrelatorSet(*correlators))
    assert str(batched.value) == str(alone.value)
    assert str(alone.value) == "trace deviates from 1 by 1.000e-06"
