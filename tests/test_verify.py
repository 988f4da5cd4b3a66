"""The self-check battery passes on working code over several seeds, and
fails on what it is meant to catch: a nan discrepancy fails its check, and
a draw whose appendix state is off fails the assembly check, which the CLI
reports with the other checks."""

import random
import time

import numpy as np
import pytest

from udwpair import AssemblyError, CorrelatorSet, InitialState, assemble_appendix
from udwpair import cli, detector_state, verify


def _nan_at(values, i=5):
    values = np.array(values, dtype=float)
    values[i] = np.nan
    return values


def _plant_in_reflection(dawson):
    # only the negated row of the table's one call, so that only the
    # oddness term sees the nan
    def planted(x):
        d = dawson(x)
        assert x.shape[0] == 2 and (x[1] == -x[0]).all()
        return np.stack((d[0], _nan_at(d[1], 3)))

    return planted


def _plant_in_last(kernel):
    def planted(*args):
        *head, last = kernel(*args)
        return (*head, _nan_at(last))

    return planted


def _plant_in_rho22(batch_states):
    def planted(p, name):
        correlators, state, *rest = batch_states(p, name)
        return correlators, (state[0], _nan_at(state[1]), *state[2:]), *rest

    return planted


def _plant_in_spectrum(batch_states):
    # in the pass's block spectrum, the one the state check and the
    # entropy read
    def planted(p, name):
        *head, spectrum, measures = batch_states(p, name)
        return *head, (*spectrum[:3], _nan_at(spectrum[3])), measures

    return planted


def _plant_in_negativity(batch_states):
    # in the pass's negativity column, the one that sweeps print
    def planted(p, name):
        *head, measures = batch_states(p, name)
        return *head, (*measures[:2], _nan_at(measures[2]))

    return planted


def _states():
    # (theta, correlators, state, moduli, spectrum, measures) of 20 draws
    # with random time origins, as run_all draws them, through verify's
    # _batch_states, so that a nan planted there reaches the check
    p = verify._draw(random.Random(0), 20, tau_span=5.0)
    return p.theta, *verify._batch_states(p, lambda i: f"draw {i}")


def _negativity_on_the_pass():
    _, _, state, moduli, _, measures = _states()
    return verify._check_negativity(state, moduli, measures)


# each sampled check run alone on 20 draws, so that a nan planted for one
# check does not reach the others
_CHECKS = {
    "dawson-reference": lambda: verify._check_dawson(),
    "correlators-vs-quadrature": lambda: verify._check_correlators(
        random.Random(0), random.Random(1), 20
    ),
    "assembly-dual-route": lambda: verify._check_assembly(*_states()[:3]),
    "spectrum-dual-route": lambda: verify._check_spectrum(*_states()[2:5]),
    "physicality": lambda: verify._check_physicality(_states()[2]),
    "negativity-dual-route": _negativity_on_the_pass,
}


@pytest.mark.parametrize(
    "check, kernel, plant",
    [
        ("dawson-reference", "_dawson", _plant_in_reflection),
        ("correlators-vs-quadrature", "_correlators", _plant_in_last),
        ("assembly-dual-route", "_batch_states", _plant_in_rho22),
        ("spectrum-dual-route", "_batch_states", _plant_in_spectrum),
        ("physicality", "_batch_states", _plant_in_rho22),
        ("negativity-dual-route", "_batch_states", _plant_in_negativity),
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


def test_a_failing_appendix_draw_fails_the_assembly_check(monkeypatch, capsys):
    # push rho11 of two draws of the batched appendix route off trace; the
    # check compares the routes entrywise, so it scores the bump, and the
    # scalar view runs the same kernel, so each draw alone raises
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
    results = verify.run_all(seed=0, points=20)
    assert [r.passed for r in results] == [r.name != "assembly-dual-route" for r in results]
    assert results[2].name == "assembly-dual-route" and results[2].worst >= 1e-6
    # the CLI prints all six lines and exits 1
    assert cli.cmd_verify(seed=0, points=20) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(_CHECKS)
    assert "FAIL" in lines[2]
    theta, *correlators = inputs[0]
    with pytest.raises(AssemblyError) as alone:
        assemble_appendix(InitialState(theta), CorrelatorSet(*correlators))
    assert str(alone.value) == "trace deviates from 1 by 1.000e-06"


def test_run_all_passes_over_seeds_0_to_7_in_under_0_2_s():
    verify.run_all(seed=0, points=100)  # warm-up
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        results = [verify.run_all(seed=s, points=100) for s in range(8)]
        best = min(best, time.perf_counter() - start)
        assert [r.name for r in results[0]] == list(_CHECKS)
        assert all(r.passed for checks in results for r in checks)
    assert best < 0.2, f"{best:.3f} s"
