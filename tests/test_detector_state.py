import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from udwpair import (
    AssemblyError,
    CorrelatorSet,
    FSignature,
    InitialState,
    XDensityMatrix,
    assemble_appendix,
    assemble_main,
    detector_pair,
    closed_form_correlators,
    f_jklm,
    point_state,
    random_model_params,
)

ODD_SIGNATURES = [
    (+1, +1, +1, -1), (+1, +1, -1, +1), (+1, -1, +1, +1), (-1, +1, +1, +1),
    (-1, -1, -1, +1), (-1, -1, +1, -1), (-1, +1, -1, -1), (+1, -1, -1, -1),
]


def _random_correlators(rng):
    return CorrelatorSet(
        f_a=rng.uniform(0.05, 1.0),
        f_b=rng.uniform(0.05, 1.0),
        kappa=rng.uniform(-1.0, 1.0),
        omega=rng.uniform(-0.5, 0.5),
        phase_a=rng.uniform(-6.0, 6.0),
        phase_b=rng.uniform(-6.0, 6.0),
    )


def test_odd_signatures_vanish_identically():
    rng = random.Random(3)
    for _ in range(50):
        c = _random_correlators(rng)
        for sig in ODD_SIGNATURES:
            assert f_jklm(FSignature(*sig), c) == 0j


def test_even_signature_closed_forms():
    # independently spelled specializations of the sixteen-term formula
    rng = random.Random(4)
    for _ in range(50):
        c = _random_correlators(rng)
        fa, fb = c.f_a, c.f_b
        cos2k = math.cos(2.0 * c.kappa)
        sin2k = math.sin(2.0 * c.kappa)
        sh, ch = math.sinh(c.omega), math.cosh(c.omega)
        cases = {
            (+1, +1, +1, +1): 0.25 * (1 + fa + fb * cos2k + fa * fb * ch),
            (-1, -1, -1, -1): 0.25 * (1 - fa - fb * cos2k + fa * fb * ch),
            (+1, -1, +1, -1): 0.25 * (1 - fa + fb * cos2k - fa * fb * ch),
            (-1, +1, -1, +1): 0.25 * (1 + fa - fb * cos2k - fa * fb * ch),
            (+1, +1, -1, -1): 0.25 * fb * complex(fa * sh, -sin2k),
            (-1, -1, +1, +1): 0.25 * fb * complex(fa * sh, +sin2k),
            (+1, -1, -1, +1): -0.25 * fb * complex(fa * sh, +sin2k),
            (-1, +1, +1, -1): -0.25 * fb * complex(fa * sh, -sin2k),
        }
        for sig, want in cases.items():
            got = f_jklm(FSignature(*sig), c)
            assert got == pytest.approx(want, abs=1e-15)


def test_signature_validation():
    with pytest.raises(ValueError):
        FSignature(1, 1, 1, 0)
    with pytest.raises(ValueError):
        FSignature(2, 1, 1, 1)


def test_initial_state_range():
    InitialState(0.0)
    InitialState(math.pi / 2.0)
    with pytest.raises(ValueError):
        InitialState(-0.1)
    with pytest.raises(ValueError):
        InitialState(math.pi / 2.0 + 0.1)
    with pytest.raises(ValueError):
        InitialState(math.nan)


def test_decoupled_state_is_initial_projector():
    idle = CorrelatorSet(1.0, 1.0, 0.0, 0.0, 0.0, 3.0)
    for theta in (0.0, 0.3, math.pi / 4.0, 1.2, math.pi / 2.0):
        state = assemble_main(InitialState(theta), idle)
        cs = math.cos(theta) * math.sin(theta)
        assert state.rho11 == pytest.approx(math.cos(theta) ** 2, abs=1e-15)
        assert state.rho44 == pytest.approx(math.sin(theta) ** 2, abs=1e-15)
        assert state.rho22 == 0.0
        assert state.rho33 == 0.0
        assert state.rho23 == 0j
        assert state.rho14 == pytest.approx(complex(cs, 0.0), abs=1e-15)


def test_dual_routes_agree():
    rng = random.Random(11)
    for _ in range(300):
        p = random_model_params(rng, tau_span=5.0)
        c = closed_form_correlators(*detector_pair(p))
        main = assemble_main(InitialState(p.theta), c)
        appendix = assemble_appendix(InitialState(p.theta), c)
        for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
            assert abs(getattr(main, name) - getattr(appendix, name)) <= 1e-12


def test_delta_moves_only_inner_phase():
    # phase_a - phase_b goes from -0.75 to 0.25 while the sum stays 1.75
    # exactly (dyadic values), so only the phase of rho23 may move
    rng = random.Random(12)
    c = replace(_random_correlators(rng), phase_a=0.5, phase_b=1.25)
    s = InitialState(0.8)
    base = assemble_main(s, c)
    moved = assemble_main(s, replace(c, phase_a=1.0, phase_b=0.75))
    assert moved.diagonals() == base.diagonals()
    assert moved.rho14 == base.rho14
    assert abs(moved.rho23) == pytest.approx(abs(base.rho23), abs=1e-15)
    want = base.rho23 * cmath.exp(-1j * (0.25 - (-0.75)))
    assert moved.rho23 == pytest.approx(want, abs=1e-15)


def test_unphysical_correlators_are_caught():
    # f = 1 (no local decay) combined with a large anticommutator drives a
    # population negative; the builder must refuse rather than return it
    bad = CorrelatorSet(1.0, 1.0, 0.0, 0.5, 0.0, 0.0)
    with pytest.raises(AssemblyError):
        assemble_main(InitialState(0.0), bad)


def test_from_elements_trace_enforced():
    with pytest.raises(AssemblyError):
        XDensityMatrix.from_elements(0.5, 0.25, 0.25, 0.1, 0.0, 0.0)


def test_from_elements_clamps_dust_but_rejects_real_negatives():
    m = XDensityMatrix.from_elements(-5e-10, 0.5, 0.25, 0.25 + 5e-10, 0.0, 0.0)
    assert m.rho11 == 0.0
    with pytest.raises(AssemblyError):
        XDensityMatrix.from_elements(-2e-9, 0.5, 0.25, 0.25 + 2e-9, 0.0, 0.0)


def test_from_elements_block_positivity():
    with pytest.raises(AssemblyError):
        XDensityMatrix.from_elements(0.5, 0.0, 0.0, 0.5, 0.6, 0.0)
    with pytest.raises(AssemblyError):
        XDensityMatrix.from_elements(0.1, 0.4, 0.4, 0.1, 0.0, 0.5)


def test_as_matrix_is_hermitian():
    state = point_state(random_model_params(random.Random(14)))[1]
    m = state.as_matrix()
    assert np.array_equal(m, m.conj().T)
    assert m[0, 1] == 0j and m[1, 3] == 0j and m[0, 2] == 0j and m[2, 3] == 0j
