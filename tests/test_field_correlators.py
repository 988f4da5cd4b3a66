import math
import random
from dataclasses import astuple

import pytest

from udwpair import (
    CorrelatorSet,
    DetectorParams,
    ModelParams,
    PairGeometry,
    QuadratureError,
    anticommutator_omega,
    closed_form_correlators,
    commutator_kappa,
    decay_factor,
    detector_pair,
    oracle_correlators,
    point_state,
    random_model_params,
)
from udwpair.field_correlators import (
    _kappa_direct,
    _kappa_small_l,
    _omega_direct,
    _omega_small_l,
)

A_UNIT = DetectorParams(1.0, 1.0, 1.0)

# frozen radial-quadrature values (30-digit arithmetic), unit couplings
KAPPA_L3_DT3 = -0.0105822724945390300982
OMEGA_L3_DT3 = -0.00290031973832862882909
KAPPA_L1_DT2 = -0.0189027431544775214862
OMEGA_L1_DT2 = 0.0167996388894576448101


def _pair(l, dtau, lam_a=1.0, lam_b=1.0, eta=1.0):
    a = DetectorParams(lam_a, eta, 1.0)
    b = DetectorParams(lam_b, eta, 1.0)
    return a, b, PairGeometry(l, dtau, 1.0)


def test_decay_factor_frozen_values():
    # exp(-1 / (2 pi^2)) and exp(-100 / (2 pi^2))
    assert decay_factor(A_UNIT, 1.0) == pytest.approx(0.95060125762662669656, rel=1e-15)
    strong = DetectorParams(5.0, 2.0, 1.0)
    assert decay_factor(strong, 1.0) == pytest.approx(0.0063072268617218033262, rel=1e-14)
    off = DetectorParams(0.0, 1.0, 1.0)
    assert decay_factor(off, 1.0) == 1.0


def test_decay_factor_width_scaling():
    # only the ratio (coupling * weight) / width enters
    assert decay_factor(A_UNIT, 2.0) == decay_factor(DetectorParams(0.5, 1.0, 1.0), 1.0)


def test_sigma_validation():
    with pytest.raises(ValueError):
        decay_factor(A_UNIT, 0.0)
    with pytest.raises(ValueError):
        decay_factor(A_UNIT, -1.0)


def test_kappa_frozen_values():
    a, b, g = _pair(3.0, 3.0)
    assert commutator_kappa(a, b, g) == pytest.approx(KAPPA_L3_DT3, rel=1e-13)
    a, b, g = _pair(1.0, 2.0)
    assert commutator_kappa(a, b, g) == pytest.approx(KAPPA_L1_DT2, rel=1e-13)


def test_omega_frozen_values():
    a, b, g = _pair(3.0, 3.0)
    assert anticommutator_omega(a, b, g) == pytest.approx(OMEGA_L3_DT3, rel=1e-13)
    a, b, g = _pair(1.0, 2.0)
    assert anticommutator_omega(a, b, g) == pytest.approx(OMEGA_L1_DT2, rel=1e-13)


def test_coupling_prefactor_is_linear():
    # the product lambda_A lambda_B eta_A eta_B multiplies both scalars;
    # doubling one coupling is a power-of-two scaling, hence exact
    a1, b1, g = _pair(3.0, 3.0)
    a2, b2, _ = _pair(3.0, 3.0, lam_a=2.0)
    assert commutator_kappa(a2, b2, g) == 2.0 * commutator_kappa(a1, b1, g)
    assert anticommutator_omega(a2, b2, g) == 2.0 * anticommutator_omega(a1, b1, g)


def test_delay_parity():
    # kappa flips sign with the firing order, omega does not
    for l in (0.5, 3.0, 7.0):
        for dtau in (0.5, 2.0, 6.0):
            ap, bp, gp = _pair(l, dtau)
            am, bm, gm = _pair(l, -dtau)
            assert commutator_kappa(am, bm, gm) == -commutator_kappa(ap, bp, gp)
            assert anticommutator_omega(am, bm, gm) == anticommutator_omega(ap, bp, gp)


def test_zero_coupling_kills_cross_terms():
    a, b, g = _pair(3.0, 3.0, lam_a=0.0)
    assert commutator_kappa(a, b, g) == 0.0
    assert anticommutator_omega(a, b, g) == 0.0


def test_phase_gamma():
    # A fires at the time origin 1.5, B at 1.5 - 5.5 = -4.0
    a = DetectorParams(1.0, 1.0, 2.0)
    b = DetectorParams(1.0, 1.0, 0.5)
    g = PairGeometry(3.0, -5.5, 1.0, 1.5)
    for c in (closed_form_correlators(a, b, g), oracle_correlators(a, b, g)):
        assert (c.phase_a, c.phase_b) == (2.0 * 1.5, 0.5 * (-4.0))
        assert c.gamma == 2.0 * 1.5 + 0.5 * (-4.0)


def test_large_time_origin_matches_point_state():
    # 1e17 + 3 rounds to 1e17, so no firing-time difference can carry the
    # delay; both routes must take it from the geometry
    p = ModelParams(tau_a0=1e17)
    want = point_state(p)[0]
    a, b, g = detector_pair(p)
    assert closed_form_correlators(a, b, g) == want
    for value, ref in zip(astuple(oracle_correlators(a, b, g)), astuple(want)):
        assert abs(value - ref) <= 1e-6 * max(abs(ref), 1e-3)


def test_short_distance_branch_continuity():
    # the dedicated small-separation series must meet the direct formula
    # at the dispatch boundary
    for sigma in (1.0, 0.7):
        l = 1e-4 * sigma
        for dtau in (0.5, 1.0, 3.0, 5.0, 8.0):
            kd = _kappa_direct(1.0, l, dtau, sigma)
            ks = _kappa_small_l(1.0, l, dtau, sigma)
            assert abs(kd - ks) <= 1e-10 * max(abs(kd), 1e-300)
            wd = _omega_direct(1.0, l, dtau, sigma)
            ws = _omega_small_l(1.0, l, dtau, sigma)
            assert abs(wd - ws) <= 1e-10 * max(abs(wd), 1e-300)


def test_coincident_detectors_have_finite_correlators():
    a, b, g = _pair(0.0, 2.0)
    k = commutator_kappa(a, b, g)
    w = anticommutator_omega(a, b, g)
    assert math.isfinite(k) and math.isfinite(w)
    # the L -> 0 limit of the direct formula, one part in 1e8 above the branch
    near = PairGeometry(1e-8, 2.0, 1.0)
    assert commutator_kappa(a, b, near) == pytest.approx(k, rel=1e-9)


def test_large_separation_decay():
    # kappa underflows to exactly zero at L = 50 widths; omega follows a
    # power tail -C / (pi^2 (L^2 - dtau^2)) instead of dying
    for dtau in (0.0, 2.0, 4.0):
        a, b, g = _pair(50.0, dtau)
        assert commutator_kappa(a, b, g) == 0.0
        tail = -1.0 / (math.pi ** 2 * (50.0 ** 2 - dtau ** 2))
        assert anticommutator_omega(a, b, g) == pytest.approx(tail, rel=1e-3)
    a, b, g = _pair(50.0, 0.0)
    a2, b2, g2 = _pair(100.0, 0.0)
    ratio = anticommutator_omega(a, b, g) / anticommutator_omega(a2, b2, g2)
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_closed_form_set_matches_oracle_spots():
    rng = random.Random(7)
    for _ in range(25):
        a, b, g = detector_pair(random_model_params(rng, lambda_max=5.0))
        closed = closed_form_correlators(a, b, g)
        numeric = oracle_correlators(a, b, g)
        for name in ("f_a", "f_b", "kappa", "omega", "gamma"):
            ref = getattr(numeric, name)
            assert abs(getattr(closed, name) - ref) <= 1e-6 * max(abs(ref), 1e-3)


def test_quadrature_failure_is_reported():
    a = DetectorParams(1.0, 1.0, 1.0)
    g = PairGeometry(1e6, 3.0, 1.0)
    with pytest.raises(QuadratureError):
        oracle_correlators(a, a, g)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DetectorParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DetectorParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        DetectorParams(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        PairGeometry(-0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        PairGeometry(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PairGeometry(1.0, 1.0, 1.0, math.inf)
    with pytest.raises(ValueError):
        CorrelatorSet(0.0, 0.5, 0.1, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        CorrelatorSet(0.5, 1.5, 0.1, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        CorrelatorSet(0.5, 0.5, 0.1, 0.1, 0.0, math.nan)
    CorrelatorSet(1.0, 0.5, -0.1, 0.2, 1.0, 2.0)
