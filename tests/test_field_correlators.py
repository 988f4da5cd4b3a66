import math
import random
import warnings
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import (
    CorrelatorSet,
    DetectorParams,
    ModelParams,
    PairGeometry,
    QuadratureError,
    closed_form_correlators,
    detector_pair,
    oracle_correlators,
    point_state,
    random_model_params,
)
from udwpair.field_correlators import (
    _ENVELOPE_PANELS,
    _KMAX_OVER_SIGMA,
    _MAX_PANELS,
    _MIRROR_PAIRS,
    _PI2,
    _ROTATED_CUT,
    _ROTATED_EDGES,
    _RULE_NODES,
    _RULE_WEIGHTS,
    _correlators,
    _decay,
    _envelope,
    _kappa,
    _kspace,
    _omega_direct,
    _omega_small_l,
    _oracle,
    _panels,
    _rotated,
    _sine_transform,
)
from udwpair.sweep_engine import _row
from udwpair.verify import _decade_draw

A_UNIT = DetectorParams(1.0, 1.0, 1.0)
_NODES = 16  # Gauss nodes of the oracle's Gauss-Kronrod pair, which adds 17

# frozen radial-quadrature values (30-digit arithmetic), unit couplings
KAPPA_L3_DT3 = -0.0105822724945390300982
OMEGA_L3_DT3 = -0.00290031973832862882909
KAPPA_L1_DT2 = -0.0189027431544775214862
OMEGA_L1_DT2 = 0.0167996388894576448101


def _pair(l, dtau, lam_a=1.0, lam_b=1.0, eta=1.0):
    a = DetectorParams(lam_a, eta, 1.0)
    b = DetectorParams(lam_b, eta, 1.0)
    return a, b, PairGeometry(l, dtau, 1.0)


def _closed(l, dtau, **couplings):
    return closed_form_correlators(*_pair(l, dtau, **couplings))


def _f_a(d: DetectorParams, sigma: float) -> float:
    return closed_form_correlators(d, A_UNIT, PairGeometry(3.0, 3.0, sigma)).f_a


def test_decay_factor_frozen_values():
    # exp(-1 / (2 pi^2)) and exp(-100 / (2 pi^2))
    assert _f_a(A_UNIT, 1.0) == pytest.approx(0.95060125762662669656, rel=1e-15)
    strong = DetectorParams(5.0, 2.0, 1.0)
    assert _f_a(strong, 1.0) == pytest.approx(0.0063072268617218033262, rel=1e-14)
    off = DetectorParams(0.0, 1.0, 1.0)
    assert _f_a(off, 1.0) == 1.0


def test_decay_factor_width_scaling():
    # only the ratio (coupling * weight) / width enters
    assert _f_a(A_UNIT, 2.0) == _f_a(DetectorParams(0.5, 1.0, 1.0), 1.0)


def test_sigma_validation():
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="smearing_width"):
            PairGeometry(3.0, 3.0, sigma)


def test_kappa_frozen_values():
    assert _closed(3.0, 3.0).kappa == pytest.approx(KAPPA_L3_DT3, rel=1e-13)
    assert _closed(1.0, 2.0).kappa == pytest.approx(KAPPA_L1_DT2, rel=1e-13)


def test_omega_frozen_values():
    assert _closed(3.0, 3.0).omega == pytest.approx(OMEGA_L3_DT3, rel=1e-13)
    assert _closed(1.0, 2.0).omega == pytest.approx(OMEGA_L1_DT2, rel=1e-13)


def test_coupling_prefactor_is_linear():
    # the product lambda_A lambda_B eta_A eta_B multiplies both scalars;
    # doubling one coupling is a power-of-two scaling, hence exact
    one, two = _closed(3.0, 3.0), _closed(3.0, 3.0, lam_a=2.0)
    assert two.kappa == 2.0 * one.kappa
    assert two.omega == 2.0 * one.omega


def test_delay_parity():
    # kappa flips sign with the firing order, omega does not
    for l in (0.5, 3.0, 7.0):
        for dtau in (0.5, 2.0, 6.0):
            plus, minus = _closed(l, dtau), _closed(l, -dtau)
            assert minus.kappa == -plus.kappa
            assert minus.omega == plus.omega


def test_zero_coupling_kills_cross_terms():
    c = _closed(3.0, 3.0, lam_a=0.0)
    assert c.kappa == 0.0
    assert c.omega == 0.0


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


def _dawson_mp(x):
    # the Dawson function D(x) = sqrt(pi)/2 exp(-x^2) erfi(x), at mpmath's
    # working precision
    return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


def _omega_reference(sep, delay, sigma):
    """sigma^2 omega at unit coupling product, of the exact input doubles at
    40 digits: the difference of Dawson functions over L."""
    with mpmath.workdps(40):
        l, d = mpmath.mpf(sep) / sigma, mpmath.mpf(delay) / sigma
        rt2 = mpmath.sqrt(2)
        difference = _dawson_mp((d + l) / rt2) - _dawson_mp((d - l) / rt2)
        return float(-difference / (rt2 * mpmath.pi**2 * l))


def test_short_distance_branch_continuity():
    # omega's small-separation series must meet its direct formula at the
    # dispatch boundary, 1e-4 widths; at sigma = 0.7 the kernels take L and
    # dt divided by the width, and both forms must also meet the reference
    # at the undivided doubles
    for sigma in (1.0, 0.7):
        l = 1e-4 * sigma
        for dtau in (0.5, 1.0, 3.0, 5.0, 8.0):
            wd = _omega_direct(1.0, l / sigma, dtau / sigma)
            ws = _omega_small_l(1.0, l / sigma, dtau / sigma)
            assert abs(wd - ws) <= 1e-10 * max(abs(wd), 1e-300)
            ref = _omega_reference(l, dtau, sigma)
            assert max(abs(wd - ref), abs(ws - ref)) <= 1e-10 * abs(ref)


def _kappa_reference(sep, delay, sigma):
    """Unit-coupling kappa of the exact input doubles at 60 digits: the
    difference of Gaussians over L, and its limit -2 d exp(-d^2 / 2) at
    L = 0, with d = dt / sigma."""
    with mpmath.workdps(60):
        l, t, s = (mpmath.mpf(v) for v in (sep, delay, sigma))
        pref = mpmath.sqrt(mpmath.pi / 2) / (4 * mpmath.pi**2 * s)
        if l == 0:
            return float(pref * -2 * t / s**2 * mpmath.exp(-((t / s) ** 2) / 2))
        gauss = (mpmath.exp(-(((t + sign * l) / s) ** 2) / 2) for sign in (1, -1))
        return float(pref / l * (next(gauss) - next(gauss)))


def test_kappa_is_accurate_in_relative_terms_over_decades():
    # L and |dt| in {0} and 41 log-spaced widths from 1e-12 to 1e8, both
    # delay signs, and L = |dt| where 2 |dt| L / sigma^2 passes the float
    # range; the allowance grows with the exponent (|dt| - L)^2 /
    # 2 sigma^2, whose rounding exp turns into relative error
    widths = [0.0, *np.logspace(-12.0, 8.0, 41)]
    pairs = [(l, d) for l in widths for d in widths] + [(w, w) for w in (1e154, 1e160, 1e200)]
    rows = [(l, sign * d, s) for s in (0.5, 1.0, 2.0) for l, d in pairs for sign in (1.0, -1.0)]
    ref = np.array([_kappa_reference(*row) for row in rows])
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert normal.sum() > 4000
    sep, delay, sigma = np.array(rows)[normal].T
    # in widths, by exact powers of two
    kappa = _kappa(1.0 / sigma**2, sep / sigma, delay / sigma)
    allowance = 4.0 * np.finfo(float).eps * (1.0 + (np.abs(delay) - sep) ** 2 / (2.0 * sigma**2))
    excess = np.abs(kappa - ref[normal]) / (np.abs(ref[normal]) * allowance)
    assert excess.max() <= 1.0, np.array(rows)[normal][np.argmax(excess)]


def test_kappa_past_the_float_range_is_zero_without_warning():
    # the Gaussian's exponent ((|dt| - L) / sigma)^2 overflows; its limit is 0
    sep, delay = np.array([0.0, 1.0, 1e155]), np.array([1e155, 1e155, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (0.5, 1.0, 2.0):  # in widths, by exact powers of two
            assert (_kappa(1.0, sep / sigma, delay / sigma) == 0.0).all()
            assert (_kappa(1.0, sep / sigma, -delay / sigma) == 0.0).all()
        # nor does the public route, where omega takes its direct form
        assert _closed(1.0, 1e155).kappa == 0.0 and _closed(1e155, 1.0).kappa == 0.0


def test_omega_series_runs_on_its_rows_alone():
    # omega's small-L series overflows at huge delays; a row that takes the
    # direct form never evaluates it, so the batch does not warn, and each
    # row equals its batch of one bit for bit
    rows = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1e154, 1e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _correlators(*rows.T)
        for i in range(2):
            one = _correlators(*rows[i : i + 1].T)
            assert [v[i].hex() for v in batch] == [v[0].hex() for v in one]
    assert np.isfinite(batch).all()


def test_coincident_detectors_have_finite_correlators():
    c = _closed(0.0, 2.0)
    assert math.isfinite(c.kappa) and math.isfinite(c.omega)
    # the L -> 0 limit of the direct formula, one part in 1e8 above the branch
    assert _closed(1e-8, 2.0).kappa == pytest.approx(c.kappa, rel=1e-9)


def test_subnormal_separations_take_the_oracles_coincident_limits():
    # below the smallest normal double the products k L underflow, and
    # sin(kL) / L would divide them by L: the oracle takes the quotients'
    # L = 0 values instead, on both the node and the panel factors
    coincident = oracle_correlators(A_UNIT, A_UNIT, PairGeometry(0.0, 2.0))
    for sep in (5e-324, 1e-310, 1e-300):
        c = oracle_correlators(A_UNIT, A_UNIT, PairGeometry(sep, 2.0))
        assert abs(c.kappa - coincident.kappa) <= 3e-15
        assert abs(c.omega - coincident.omega) <= 3e-15


def test_subnormal_separation_closed_form_does_not_warn():
    # omega's direct form overflows dividing by L = 5e-324 on a row that
    # its series replaces; the suite turns any escaping warning into an error
    assert abs(_closed(5e-324, 2.0).omega - _closed(0.0, 2.0).omega) <= 1e-15


def test_large_separation_decay():
    # kappa underflows to exactly zero at L = 50 widths; omega follows a
    # power tail -C / (pi^2 (L^2 - dtau^2)) instead of dying
    for dtau in (0.0, 2.0, 4.0):
        c = _closed(50.0, dtau)
        assert c.kappa == 0.0
        tail = -1.0 / (math.pi ** 2 * (50.0 ** 2 - dtau ** 2))
        assert c.omega == pytest.approx(tail, rel=1e-3)
    ratio = _closed(50.0, 0.0).omega / _closed(100.0, 0.0).omega
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


def _scaled_errors(a, b, g):
    closed, numeric = closed_form_correlators(a, b, g), oracle_correlators(a, b, g)
    return [abs(x - y) / max(abs(y), 1e-3) for x, y in zip(astuple(closed), astuple(numeric))]


def test_oracle_spans_decades():
    # far past the old breakpoint cap of the adaptive quadrature
    for l, dtau in ((200.0, 199.0), (1e4, 0.0), (3.0, 1e4), (1e8, 0.0), (1e8, -3.0)):
        assert max(_scaled_errors(*_pair(l, dtau, lam_a=5.0, lam_b=3.0))) <= 1e-6, (l, dtau)


def test_decade_draws_match_closed_forms():
    rng = random.Random(11)
    batch = _decade_draw(rng, 400)
    draws = [_row(batch, i) for i in range(400)]
    for values in ([p.separation for p in draws], [abs(p.delay) for p in draws]):
        assert 1e-3 <= min(values) < 1e-2 and 1e7 < max(values) <= 1e8
        # log-uniform: about a third of the draws in each third of the decades
        low = sum(v < 10.0 ** (2.0 / 3.0) for v in values)
        assert 100 < low < 170
    assert 150 < sum(p.delay < 0.0 for p in draws) < 250
    for p in draws[:100]:
        assert max(_scaled_errors(*detector_pair(p))) <= 1e-6, p


def test_gauss_kronrod_pair_is_nested_positive_and_exact():
    x, w = _RULE_NODES, _RULE_WEIGHTS
    n = _NODES
    assert x.shape == (2 * n + 1,) and w.shape == (2 * n + 1, 2)
    # the Gauss column weighs exactly the n Gauss-Legendre nodes, and in
    # order the added Kronrod nodes interlace them
    gauss = w[:, 0] != 0.0
    legendre = 0.5 * (np.polynomial.legendre.leggauss(n)[0] + 1.0)
    assert np.array_equal(np.sort(x[gauss]), np.sort(legendre))
    assert gauss[np.argsort(x)].tolist() == [False, True] * n + [False]
    assert (0.0 < x).all() and (x < 1.0).all()
    assert (w[gauss, 0] > 0.0).all() and (w[:, 1] > 0.0).all()
    # monomials centred on [0, 1], whose moments are 1 / (d + 1) at even d
    # and 0 at odd d: the Gauss column is exact to degree 2n - 1 and fails
    # at 2n, the Kronrod column is exact to 3n + 1
    d = np.arange(3 * n + 2)
    moments = ((2.0 * x[:, None] - 1.0) ** d).T @ w
    exact = np.where(d % 2 == 0, 1.0 / (d + 1.0), 0.0)
    error = np.abs(moments - exact[:, None]) / np.finfo(float).eps
    assert error[: 2 * n, 0].max() <= 4.0 and error[2 * n, 0] > 1e3
    assert error[:, 1].max() <= 4.0


def test_mirror_pairs_mirror_exactly():
    # the 17 offsets h descend to the midpoint's 0, and the 33 nodes
    # 1/2 -+ h, ascending, mirror bit for bit, as both weight columns do
    h = _MIRROR_PAIRS[:, 0]
    assert _MIRROR_PAIRS.shape == (_NODES + 1, 3) and (np.diff(h) < 0.0).all() and h[-1] == 0.0
    x, w = _RULE_NODES, _RULE_WEIGHTS
    assert (np.diff(x) > 0.0).all() and (x + x[::-1] == 1.0).all()
    assert np.array_equal(w, w[::-1])
    assert np.array_equal(w[: _NODES + 1], _MIRROR_PAIRS[:, 1:])


def _legendre(x, m):
    # P_0(x) .. P_m(x) by the three-term recurrence
    p = [mpmath.mpf(1), x]
    for j in range(1, m):
        p.append(((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1))
    return p[: m + 1]


def _legendre_rule(n):
    # the n Gauss-Legendre nodes on [-1, 1], each refined from numpy's by
    # mpmath's root finder, with their weights 2 / ((1 - x^2) P_n'(x)^2)
    rule = []
    for guess in np.polynomial.legendre.leggauss(n)[0]:
        x = mpmath.findroot(lambda x: _legendre(x, n)[n], mpmath.mpf(guess))
        p = _legendre(x, n)
        slope = n * (x * p[n] - p[n - 1]) / (x * x - 1)
        rule.append((x, 2 / ((1 - x * x) * slope**2)))
    return rule


def _gauss_kronrod_reference(n):
    """[(x, Gauss weight, Kronrod weight)] on [-1, 1] of the nested pair with
    n Gauss nodes, n even, in the working precision.  The added nodes are
    the roots of the Stieltjes polynomial E, the Legendre series of degree
    n + 1 orthogonal to all lower degrees under the weight P_n, solved from
    the triple products int P_j P_n P_k, j <= n (a 2n-node Gauss sum, exact
    to their degree 3n + 1).  E is odd, so its roots are 0 and mirror
    pairs.  The Kronrod weights then integrate P_0 .. P_2n exactly."""
    gauss = _legendre_rule(n)
    triple = mpmath.matrix(n + 1, n + 2)
    for x, w in _legendre_rule(2 * n):
        p = _legendre(x, n + 1)
        for j in range(n + 1):
            for k in range(n + 2):
                triple[j, k] += w * p[j] * p[n] * p[k]
    rhs = -triple[:, n + 1]
    coefficients = [*mpmath.lu_solve(triple[:, : n + 1], rhs), mpmath.mpf(1)]

    def stieltjes(x):
        return mpmath.fsum(c * p for c, p in zip(coefficients, _legendre(x, n + 1)))

    guesses = np.sort(np.polynomial.legendre.legroots([float(c) for c in coefficients]))
    roots = [mpmath.findroot(stieltjes, mpmath.mpf(g)) for g in guesses[n // 2 + 1 :]]
    nodes = [x for x, _ in gauss] + [-r for r in roots] + [mpmath.mpf(0)] + roots
    vandermonde = mpmath.matrix([_legendre(x, 2 * n) for x in nodes]).T
    kronrod = mpmath.lu_solve(vandermonde, mpmath.matrix([2] + [0] * (2 * n)))
    gauss_w = [w for _, w in gauss] + [mpmath.mpf(0)] * (n + 1)
    return sorted(zip(nodes, gauss_w, kronrod))


def test_mirror_pairs_are_the_correctly_rounded_rule():
    # each shipped value is the double nearest a 60-digit derivation: on
    # [0, 1] a node x on [-1, 1] is 1/2 + x/2, so h = -x/2 on the lower
    # half, and the weights halve; mpmath rounds to nearest
    with mpmath.workdps(60):
        rule = _gauss_kronrod_reference(_NODES)
        lower = [[-x / 2, g / 2, k / 2] for x, g, k in rule[: _NODES + 1]]
        for (x, _, k), (y, _, m) in zip(rule, rule[::-1]):
            assert abs(x + y) < mpmath.mpf(10) ** -55 and abs(k - m) < mpmath.mpf(10) ** -55
        shipped = np.array([[float(v) for v in row] for row in lower])
    assert np.array_equal(shipped, _MIRROR_PAIRS)


def test_kspace_and_rotated_forms_agree_where_both_run():
    # far out kappa's rotated form is the closed-form Gaussian, so its
    # independence rests on this overlap band
    rng = random.Random(5)
    sep, delay = (
        np.array([rng.uniform(lo, hi) for _ in range(500)])
        for lo, hi in ((0.05, 44.0), (-44.0, 44.0))
    )
    assert (_panels(sep, delay) <= _MAX_PANELS).all()
    kspace, kspace_err = _kspace(sep, delay)
    rotated, rotated_err = _rotated(sep, delay)
    assert kspace_err.max() <= 1e-12 and rotated_err.max() <= 1e-12
    assert np.abs(np.array(kspace) - rotated).max() <= 1e-12


# (L + |dt|) / sigma where the oracle leaves k space for the rotated contour
_SWITCH = 256.0 * math.pi / 9.1


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_band_switch_sits_at_256_pi_over_9_1(sigma):
    # the kernels run in widths, here reached by exact powers of two, and
    # the public view at this width takes the band they take
    unit = DetectorParams(1.0, sigma, 1.0)  # a switching weight of one width
    for factor, far in ((1.0 - 1e-12, False), (1.0 + 1e-12, True)):
        span = _SWITCH * sigma * factor
        g = PairGeometry(0.25 * span, -0.75 * span, sigma)
        sep, delay = (np.array([v / sigma]) for v in (g.separation, g.delay))
        assert (_panels(sep, delay) > _MAX_PANELS).item() is far
        kspace, _ = _kspace(sep, delay)
        rotated, _ = _rotated(sep, delay)
        assert not np.array_equal(kspace, rotated)
        band = rotated if far else kspace
        # unit couplings: kappa = -I_kappa / (2 pi^2) and omega = -I_omega / pi^2
        c = oracle_correlators(unit, unit, g)
        assert c.kappa == -1.0 / (2.0 * _PI2) * band[0][0]
        assert c.omega == -1.0 / _PI2 * band[1][0]
    # coincident detectors: k space just inside the switch, and past it the
    # rotated form, which divides by L, cannot certify its result
    a = DetectorParams(1.0, 1.0, 1.0)
    inside = oracle_correlators(a, a, PairGeometry(0.0, _SWITCH * sigma * (1.0 - 1e-12), sigma))
    assert math.isfinite(inside.omega)
    with pytest.raises(QuadratureError):
        oracle_correlators(a, a, PairGeometry(0.0, _SWITCH * sigma * (1.0 + 1e-12), sigma))


def _exact_kspace(sep, delay, sigma):
    """sigma^2 [I_kappa, I_omega], the integrals in widths, in closed form
    at 40 digits of the exact input doubles: with
    l = L / sigma and d = dt / sigma, I_kappa is a difference of Gaussians
    and I_omega a difference of Dawson functions, D(x) = sqrt(pi)/2
    exp(-x^2) erfi(x), each over 2 l; at l = 0 their limits."""
    with mpmath.workdps(40):
        l, d = mpmath.mpf(sep) / sigma, mpmath.mpf(delay) / sigma
        if l == 0:  # the limits L -> 0 of the quotients below
            x = d / mpmath.sqrt(2)
            kappa = mpmath.sqrt(mpmath.pi / 2) * d * mpmath.exp(-d * d / 2)
            return [float(kappa), float(1 - 2 * x * _dawson_mp(x))]
        kappa = mpmath.sqrt(mpmath.pi / 2) * (
            mpmath.exp(-((d - l) ** 2) / 2) - mpmath.exp(-((d + l) ** 2) / 2)
        )
        rt2 = mpmath.sqrt(2)
        omega = rt2 * (_dawson_mp((d + l) / rt2) - _dawson_mp((d - l) / rt2))
        return [float(kappa / (2 * l)), float(omega / (2 * l))]


def test_kspace_band_matches_closed_form_integrals():
    # L and |dt| log-uniform over the whole k-space band, L down to 1e-3
    rng = random.Random(17)
    rows = []
    while len(rows) < 300:
        sigma = rng.choice((0.3, 0.5, 1.0, 2.0, 4.0))
        sep, delay = (10.0 ** rng.uniform(-3.0, math.log10(90.0 * sigma)) for _ in range(2))
        delay *= rng.choice((-1.0, 1.0))
        if sep + abs(delay) <= 0.999 * _SWITCH * sigma:
            rows.append((sep, delay, sigma))
    # the band's edges: L = 0, where sinc(kL) is 1; L = 1e-3; and
    # (L + |dt|) / sigma just under the switch, where k L and k dt reach
    # about 800 rad
    for sigma in (0.5, 1.0, 2.0):
        span = _SWITCH * sigma * (1.0 - 1e-12)
        rows += [(0.0, 0.0, sigma), (0.0, 1.3 * sigma, sigma), (0.0, -span, sigma)]
        rows += [(1e-3, 2.0 * sigma, sigma), (1e-3, 1e-3 - span, sigma)]
        rows += [(span, 0.0, sigma), (0.25 * span, -0.75 * span, sigma)]
        rows += [(0.6 * span, 0.4 * span, sigma)]
    sep, delay, sigma = map(np.array, zip(*rows))
    # L and dt in widths; the rows at sigma = 0.3 round in the division
    sep, delay = sep / sigma, delay / sigma
    assert (_panels(sep, delay) <= _MAX_PANELS).all()
    assert sep.min() < 2e-3 and (sep + np.abs(delay)).max() > 80.0
    values, err = _kspace(sep, delay)
    exact = np.array([_exact_kspace(*row) for row in rows]).T
    assert np.abs(values - exact).max() <= 1e-14
    assert err.max() <= 1e-14
    # at L = dt = 0 the omega integral is the decay factor's
    # I_f = int_0^inf k exp(-k^2 / 2) dk = 1, in widths
    origin = (sep == 0.0) & (delay == 0.0)
    assert origin.sum() == 3
    assert np.abs(values[1][origin] - 1.0).max() <= 1e-14


def _kspace_nodewise(sep, delay):
    """The k-space band summed node by node, the kernel that _kspace's
    per-count tables replaced: every draw's panels laid end to end, each
    node's k, envelope and sinc(kL) evaluated where it is used, and the
    sin and cos of k dt and k L by angle addition from those of the panel's
    left edge and of the node's offset."""
    panels = _panels(sep, delay).astype(int)
    starts = np.cumsum(panels) - panels
    owner = np.repeat(np.arange(sep.size), panels)  # the draw of each panel
    width = _KMAX_OVER_SIGMA / panels  # each draw's panel width
    left = (np.arange(owner.size) - starts[owner]) * width[owner]
    l = sep[owner, None]
    dt_l = np.stack((delay, sep))  # dt and L, a row each
    left_dt_l = (left * dt_l.take(owner, 1))[..., None]  # left dt and left L, per panel
    (sin_ld, sin_ll), (cos_ld, cos_ll) = np.sin(left_dt_l), np.cos(left_dt_l)
    x, w = _RULE_NODES, _RULE_WEIGHTS
    phase = width[:, None] * x * dt_l[..., None]  # offset dt and offset L, per draw
    (sin_od, sin_ol), (cos_od, cos_ol) = np.sin(phase), np.cos(phase)
    k = left[:, None] + width[owner, None] * x
    damped = k * np.exp(-0.5 * k**2)
    sin_kl = sin_ll * cos_ol[owner] + cos_ll * sin_ol[owner]
    radial = damped * np.divide(sin_kl, k * l, out=np.ones_like(k), where=l > 0.0)  # sinc(kL)
    cos_sum, sin_sum = (radial * cos_od[owner]) @ w, (radial * sin_od[owner]) @ w
    integrals = (sin_ld * cos_sum + cos_ld * sin_sum, cos_ld * cos_sum - sin_ld * sin_sum)
    gauss, kronrod = np.add.reduceat(width[owner, None, None] * np.stack(integrals, 1), starts).T
    return kronrod, np.abs(gauss - kronrod)


# the span L + |dt| in widths that one more panel covers
_PANEL_SPAN = 4.0 * math.pi / _KMAX_OVER_SIGMA


def _span(n, u):
    # L + |dt| at the share u of the spans that take n panels
    low = 0.0 if n == _ENVELOPE_PANELS else (n - 1) * _PANEL_SPAN
    return low + u * (n * _PANEL_SPAN - low)


# per panel count from 5 to 64: where in the count's spans the draw sits,
# the share of its span that is L, and the sign of the delay; not a share
# that makes L subnormal, where the node-wise sinc(kL) divides 0 by 0
_BAND = st.lists(
    st.tuples(st.floats(0.01, 0.99), st.floats(1e-300, 1.0), st.sampled_from([-1.0, 1.0])),
    min_size=60,
    max_size=60,
)


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(_BAND)
@example([(0.5, 0.5, 1.0)] * 60)
# a failing property makes Hypothesis import libcst, which warns
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_kspace_equals_its_nodewise_sums(draws):
    # every panel count of the band, each at a drawn L and dt and again at
    # L = 0, L = 1e-3 and dt = 0 with the same span and sign; the per-count
    # tables sum in another order, so the values agree to rounding
    rows = []
    for n, (u, share, sign) in enumerate(draws, start=5):
        span = _span(n, u)
        rows += [(share * span, sign * (1.0 - share) * span), (0.0, sign * span)]
        rows += [(1e-3, sign * (span - 1e-3)), (span, 0.0)]
    sep, delay = map(np.array, zip(*rows))
    assert set(_panels(sep, delay).tolist()) == set(range(5, _MAX_PANELS + 1))
    values, err = _kspace(sep, delay)
    ref, ref_err = _kspace_nodewise(sep, delay)
    assert np.abs(values - ref).max() <= 1e-15
    assert err.max() <= 1e-14 and ref_err.max() <= 1e-14


def test_kspace_draws_equal_their_batches_of_one():
    # a drawn L and dt for every panel count from 5 to 65, and the same
    # span at L = 0 and at dt = 0, in shuffled order: the draws are sorted
    # by count and each count takes one matmul, and a draw's sums may
    # depend neither on its place nor on how many draws share its count
    rng = random.Random(27)
    rows = []
    for n in range(5, _MAX_PANELS + 2):
        span = _span(n, rng.uniform(0.01, 0.99))
        share, sign = rng.random(), rng.choice((-1.0, 1.0))
        rows += [(share * span, sign * (1.0 - share) * span), (0.0, sign * span), (span, 0.0)]
    rows += [(0.0, 0.0), (1e-3, 0.0)]
    rng.shuffle(rows)
    sep, delay = map(np.array, zip(*rows))
    assert set(_panels(sep, delay).tolist()) == set(range(5, _MAX_PANELS + 2))
    batch = _kspace(sep, delay)
    backward = _kspace(sep[::-1], delay[::-1])[..., ::-1]
    assert batch.tobytes() == backward.tobytes()
    for i in range(sep.size):
        one = _kspace(sep[i : i + 1], delay[i : i + 1])
        assert batch[..., i].tobytes() == one[..., 0].tobytes()


def test_oracle_takes_the_decay_factor_once_per_width():
    # in widths the decay factor's integral, the omega integral at
    # L = dt = 0, is 1 exactly, so f has one exact route, _decay(g), which
    # the oracle takes too.  Batches of two near draws, with different L and
    # dt, and a far draw; all far; all near; and a single draw: each runs
    # _kspace or _rotated on an empty band, and equals its public views
    (_, i_f), _ = _kspace(np.zeros(1), np.zeros(1))
    assert i_f[0] == 1.0
    batches = [
        ([0.5, 4.0, 1e4], [26.0, -1.0, 3.0], [True, True, False]),
        ([1e4, 2e4], [3.0, -3.0], [False, False]),
        ([0.5, 4.0], [26.0, -1.0], [True, True]),
        ([2.0], [-1.5], [True]),
    ]
    for sep, delay, near in batches:
        sep, delay = np.array(sep), np.array(delay)
        assert (_panels(sep, delay) <= _MAX_PANELS).tolist() == near
        g_a, g_b = np.full(sep.size, 4.5), np.full(sep.size, 1.5)
        oracle = _oracle(g_a, g_b, sep, delay)
        closed = _correlators(g_a, g_b, sep, delay)
        for f, g, ref in zip(oracle[:2], (g_a, g_b), closed[:2]):
            assert [v.hex() for v in f] == [v.hex() for v in ref] == [v.hex() for v in _decay(g)]
        a, b = DetectorParams(3.0, 1.5), DetectorParams(3.0, 0.5)
        for i in range(sep.size):
            one = oracle_correlators(a, b, PairGeometry(sep[i].item(), delay[i].item()))
            assert (one.f_a, one.f_b, one.kappa, one.omega) == tuple(v[i] for v in oracle)


def test_rotated_band_row_by_row_equals_the_whole_band():
    # the a = L +- dt of decade draws, both delay signs, with a = +-0 and the
    # cut's edge: _rotated takes the band a row at a time, which must equal
    # the whole array's band bit for bit
    p = _decade_draw(random.Random(28), 300)
    a = np.stack((p.separation + p.delay, p.separation - p.delay))
    a[:, :3] = [[0.0, math.sqrt(_ROTATED_CUT), 1e8], [-0.0, -math.sqrt(_ROTATED_CUT), -1e-3]]
    assert (a > 0.0).any() and (a < 0.0).any()
    assert np.array_equal(np.stack([_sine_transform(row) for row in a], 1), _sine_transform(a))


def test_rule_constants_and_envelope_tables_are_read_only():
    for table in (_MIRROR_PAIRS, _RULE_NODES, _RULE_WEIGHTS, _envelope(_ENVELOPE_PANELS)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_quadrature_failure_is_reported():
    # on the rotated contour omega's integral is a sum of two sine
    # transforms over 2L; at L = 1e-12 their Gauss and Kronrod sums agree
    # to rounding, and the estimate, their difference plus one rounding
    # unit of ~1e-3 each, is ~2e-7 after the division
    a = DetectorParams(1.0, 1.0, 1.0)
    g = PairGeometry(1e-12, 1e3, 1.0)
    with pytest.raises(QuadratureError, match="anticommutator integral: estimated error"):
        oracle_correlators(a, a, g)
    gauss, kronrod = _sine_transform(np.array([1e-12 + 1e3, 1e-12 - 1e3]))
    eps = np.finfo(float).eps
    assert (np.abs(gauss - kronrod) <= eps * np.abs(kronrod)).all()
    assert (np.abs(gauss - kronrod) + eps * np.abs(kronrod)).sum() / 2e-12 > 1e-9


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
