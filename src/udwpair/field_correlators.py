"""Vacuum field correlators for an instantaneously switched detector pair.

Two two-level detectors couple to a massless scalar field in 3+1
dimensions, each at a single instant of its proper time and each through a
normalized Gaussian spatial profile of width sigma.  After tracing out the
field, the joint detector state is fixed by four field scalars and the two
gap phases:

    f_A, f_B   per-detector decay factors in (0, 1]
    kappa      vacuum expectation of the commutator of the two smeared
               field operators (causal signalling; zero at spacelike
               separation up to Gaussian smearing tails)
    omega      vacuum expectation of the anticommutator (vacuum
               correlations; nonzero even at spacelike separation, with a
               1/L^2 tail at large separation)
    phase_a    Omega_A tau_A0, with tau_A0 the geometry's time origin
    phase_b    Omega_B tau_B0, with tau_B0 = tau_A0 + delay

The rho14 phase is gamma = phase_a + phase_b and the rho23 phase is
phase_a - phase_b.  The four field scalars are computed two independent
ways: closed forms built on the Dawson function, and a radial
momentum-space quadrature oracle.  The test suite holds the two routes
against each other to 1e-6 relative.  The closed forms run elementwise
over numpy arrays (the sweeps evaluate whole grids at once); the public
functions evaluate one detector pair.

Conventions: the smearing profile F(x) = (sqrt(pi) sigma)^(-3) exp(-x^2/sigma^2)
transforms to F~(k) = (2 pi)^(-3/2) exp(-sigma^2 k^2 / 4) (symmetric Fourier
convention), which is what pins f_j = exp(-lambda_j^2 eta_j^2 / (2 pi^2 sigma^2)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import _dawson

__all__ = [
    "DetectorParams",
    "PairGeometry",
    "CorrelatorSet",
    "QuadratureError",
    "decay_factor",
    "commutator_kappa",
    "anticommutator_omega",
    "closed_form_correlators",
    "oracle_correlators",
]

_PI2 = math.pi * math.pi

# Below this fraction of sigma the closed forms divide a vanishing numerator
# by L; switch to the series expansion of the numerator instead.
_SMALL_L_FRACTION = 1e-4

# Quadrature controls.  exp(-(sigma k)^2/2) < 1e-18 past k = 9.1/sigma, so the
# truncated tail is invisible at the 1e-13 target accuracy.
_KMAX_OVER_SIGMA = 9.1
_QUAD_TOL = 1e-13
_QUAD_ERROR_CEILING = 1e-9
_MAX_BREAKPOINTS = 180


class QuadratureError(RuntimeError):
    """The adaptive quadrature could not certify the requested accuracy."""


def _require_finite(obj, name, value):
    if not math.isfinite(value):
        raise ValueError(f"{obj}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DetectorParams:
    """One detector: coupling, switching weight, energy gap.

    coupling is dimensionless and nonnegative; switching_weight carries
    units of time and is positive; energy_gap is a nonnegative inverse
    time.
    """

    coupling: float
    switching_weight: float
    energy_gap: float = 0.0

    def __post_init__(self):
        for name in ("coupling", "switching_weight", "energy_gap"):
            _require_finite("DetectorParams", name, getattr(self, name))
        if self.coupling < 0.0:
            raise ValueError(f"DetectorParams.coupling must be >= 0, got {self.coupling!r}")
        if self.switching_weight <= 0.0:
            raise ValueError(
                f"DetectorParams.switching_weight must be > 0, got {self.switching_weight!r}"
            )
        if self.energy_gap < 0.0:
            raise ValueError(f"DetectorParams.energy_gap must be >= 0, got {self.energy_gap!r}")


@dataclass(frozen=True)
class PairGeometry:
    """Spatial separation L >= 0, switching delay (may be negative),
    smearing width sigma > 0 and time origin.  Detector A fires at the
    time origin tau_A0 and detector B at tau_A0 + delay."""

    separation: float
    delay: float
    smearing_width: float = 1.0
    time_origin: float = 0.0

    def __post_init__(self):
        for name in ("separation", "delay", "smearing_width", "time_origin"):
            _require_finite("PairGeometry", name, getattr(self, name))
        if self.separation < 0.0:
            raise ValueError(f"PairGeometry.separation must be >= 0, got {self.separation!r}")
        if self.smearing_width <= 0.0:
            raise ValueError(
                f"PairGeometry.smearing_width must be > 0, got {self.smearing_width!r}"
            )


@dataclass(frozen=True)
class CorrelatorSet:
    """The field scalars and gap phases that determine the joint detector
    state."""

    f_a: float
    f_b: float
    kappa: float
    omega: float
    phase_a: float
    phase_b: float

    def __post_init__(self):
        for name in ("f_a", "f_b", "kappa", "omega", "phase_a", "phase_b"):
            _require_finite("CorrelatorSet", name, getattr(self, name))
        for name in ("f_a", "f_b"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"CorrelatorSet.{name} must lie in (0, 1], got {v!r}")

    @property
    def gamma(self) -> float:
        """Phase Omega_A tau_A0 + Omega_B tau_B0 of rho14."""
        return self.phase_a + self.phase_b


def _check_sigma(sigma):
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError(f"smearing width must be a positive finite number, got {sigma!r}")


def _phases(gap_a, gap_b, time_origin, delay):
    """(phase_a, phase_b) = (Omega_A tau_A0, Omega_B (tau_A0 + delay)),
    elementwise over arrays."""
    return gap_a * time_origin, gap_b * (time_origin + delay)


def _decay(le):
    # le = coupling * switching_weight / sigma
    return np.exp(-le * le / (2.0 * _PI2))


def decay_factor(d: DetectorParams, sigma: float) -> float:
    """Per-detector decay factor exp(-lambda^2 eta^2 / (2 pi^2 sigma^2)).

    Always in (0, 1]; equals 1 exactly at zero coupling.
    """
    _check_sigma(sigma)
    return float(_decay(d.coupling * d.switching_weight / sigma))


def _coupling_product(a, b):
    return a.coupling * b.coupling * a.switching_weight * b.switching_weight


def _kappa_direct(cprod, sep, delay, sigma):
    pref = cprod / (4.0 * _PI2 * sep * sigma) * math.sqrt(math.pi / 2.0)
    plus = (delay + sep) / sigma
    minus = (delay - sep) / sigma
    return pref * (np.exp(-0.5 * plus * plus) - np.exp(-0.5 * minus * minus))


def _kappa_small_l(cprod, sep, delay, sigma):
    # numerator N(L) = exp(-(dt+L)^2/2s^2) - exp(-(dt-L)^2/2s^2) is odd in L;
    # N/L = N'(0) + N'''(0) L^2/6 + O(L^4) keeps the branch seam below 1e-12
    gauss = np.exp(-0.5 * (delay / sigma) ** 2)
    s2 = sigma * sigma
    n1 = -2.0 * (delay / s2) * gauss
    n3 = 2.0 * (3.0 * delay / (s2 * s2) - delay**3 / (s2 * s2 * s2)) * gauss
    pref = cprod / (4.0 * _PI2 * sigma) * math.sqrt(math.pi / 2.0)
    return pref * (n1 + n3 * sep * sep / 6.0)


def commutator_kappa(a: DetectorParams, b: DetectorParams, g: PairGeometry) -> float:
    """Commutator correlator of the two smeared field operators.

    Odd in the delay, exactly proportional to the product of couplings and
    switching weights, and Gaussian-suppressed once |delay| and separation
    part ways.  Below separation = 1e-4 sigma the vanishing-numerator /
    vanishing-denominator closed form is replaced by its series limit.
    """
    return float(_kappa(_coupling_product(a, b), g.separation, g.delay, g.smearing_width))


def _omega_direct(cprod, sep, delay, sigma):
    rt2s = math.sqrt(2.0) * sigma
    d = _dawson(np.stack(((delay + sep) / rt2s, (delay - sep) / rt2s)))
    return -cprod / (math.sqrt(2.0) * _PI2 * sep * sigma) * (d[0] - d[1])


def _omega_small_l(cprod, sep, delay, sigma):
    # same structure as the kappa limit, driven by Dawson derivatives:
    #   D'(x)   = 1 - 2 x D(x)
    #   D'''(x) = (12 x - 8 x^3) D(x) + 4 x^2 - 4
    u = delay / (math.sqrt(2.0) * sigma)
    h = sep / (math.sqrt(2.0) * sigma)
    d = _dawson(u)
    d1 = 1.0 - 2.0 * u * d
    d3 = (12.0 * u - 8.0 * u**3) * d + 4.0 * u * u - 4.0
    return -cprod / (_PI2 * sigma * sigma) * (d1 + d3 * h * h / 6.0)


def _near_or_far(near, far, cprod, sep, delay, sigma):
    # Below separation = 1e-4 sigma the direct form divides a vanishing
    # numerator by L (0/0 at coincidence); the series limit replaces it there.
    sep = np.asarray(sep, dtype=float)
    small = sep < _SMALL_L_FRACTION * sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        out = far(cprod, sep, delay, sigma)
    if small.any():
        out = np.where(small, near(cprod, sep, delay, sigma), out)
    return out


def _kappa(cprod, sep, delay, sigma):
    return _near_or_far(_kappa_small_l, _kappa_direct, cprod, sep, delay, sigma)


def _omega(cprod, sep, delay, sigma):
    return _near_or_far(_omega_small_l, _omega_direct, cprod, sep, delay, sigma)


def _correlators(lam_a, eta_a, lam_b, eta_b, sep, delay, sigma):
    """(f_a, f_b, kappa, omega) elementwise over arrays: the kernel behind
    the closed-form scalar functions."""
    cprod = lam_a * lam_b * eta_a * eta_b
    return (
        _decay(lam_a * eta_a / sigma),
        _decay(lam_b * eta_b / sigma),
        _kappa(cprod, sep, delay, sigma),
        _omega(cprod, sep, delay, sigma),
    )


def anticommutator_omega(a: DetectorParams, b: DetectorParams, g: PairGeometry) -> float:
    """Anticommutator correlator (vacuum correlation part).

    Even in the delay.  Unlike the commutator it decays only like
    1/(separation^2 - delay^2) at large separation, because the two Dawson
    tails add rather than cancel.
    """
    return float(_omega(_coupling_product(a, b), g.separation, g.delay, g.smearing_width))


def closed_form_correlators(
    a: DetectorParams, b: DetectorParams, g: PairGeometry
) -> CorrelatorSet:
    """The field scalars via the closed forms, with the gap phases."""
    values = _correlators(
        a.coupling,
        a.switching_weight,
        b.coupling,
        b.switching_weight,
        g.separation,
        g.delay,
        g.smearing_width,
    )
    phases = _phases(a.energy_gap, b.energy_gap, g.time_origin, g.delay)
    return CorrelatorSet(*(float(v) for v in values), *phases)


def _sinc(x):
    # sin(x)/x with the removable singularity filled by its Taylor step
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def _oscillation_breakpoints(sep, delay, kmax):
    scale = max(sep, abs(delay))
    if scale <= 0.0:
        return []
    step = math.pi / scale
    pts = []
    n = 1
    while n * step < kmax and n <= _MAX_BREAKPOINTS:
        pts.append(n * step)
        n += 1
    return pts


def _radial_quad(integrand, kmax, breakpoints, what):
    from scipy.integrate import quad  # oracle only, so importing udwpair needs no scipy

    res = quad(
        integrand,
        0.0,
        kmax,
        points=breakpoints or None,
        limit=max(len(breakpoints) + 50, 200),
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        full_output=1,
    )
    value, abserr = res[0], res[1]
    if len(res) > 3 or abserr > _QUAD_ERROR_CEILING:
        message = res[3] if len(res) > 3 else "error estimate above ceiling"
        raise QuadratureError(
            f"{what}: estimated error {abserr:.3e} (ceiling {_QUAD_ERROR_CEILING:.0e}); {message}"
        )
    return value


def oracle_correlators(a: DetectorParams, b: DetectorParams, g: PairGeometry) -> CorrelatorSet:
    """The field scalars via direct radial momentum-space quadrature, with
    the gap phases.

    The angular integral of exp(-i k . r) over directions is 4 pi sinc(kL),
    done analytically; what remains are one-dimensional Gaussian-damped,
    mildly oscillatory integrals:

        I_f   = int_0^inf k exp(-sigma^2 k^2 / 2) dk
        f_j   = exp(-lambda_j^2 eta_j^2 I_f / (2 pi^2))
        kappa = -(C / 2 pi^2) int_0^inf k exp(-sigma^2 k^2/2) sinc(kL) sin(k dt) dk
        omega = -(C / pi^2)   int_0^inf k exp(-sigma^2 k^2/2) sinc(kL) cos(k dt) dk

    with C the coupling product.  This route shares no code with the closed
    forms (no Dawson function) and serves as their independent oracle.
    Raises QuadratureError when the 1e-9 absolute error budget cannot be
    certified.
    """
    s = g.smearing_width
    sep, delay = g.separation, g.delay
    kmax = _KMAX_OVER_SIGMA / s
    cprod = _coupling_product(a, b)

    def damped(k):
        return k * math.exp(-0.5 * (s * k) ** 2)

    i_f = _radial_quad(damped, kmax, [], "decay-factor integral")
    le_a = a.coupling * a.switching_weight
    le_b = b.coupling * b.switching_weight
    f_a = math.exp(-le_a * le_a * i_f / (2.0 * _PI2))
    f_b = math.exp(-le_b * le_b * i_f / (2.0 * _PI2))

    pts = _oscillation_breakpoints(sep, delay, kmax)
    kap_int = _radial_quad(
        lambda k: damped(k) * _sinc(k * sep) * math.sin(k * delay),
        kmax,
        pts,
        "commutator integral",
    )
    om_int = _radial_quad(
        lambda k: damped(k) * _sinc(k * sep) * math.cos(k * delay),
        kmax,
        pts,
        "anticommutator integral",
    )
    return CorrelatorSet(
        f_a,
        f_b,
        -cprod / (2.0 * _PI2) * kap_int,
        -cprod / _PI2 * om_int,
        *_phases(a.energy_gap, b.energy_gap, g.time_origin, g.delay),
    )
