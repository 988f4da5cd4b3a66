"""Vacuum field correlators for an instantaneously switched detector pair.

Two two-level detectors couple to a massless scalar field in 3+1
dimensions, each at a single instant of its proper time and each through a
normalized Gaussian spatial profile of width sigma.  After tracing out the
field, the joint detector state is fixed by four field scalars and the two
gap phases:

    f_A, f_B   per-detector decay factors in (0, 1]
    kappa      vacuum expectation of the commutator of the two smeared
               field operators (causal signalling; odd in the delay; zero
               at spacelike separation up to Gaussian smearing tails)
    omega      vacuum expectation of the anticommutator (vacuum
               correlations; even in the delay; nonzero even at spacelike
               separation, with a 1/L^2 tail at large separation)
    phase_a    Omega_A tau_A0, with tau_A0 the geometry's time origin
    phase_b    Omega_B tau_B0, with tau_B0 = tau_A0 + delay

The rho14 phase is gamma = phase_a + phase_b and the rho23 phase is
phase_a - phase_b.  f_j has one exact closed form.  kappa and omega are
computed two independent ways: closed forms built on the Dawson function,
and a radial momentum-space quadrature oracle (nested Gauss-Kronrod panels
of two oscillation periods in k, each integrand evaluated once for the
value and its error estimate, nodes paired about panel midpoints against
per-count tables of envelope pair sums and differences; a rotated contour
once the separation or delay spans many widths).  The test suite and
verify hold the two routes against each other to 1e-6 relative.
Both run elementwise over numpy arrays (the sweeps evaluate whole grids at
once, verify whole batches of draws); the public functions evaluate one
detector pair.

Conventions: the smearing profile F(x) = (sqrt(pi) sigma)^(-3) exp(-x^2/sigma^2)
transforms to F~(k) = (2 pi)^(-3/2) exp(-sigma^2 k^2 / 4) (symmetric Fourier
convention), which is what pins f_j = exp(-g_j^2 / (2 pi^2)), with
g_j = lambda_j eta_j / sigma.  The field scalars depend on g_a, g_b,
L / sigma and dt / sigma alone: the array kernels take those in widths, and
_view forms them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import _dawson

__all__ = [
    "DetectorParams",
    "PairGeometry",
    "CorrelatorSet",
    "QuadratureError",
    "closed_form_correlators",
    "oracle_correlators",
]

_PI2 = math.pi * math.pi

# Below this separation in widths the closed form of omega divides a
# vanishing numerator by L; switch to the numerator's series instead.
_SMALL_L_FRACTION = 1e-4

# Oracle controls, in widths.  exp(-k^2/2) < 1e-18 past k = 9.1, so the
# truncated tail is invisible at the 1e-13 target accuracy.  A draw that
# needs more than _MAX_PANELS k-space panels, L + |dt| past 256 pi / 9.1
# (about 88.4), moves to the rotated contour, whose geometric panels stop
# where its integrand is below exp(-40).
_KMAX_OVER_SIGMA = 9.1
_ENVELOPE_PANELS = math.ceil(_KMAX_OVER_SIGMA / 2.0)
_MAX_PANELS = 64
_ROTATED_EDGES = np.array([0.0, 1.0 / 27.0, 1.0 / 9.0, 1.0 / 3.0, 1.0])
_ROTATED_CUT = 80.0
_QUAD_ERROR_CEILING = 1e-9
_INTEGRALS = ("commutator", "anticommutator")

# The oracle's nested Gauss-Kronrod pair on [0, 1]: the 16 Gauss-Legendre
# nodes, then the 17 roots of their Stieltjes polynomial, the Legendre
# series of degree 17 orthogonal to all lower degrees under the weight P_16
# (Piessens et al., QUADPACK, 1983).
# The nodes mirror about 1/2, so the rule is stored as its 17 mirror pairs
# 1/2 -+ h, h descending to the midpoint's 0, each as [h, Gauss weight,
# Kronrod weight] of either node of the pair, the Gauss weight 0 at the
# added nodes.  The Gauss column is exact to degree 31, the Kronrod column
# to degree 49.  Each value is the correctly rounded double of a 60-digit
# derivation, which tests/test_field_correlators.py repeats.
_MIRROR_PAIRS = np.array(
    [
        (0.4991196370727223, 0.0, 0.002371388524623659),
        (0.49470046749582497, 0.013576229705877048, 0.006628965344045579),
        (0.4857529754846963, 0.0, 0.011249429720024722),
        (0.4722875115366163, 0.031126761969323947, 0.015630271823690263),
        (0.45457883350617145, 0.0, 0.019756475601210983),
        (0.4328156011939159, 0.04757925584124639, 0.023753107988203508),
        (0.4071201435312222, 0.0, 0.027602816547711087),
        (0.3777022041775015, 0.06231448562776694, 0.031179403005917428),
        (0.3448705533408811, 0.0, 0.03443149759576562),
        (0.3089381222013219, 0.07479799440828837, 0.037384911942799776),
        (0.27020383817606985, 0.0, 0.04002697063185964),
        (0.22900838882861368, 0.08457825969750127, 0.04229790189629532),
        (0.18574189043920813, 0.0, 0.044168751289556364),
        (0.14080177538962946, 0.09130170752246179, 0.04564601641409583),
        (0.09458428950904187, 0.0, 0.04671933703046061),
        (0.04750625491881872, 0.09472530522753425, 0.04736420062361502),
        (0.0, 0.0, 0.04757710804024915),
    ]
)
_MIRROR_PAIRS.flags.writeable = False
# The same rule as its 33 nodes 1/2 -+ h in ascending order, each with its
# [Gauss, Kronrod] weight, so that nodes and weights mirror exactly.
_RULE_NODES = np.concatenate((0.5 - _MIRROR_PAIRS[:, 0], 0.5 + _MIRROR_PAIRS[-2::-1, 0]))
_RULE_WEIGHTS = np.concatenate((_MIRROR_PAIRS[:, 1:], _MIRROR_PAIRS[-2::-1, 1:]))
_RULE_NODES.flags.writeable = _RULE_WEIGHTS.flags.writeable = False


class QuadratureError(RuntimeError):
    """The quadrature oracle could not certify the requested accuracy."""


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


def _phases(gap_a, gap_b, time_origin, delay):
    """(phase_a, phase_b) = (Omega_A tau_A0, Omega_B (tau_A0 + delay)),
    elementwise over arrays."""
    return gap_a * time_origin, gap_b * (time_origin + delay)


def _decay(g):
    # exact: the decay factor's k-integral is 1 in widths
    return np.exp(-g * g / (2.0 * _PI2))


def _kappa(cprod, sep, delay):
    # with l = L and d = dt >= 0, exp(-(d + l)^2 / 2) - exp(-(d - l)^2 / 2)
    # = exp(-(d - l)^2 / 2) expm1(x), x = -2 d l, does not cancel; over l it
    # is -2 d exp(-(d - l)^2 / 2) expm1(x) / x, and expm1(x) / x is 1 at
    # x = 0.  kappa is odd in d, and 0 - d is +0 at zero delay, as the
    # difference of Gaussians is and -d is not.  Where 2 d l overflows,
    # (0 - d) expm1(x) / x takes its limit -sign(d) / (2 l), and where the
    # Gaussian's exponent does, the Gaussian is 0
    with np.errstate(over="ignore"):
        x = -2.0 * np.abs(delay) * sep
        far = np.isinf(x)
        odd = np.divide(-np.sign(delay), 2.0 * sep, out=0.0 - delay, where=far)
        gauss = np.exp(-0.5 * (np.abs(delay) - sep) ** 2)
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=(x != 0.0) & ~far)
    pref = cprod / (2.0 * _PI2) * math.sqrt(math.pi / 2.0)
    return pref * odd * ratio * gauss


def _omega_direct(cprod, sep, delay):
    rt2 = math.sqrt(2.0)
    d = _dawson(np.stack(((delay + sep) / rt2, (delay - sep) / rt2)))
    return -cprod / (rt2 * _PI2 * sep) * (d[0] - d[1])


def _omega_small_l(cprod, sep, delay):
    # the direct form's Taylor series in L, driven by Dawson derivatives:
    #   D'(x)   = 1 - 2 x D(x)
    #   D'''(x) = (12 x - 8 x^3) D(x) + 4 x^2 - 4
    u = delay / math.sqrt(2.0)
    h = sep / math.sqrt(2.0)
    d = _dawson(u)
    d1 = 1.0 - 2.0 * u * d
    d3 = (12.0 * u - 8.0 * u**3) * d + 4.0 * u * u - 4.0
    return -cprod / _PI2 * (d1 + d3 * h * h / 6.0)


def _omega(cprod, sep, delay):
    # Below separation = 1e-4 widths the direct form divides a vanishing
    # numerator by L (0/0 at coincidence, an overflow at subnormal L); the
    # series limit replaces it there, evaluated on those rows alone.
    args = np.broadcast_arrays(cprod, sep, delay)
    small = args[1] < _SMALL_L_FRACTION
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _omega_direct(*args)
    if small.any():
        out[small] = _omega_small_l(*(v[small] for v in args))
    return out


def _correlators(g_a, g_b, sep, delay):
    """(f_a, f_b, kappa, omega) elementwise over arrays in widths, from each
    detector's coupling g_j = lambda_j eta_j / sigma: the kernel behind
    closed_form_correlators and the sweeps."""
    cprod = g_a * g_b
    return _decay(g_a), _decay(g_b), _kappa(cprod, sep, delay), _omega(cprod, sep, delay)


def _batch_of_one(*values):
    # 1-element arrays: a scalar view then follows its kernel's array
    # arithmetic, numpy's inf and nan rather than OverflowError, and the
    # array loops' rounding, where numpy scalars round some complex
    # products differently and the view could differ from its batch
    return [np.array([v], dtype=float) for v in values]


def _view(kernel, a: DetectorParams, b: DetectorParams, g: PairGeometry) -> CorrelatorSet:
    # one detector pair through a kernel over arrays, as a batch of one, in
    # widths, each detector as its coupling g = lambda eta / sigma; the
    # phases take the gaps, time origin and delay as given
    s = g.smearing_width
    couplings = (a.coupling * (a.switching_weight / s), b.coupling * (b.switching_weight / s))
    values = kernel(*_batch_of_one(*couplings, g.separation / s, g.delay / s))
    phases = _phases(a.energy_gap, b.energy_gap, g.time_origin, g.delay)
    return CorrelatorSet(*(v.item() for v in values), *phases)


def closed_form_correlators(
    a: DetectorParams, b: DetectorParams, g: PairGeometry
) -> CorrelatorSet:
    """The field scalars via the closed forms, with the gap phases."""
    return _view(_correlators, a, b, g)


def _panels(sep, delay):
    # each panel spans at most two periods of the fastest oscillation,
    # k (L + |dt|) = 4 pi, and at most two envelope widths 2: there the
    # 16-node Gauss rule is exact to rounding, and so is its Kronrod
    # extension, so their difference is rounding
    oscillation = np.ceil(_KMAX_OVER_SIGMA * (sep + np.abs(delay)) / (4.0 * np.pi))
    return np.maximum(oscillation, _ENVELOPE_PANELS)


@functools.cache
def _envelope(n):
    """Read-only w W (exp(-k+^2 / 2) +- exp(-k-^2 / 2)), k+- = (p + 1/2 +- h) w
    and w = 9.1 / n, W the pair's Gauss then Kronrod weight: rows [pair sum
    then difference, panel p, rule], a column per offset h."""
    h, weights = _MIRROR_PAIRS[:, 0], _MIRROR_PAIRS[:, 1:].copy()
    weights[-1] *= 0.5  # the midpoint's k+ and k- are one node
    w = _KMAX_OVER_SIGMA / n
    k = (np.arange(n)[:, None] + 0.5 + np.stack((h, -h))[:, None]) * w
    plus, minus = np.exp(-0.5 * k * k)[:, :, None]
    table = (w * weights.T * np.stack((plus + minus, plus - minus))).reshape(2, 2 * n, h.size)
    table.flags.writeable = False
    return table


def _kspace(sep, delay):
    """[[I_kappa, I_omega], their error estimates] over 1-D arrays of L and
    dt in widths: Gauss-Kronrod panels on k in [0, 9.1].  A node k = c +- t
    pairs about its panel's midpoint c (t = h w, _MIRROR_PAIRS): k sinc(kL)
    = s C +- c' S, s = sin(cL) / L, c' = cos(cL), S = sin(tL) / L, C = cos(tL)
    (s = c, S = t below the smallest normal L), and k dt splits alike.  Even
    [C cos, S sin](t dt) meet the count's _envelope pair sums, odd [C sin,
    S cos](t dt) its differences, then rotated by s, c' and the trig of c dt.
    A count and parity take one stacked matmul, one product per draw (a wide
    BLAS product would sum in a batch-dependent order), the table on the
    left so that each is its draw's [panel, rule] rows of the panel array."""
    tiny = np.finfo(float).tiny
    panels = _panels(sep, delay).astype(int)
    order = np.argsort(panels, kind="stable")
    panels, l, dt = panels[order], sep[order, None], delay[order, None]
    width, starts = _KMAX_OVER_SIGMA / panels, np.cumsum(panels) - panels
    t = width[:, None] * _MIRROR_PAIRS[:, 0]
    cos_l, sin_l = np.cos(t * l), np.divide(np.sin(t * l), l, out=t.copy(), where=l >= tiny)
    cos_dt, sin_dt = np.cos(t * dt), np.sin(t * dt)
    even = np.stack((cos_l * cos_dt, sin_l * sin_dt), -1)
    odd = np.stack((cos_l * sin_dt, sin_l * cos_dt), -1)
    sums = np.empty((2, panels.sum(), 2, 2))  # [even, odd] per panel, [Gauss, Kronrod] of each
    counts, first = np.unique(panels, return_index=True)
    edges = [*first.tolist(), panels.size]  # each count's draws, edges[i]:edges[i + 1]
    for n, a, b in zip(counts.tolist(), edges, edges[1:]):
        out = sums[:, starts[a] : starts[a] + (b - a) * n]
        for table, group, part in zip(_envelope(n), (even[a:b], odd[a:b]), out):
            np.matmul(table, group, out=part.reshape(b - a, 2 * n, 2))
    owner = np.repeat(np.arange(panels.size), panels)  # the draw of each panel
    centre = ((np.arange(owner.size) - starts[owner] + 0.5) * width[owner])[:, None]
    l, dt = l[owner], dt[owner]
    sin_cl = np.divide(np.sin(centre * l), l, out=centre.copy(), where=l >= tiny)
    cos_cl, sin_cd, cos_cd = np.cos(centre * l), np.sin(centre * dt), np.cos(centre * dt)
    cos_sum = sin_cl * sums[0, ..., 0] + cos_cl * sums[1, ..., 1]
    sin_sum = sin_cl * sums[1, ..., 0] + cos_cl * sums[0, ..., 1]
    integrals = (sin_cd * cos_sum + cos_cd * sin_sum, cos_cd * cos_sum - sin_cd * sin_sum)
    # per draw, [Gauss, Kronrod] sums of the two integrals, then in input order
    gauss, kronrod = np.add.reduceat(np.stack(integrals, 1), starts).T
    return np.stack((kronrod, np.abs(gauss - kronrod)))[..., np.argsort(order)]


def _sine_transform(a):
    """int_0^inf exp(-k^2/2) sin(a k) dk = int_0^|a| exp(s^2/2 - |a| s) ds,
    odd in a, by the Gauss-Kronrod pair on geometric panels: the Gauss
    sum, then the Kronrod sum, along a new first axis.  The integrand is
    below exp(-s |a| / 2), so the range stops at s = _ROTATED_CUT / |a|
    when that comes first."""
    m = np.abs(a)
    with np.errstate(divide="ignore"):
        top = np.minimum(m, _ROTATED_CUT / m)
    edges = top[..., None] * _ROTATED_EDGES
    widths = np.diff(edges)
    s = edges[..., :-1, None] + widths[..., None] * _RULE_NODES
    sums = np.exp(s * (0.5 * s - m[..., None, None])) @ _RULE_WEIGHTS
    total = (sums * widths[..., None]).sum(axis=-2)
    return np.copysign(np.moveaxis(total, -1, 0), a)


def _rotated(sep, delay):
    """[I_kappa, I_omega] and their error estimates, over 1-D arrays in widths.

    Product to sum, with a = L +- dt, gives 2 L I_kappa as the difference
    of two cosine transforms of the envelope, each the exact Gaussian
    sqrt(pi/2) exp(-a^2/2), and 2 L I_omega as the sum of two sine
    transforms (_sine_transform).
    """
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):  # L = 0 gives estimates that are not finite
        a = np.stack((sep + delay, sep - delay))
        gauss = math.sqrt(math.pi / 2.0) * np.exp(-0.5 * a * a)
        # a row of a at a time: each temporary of a whole batch's far draws,
        # ~100 kB, came from fresh pages, faulted in on every call
        sine_g, sine_k = np.stack([_sine_transform(row) for row in a], 1)
        scale = 0.5 / sep
        values = np.array([gauss[1] - gauss[0], sine_k[0] + sine_k[1]])
        # each transform's rule difference plus one rounding unit, which the
        # division by L amplifies as L -> 0
        sine_err = np.abs(sine_g - sine_k) + eps * np.abs(sine_k)
        err = np.array([eps * gauss.sum(0), sine_err.sum(0)])
        return scale * values, scale * err


def _oracle(g_a, g_b, sep, delay):
    """(f_a, f_b, kappa, omega) over equal 1-D arrays of draws in widths,
    kappa and omega by quadrature and f by its exact closed form: the
    kernel behind oracle_correlators and verify.  Raises QuadratureError,
    naming the first draw whose estimate passes the ceiling."""
    far = _panels(sep, delay) > _MAX_PANELS
    near = ~far
    # [values, estimates] of [I_kappa, I_omega], per draw
    bands = np.empty((2, 2, sep.size))
    bands[..., near] = _kspace(sep[near], delay[near])
    bands[..., far] = _rotated(sep[far], delay[far])
    (i_kappa, i_omega), err = bands
    bad = ~(err <= _QUAD_ERROR_CEILING)  # a nan estimate fails too
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        which = int(np.argmax(bad[:, i]))
        raise QuadratureError(
            f"{_INTEGRALS[which]} integral: estimated error {err[which, i]:.3e} "
            f"(ceiling {_QUAD_ERROR_CEILING:.0e}) at separation {sep[i].item()!r} "
            f"and delay {delay[i].item()!r} widths"
        )
    cprod = g_a * g_b
    return _decay(g_a), _decay(g_b), -cprod / (2.0 * _PI2) * i_kappa, -cprod / _PI2 * i_omega


def oracle_correlators(a: DetectorParams, b: DetectorParams, g: PairGeometry) -> CorrelatorSet:
    """The field scalars via direct radial momentum-space quadrature, with
    the gap phases.

    The angular integral of exp(-i k . r) over directions is 4 pi sinc(kL),
    done analytically; what remains are one-dimensional Gaussian-damped,
    oscillatory integrals:

        kappa = -(C / 2 pi^2) int_0^inf k exp(-sigma^2 k^2/2) sinc(kL) sin(k dt) dk
        omega = -(C / pi^2)   int_0^inf k exp(-sigma^2 k^2/2) sinc(kL) cos(k dt) dk

    with C the coupling product.  The decay factor's integral,
    int_0^inf k exp(-k^2 / 2) dk in widths, is exactly 1, so f_j takes the
    closed form exp(-g_j^2 / (2 pi^2)), g_j = lambda_j eta_j / sigma, on
    both routes.  Up to (L + |dt|) / sigma = 256 pi / 9.1, about 88.4,
    kappa and omega are summed in k by 33-node Gauss-Kronrod panels, each
    at most two oscillation periods and two envelope widths 2/sigma wide.
    Angle addition about each panel's midpoint splits sinc(kL) and the trig
    of k dt into panel factors and node products, even or odd in the mirror
    pairs, which meet tables of envelope pair sums or differences per count.
    Past that they move to the rotated contour of _rotated (numerical
    steepest descent, Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44,
    1026, 2006), whose sine transform does not oscillate; its kappa is the
    exact Gaussian that the closed form also uses.  Neither band shares
    code with the closed forms (no Dawson function), so this route serves
    as their independent oracle.
    The error estimate is the difference between the 33-node Kronrod sum
    and the 16-node Gauss sum on the same integrand values;
    QuadratureError is raised when it passes 1e-9 absolute.
    """
    return _view(_oracle, a, b, g)
