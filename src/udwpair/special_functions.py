"""Dawson function.

The anticommutator correlator of a Gaussian-smeared detector pair needs
D(x) = (sqrt(pi)/2) exp(-x^2) erfi(x) at close to machine precision over a
wide argument range.  One kernel covers it, on arrays: Rybicki's sampling
series (Computers in Physics 3, 85, 1989),

    D(x) ~ (1/sqrt(pi)) sum_{n odd} exp(-(x - n h)^2) / n,

centred on the even sample n0 nearest x/h, with the terms n0 +- m paired as
2 (n0 cosh a_m - m sinh a_m) / (n0^2 - m^2), a_m = 2 h m (x - n0 h).  The
pairing keeps the sum free of cancellation as x -> 0, where n0 = 0.  Two
guards make the ends exact: a Taylor polynomial below |x| = 1e-3, so that
tiny arguments return x itself, and the leading term 1/(2x) above 1e8, where
the next term is below half an ulp.  Negative arguments are handled by sign
reflection, so oddness holds exactly.
"""

import math

import numpy as np

__all__ = ["dawson"]

_SQRT_PI = math.sqrt(math.pi)

# Sampling step and paired terms.  The discretization error of the series
# scales like exp(-(pi/(2h))^2) ~ 7e-18 at h = 0.25, and 15 pairs reach
# m h = 7.25, past which exp(-(m h)^2) cosh(2 h^2 m) < 1e-21.
_STEP = 0.25
_ODD = np.arange(1.0, 30.0, 2.0)
_ODD_SQUARED = _ODD * _ODD
_WEIGHT = 2.0 * np.exp(-((_ODD * _STEP) ** 2)) / _SQRT_PI

# Below the near guard x (1 - 2x^2/3 + 4x^4/15) is exact to 1e-19 relative;
# above the far guard the correction 1/(2x^2) to 2x D(x) = 1 is below 5e-17.
_NEAR_EDGE = 1e-3
_FAR_EDGE = 1e8


def _sampling(x):
    # x >= 0 and finite
    n0 = 2.0 * np.rint(0.5 * x / _STEP)
    xp = x - n0 * _STEP  # exact, |xp| <= h
    a = np.multiply.outer(2.0 * _STEP * xp, _ODD)
    n0 = n0[..., None]
    pairs = (n0 * np.cosh(a) - _ODD * np.sinh(a)) / (n0 * n0 - _ODD_SQUARED)
    return np.exp(-xp * xp) * (_WEIGHT * pairs).sum(axis=-1)


def _dawson(x):
    """D(x) elementwise for finite x; the kernel behind dawson()."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    t = np.minimum(ax, _NEAR_EDGE)
    t2 = t * t
    near = t * (1.0 + t2 * (-2.0 / 3.0 + t2 * (4.0 / 15.0)))
    far = 0.5 / np.maximum(ax, _FAR_EDGE)
    mid = _sampling(np.minimum(np.maximum(ax, _NEAR_EDGE), _FAR_EDGE))
    out = np.where(ax < _NEAR_EDGE, near, np.where(ax > _FAR_EDGE, far, mid))
    return np.copysign(out, x)


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    Takes a float or an array (evaluated elementwise).  Relative error is
    at or below ~1e-15 for |x| <= 40 and ~5e-16 beyond.  Odd in x by exact
    sign reflection.  Raises ValueError on non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"dawson: non-finite argument {x!r}")
    out = _dawson(arr)
    return float(out) if out.ndim == 0 else out

