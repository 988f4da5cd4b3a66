"""Joint detector state assembly.

After both detectors have fired, the reduced two-detector state in the
basis |gg>, |ge>, |eg>, |ee> has an X shape: four real populations plus
the two anti-diagonal coherences rho14 and rho23.  This module builds that
state from a CorrelatorSet (four field scalars and the two gap phases)
along two independent routes:

* assemble_main: the compact per-element expressions in terms of
  cosh/sinh(omega), cos/sin(2 kappa) and the phases gamma and delta.
* assemble_appendix: the expansion of the evolution operator into the 16
  vacuum moments f_(jklm) (signature j,k,l,m in {+1,-1}) with explicit
  per-term gap phases exp(+-i Omega tau0), then the four basis-projector
  combinations weighted by cos/sin(theta).  The eight even moments are
  evaluated in one pass; the odd eight vanish.

The two must agree entrywise to 1e-12, which the test suite enforces over
random parameter draws.

Phase conventions: rho14 carries exp(-i gamma) with gamma = phase_a +
phase_b = Omega_A tau_A0 + Omega_B tau_B0, and rho23 carries exp(-i delta)
with delta = phase_a - phase_b.  The sign in the rho23 prefactor is the one
consistent with the moment expansion (an alternative convention with a
plus sign appears in some closed-form listings of the same elements; the
modulus, which is all that enters the measures, is identical either way).
The moment expansion's central-phase factor exp(+-2i x) inside f_(jklm)
carries the commutator scalar kappa.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .field_correlators import CorrelatorSet, _batch_of_one

__all__ = [
    "InitialState",
    "FSignature",
    "XDensityMatrix",
    "AssemblyError",
    "f_jklm",
    "assemble_main",
    "assemble_appendix",
]

# Deviations beyond this are formula bugs and raise; below it, negative
# population dust is clamped to zero.
_RAISE_TOL = 1e-9
# Block eigenvalue dust below zero that the entropy counts as 0; anything
# lower raises.
_EIG_TOL = 1e-10


class AssemblyError(RuntimeError):
    """A built state violates a physical invariant beyond float dust."""


@dataclass(frozen=True)
class InitialState:
    """Entanglement angle of the initial pure state
    cos(theta)|gg> + sin(theta)|ee>, theta in [0, pi/2]."""

    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi / 2.0):
            raise ValueError(f"InitialState.theta must lie in [0, pi/2], got {self.theta!r}")


@dataclass(frozen=True)
class FSignature:
    """Signature (j, k, l, m), each +1 or -1, labelling one vacuum moment."""

    j: int
    k: int
    l: int
    m: int

    def __post_init__(self):
        for name in ("j", "k", "l", "m"):
            if getattr(self, name) not in (1, -1):
                raise ValueError(f"FSignature.{name} must be +1 or -1, got {getattr(self, name)!r}")


def _modulus(z):
    # libm hypot, as abs() of a Python complex; numpy's complex absolute
    # loop can differ from it in the last bit
    return np.hypot(np.real(z), np.imag(z))


_POPULATIONS = ("rho11", "rho22", "rho33", "rho44")


def _block_eigs(a, b, c):
    # c is the modulus of the off-diagonal entry.  hypot form for the
    # discriminant, then the small root via the determinant so it never
    # suffers cancellation
    half = 0.5 * (a + b)
    d = np.hypot(0.5 * (a - b), c)
    hi = half + d
    lo = np.divide(a * b - c * c, hi, out=np.asarray(half - d), where=hi > 0.0)
    return lo, hi


def _spectrum(rho11, rho22, rho33, rho44, m14, m23):
    """Block eigenvalues (inner low, inner high, outer low, outer high),
    elementwise over arrays, from the populations and coherence moduli."""
    return (*_block_eigs(rho22, rho33, m23), *_block_eigs(rho11, rho44, m14))


def _margins(rho11, rho22, rho33, rho44, m14, m23):
    """(trace deviation, populations with dust below zero clamped to 0,
    block spectrum) of X states, elementwise over arrays, from the
    populations and coherence moduli.  The spectrum is _spectrum's of the
    clamped populations: the one that the entropy reads."""
    dev = rho11 + rho22 + rho33 + rho44 - 1.0
    d = [np.maximum(0.0, v) for v in (rho11, rho22, rho33, rho44)]  # keeps -0.0
    return dev, d, _spectrum(*d, m14, m23)


def _state_ok(rho11, rho22, rho33, rho44, m14, m23):
    """(ok, populations with dust clamped, block spectrum) over a batch of X
    states, from the populations and coherence moduli; ok is False where
    from_elements would raise.  Every comparison is written so that nan
    fails it, and a non-finite element makes some margin nan or infinite."""
    dev, diags, spectrum = _margins(rho11, rho22, rho33, rho44, m14, m23)
    ok = abs(dev) <= _RAISE_TOL
    for v in (rho11, rho22, rho33, rho44):
        ok = ok & (v >= -_RAISE_TOL)
    for low in spectrum[::2]:
        ok = ok & (low >= -_EIG_TOL)
    return ok, diags, spectrum


@dataclass(frozen=True)
class XDensityMatrix:
    """X-structured two-detector state: populations rho11..rho44 and
    anti-diagonal coherences rho14, rho23 in the basis |gg>,|ge>,|eg>,|ee>.

    Instances are immutable; build them with from_elements(), which
    validates trace, positivity of the populations, and positive
    semidefiniteness of both 2x2 blocks.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex

    @classmethod
    def from_elements(cls, rho11, rho22, rho33, rho44, rho14, rho23):
        pops = (float(rho11), float(rho22), float(rho33), float(rho44))
        rho14 = complex(rho14)
        rho23 = complex(rho23)
        for name, v in zip((*_POPULATIONS, "rho14", "rho23"), (*pops, rho14, rho23)):
            if not cmath.isfinite(v):
                raise AssemblyError(f"element {name} is not finite: {v!r}")
        dev, diags, spectrum = _margins(*pops, abs(rho14), abs(rho23))
        if abs(dev) > _RAISE_TOL:
            raise AssemblyError(f"trace deviates from 1 by {dev:.3e}")
        for name, v in zip(_POPULATIONS, pops):
            if v < -_RAISE_TOL:
                raise AssemblyError(f"population {name} is negative: {v:.3e}")
        for name, low in (("outer", spectrum[2]), ("inner", spectrum[0])):
            if low < -_EIG_TOL:
                raise AssemblyError(f"{name} block eigenvalue is negative: {low:.3e}")
        return cls(*(float(d) for d in diags), rho14, rho23)

    def diagonals(self):
        return (self.rho11, self.rho22, self.rho33, self.rho44)

    def as_matrix(self) -> np.ndarray:
        """Reconstruct the full 4x4 complex matrix (exactly Hermitian)."""
        return _dense(*self.diagonals(), self.rho14, self.rho23)


def _dense(rho11, rho22, rho33, rho44, rho14, rho23):
    """The full complex matrices (exactly Hermitian) of X states,
    elementwise over arrays: shape (..., 4, 4) for elements of shape (...)."""
    m = np.zeros((*np.shape(rho11), 4, 4), dtype=complex)
    for i, v in enumerate((rho11, rho22, rho33, rho44)):
        m[..., i, i] = v
    m[..., 0, 3] = rho14
    m[..., 3, 0] = np.conj(rho14)
    m[..., 1, 2] = rho23
    m[..., 2, 1] = np.conj(rho23)
    return m


def _moment(j, k, l, m, f_a, f_b, kappa, omega):
    """One vacuum moment f_(jklm), elementwise over arrays: the kernel
    behind f_jklm."""
    e_plus = np.exp(2j * kappa)
    e_minus = np.conj(e_plus)
    ew = np.exp(omega)
    ewm = np.exp(-omega)
    const = 1 + j * l + k * m + j * k * l * m
    a_part = (1 + j * l) * (k + m) * f_a
    b_part = ((l + j * k * m) * e_plus + (j + k * l * m) * e_minus) * f_b
    ab_part = ((j * k + l * m) * ew + (j * m + k * l) * ewm) * (f_a * f_b)
    return (const + a_part + b_part + ab_part) / 16.0


def f_jklm(sig: FSignature, c: CorrelatorSet) -> complex:
    """One vacuum moment of the expanded evolution operator.

    Sixteen-term closed form; the central phase carries the commutator
    scalar and the hyperbolic weights carry the anticommutator:

        (1/16) [ (1 + jl + km + jklm)
               + (1 + jl)(k + m) f_A
               + ((l + jkm) e^{2i kappa} + (j + klm) e^{-2i kappa}) f_B
               + ((jk + lm) e^{omega} + (jm + kl) e^{-omega}) f_A f_B ]

    The eight signatures with an odd number of minus signs have every
    integer coefficient equal to zero, so they vanish identically.
    """
    values = _batch_of_one(c.f_a, c.f_b, c.kappa, c.omega)
    return complex(_moment(sig.j, sig.k, sig.l, sig.m, *values)[0])


def _cos(theta):
    # exactly 0 at theta = pi/2, where np.cos gives 6.1e-17: |ee>, as 0 is |gg>
    return np.where(theta == math.pi / 2.0, 0.0, np.cos(theta))


def _assemble(theta, fa, fb, kappa, omega, phase_a, phase_b):
    """(rho11, rho22, rho33, rho44, rho14, rho23) from the compact
    per-element closed forms, elementwise over arrays."""
    gamma = phase_a + phase_b
    c2 = np.cos(2.0 * theta)
    cs = _cos(theta) * np.sin(theta)
    sym = fa * fb * np.cosh(omega)        # even combination, feeds all populations
    sh = np.sinh(omega)
    c2k = np.cos(2.0 * kappa)
    s2k = np.sin(2.0 * kappa)
    cg = np.cos(gamma)
    sg = np.sin(gamma)

    even = c2 * (fa + fb * c2k)
    odd = c2 * (fa - fb * c2k)
    cross_m = fb * (fa * sh * cg - s2k * sg)
    cross_p = fb * (fa * sh * cg + s2k * sg)

    r11 = 0.25 * (1.0 + sym + even) + 0.5 * cs * cross_m
    r22 = 0.25 * (1.0 - sym + odd) - 0.5 * cs * cross_m
    r33 = 0.25 * (1.0 - sym - odd) - 0.5 * cs * cross_p
    r44 = 0.25 * (1.0 + sym - even) + 0.5 * cs * cross_p

    core = 0.25 * fb * (fa * sh + 1j * (c2 * s2k))
    b14 = core + 0.5 * cs * ((1.0 + sym) * cg + 1j * ((fa + fb * c2k) * sg))
    b23 = -core + 0.5 * cs * ((1.0 - sym) * cg + 1j * ((fa - fb * c2k) * sg))
    r14 = np.exp(-1j * gamma) * b14
    r23 = np.exp(-1j * (phase_a - phase_b)) * b23
    return r11, r22, r33, r44, r14, r23


def assemble_main(s: InitialState, c: CorrelatorSet) -> XDensityMatrix:
    """Build the X state from the compact per-element closed forms."""
    values = _batch_of_one(s.theta, c.f_a, c.f_b, c.kappa, c.omega, c.phase_a, c.phase_b)
    return XDensityMatrix.from_elements(*(v[0] for v in _assemble(*values)))


# the eight even signatures (j, k, l, m) as columns, in _appendix's
# unpacking order; the odd ones vanish identically
_EVEN_SIGNATURES = np.array(
    [
        [+1, -1, -1, +1, -1, +1, +1, -1],
        [+1, -1, -1, +1, +1, -1, -1, +1],
        [+1, -1, +1, -1, -1, +1, -1, +1],
        [+1, -1, +1, -1, +1, -1, +1, -1],
    ]
)[..., None]


def _appendix(theta, f_a, f_b, kappa, omega, phase_a, phase_b):
    """(rho11, rho22, rho33, rho44, rho14, rho23) from the vacuum moments
    and explicit gap phases, elementwise over arrays: the kernel behind
    assemble_appendix.  The eight even moments come from one _moment call
    over the signature columns; the odd eight vanish.  The populations
    keep the imaginary dust the moment sums leave, for _real_part to judge."""
    gamma = phase_a + phase_b
    cc = _cos(theta) ** 2
    ss = np.sin(theta) ** 2
    cs = _cos(theta) * np.sin(theta)
    eg = np.exp(1j * gamma)
    eg_c = np.conj(eg)
    pppp, mmmm, mmpp, ppmm, mpmp, pmpm, pmmp, mppm = _moment(
        *_EVEN_SIGNATURES, f_a, f_b, kappa, omega
    )
    r11 = cc * pppp + cs * (mmpp * eg + ppmm * eg_c) + ss * mmmm
    r22 = cc * mpmp + cs * (pmmp * eg + mppm * eg_c) + ss * pmpm
    r33 = cc * pmpm + cs * (mppm * eg + pmmp * eg_c) + ss * mpmp
    r44 = cc * mmmm + cs * (ppmm * eg + mmpp * eg_c) + ss * pppp
    r14 = cc * mmpp * eg_c + cs * pppp + cs * mmmm * np.exp(-2j * gamma) + ss * ppmm * eg_c
    e_delta = np.exp(-1j * (phase_a - phase_b))
    r23 = (
        cc * pmmp * e_delta
        + cs * mpmp * np.exp(2j * phase_b)
        + cs * pmpm * np.exp(-2j * phase_a)
        + ss * mppm * e_delta
    )
    return r11, r22, r33, r44, r14, r23


def _real_part(name, z):
    if not abs(z.imag) <= _RAISE_TOL:
        raise AssemblyError(f"population {name} picked up an imaginary part: {z.imag:.3e}")
    return z.real


def assemble_appendix(s: InitialState, c: CorrelatorSet) -> XDensityMatrix:
    """Build the X state from the 16 vacuum moments and explicit gap phases.

    Each term carries its own exp(+-i Omega tau0) factors.  Cross-checks
    assemble_main; the two agree entrywise to 1e-12.
    """
    values = _batch_of_one(s.theta, c.f_a, c.f_b, c.kappa, c.omega, c.phase_a, c.phase_b)
    elements = [v[0] for v in _appendix(*values)]
    populations = (_real_part(name, z) for name, z in zip(_POPULATIONS, elements[:4]))
    return XDensityMatrix.from_elements(*populations, *elements[4:])
