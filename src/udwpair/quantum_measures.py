"""Correlation measures on the X-structured two-detector state.

The X shape decouples the 4x4 spectrum into two 2x2 blocks (inner: rows
2,3; outer: rows 1,4), and the partial transpose into two more, so every
measure has a closed form tied to that structure.  Those runtime forms run
elementwise over numpy arrays (the public functions are views of one
state): coherence_l1, spectrum_general, coherence_rec and the two-block
negativity reported by measure_set.  Independent routes are kept beside
them on purpose, as oracles that the tests and verify drive against them;
they too run elementwise over arrays, behind scalar views of one state:

* spectrum_closed   vs spectrum_general
* negativity_full   (dense partial transpose) vs the two-block negativity
* negativity_closed (the block holding rho14 only) vs negativity_full

Conventions: coherence_rec is in bits (log base 2); negativity is the
absolute sum of negative partial-transpose eigenvalues (transpose taken
over the first detector).
"""

from dataclasses import dataclass

import numpy as np

from .detector_state import _EIG_TOL, XDensityMatrix, _block_eigs, _dense, _modulus, _spectrum

__all__ = [
    "MeasureSet",
    "Spectrum4",
    "coherence_l1",
    "spectrum_closed",
    "spectrum_general",
    "coherence_rec",
    "negativity_full",
    "negativity_closed",
    "measure_set",
]

# A C_rec in [-1e-12, 0) counts as 0; anything lower is a bug.
_REC_CLAMP = 1e-12


@dataclass(frozen=True)
class Spectrum4:
    """Eigenvalues of the X state, block ordered:
    (inner low, inner high, outer low, outer high)."""

    lam1: float
    lam2: float
    lam3: float
    lam4: float

    def as_tuple(self):
        return (self.lam1, self.lam2, self.lam3, self.lam4)


@dataclass(frozen=True)
class MeasureSet:
    c_l1: float
    c_rec: float
    negativity: float


def coherence_l1(m: XDensityMatrix) -> float:
    """Sum of the moduli of all off-diagonal entries: 2|rho14| + 2|rho23|."""
    return float(_l1(_modulus(m.rho14), _modulus(m.rho23)))


def _spectrum_closed(rho11, rho22, rho33, rho44, m14, m23):
    """Block eigenvalues (inner low, inner high, outer low, outer high),
    elementwise over arrays, by the literal discriminants: the kernel
    behind spectrum_closed."""
    s_in = np.sqrt(rho22**2 + 4.0 * m23**2 - 2.0 * rho22 * rho33 + rho33**2)
    s_out = np.sqrt(rho11**2 + 4.0 * m14**2 - 2.0 * rho11 * rho44 + rho44**2)
    return (
        0.5 * (rho22 + rho33 - s_in),
        0.5 * (rho22 + rho33 + s_in),
        0.5 * (rho11 + rho44 - s_out),
        0.5 * (rho11 + rho44 + s_out),
    )


def spectrum_closed(m: XDensityMatrix) -> Spectrum4:
    """Literal transcription of the block eigenvalues via the
    sqrt(p^2 + 4|off|^2 - 2pq + q^2) discriminants."""
    values = _spectrum_closed(*m.diagonals(), _modulus(m.rho14), _modulus(m.rho23))
    return Spectrum4(*(float(v) for v in values))


def _l1(m14, m23):
    return 2.0 * m14 + 2.0 * m23


def spectrum_general(m: XDensityMatrix) -> Spectrum4:
    """Block eigenvalues computed the numerically careful way."""
    values = _spectrum(*m.diagonals(), _modulus(m.rho14), _modulus(m.rho23))
    return Spectrum4(*(float(v) for v in values))


def _rec(diagonals, spectrum):
    """Relative entropy of coherence in bits, S(diagonal part) - S(state),
    elementwise over arrays, before its clamp, from the clamped populations
    and the block spectrum.  Eigenvalue dust below zero, which
    from_elements bounds by _EIG_TOL, counts as 0 (0 log 0 = 0)."""
    values = np.array((*diagonals, *spectrum))
    t = values * np.log2(values, out=np.zeros_like(values), where=values > 0.0)
    return (((t[4] + t[5]) + t[6]) + t[7]) - (((t[0] + t[1]) + t[2]) + t[3])


def coherence_rec(m: XDensityMatrix) -> float:
    """Relative entropy of coherence in bits:
    S(diagonal part) - S(full state)."""
    diagonals = m.diagonals()
    spectrum = _spectrum(*diagonals, _modulus(m.rho14), _modulus(m.rho23))
    # from_elements has checked the spectrum; this guards states built without it
    low = min(spectrum)
    if low < -_EIG_TOL:
        raise ValueError(f"eigenvalue {float(low)!r} is negative beyond tolerance")
    rec = _rec(diagonals, spectrum)
    if rec < -_REC_CLAMP:
        raise ValueError(f"relative entropy of coherence came out negative: {float(rec)!r}")
    return float(np.maximum(0.0, rec))


def _negativity(rho11, rho22, rho33, rho44, m14, m23):
    # Two-block negativity of an X state (Yu & Eberly, QIC 7, 459, 2007):
    # the partial transpose moves |rho14| into the inner block and |rho23|
    # into the outer one; sum the negative parts of both low eigenvalues.
    inner = _block_eigs(rho22, rho33, m14)[0]
    outer = _block_eigs(rho11, rho44, m23)[0]
    return np.maximum(0.0, -inner) + np.maximum(0.0, -outer)


def _negativity_full(rho11, rho22, rho33, rho44, rho14, rho23):
    """Negativity from the dense partial transpose over the first
    detector, elementwise over arrays: one stacked eigensolver call, the
    kernel behind negativity_full."""
    m = _dense(rho11, rho22, rho33, rho44, rho14, rho23)
    pt = np.swapaxes(m.reshape(*m.shape[:-2], 2, 2, 2, 2), -4, -2).reshape(m.shape)
    evals = np.linalg.eigvalsh(pt)
    return -np.where(evals < 0.0, evals, 0.0).sum(axis=-1)


def negativity_full(m: XDensityMatrix) -> float:
    """Negativity from the dense partial transpose over the first detector."""
    return float(_negativity_full(*m.diagonals(), m.rho14, m.rho23))


def _negativity_closed(rho22, rho33, m14):
    """The one-block negativity, elementwise over arrays, from the inner
    populations and |rho14|: the kernel behind negativity_closed."""
    return np.maximum(0.0, np.hypot(m14, 0.5 * (rho33 - rho22)) - 0.5 * (rho22 + rho33))


def negativity_closed(m: XDensityMatrix) -> float:
    """Negativity from the X structure: the partial transpose swaps the
    coherences between the blocks, and only the block holding rho14 can
    dip negative for states reachable here."""
    return float(_negativity_closed(m.rho22, m.rho33, _modulus(m.rho14)))


def _measures(diagonals, moduli, spectrum):
    """(ok, (c_l1, c_rec, negativity)) elementwise over arrays, from the
    clamped populations, coherence moduli and block spectrum that _state_ok
    gives.  ok is False where C_rec comes out below -1e-12, where
    coherence_rec would raise on a state that from_elements accepts; nan
    fails it."""
    rec = _rec(diagonals, spectrum)
    measures = (_l1(*moduli), np.maximum(0.0, rec), _negativity(*diagonals, *moduli))
    return rec >= -_REC_CLAMP, measures


def measure_set(m: XDensityMatrix) -> MeasureSet:
    """C_l1, relative entropy of coherence and the two-block negativity."""
    moduli = (_modulus(m.rho14), _modulus(m.rho23))
    negativity = float(_negativity(*m.diagonals(), *moduli))
    return MeasureSet(coherence_l1(m), coherence_rec(m), negativity)
