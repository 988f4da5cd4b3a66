"""Self-check battery: every dual-route pair in the package driven against
its counterpart over random parameter draws, plus a frozen high-precision
reference table for the Dawson evaluator.

The table values were produced with 60-digit arbitrary-precision
arithmetic (adaptive Maclaurin summation) and are recorded to 21
significant digits, well past double precision.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .detector_state import _appendix, _dense, _modulus
from .field_correlators import _correlators, _oracle
from .quantum_measures import _negativity_closed, _negativity_full, _spectrum_closed
from .special_functions import _dawson
from .sweep_engine import ModelParams, _batch_states, _empty, _row

__all__ = ["CheckResult", "random_model_params", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


# (x, D(x)) reference pairs spanning the evaluator's working range.
_DAWSON_TABLE = (
    (0.25, 0.239839163562898212365),
    (0.5, 0.424436383502022295934),
    (1.0, 0.538079506912768419136),
    (1.5, 0.428249071085398625477),
    (2.0, 0.301340388923791966035),
    (2.5, 0.223083722167435481127),
    (3.0, 0.178271030610558287343),
    (3.7, 0.140751174115415405183),
    (4.5, 0.11408861022682498016),
    (5.3, 0.0961177078119502340782),
    (6.0, 0.0845426889745438522391),
    (7.5, 0.0672758116446306159869),
    (10.0, 0.0502538471875985280327),
    (14.0, 0.0358060998962390094766),
    (20.0, 0.025031367926403671947),
    (28.0, 0.0178685532000919460869),
    (40.0, 0.0125039099178439731993),
)


def _bounds(lambda_max, tau_span):
    """(low, high) of each uniform knob, in ModelParams field order.  tau_a0
    comes last and only when its span is not zero; it is 0 otherwise."""
    bounds = [
        (0.0, math.pi / 2.0),
        (0.0, lambda_max),
        (0.0, lambda_max),
        (0.2, 2.0),
        (0.2, 2.0),
        (0.0, 4.0),
        (0.0, 4.0),
        (0.01, 10.0),
        (-10.0, 10.0),
    ]
    return bounds + [(-tau_span, tau_span)] if tau_span else bounds


# values per getrandbits call, whose bit count CPython takes as a C int
_UNIFORM_BLOCK = 1 << 24


def _uniforms(rng: random.Random, count: int):
    """count successive rng.random() values, and the generator left as
    they leave it, from getrandbits blocks of at most _UNIFORM_BLOCK values:
    each value takes two 32-bit words a, b in turn, a block's little-endian
    words in the order they were generated, and is ((a >> 5) 2^26 + (b >> 6))
    2^-53, as rng.random() computes it."""
    out = _empty(count)
    for start in range(0, count, _UNIFORM_BLOCK):
        n = min(_UNIFORM_BLOCK, count - start)
        block = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        a, b = np.frombuffer(block, "<u4").reshape(n, 2).T
        out[start : start + n] = ((a >> 5) * 67108864.0 + (b >> 6)) * 2.0**-53
    return out


def _columns(rng: random.Random, n: int, bounds):
    """n draws of rng.uniform over each bound, draw after draw, as one row
    per bound: lo + (hi - lo) * rng.random() is what rng.uniform computes."""
    lo, hi = np.array(bounds).T
    r = _uniforms(rng, n * len(bounds)).reshape(n, len(bounds))
    return lo[:, None] + (hi - lo)[:, None] * r.T


def _draw(
    rng: random.Random,
    n: int,
    *,
    lambda_max: float = 8.0,
    tau_span: float = 0.0,
) -> ModelParams:
    """n random parameter points as one batch, every knob a column, each
    drawn by rng.uniform over its bound in ModelParams field order, point
    after point."""
    knobs = _columns(rng, n, _bounds(lambda_max, tau_span))
    return ModelParams(*knobs, *([] if tau_span else [np.zeros(n)]))


def _joined(*batches) -> ModelParams:
    # batches of points as one, column by column
    return ModelParams(*map(np.concatenate, zip(*(vars(b).values() for b in batches))))


def random_model_params(
    rng: random.Random,
    *,
    lambda_max: float = 8.0,
    tau_span: float = 0.0,
) -> ModelParams:
    """One random parameter point with every knob exercised: the one row of
    _draw(rng, 1).

    Couplings may be zero; separations keep away from the coincidence
    limit handled by omega's short-distance series.
    """
    return _row(_draw(rng, 1, lambda_max=lambda_max, tau_span=tau_span), 0)


_DECADE_EXPONENTS = (-3.0, 8.0)  # log10 of the narrowest and widest L and |dt|


def _decade_draw(rng: random.Random, n: int) -> ModelParams:
    """n random points as one batch, every knob a column: L and |dt| each
    log-uniform over [1e-3, 1e8] widths, dt's sign that of a uniform draw
    on [-1, 1], the other knobs as _draw(lambda_max=5) draws them.  Per
    draw the rng.uniform calls run in order: log10 L, log10 |dt|, sign, knobs."""
    bounds = [_DECADE_EXPONENTS] * 2 + [(-1.0, 1.0)] + _bounds(5.0, 0.0)
    exponents, sign, knobs = np.split(_columns(rng, n, bounds), [2, 3])
    knobs[-2:] = 10.0**exponents  # separation and |delay|
    knobs[-1] = np.copysign(knobs[-1], sign[0])
    return ModelParams(*knobs, np.zeros(n))


def _worst(errors) -> float:
    """The largest of equal-shape error arrays; nan if any is nan, so that
    it fails the tolerance."""
    return float(np.max(errors))


def _trace(diagonals):
    # each draw's correctly rounded sum of its four populations
    return np.array([math.fsum(d) for d in zip(*(v.tolist() for v in diagonals))])


def _check_dawson() -> CheckResult:
    xs = np.array([x for x, _ in _DAWSON_TABLE])
    refs = np.array([ref for _, ref in _DAWSON_TABLE])
    d, reflected = _dawson(np.stack((xs, -xs)))
    worst = _worst([np.abs(d - refs) / refs, np.abs(reflected + d) / refs])
    return CheckResult(
        "dawson-reference",
        worst,
        1e-12,
        f"{len(_DAWSON_TABLE)} tabulated points, oddness",
    )


# Each sampled check evaluates both its runtime route and its oracle on
# its points, as columns of one batch.


def _check_correlators(rng: random.Random, decades: random.Random, points: int) -> CheckResult:
    # error scale: relative above 1e-3, absolute (1e-9 at the tolerance)
    # below, folded into one ratio against max(|oracle|, 1e-3); f has one
    # exact route, so only kappa and omega are compared
    p = _joined(_draw(rng, points, lambda_max=5.0), _decade_draw(decades, points))
    args = (p.lambda_a * p.eta_a, p.lambda_b * p.eta_b, p.separation, p.delay)
    worst = _worst(
        [
            np.abs(closed - ref) / np.maximum(np.abs(ref), 1e-3)
            for closed, ref in zip(_correlators(*args)[2:], _oracle(*args)[2:])
        ]
    )
    return CheckResult(
        "correlators-vs-quadrature",
        worst,
        1e-6,
        f"{points} random draws and {points} over decades of L and dtau, scaled error",
    )


def _check_assembly(theta, correlators, state) -> CheckResult:
    # entrywise against the runtime state, which _batch_states has
    # validated; a population's imaginary dust counts in its modulus
    elements = _appendix(theta, *correlators)
    worst = _worst([_modulus(x - y) for x, y in zip(state, elements)])
    return CheckResult(
        "assembly-dual-route",
        worst,
        1e-12,
        f"{theta.size} random draws with random time origins",
    )


def _check_spectrum(state, moduli, spectrum) -> CheckResult:
    # the closed form against the block spectrum that the pass checked
    closed = _spectrum_closed(*state[:4], *moduli)
    worst = _worst([np.abs(a - b) for a, b in zip(closed, spectrum)])
    return CheckResult(
        "spectrum-dual-route",
        worst,
        1e-12,
        f"{state[0].size} random draws",
    )


def _check_physicality(state) -> CheckResult:
    # two tolerances folded into one normalized ratio:
    # |trace - 1| / 1e-12 and (negative eigenvalue excursion) / 1e-10
    # the eigensolver may reject a matrix that is not finite; its dip is nan
    finite = np.isfinite(state).all(axis=0)
    dip = np.full(finite.size, np.nan)
    dip[finite] = np.maximum(0.0, -np.linalg.eigvalsh(_dense(*state)[finite])[:, 0])
    worst = _worst([np.abs(_trace(state[:4]) - 1.0) / 1e-12, dip / 1e-10])
    return CheckResult(
        "physicality",
        worst,
        1.0,
        f"{finite.size} draws; |trace-1|/1e-12 and eigenvalue dip/1e-10",
    )


def _check_negativity(state, moduli, measures) -> CheckResult:
    # the runtime two-block negativity, the column that sweeps print, and
    # the one-block closed form, each against the dense partial transpose
    full = _negativity_full(*state)
    closed = _negativity_closed(state[1], state[2], moduli[0])
    diff = np.maximum(np.abs(measures[2] - full), np.abs(closed - full))  # keeps nan
    return CheckResult(
        "negativity-dual-route",
        _worst(diff),
        1e-12,
        f"{diff.size} draws, {np.count_nonzero(~(diff <= 1e-12))} disagreements",
    )


def run_all(seed: int = 0, points: int | None = None) -> list:
    """Run every self-check.  points, if given, must be at least 1 and
    overrides the per-check draw counts (the Dawson table check has no
    sampling and ignores it)."""
    if points is not None and points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    rng = random.Random(seed)
    # the decade draws have their own generator, so the later checks draw
    # the same points whatever they are
    decades = random.Random(f"decades-{seed}")
    correlators = _check_correlators(rng, decades, points or 200)
    # the four state checks share one draw, with random time origins
    p = _draw(rng, points or 2000, tau_span=5.0)
    kernel, state, moduli, spectrum, measures = _batch_states(
        p, lambda i: f"verify failed at draw {i} of seed {seed}"
    )
    return [
        _check_dawson(),
        correlators,
        _check_assembly(p.theta, kernel, state),
        _check_spectrum(state, moduli, spectrum),
        _check_physicality(state),
        _check_negativity(state, moduli, measures),
    ]
