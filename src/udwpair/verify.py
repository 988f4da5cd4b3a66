"""Self-check battery: every dual-route pair in the package driven against
its counterpart over random parameter draws, plus a frozen high-precision
reference table for the Dawson evaluator.

The table values were produced with 60-digit arbitrary-precision
arithmetic (adaptive Maclaurin summation) and are recorded to 21
significant digits, well past double precision.
"""

import math
import random
from dataclasses import dataclass, fields, replace

import numpy as np

from .detector_state import (
    AssemblyError,
    InitialState,
    _appendix,
    _dense,
    _modulus,
    _real_ok,
    _state_ok,
    assemble_appendix,
)
from .field_correlators import CorrelatorSet, _correlators, _oracle
from .quantum_measures import (
    _negativity,
    _negativity_closed,
    _negativity_full,
    _spectrum,
    _spectrum_closed,
)
from .special_functions import _dawson
from .sweep_engine import ModelParams, _batch_states, _stack

__all__ = ["CheckResult", "random_model_params", "random_decade_params", "run_all"]


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


def _bounds(lambda_max, gap_max, tau_span):
    """(low, high) of each uniform knob, in ModelParams field order.  tau_a0
    comes last and only when its span is not zero; it is 0 otherwise."""
    bounds = [
        (0.0, math.pi / 2.0),
        (0.0, lambda_max),
        (0.0, lambda_max),
        (0.2, 2.0),
        (0.2, 2.0),
        (0.0, gap_max),
        (0.0, gap_max),
        (0.01, 10.0),
        (-10.0, 10.0),
    ]
    return bounds + [(-tau_span, tau_span)] if tau_span else bounds


def random_model_params(
    rng: random.Random,
    *,
    lambda_max: float = 8.0,
    gap_max: float = 4.0,
    tau_span: float = 0.0,
) -> ModelParams:
    """One random parameter point with every knob exercised.

    Couplings may be zero; separations keep away from the coincidence
    limit handled by the short-distance branch.
    """
    values = [rng.uniform(lo, hi) for lo, hi in _bounds(lambda_max, gap_max, tau_span)]
    return ModelParams(*values, *([] if tau_span else [0.0]))


def _draw(
    rng: random.Random,
    n: int,
    *,
    lambda_max: float = 8.0,
    gap_max: float = 4.0,
    tau_span: float = 0.0,
) -> ModelParams:
    """n random parameter points as one batch, every knob a column: bitwise
    the points that n random_model_params calls with the same arguments
    draw, from the same rng.random() calls in the same order.
    random_model_params is not a view of one row of it: numpy's per-call
    overhead would make it about five times slower, and
    random_decade_params calls it once per draw."""
    lo, hi = np.array(_bounds(lambda_max, gap_max, tau_span)).T
    r = np.fromiter(iter(rng.random, None), float, n * lo.size).reshape(n, lo.size).T
    columns = np.zeros((len(fields(ModelParams)), n))
    # lo + (hi - lo) * r is what rng.uniform(lo, hi) computes
    columns[: lo.size] = lo[:, None] + (hi - lo)[:, None] * r
    return ModelParams(*columns)


def random_decade_params(rng: random.Random) -> ModelParams:
    """One random parameter point whose separation and |delay| are each
    log-uniform over [1e-3, 1e8] widths, the delay with a random sign;
    the other knobs are drawn as random_model_params(lambda_max=5) draws
    them."""
    separation, delay = (10.0 ** rng.uniform(-3.0, 8.0) for _ in range(2))
    return replace(
        random_model_params(rng, lambda_max=5.0),
        separation=separation,
        delay=rng.choice((-1.0, 1.0)) * delay,
    )


def _worst(errors) -> float:
    """The largest of equal-shape error arrays; nan if any is nan, so that
    it fails the tolerance."""
    return float(np.max(errors))


def _moduli(state):
    return _modulus(state[4]), _modulus(state[5])


def _trace(diagonals):
    # the sum of the four populations as if summed in twice the working
    # precision and then rounded, which is math.fsum's correctly rounded
    # sum except within a hair of a rounding tie: a TwoSum cascade whose
    # exact error terms are added back last (Ogita, Rump and Oishi's Sum2;
    # SIAM J. Sci. Comput. 26, 1955, 2005)
    total, *rest = diagonals
    error = 0.0
    for x in rest:
        s = total + x
        t = s - total
        error = error + ((total - (s - t)) + (x - t))
        total = s
    return total + error


def _check_dawson() -> CheckResult:
    xs = np.array([x for x, _ in _DAWSON_TABLE])
    refs = np.array([ref for _, ref in _DAWSON_TABLE])
    d = _dawson(xs)
    worst = _worst([np.abs(d - refs) / refs, np.abs(_dawson(-xs) + d) / refs])
    return CheckResult(
        "dawson-reference",
        worst,
        1e-12,
        f"{len(_DAWSON_TABLE)} tabulated points, oddness",
    )


# Each sampled check draws all its points as columns and evaluates both
# its runtime route and its oracle on them as one batch.


def _check_correlators(rng: random.Random, decades: random.Random, points: int) -> CheckResult:
    # error scale: relative above 1e-3, absolute (1e-9 at the tolerance)
    # below, folded into one ratio against max(|oracle|, 1e-3)
    usual = _draw(rng, points, lambda_max=5.0)
    far = _stack([random_decade_params(decades) for _ in range(points)])
    p = ModelParams(*map(np.concatenate, zip(vars(usual).values(), vars(far).values())))
    args = (p.lambda_a, p.eta_a, p.lambda_b, p.eta_b, p.separation, p.delay, 1.0)
    worst = _worst(
        [
            np.abs(closed - ref) / np.maximum(np.abs(ref), 1e-3)
            for closed, ref in zip(_correlators(*args), _oracle(*args))
        ]
    )
    return CheckResult(
        "correlators-vs-quadrature",
        worst,
        1e-6,
        f"{points} random draws and {points} over decades of L and dtau, scaled error",
    )


def _check_assembly(rng: random.Random, points: int) -> CheckResult:
    # _batch_states has already checked the draws and their correlators as
    # InitialState and CorrelatorSet would; this mask adds the checks of
    # _real_part and from_elements on the appendix route's elements
    p = _draw(rng, points, tau_span=5.0)
    correlators, state = _batch_states(p)
    with np.errstate(all="ignore"):
        elements = _appendix(p.theta, *correlators)
        ok, diagonals = _state_ok(*np.real(elements[:4]), *elements[4:])
    ok &= _real_ok(elements[:4])
    if not ok.all():
        # the first failing draw, rerun alone through the scalar view,
        # raises its own error
        i = int(np.argmin(ok))
        theta, *c = (v[i].item() for v in (p.theta, *correlators))
        assemble_appendix(InitialState(theta), CorrelatorSet(*c))
        raise AssemblyError("the draw fails an invariant check only inside its batch")
    other = (*diagonals, *elements[4:])
    worst = _worst([_modulus(x - y) for x, y in zip(state, other)])
    return CheckResult(
        "assembly-dual-route",
        worst,
        1e-12,
        f"{points} random draws with random time origins",
    )


def _check_spectrum(rng: random.Random, points: int) -> CheckResult:
    state = _batch_states(_draw(rng, points))[1]
    moduli = _moduli(state)
    general = _spectrum(*state[:4], *moduli)
    closed = _spectrum_closed(*state[:4], *moduli)
    worst = _worst([np.abs(a - b) for a, b in zip(closed, general)])
    return CheckResult(
        "spectrum-dual-route",
        worst,
        1e-12,
        f"{points} random draws",
    )


def _check_physicality(rng: random.Random, points: int) -> CheckResult:
    # two tolerances folded into one normalized ratio:
    # |trace - 1| / 1e-12 and (negative eigenvalue excursion) / 1e-10
    state = _batch_states(_draw(rng, points))[1]
    # the eigensolver may reject a matrix that is not finite; its dip is nan
    finite = np.isfinite(state).all(axis=0)
    dip = np.full(points, np.nan)
    dip[finite] = np.maximum(0.0, -np.linalg.eigvalsh(_dense(*state)[finite])[:, 0])
    worst = _worst([np.abs(_trace(state[:4]) - 1.0) / 1e-12, dip / 1e-10])
    return CheckResult(
        "physicality",
        worst,
        1.0,
        f"{points} draws; |trace-1|/1e-12 and eigenvalue dip/1e-10",
    )


def _check_negativity(rng: random.Random, points: int) -> CheckResult:
    # the runtime two-block negativity and the one-block closed form, each
    # against the dense partial transpose
    state = _batch_states(_draw(rng, points))[1]
    moduli = _moduli(state)
    full = _negativity_full(*state)
    two_block = _negativity(*state[:4], *moduli)
    closed = _negativity_closed(state[1], state[2], moduli[0])
    diff = np.maximum(np.abs(two_block - full), np.abs(closed - full))  # keeps nan
    return CheckResult(
        "negativity-dual-route",
        _worst(diff),
        1e-12,
        f"{points} draws, {np.count_nonzero(~(diff <= 1e-12))} disagreements",
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
    return [
        _check_dawson(),
        _check_correlators(rng, decades, points or 200),
        _check_assembly(rng, points or 1000),
        _check_spectrum(rng, points or 2000),
        _check_physicality(rng, points or 2000),
        _check_negativity(rng, points or 2000),
    ]
