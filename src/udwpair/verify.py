"""Self-check battery: every dual-route pair in the package driven against
its counterpart over random parameter draws, plus a frozen high-precision
reference table for the Dawson evaluator.

The table values were produced with 60-digit arbitrary-precision
arithmetic (adaptive Maclaurin summation) and are recorded to 21
significant digits, well past double precision.
"""

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .detector_state import InitialState, XDensityMatrix, _modulus, assemble_appendix
from .field_correlators import CorrelatorSet, _correlators, _oracle
from .quantum_measures import (
    _negativity,
    _spectrum,
    negativity_closed,
    negativity_full,
    spectrum_closed,
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
    return ModelParams(
        theta=rng.uniform(0.0, math.pi / 2.0),
        lambda_a=rng.uniform(0.0, lambda_max),
        lambda_b=rng.uniform(0.0, lambda_max),
        eta_a=rng.uniform(0.2, 2.0),
        eta_b=rng.uniform(0.2, 2.0),
        gap_a=rng.uniform(0.0, gap_max),
        gap_b=rng.uniform(0.0, gap_max),
        separation=rng.uniform(0.01, 10.0),
        delay=rng.uniform(-10.0, 10.0),
        tau_a0=rng.uniform(-tau_span, tau_span) if tau_span else 0.0,
    )


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


def _per_draw(columns):
    """Tuples of Python numbers, one per draw, from a batch's columns."""
    return zip(*(c.tolist() for c in columns))


def _moduli(state):
    return _modulus(state[4]), _modulus(state[5])


def _check_dawson() -> CheckResult:
    xs = np.array([x for x, _ in _DAWSON_TABLE])
    refs = np.array([ref for _, ref in _DAWSON_TABLE])
    d = _dawson(xs)
    worst = max(
        float(np.max(np.abs(d - refs) / refs)),
        float(np.max(np.abs(_dawson(-xs) + d) / refs)),
    )
    return CheckResult(
        "dawson-reference",
        worst,
        1e-12,
        f"{len(_DAWSON_TABLE)} tabulated points, oddness",
    )


# Each sampled check draws all its points first and evaluates the runtime
# route on them as one batch.  The correlator oracle runs as a batch too;
# the other oracles run draw by draw.


def _check_correlators(rng: random.Random, decades: random.Random, points: int) -> CheckResult:
    # error scale: relative above 1e-3, absolute (1e-9 at the tolerance)
    # below, folded into one ratio against max(|oracle|, 1e-3)
    p = _stack(
        [random_model_params(rng, lambda_max=5.0) for _ in range(points)]
        + [random_decade_params(decades) for _ in range(points)]
    )
    args = (p.lambda_a, p.eta_a, p.lambda_b, p.eta_b, p.separation, p.delay, 1.0)
    worst = max(
        float(np.max(np.abs(closed - ref) / np.maximum(np.abs(ref), 1e-3)))
        for closed, ref in zip(_correlators(*args), _oracle(*args))
    )
    return CheckResult(
        "correlators-vs-quadrature",
        worst,
        1e-6,
        f"{points} random draws and {points} over decades of L and dtau, scaled error",
    )


def _check_assembly(rng: random.Random, points: int) -> CheckResult:
    draws = [random_model_params(rng, tau_span=5.0) for _ in range(points)]
    correlators, state = _batch_states(_stack(draws))
    worst = 0.0
    for p, c, elements in zip(draws, _per_draw(correlators), _per_draw(state)):
        other = assemble_appendix(InitialState(p.theta), CorrelatorSet(*c))
        others = (*other.diagonals(), other.rho14, other.rho23)
        worst = max(worst, *(abs(x - y) for x, y in zip(elements, others)))
    return CheckResult(
        "assembly-dual-route",
        worst,
        1e-12,
        f"{points} random draws with random time origins",
    )


def _check_spectrum(rng: random.Random, points: int) -> CheckResult:
    state = _batch_states(_stack([random_model_params(rng) for _ in range(points)]))[1]
    general = _spectrum(*state[:4], *_moduli(state))
    worst = 0.0
    for elements, b in zip(_per_draw(state), _per_draw(general)):
        a = spectrum_closed(XDensityMatrix(*elements)).as_tuple()
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return CheckResult(
        "spectrum-dual-route",
        worst,
        1e-12,
        f"{points} random draws",
    )


def _check_physicality(rng: random.Random, points: int) -> CheckResult:
    # two tolerances folded into one normalized ratio:
    # |trace - 1| / 1e-12 and (negative eigenvalue excursion) / 1e-10
    state = _batch_states(_stack([random_model_params(rng) for _ in range(points)]))[1]
    worst = 0.0
    for elements in _per_draw(state):
        m = XDensityMatrix(*elements)
        trace = math.fsum(m.diagonals())
        eigs = np.linalg.eigvalsh(m.as_matrix())
        dip = max(0.0, -float(eigs[0]))
        worst = max(worst, abs(trace - 1.0) / 1e-12, dip / 1e-10)
    return CheckResult(
        "physicality",
        worst,
        1.0,
        f"{points} draws; |trace-1|/1e-12 and eigenvalue dip/1e-10",
    )


def _check_negativity(rng: random.Random, points: int) -> CheckResult:
    # the runtime two-block negativity and the one-block closed form, each
    # against the dense partial transpose
    state = _batch_states(_stack([random_model_params(rng) for _ in range(points)]))[1]
    runtime = _negativity(*state[:4], *_moduli(state))
    worst = 0.0
    exceptions = 0
    for elements, two_block in zip(_per_draw(state), runtime.tolist()):
        m = XDensityMatrix(*elements)
        full = negativity_full(m)
        diff = max(abs(two_block - full), abs(negativity_closed(m) - full))
        worst = max(worst, diff)
        if diff > 1e-12:
            exceptions += 1
    return CheckResult(
        "negativity-dual-route",
        worst,
        1e-12,
        f"{points} draws, {exceptions} disagreements",
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
