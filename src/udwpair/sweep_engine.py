"""Parameter sweeps and CSV emission.

Every closed form downstream of the parameters is elementwise, so a sweep
grid is evaluated as one batch: correlators, states and measures run over
numpy arrays in one pass, and a single point is a batch of one.  All
lengths and times are expressed in units of the switching width (the
Gaussian smearing scale is pinned to 1), which matches how the figure
presets are defined.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .detector_state import (
    AssemblyError,
    InitialState,
    XDensityMatrix,
    _assemble,
    _modulus,
    _state_ok,
)
from .field_correlators import (
    CorrelatorSet,
    DetectorParams,
    PairGeometry,
    _correlators,
    _phases,
)
from .quantum_measures import _measures, measure_set

__all__ = [
    "ModelParams",
    "SweepSpec",
    "SweepRow",
    "SweepError",
    "VARY_CHOICES",
    "CSV_HEADER",
    "detector_pair",
    "point_state",
    "evaluate_point",
    "run_sweep",
    "figure_preset",
    "emit_csv",
]

# The ModelParams fields each sweep knob sets.
_VARY_FIELDS = {
    "l": ("separation",),
    "dtau": ("delay",),
    "lambda": ("lambda_a", "lambda_b"),
    "omega-b": ("gap_b",),
}

VARY_CHOICES = tuple(_VARY_FIELDS)


class SweepError(RuntimeError):
    """A grid point failed to evaluate; the message names the point."""


@dataclass(frozen=True)
class ModelParams:
    """One full parameter point, smearing width fixed at 1.

    The batch routes also carry many points in one instance, with every
    field an array of the same length."""

    theta: float = math.pi / 4.0
    lambda_a: float = 1.0
    lambda_b: float = 1.0
    eta_a: float = 1.0
    eta_b: float = 1.0
    gap_a: float = 1.0
    gap_b: float = 1.0
    separation: float = 3.0
    delay: float = 3.0
    tau_a0: float = 0.0


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D sweep: vary one knob over [start, stop] with everything else
    held at `fixed`.  "lambda" sweeps both couplings together."""

    vary: str
    fixed: ModelParams = ModelParams()
    label: str = ""
    start: float = 0.0
    stop: float = 1.0
    steps: int = 2

    def __post_init__(self):
        if self.vary not in VARY_CHOICES:
            raise ValueError(f"vary must be one of {VARY_CHOICES}, got {self.vary!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start!r}, {self.stop!r}]")


class SweepRow(NamedTuple):
    """One CSV row; CSV_HEADER names its fields, the first as "vary"."""

    value: float
    f_a: float
    f_b: float
    kappa: float
    omega: float
    gamma: float
    rho11: float
    rho22: float
    rho33: float
    rho44: float
    abs_rho14: float
    abs_rho23: float
    c_l1: float
    c_rec: float
    negativity: float

    def astuple(self):
        return tuple(self)


CSV_HEADER = ",".join(("vary", *SweepRow._fields[1:]))


def detector_pair(p: ModelParams):
    """DetectorParams pair and geometry for one parameter point.

    tau_a0 is the geometry's time origin: detector A fires there and B at
    tau_a0 + delay, so the delay knob moves B while A keeps the origin.
    """
    a = DetectorParams(p.lambda_a, p.eta_a, p.gap_a)
    b = DetectorParams(p.lambda_b, p.eta_b, p.gap_b)
    return a, b, PairGeometry(p.separation, p.delay, 1.0, p.tau_a0)


def _stack(points) -> ModelParams:
    """One ModelParams whose fields are arrays over the given points."""
    columns = zip(*(vars(p).values() for p in points))
    return ModelParams(*(np.array(c, dtype=float) for c in columns))


def _states(p: ModelParams):
    """Correlators (f_a, f_b, kappa, omega, phase_a, phase_b) and raw
    state elements (rho11..rho44, rho14, rho23) of a batch of points."""
    correlators = (
        *_correlators(p.lambda_a, p.eta_a, p.lambda_b, p.eta_b, p.separation, p.delay, 1.0),
        *_phases(p.gap_a, p.gap_b, p.tau_a0, p.delay),
    )
    return correlators, _assemble(p.theta, *correlators)


def _params_ok(p: ModelParams, correlators):
    # False where detector_pair's containers, CorrelatorSet or InitialState
    # would raise; nan fails every comparison
    f_a, f_b = correlators[:2]
    finite = np.isfinite([*vars(p).values(), *correlators]).all(axis=0)
    signs = (p.lambda_a >= 0.0) & (p.lambda_b >= 0.0) & (p.eta_a > 0.0) & (p.eta_b > 0.0)
    signs &= (p.gap_a >= 0.0) & (p.gap_b >= 0.0) & (p.separation >= 0.0)
    ranges = (p.theta >= 0.0) & (p.theta <= math.pi / 2.0)
    ranges &= (f_a > 0.0) & (f_a <= 1.0) & (f_b > 0.0) & (f_b <= 1.0)
    return finite & signs & ranges


def _checked_states(p: ModelParams):
    """(ok, correlators, state) of a batch of points, the state's
    populations with dust clamped; ok is False where a point fails a
    check of the scalar route."""
    # overflow and 0/0 surface as non-finite values, which fail the checks
    with np.errstate(all="ignore"):
        correlators, elements = _states(p)
        ok, diagonals = _state_ok(*elements)
        return ok & _params_ok(p, correlators), correlators, (*diagonals, *elements[4:])


def _replay(p: ModelParams) -> None:
    """Evaluate one point through the scalar containers, which raise the
    point's error with its message."""
    a, b, g = detector_pair(p)
    with np.errstate(all="ignore"):
        correlators, elements = _states(_one(p))
    CorrelatorSet(*(v.item() for v in correlators))
    InitialState(p.theta)
    measure_set(XDensityMatrix.from_elements(*elements))


def _failure(p: ModelParams, ok):
    """(index, exception) of the first point of a batch that fails a check,
    or None.  The failing point is rerun alone through the scalar route,
    so the exception is the one a single evaluation of it raises."""
    if ok.all():
        return None
    index = int(np.argmin(ok))
    try:
        _replay(ModelParams(*(np.ravel(v)[index].item() for v in vars(p).values())))
    except (AssemblyError, ValueError) as exc:
        return index, exc
    return index, AssemblyError("the point fails an invariant check only inside its batch")


def _batch_states(p: ModelParams):
    """Correlators and state of a batch; raises the error of its first
    failing point."""
    ok, correlators, state = _checked_states(p)
    found = _failure(p, ok)
    if found is not None:
        raise found[1]
    return correlators, state


def _one(p: ModelParams) -> ModelParams:
    # a batch of one point: numpy scalars, so that the kernels' arithmetic
    # follows numpy rules (inf and nan, not ZeroDivisionError)
    return ModelParams(*(np.float64(v) for v in vars(p).values()))


def point_state(p: ModelParams):
    """Correlators and assembled state for one parameter point."""
    correlators, state = _batch_states(_one(p))
    c = CorrelatorSet(*(v.item() for v in correlators))
    return c, XDensityMatrix(*(v.item() for v in state))


def _columns(p: ModelParams):
    """(ok, the SweepRow columns after the value) over a batch of points."""
    ok, correlators, state = _checked_states(p)
    with np.errstate(all="ignore"):  # a failed point may carry inf or nan
        moduli = (_modulus(state[4]), _modulus(state[5]))
        measures_ok, measures = _measures(*state[:4], *moduli)
    gamma = correlators[4] + correlators[5]  # as CorrelatorSet.gamma
    return ok & measures_ok, (*correlators[:4], gamma, *state[:4], *moduli, *measures)


def _rows(values, columns) -> list:
    return list(map(SweepRow._make, np.column_stack((values, *columns)).tolist()))


def evaluate_point(p: ModelParams) -> SweepRow:
    """Correlators, state, measures for one parameter point."""
    q = _one(p)
    ok, columns = _columns(q)
    found = _failure(q, ok)
    if found is not None:
        raise found[1]
    return SweepRow(0.0, *(v.item() for v in columns))


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the sweep grid in order, as one batch."""
    span = spec.stop - spec.start
    values = spec.start + span * np.arange(spec.steps) / (spec.steps - 1)
    values[-1] = spec.stop  # exact endpoint regardless of rounding
    fixed = {k: np.full(spec.steps, v, dtype=float) for k, v in vars(spec.fixed).items()}
    p = ModelParams(**(fixed | dict.fromkeys(_VARY_FIELDS[spec.vary], values)))
    ok, columns = _columns(p)
    found = _failure(p, ok)
    if found is not None:
        index, exc = found
        raise SweepError(f"sweep failed at {spec.vary}={float(values[index])!r}: {exc}") from exc
    return _rows(values, columns)


_PRESET_STEPS = 401


def figure_preset(which: str) -> list:
    """Named sweep bundles reproducing the survey figures."""
    base = ModelParams()
    if which == "fig1":
        return [
            SweepSpec(
                "l",
                replace(base, delay=dt),
                label=f"fig1_dtau{dt:g}",
                start=0.1,
                stop=10.0,
                steps=_PRESET_STEPS,
            )
            for dt in (0.0, 2.0, 4.0)
        ]
    if which == "fig2":
        return [
            SweepSpec(
                "dtau",
                replace(base, separation=l),
                label=f"fig2_l{l:g}",
                start=-10.0,
                stop=10.0,
                steps=_PRESET_STEPS,
            )
            for l in (1.0, 3.0, 5.0)
        ]
    if which == "fig3-top":
        return [
            SweepSpec(
                "lambda",
                replace(base, separation=l, delay=dt),
                label=f"fig3_{tag}",
                start=0.0,
                stop=12.0,
                steps=_PRESET_STEPS,
            )
            for tag, l, dt in (("lightlike", 3.0, 3.0), ("spacelike", 5.0, 3.0))
        ]
    if which == "fig3-bottom":
        return [
            SweepSpec(
                "lambda",
                replace(base, theta=th, separation=l, delay=3.0),
                label=f"fig3_theta{tag}_{reg}",
                start=0.0,
                stop=12.0,
                steps=_PRESET_STEPS,
            )
            for tag, th in (("0", 0.0), ("90", math.pi / 2.0))
            for reg, l in (("lightlike", 3.0), ("spacelike", 5.0))
        ]
    if which == "fig4":
        return [
            SweepSpec(
                "omega-b",
                replace(base, separation=l, delay=3.0),
                label=f"fig4_{tag}",
                start=0.0,
                stop=4.0,
                steps=_PRESET_STEPS,
            )
            for tag, l in (("lightlike", 3.0), ("spacelike", 5.0))
        ]
    raise ValueError(f"unknown figure preset {which!r}")


_ROW_FORMAT = ",".join(["%.17g"] * len(SweepRow._fields))


def emit_csv(rows, sink) -> int:
    """Write rows as CSV with 17 significant digits (lossless float
    round-trip).  Returns the number of bytes written."""
    if not rows:
        raise ValueError("no rows to emit")
    data = "\n".join([CSV_HEADER, *(_ROW_FORMAT % row for row in rows)]) + "\n"
    sink.write(data)
    return len(data.encode("utf-8"))
