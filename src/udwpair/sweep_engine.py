"""Parameter sweeps and CSV emission.

Every closed form downstream of the parameters is elementwise, so a sweep
grid is evaluated as one batch: correlators, states and measures run over
numpy arrays in one checked pass, which verify shares.  A single point
runs the public scalar route, whose numbers equal its batch row bit for
bit, and a batch reruns its first failing point along it for the error.
All lengths and times are expressed in units of the switching width (the
Gaussian smearing scale is pinned to 1), which matches how the figure
presets are defined.
"""

import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import astuple, dataclass, replace
from itertools import starmap
from typing import NamedTuple

import numpy as np

from ._csv import format_rows
from .detector_state import (
    AssemblyError,
    InitialState,
    _assemble,
    _modulus,
    _state_ok,
    assemble_main,
)
from .field_correlators import (
    DetectorParams,
    PairGeometry,
    _batch_of_one,
    _correlators,
    _phases,
    closed_form_correlators,
)
from .quantum_measures import _measures, measure_set

__all__ = [
    "ModelParams",
    "SweepSpec",
    "SweepRow",
    "SweepRows",
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

# Every model knob, named as on the command line: the ModelParams fields it
# sets and its help text.  A generic knob comes before its specific forms,
# so that applying the knobs in this order lets the specific form win.
KNOBS = {
    "theta": (("theta",), "initial entanglement angle"),
    "lambda": (("lambda_a", "lambda_b"), "both couplings"),
    "lambda-a": (("lambda_a",), "coupling of detector A"),
    "lambda-b": (("lambda_b",), "coupling of detector B"),
    "eta": (("eta_a", "eta_b"), "switching weight of both detectors"),
    "omega-a": (("gap_a",), "energy gap of detector A"),
    "omega-b": (("gap_b",), "energy gap of detector B"),
    "l": (("separation",), "detector separation"),
    "dtau": (("delay",), "firing delay of B after A"),
    "tau-a0": (("tau_a0",), "firing time of detector A"),
}


def _regimes(prefix: str, **fixed) -> list:
    # the lightlike (L = 3) and spacelike (L = 5) curves at delay 3
    return [
        (f"{prefix}{tag}", {**fixed, "separation": l, "delay": 3.0})
        for tag, l in (("lightlike", 3.0), ("spacelike", 5.0))
    ]


# The survey figures: preset name -> (swept knob, start, stop, curves), each
# curve a (label, ModelParams overrides) pair.  The labels name the CSV
# files, which are written in this order.
FIGURE_PRESETS = {
    "fig1": ("l", 0.1, 10.0, [(f"fig1_dtau{dt:g}", {"delay": dt}) for dt in (0.0, 2.0, 4.0)]),
    "fig2": ("dtau", -10.0, 10.0, [(f"fig2_l{l:g}", {"separation": l}) for l in (1.0, 3.0, 5.0)]),
    "fig3-top": ("lambda", 0.0, 12.0, _regimes("fig3_")),
    "fig3-bottom": (
        "lambda",
        0.0,
        12.0,
        _regimes("fig3_theta0_", theta=0.0) + _regimes("fig3_theta90_", theta=math.pi / 2.0),
    ),
    "fig4": ("omega-b", 0.0, 4.0, _regimes("fig4_")),
}

_PRESET_STEPS = 401

# A sweep may vary the knobs that the figure presets sweep.
VARY_CHOICES = tuple(dict.fromkeys(vary for vary, *_ in FIGURE_PRESETS.values()))


class SweepError(RuntimeError):
    """A point of a batch failed to evaluate; the message names the point."""


@dataclass(frozen=True)
class ModelParams:
    """One full parameter point, smearing width fixed at 1.

    The batch routes also carry many points in one instance, with every
    field an array of the batch's length or of one value for all of them."""

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
        try:
            operator.index(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start!r}, {self.stop!r}]")
        # the largest grid offset before its division by steps - 1; a step
        # count past the float range overflows too
        try:
            offset = (self.stop - self.start) * (self.steps - 1)
        except OverflowError:
            offset = math.inf
        if not math.isfinite(offset):
            raise ValueError(
                f"the grid over [{self.start!r}, {self.stop!r}] in {self.steps!r} steps "
                "overflows the float range"
            )


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


CSV_HEADER = ",".join(("vary", *SweepRow._fields[1:]))
_ROW = struct.Struct(f"{len(SweepRow._fields)}d")  # the one row layout


class SweepRows(Sequence):
    """The rows of a sweep, each a SweepRow of Python floats, over a read-only
    C-contiguous (n, 15) float64 array that emit_csv takes as it is.  Built
    from a bool, int or float array of that shape, or else by _ROW's packing."""

    __slots__ = ("array",)

    def __init__(self, rows):
        fields = len(SweepRow._fields)
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "biuf" and rows.shape[1:] == (fields,)):
            try:
                rows = np.frombuffer(b"".join(starmap(_ROW.pack, rows))).reshape(-1, fields)
            except (struct.error, TypeError):
                raise ValueError(f"each row must have {fields} real-number fields") from None
        self.array = np.ascontiguousarray(rows, dtype=float).view()
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepRows(self.array[index])
        return SweepRow._make(self.array[operator.index(index)].tolist())

    def __iter__(self):
        return map(SweepRow._make, _ROW.iter_unpack(self.array))


def detector_pair(p: ModelParams):
    """DetectorParams pair and geometry for one parameter point.

    tau_a0 is the geometry's time origin: detector A fires there and B at
    tau_a0 + delay, so the delay knob moves B while A keeps the origin.
    """
    a = DetectorParams(p.lambda_a, p.eta_a, p.gap_a)
    b = DetectorParams(p.lambda_b, p.eta_b, p.gap_b)
    return a, b, PairGeometry(p.separation, p.delay, time_origin=p.tau_a0)


def _point(p: ModelParams):
    """(CorrelatorSet, XDensityMatrix, MeasureSet) of one point along the
    public scalar route, whose containers raise the point's error."""
    # overflow and 0/0 surface as non-finite values, which fail the checks
    with np.errstate(all="ignore"):
        a, b, g = detector_pair(p)
        c = closed_form_correlators(a, b, g)
        state = assemble_main(InitialState(p.theta), c)
        return c, state, measure_set(state)


def _row(p: ModelParams, i: int) -> ModelParams:
    # point i of a batch, its knobs Python floats, each broadcast to the batch
    return ModelParams(*(v[i].item() for v in np.broadcast_arrays(*vars(p).values())))


def _params_ok(p: ModelParams, correlators):
    # False where detector_pair's containers, CorrelatorSet or InitialState
    # would raise and _state_ok would not: correlators that are not finite
    # spoil every population, and f <= 1.  nan fails every comparison
    f_a, f_b = correlators[:2]
    ok = (p.lambda_a >= 0.0) & (p.lambda_b >= 0.0) & (p.eta_a > 0.0) & (p.eta_b > 0.0)
    ok = ok & (p.gap_a >= 0.0) & (p.gap_b >= 0.0) & (p.separation >= 0.0)
    ok = ok & (p.theta >= 0.0) & (p.theta <= math.pi / 2.0) & (f_a > 0.0) & (f_b > 0.0)
    for v in vars(p).values():  # each knob in its own shape, which ok broadcasts
        ok = ok & np.isfinite(v)
    return ok


def _checked_states(p: ModelParams):
    """(ok, correlators, state, moduli, spectrum, measures) of a batch of
    points.  The populations have their dust clamped, moduli are |rho14| and
    |rho23|, spectrum is the block spectrum in _spectrum's order and measures
    are (c_l1, c_rec, negativity).  ok is the whole accept mask: False where
    a point fails a check of the scalar route."""
    with np.errstate(all="ignore"):  # as in _point
        correlators = (
            *_correlators(p.lambda_a * p.eta_a, p.lambda_b * p.eta_b, p.separation, p.delay),
            *_phases(p.gap_a, p.gap_b, p.tau_a0, p.delay),
        )
        elements = _assemble(p.theta, *correlators)
        moduli = (_modulus(elements[4]), _modulus(elements[5]))
        ok, diagonals, spectrum = _state_ok(*elements[:4], *moduli)
        measures_ok, measures = _measures(diagonals, moduli, spectrum)
        ok &= measures_ok & _params_ok(p, correlators)
    return ok, correlators, (*diagonals, *elements[4:]), moduli, spectrum, measures


def _batch_states(p: ModelParams, name):
    """The one checked pass that sweeps and verify share: _checked_states
    without ok.  Raises SweepError(f"{name(i)}: {error}") for the first point
    i that fails, with the error that the point raises when rerun alone."""
    ok, *batch = _checked_states(p)
    if not ok.all():
        index = int(np.argmin(ok))
        try:
            _point(_row(p, index))
        except (AssemblyError, ValueError) as exc:
            raise SweepError(f"{name(index)}: {exc}") from exc
        raise SweepError(f"{name(index)}: the point fails an invariant check only inside its batch")
    return tuple(batch)


def point_state(p: ModelParams):
    """Correlators and assembled state for one parameter point."""
    return _point(p)[:2]


def evaluate_point(p: ModelParams) -> SweepRow:
    """Correlators, state, measures for one parameter point."""
    c, state, measures = _point(p)
    moduli = (_modulus(state.rho14).item(), _modulus(state.rho23).item())
    return SweepRow(0.0, *astuple(c)[:4], c.gamma, *state.diagonals(), *moduli, *astuple(measures))


def _empty(size: int) -> np.ndarray:
    """np.empty(size), with the MemoryError of an array the host cannot
    allocate also where numpy's size arithmetic refuses the size (a
    ValueError past 2^60 float64 values), before np.arange can: it gives
    2^63 - 1 an empty range."""
    try:
        return np.empty(size)
    except ValueError as exc:
        raise MemoryError(f"cannot allocate {size} values: {exc}") from None


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the sweep grid in order, as one batch, each fixed knob a
    1-element array that the kernels broadcast (what the swept knob does
    not enter runs once): one row per grid value, viewed over the pass's
    column stack."""
    span = spec.stop - spec.start
    values = _empty(spec.steps)
    values[:] = spec.start + span * np.arange(spec.steps) / (spec.steps - 1)
    values[-1] = spec.stop  # exact endpoint regardless of rounding
    fixed = ModelParams(*_batch_of_one(*astuple(spec.fixed)))
    p = replace(fixed, **dict.fromkeys(KNOBS[spec.vary][0], values))
    correlators, state, moduli, _, measures = _batch_states(
        p, lambda i: f"sweep failed at {spec.vary}={float(values[i])!r}"
    )
    gamma = correlators[4] + correlators[5]  # as CorrelatorSet.gamma
    columns = (values, *correlators[:4], gamma, *state[:4], *moduli, *measures)
    array = np.empty((spec.steps, len(columns)))
    for j, column in enumerate(columns):  # a column of one value broadcasts
        array[:, j] = column
    return SweepRows(array)


def figure_preset(which: str) -> list:
    """The sweeps of one survey figure, in FIGURE_PRESETS order."""
    if which not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {which!r}")
    vary, start, stop, curves = FIGURE_PRESETS[which]
    return [
        SweepSpec(vary, ModelParams(**fixed), label, start, stop, _PRESET_STEPS)
        for label, fixed in curves
    ]


def emit_csv(rows, sink) -> int:
    """Write SweepRows, or rows that SweepRows takes, as CSV, each value
    byte for byte as '%.17g' writes it (a lossless float round-trip).
    Returns the number of characters written: the text is ASCII."""
    rows = rows if isinstance(rows, SweepRows) else SweepRows(rows)
    if not len(rows):
        raise ValueError("no rows to emit")
    data = CSV_HEADER + "\n" + format_rows(rows.array)
    sink.write(data)
    return len(data)
