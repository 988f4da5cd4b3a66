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

import functools
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from itertools import starmap
from typing import NamedTuple

import numpy as np

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
_ROW = struct.Struct(f"{len(SweepRow._fields)}d")  # the one row layout, of SweepRows and of emit_csv


class SweepRows(Sequence):
    """The rows of a sweep, each a SweepRow of Python floats, read from a
    read-only, C-contiguous (rows, 15) float64 array that emit_csv takes
    as it is.  A slice is a SweepRows."""

    __slots__ = ("array",)

    def __init__(self, array):
        array = np.ascontiguousarray(array, dtype=float).view()
        if array.ndim != 2 or array.shape[1] != len(SweepRow._fields):
            raise ValueError(f"rows must be an array of shape (n, {len(SweepRow._fields)})")
        array.flags.writeable = False
        self.array = array

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
    # point i of a batch, its knobs Python floats
    return ModelParams(*(v[i].item() for v in vars(p).values()))


def _params_ok(p: ModelParams, correlators):
    # False where detector_pair's containers, CorrelatorSet or InitialState
    # would raise and _state_ok would not: correlators that are not finite
    # spoil every population, and f <= 1.  nan fails every comparison
    f_a, f_b = correlators[:2]
    finite = np.isfinite(list(vars(p).values())).all(axis=0)
    signs = (p.lambda_a >= 0.0) & (p.lambda_b >= 0.0) & (p.eta_a > 0.0) & (p.eta_b > 0.0)
    signs &= (p.gap_a >= 0.0) & (p.gap_b >= 0.0) & (p.separation >= 0.0)
    ranges = (p.theta >= 0.0) & (p.theta <= math.pi / 2.0) & (f_a > 0.0) & (f_b > 0.0)
    return finite & signs & ranges


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


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the sweep grid in order, as one batch: one row per grid
    value, viewed over the pass's column stack."""
    span = spec.stop - spec.start
    values = spec.start + span * np.arange(spec.steps) / (spec.steps - 1)
    values[-1] = spec.stop  # exact endpoint regardless of rounding
    fixed = {k: np.full(spec.steps, v, dtype=float) for k, v in vars(spec.fixed).items()}
    p = ModelParams(**(fixed | dict.fromkeys(KNOBS[spec.vary][0], values)))
    correlators, state, moduli, _, measures = _batch_states(
        p, lambda i: f"sweep failed at {spec.vary}={float(values[i])!r}"
    )
    gamma = correlators[4] + correlators[5]  # as CorrelatorSet.gamma
    columns = (values, *correlators[:4], gamma, *state[:4], *moduli, *measures)
    return SweepRows(np.column_stack(columns))


def figure_preset(which: str) -> list:
    """The sweeps of one survey figure, in FIGURE_PRESETS order."""
    if which not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {which!r}")
    vary, start, stop, curves = FIGURE_PRESETS[which]
    return [
        SweepSpec(vary, ModelParams(**fixed), label, start, stop, _PRESET_STEPS)
        for label, fixed in curves
    ]


# CSV emission.  '%.17g' gives a float's correctly rounded 17 significant
# digits through Gay's bignum dtoa, at about 400 ns a value.  The kernel
# below finds the same digits for a block of values in numpy, from a
# double-double product (Dekker, Numer. Math. 18, 1971), and lays them out
# by the %g rules, so that its text is byte for byte that of '%.17g'.  A
# value whose digits it cannot certify is written by '%.17g' instead.

_CSV_BLOCK_ROWS = 128  # rows per kernel pass: bounds its transient arrays
_K_MAX = 280  # the kernel's decimal exponents k, |k| <= 280
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
_TIE = 1e-9  # a digit that rounds this close to a tie is left to '%.17g'


def _words(texts, width: int):
    """NUL-padded one-byte-a-character texts as rows of `width` uint32 words."""
    raw = b"".join(t.encode("latin-1").ljust(4 * width, b"\0") for t in texts)
    return np.frombuffer(raw, np.uint32).reshape(len(texts), width)


class _CsvTables(NamedTuple):
    hi: np.ndarray
    hi_high: np.ndarray
    lo: np.ndarray
    quads: np.ndarray
    masks: np.ndarray
    marks: np.ndarray
    exps: np.ndarray
    seps: np.ndarray


@functools.cache
def _csv_tables() -> _CsvTables:
    """The kernel's tables, built on first use so that point and verify
    never pay for them.  Row k + 280 of each per-exponent table is for the
    decimal exponent k.

    A value is laid out in 48 bytes, and its NUL bytes are then dropped.
    The head (bytes 0-19) and the tail (20-39) are each a frame of its 17
    digits at bytes 3-19, four digits a word.  The head keeps the digits
    before the point, the tail those after it, without trailing zeros.
    Bytes 40-47 hold the exponent and the separator.

    hi, lo   10^(16 - k) as the double-double hi + lo
    hi_high  hi's high half in Veltkamp's split
    quads    "0000" to "9999" as words, then each without trailing zeros
    masks    the bytes of the two frames that print, as 5 uint64 words
    marks    per point (none, one) within sign (none, "-"): the head bytes
             that the sign, the point, or "0." and leading zeros take
    exps     the exponent's word pair, empty in fixed notation
    seps     the separator of every value of a block, as a word pair
    """
    ks = range(-_K_MAX, _K_MAX + 1)
    hi, lo = [], []
    for k in ks:
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        h = num / den  # int / int is correctly rounded
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    hi_high = hi * _SPLIT
    hi_high -= hi_high - hi
    quads = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    quads = (quads % 10 + ord("0")).astype(np.uint8)
    bare = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    quads = np.concatenate([quads, np.where(bare, 0, quads)]).view(np.uint32)[:, 0]
    # %g: fixed notation for -4 <= k < 17, with s digits before the point
    fixed = [-4 <= k < 17 for k in ks]
    before = [k + 1 if f and k >= 0 else int(not f) for k, f in zip(ks, fixed)]
    masks = ["\0" * 3 + "\xff" * s + "\0" * 20 + "\xff" * (17 - s) for s in before]
    marks = [
        sign + ("0." + "0" * (-k - 1) if f and k < 0 else "\0" * (2 + s) + point * (s < 17))
        for sign in ("\0", "-")
        for point in ("", ".")
        for k, f, s in zip(ks, fixed, before)
    ]
    exps = ["" if f else f"e{k:+03d}" for k, f in zip(ks, fixed)]
    seps = ["\0" * 5 + ","] * (len(SweepRow._fields) - 1) + ["\0" * 5 + "\n"]
    return _CsvTables(
        hi,
        hi_high,
        np.array(lo),
        quads,
        _words(masks, 10).view(np.uint64),
        _words(marks, 6).view(np.uint64),
        _words(exps, 2).view(np.uint64)[:, 0],
        np.tile(_words(seps, 2).view(np.uint64)[:, 0], _CSV_BLOCK_ROWS),
    )


def _decimal(x):
    """(row, digits, exact) of a flat float array: row is the table row of
    the decimal exponent k of each value, and digits is round(|x| 10^(16-k))
    in [10^16, 10^17), its 17 significant digits, where exact is True.
    exact is False where the digits cannot be certified: x not finite, 0
    or outside about [1e-280, 1e281]; log10 off by one, or a rounding carry
    to an 18th digit; or digits within _TIE of a tie, which '%.17g' rounds
    half to even."""
    tables = _csv_tables()
    with np.errstate(all="ignore"):  # 0 and non-finite x fail exact
        a = np.abs(x)
        k = np.log10(a)
        np.floor(k, out=k)
        exact = np.abs(k) <= _K_MAX
        k[~exact] = 0.0
        row = k.astype(np.intp)
        row += _K_MAX
        # p + low = a (hi + lo), p the double product and low the rest:
        # Dekker's two-product of a and hi, with Veltkamp's split of each
        b = tables.hi[row]
        b_high = tables.hi_high[row]
        b_low = b - b_high
        p = a * b
        t = a * _SPLIT
        a_high = t - (t - a)
        a_low = a - a_high
        low = a_high * b_high - p + a_high * b_low + a_low * b_high + a_low * b_low + a * tables.lo[row]
        r = np.rint(low)  # p is a whole number wherever exact holds
        digits = p.astype(np.int64)
        digits += r.astype(np.int64)
        low -= r  # the digits' rounding offset
        exact &= np.abs(low) < 0.5 - _TIE
        exact &= digits < 10**17  # log10 fell short, or the rounding carried
        exact &= (p - 1e16) + r + low >= 0.0  # log10 overshot
    return row, digits, exact


def _frames(digits):
    """Rows of six uint64 words whose first ten uint32 words hold the head
    and the tail frame of each 17-digit number, unmasked."""
    quads = _csv_tables().quads
    out = np.empty((digits.size, 6), np.uint64)
    words = out.view(np.uint32)
    # the tail drops a word's trailing zeros when no nonzero digit follows
    bare = np.ones(digits.size, bool)
    for i in range(4, -1, -1):  # the last word is the lead digit's, "000d"
        top = digits // 10**4
        q = digits - top * 10**4
        digits = top
        words[:, i] = quads[q]
        words[:, 5 + i] = quads[q + 10_000 * bare]
        bare &= q == 0
    return out


def _format_block(x) -> str:
    """'%.17g' % v of every value v of a flat block of whole rows, each
    followed by its separator: "," within a row and "\n" at its end."""
    tables = _csv_tables()
    row, digits, exact = _decimal(x)
    # 0 and the values left to '%.17g' take k = 0 and print as 0, so that
    # no exponent follows the text written over the latter
    row[~exact] = _K_MAX
    digits[~exact] = 0
    out = _frames(digits)
    out[:, :5] &= np.take(tables.masks, row, axis=0)
    # the head takes a point where the tail prints a digit
    words = out.view(np.uint32)
    tail = words[:, 5] | words[:, 6]
    tail |= words[:, 7]
    tail |= words[:, 8]
    tail |= words[:, 9]
    mark = row + (2 * _K_MAX + 1) * ((tail != 0) + 2 * np.signbit(x))
    out[:, :3] |= np.take(tables.marks, mark, axis=0)
    out[:, 5] = tables.exps[row] | tables.seps[: x.size]
    # '%.17g' text, at most 24 bytes, fills the two frames it replaces
    spelled = ~exact & (x != 0.0)
    out[spelled, :5] = _words(["%.17g" % v for v in x[spelled].tolist()], 10).view(np.uint64)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def emit_csv(rows, sink) -> int:
    """Write SweepRows, or an iterable of rows each the 15 real numbers of a
    SweepRow, as CSV with 17 significant digits (lossless float
    round-trip), each value byte for byte as '%.17g' writes it.  Returns
    the number of characters written: the text is ASCII."""
    if isinstance(rows, SweepRows):
        x = rows.array.reshape(-1)
    else:
        try:
            x = np.frombuffer(b"".join(starmap(_ROW.pack, rows)))
        except (struct.error, TypeError):
            fields = len(SweepRow._fields)
            raise ValueError(f"each row must have {fields} real-number fields") from None
    if not x.size:
        raise ValueError("no rows to emit")
    block = _CSV_BLOCK_ROWS * len(SweepRow._fields)
    data = CSV_HEADER + "\n" + "".join(_format_block(x[i : i + block]) for i in range(0, x.size, block))
    sink.write(data)
    return len(data)
