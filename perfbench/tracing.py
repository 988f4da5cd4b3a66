"""Span tracing of udwpair's layers from outside the package.

The tracer wraps each layer's public functions and rebinds every name that a
udwpair module holds for them (for example udwpair.sweep_engine.negativity_full
and udwpair.field_correlators.dawson), so calls between modules go through the
wrapper.  Nothing under src/ changes.  Each span records its name, start, end,
parent span and op id; spans stay in memory in flat arrays until the run
writes them out.  A layer's self time is its span time minus the time covered
by its child spans.

The wrappers also count a few silent branches from the arguments and results
they see, so a later change can cite them as exact counts:

    special_functions.dawson.branch.*     |x| <= 2.5, 2.5 < |x| < 6, |x| >= 6
    field_correlators.small_l.count       separation < 1e-4 smearing widths
    detector_state.dust_clamp.count/max   negative population stored as 0.0
    field_correlators.oracle_correlators.quadrature_errors

The thresholds mirror the program's own branch edges.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced public function.  A dotted attribute is
# a classmethod.
LAYERS = (
    ("special_functions", "dawson"),
    ("field_correlators", "closed_form_correlators"),
    ("field_correlators", "oracle_correlators"),
    ("detector_state", "assemble_main"),
    ("detector_state", "XDensityMatrix.from_elements"),
    ("detector_state", "assemble_appendix"),
    ("quantum_measures", "negativity_full"),
    ("quantum_measures", "coherence_rec"),
    ("quantum_measures", "coherence_l1"),
    ("quantum_measures", "spectrum_general"),
    ("quantum_measures", "negativity_closed"),
    ("quantum_measures", "spectrum_closed"),
    ("sweep_engine", "run_sweep"),
    ("sweep_engine", "emit_csv"),
    ("verify", "run_all"),
)

OP_SPAN = "op"

_MACLAURIN_EDGE = 2.5
_ASYMPTOTIC_EDGE = 6.0
_SMALL_L_FRACTION = 1e-4


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS)

COUNTERS = (
    "special_functions.dawson.branch.maclaurin",
    "special_functions.dawson.branch.sampling",
    "special_functions.dawson.branch.asymptotic",
    "field_correlators.small_l.count",
    "detector_state.dust_clamp.count",
    "field_correlators.oracle_correlators.quadrature_errors",
    "sweep_engine.run_sweep.points",
    "sweep_engine.emit_csv.bytes",
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names = [OP_SPAN]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.op_id = -1
        self.active = False
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.dust_max = 0.0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self) -> int:
        """Open the root span of one benchmark operation and start tracing."""
        self.op_id += 1
        self.active = True
        return self.open(0)

    def end_op(self, i: int) -> None:
        self.close(i)
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None, on_error=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a call from inside its own span (dawson's sign reflection) is
            # part of that span
            if not self.active or self.name[self.stack[-1]] == name_id:
                return fn(*args, **kwargs)
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(i)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(i)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every udwpair name of each layer function to its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "udwpair" or n.startswith("udwpair.")]
        from udwpair.field_correlators import QuadratureError

        def on_oracle_error(exc):
            if isinstance(exc, QuadratureError):
                self.counts["field_correlators.oracle_correlators.quadrature_errors"] += 1

        observers = {
            "special_functions.dawson": (self._observe_dawson, None),
            "field_correlators.closed_form_correlators": (self._observe_correlators, None),
            "field_correlators.oracle_correlators": (None, on_oracle_error),
            "detector_state.from_elements": (self._observe_from_elements, None),
            "sweep_engine.run_sweep": (self._observe_sweep, None),
            "sweep_engine.emit_csv": (self._observe_emit, None),
        }
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            observe, on_error = observers.get(name, (None, None))
            home = sys.modules[f"udwpair.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, observe, on_error)))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, observe, on_error)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- observers ---------------------------------------------------------

    def _observe_dawson(self, args, result):
        ax = abs(args[0])
        if ax <= _MACLAURIN_EDGE:
            branch = "maclaurin"
        elif ax < _ASYMPTOTIC_EDGE:
            branch = "sampling"
        else:
            branch = "asymptotic"
        self.counts[f"special_functions.dawson.branch.{branch}"] += 1

    def _observe_correlators(self, args, result):
        g = args[2]
        if g.separation < _SMALL_L_FRACTION * g.smearing_width:
            self.counts["field_correlators.small_l.count"] += 1

    def _observe_from_elements(self, args, result):
        for given, stored in zip(args[1:5], result.diagonals()):
            given = float(given)
            if given < 0.0 and stored == 0.0:
                self.counts["detector_state.dust_clamp.count"] += 1
                self.dust_max = max(self.dust_max, -given)

    def _observe_sweep(self, args, result):
        self.counts["sweep_engine.run_sweep.points"] += len(result)

    def _observe_emit(self, args, result):
        self.counts["sweep_engine.emit_csv.bytes"] += result

    # -- results -----------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def layer_totals(self) -> dict:
        """{span name: (calls, total ns, self ns)} over every recorded span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=self_ns, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selft[i])) for i, n in enumerate(self.names)}
