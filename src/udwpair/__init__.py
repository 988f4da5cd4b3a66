"""Entanglement and coherence of a delta-switched detector pair.

Two pointlike two-level detectors couple impulsively to a massless scalar
field in the Minkowski vacuum.  The reduced post-interaction state is an
X-shaped 4x4 density matrix fixed by four field correlator scalars, all of
which have closed forms here alongside independent quadrature oracles, and
by the two detectors' gap phases.  On top sit the standard correlation
measures and a sweep engine that reproduces the survey figures.
"""

from .detector_state import (
    AssemblyError,
    FSignature,
    InitialState,
    XDensityMatrix,
    assemble_appendix,
    assemble_main,
    f_jklm,
)
from .field_correlators import (
    CorrelatorSet,
    DetectorParams,
    PairGeometry,
    QuadratureError,
    closed_form_correlators,
    oracle_correlators,
)
from .quantum_measures import (
    MeasureSet,
    Spectrum4,
    coherence_l1,
    coherence_rec,
    measure_set,
    negativity_closed,
    negativity_full,
    spectrum_closed,
    spectrum_general,
)
from .special_functions import dawson
from .sweep_engine import (
    CSV_HEADER,
    VARY_CHOICES,
    ModelParams,
    SweepError,
    SweepRow,
    SweepSpec,
    detector_pair,
    emit_csv,
    evaluate_point,
    figure_preset,
    point_state,
    run_sweep,
)
from .verify import CheckResult, random_model_params, run_all

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "CSV_HEADER",
    "CheckResult",
    "CorrelatorSet",
    "DetectorParams",
    "FSignature",
    "InitialState",
    "MeasureSet",
    "ModelParams",
    "PairGeometry",
    "QuadratureError",
    "Spectrum4",
    "SweepError",
    "SweepRow",
    "SweepSpec",
    "VARY_CHOICES",
    "XDensityMatrix",
    "assemble_appendix",
    "assemble_main",
    "closed_form_correlators",
    "coherence_l1",
    "coherence_rec",
    "dawson",
    "detector_pair",
    "emit_csv",
    "evaluate_point",
    "f_jklm",
    "figure_preset",
    "measure_set",
    "negativity_closed",
    "negativity_full",
    "oracle_correlators",
    "point_state",
    "random_model_params",
    "run_all",
    "run_sweep",
    "spectrum_closed",
    "spectrum_general",
    "__version__",
]
