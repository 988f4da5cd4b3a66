"""Entanglement and coherence of a delta-switched detector pair.

Two pointlike two-level detectors couple impulsively to a massless scalar
field in the Minkowski vacuum.  The reduced post-interaction state is an
X-shaped 4x4 density matrix fixed by four field correlator scalars, all of
which have closed forms here alongside independent quadrature oracles, and
by the two detectors' gap phases.  On top sit the standard correlation
measures and a sweep engine that reproduces the survey figures.

The package exports each module's __all__, the one list of its public names.
"""

# importing a submodule also binds it here, for __all__ below
from .detector_state import *  # noqa: F403
from .field_correlators import *  # noqa: F403
from .quantum_measures import *  # noqa: F403
from .special_functions import *  # noqa: F403
from .sweep_engine import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *detector_state.__all__,
    *field_correlators.__all__,
    *quantum_measures.__all__,
    *special_functions.__all__,
    *sweep_engine.__all__,
    *verify.__all__,
    "__version__",
]
