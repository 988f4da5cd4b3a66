"""Property tests: every batched oracle kernel equals its public scalar
view point by point, and the column drawer equals repeated
random_model_params calls bit for bit."""

import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from udwpair import (
    CorrelatorSet,
    FSignature,
    InitialState,
    XDensityMatrix,
    assemble_appendix,
    f_jklm,
    negativity_closed,
    negativity_full,
    random_model_params,
    spectrum_closed,
)
from udwpair.detector_state import _appendix, _dense, _modulus, _moment
from udwpair.quantum_measures import _negativity_closed, _negativity_full, _spectrum_closed
from udwpair.sweep_engine import ModelParams, _batch_states
from udwpair.verify import _draw

# Fixed examples, no example database: the same cases on every run, and
# nothing written next to the checkout.  No shrinking either: a failing
# batch is reported as drawn, in seconds rather than minutes.
_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)

# When a property fails, Hypothesis's pytest plugin imports libcst to write
# the failing example as a patch, and that import warns through
# mypy_extensions; with warnings as errors the warning would abort the
# whole session instead of reporting the one failed test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

SIGNATURES = [(j, k, l, m) for j in (1, -1) for k in (1, -1) for l in (1, -1) for m in (1, -1)]

# one point of the domain random_model_params draws from (time origin
# within +-5), knob by knob in ModelParams field order
_POINT = st.tuples(
    st.floats(0.0, math.pi / 2.0),
    st.floats(0.0, 8.0),
    st.floats(0.0, 8.0),
    st.floats(0.2, 2.0),
    st.floats(0.2, 2.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.floats(0.01, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-5.0, 5.0),
)


def _batch(points):
    p = ModelParams(*(np.array(column) for column in zip(*points)))
    correlators, state = _batch_states(p)
    return p, correlators, state


@_SETTINGS
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_moment_and_appendix_kernels_equal_their_scalar_views(points):
    p, correlators, _ = _batch(points)
    moments = {sig: _moment(*sig, *correlators[:4]) for sig in SIGNATURES}
    r11, r22, r33, r44, r14, r23 = _appendix(p.theta, *correlators)
    for i in range(len(points)):
        c = CorrelatorSet(*(v[i].item() for v in correlators))
        for sig in SIGNATURES:
            one = f_jklm(FSignature(*sig), c)
            assert one == moments[sig][i]
            if sig.count(-1) % 2:
                assert one == 0j
        state = assemble_appendix(InitialState(p.theta[i].item()), c)
        populations = (max(0.0, z.real) for z in (r11[i], r22[i], r33[i], r44[i]))
        assert (*state.diagonals(), state.rho14, state.rho23) == (*populations, r14[i], r23[i])


@_SETTINGS
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_measure_oracle_kernels_equal_their_scalar_views(points):
    _, _, state = _batch(points)
    moduli = (_modulus(state[4]), _modulus(state[5]))
    spectra = _spectrum_closed(*state[:4], *moduli)
    dense = _dense(*state)
    full = _negativity_full(*state)
    closed = _negativity_closed(state[1], state[2], moduli[0])
    for i, row in enumerate(zip(*(v.tolist() for v in state))):
        m = XDensityMatrix(*row)
        assert spectrum_closed(m).as_tuple() == tuple(v[i] for v in spectra)
        assert np.array_equal(m.as_matrix(), dense[i])
        assert negativity_full(m) == full[i]
        assert negativity_closed(m) == closed[i]


@_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.sampled_from([8.0, 5.0]),
    st.sampled_from([0.0, 5.0]),
)
def test_column_draws_equal_repeated_point_draws(seed, n, lambda_max, tau_span):
    batch_rng, point_rng = random.Random(seed), random.Random(seed)
    kwargs = {"lambda_max": lambda_max, "tau_span": tau_span}
    batch = _draw(batch_rng, n, **kwargs)
    points = [random_model_params(point_rng, **kwargs) for _ in range(n)]
    for name, column in vars(batch).items():
        assert [getattr(q, name).hex() for q in points] == [v.hex() for v in column.tolist()]
    assert batch_rng.getstate() == point_rng.getstate()
