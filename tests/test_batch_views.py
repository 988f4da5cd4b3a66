"""Property tests: every batched oracle kernel equals its public scalar
view point by point; the runtime views of one point, point_state and
evaluate_point, equal their rows of a batch; the column drawers equal
their draws written out point by point, bit for bit, the state checks'
one-pass draw equals their four column draws, and the public draws are
their one-row views; and both correlator kernels keep kappa
odd and omega even in the delay.  All compare exactly."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import (
    CorrelatorSet,
    DetectorParams,
    FSignature,
    InitialState,
    PairGeometry,
    SweepSpec,
    XDensityMatrix,
    assemble_appendix,
    evaluate_point,
    f_jklm,
    negativity_closed,
    negativity_full,
    oracle_correlators,
    point_state,
    random_model_params,
    run_sweep,
    spectrum_closed,
)
from udwpair.detector_state import _EVEN_SIGNATURES, _appendix, _dense, _modulus, _moment
from udwpair.field_correlators import _correlators, _oracle
from udwpair.quantum_measures import _negativity_closed, _negativity_full, _spectrum_closed
from udwpair.sweep_engine import ModelParams, _batch_states
from udwpair.verify import (
    _DECADE_EXPONENTS,
    _bounds,
    _decade_draw,
    _draw,
    _state_draw,
    random_decade_params,
)

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
_POINT = st.tuples(*(st.floats(lo, hi) for lo, hi in _bounds(8.0, 5.0)))

# one draw of the random_decade_params domain as correlator kernel
# arguments (lambda_a, eta_a, lambda_b, eta_b, L, dt, sigma), at one of
# several widths: L and |dt| log-uniform over [1e-3, 1e8], so that a batch
# mixes the oracle's k-space and rotated-contour bands
_KNOB = dict(zip(vars(ModelParams()), _bounds(5.0, 0.0)))
_DECADE = st.tuples(
    *(st.floats(*_KNOB[knob]) for knob in ("lambda_a", "eta_a", "lambda_b", "eta_b")),
    st.floats(*_DECADE_EXPONENTS).map(lambda e: 10.0**e),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(*_DECADE_EXPONENTS)).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
    st.sampled_from([0.5, 1.0, 2.0]),
)
# a near and a far draw at each of two widths
_MIXED = [
    (1.0, 1.0, 2.0, 0.5, l, dt, s) for s in (1.0, 2.0) for l, dt in ((3.0, -4.0), (1e4, 2.0))
]


def _batch(points):
    p = ModelParams(*(np.array(column) for column in zip(*points)))
    correlators, state = _batch_states(p)
    return p, correlators, state


@_SETTINGS
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_moment_and_appendix_kernels_equal_their_scalar_views(points):
    p, correlators, _ = _batch(points)
    moments = {sig: _moment(*sig, *correlators[:4]) for sig in SIGNATURES}
    # _appendix's one broadcast call over the even signatures equals the
    # eight single-signature calls
    even = _moment(*_EVEN_SIGNATURES, *correlators[:4])
    assert even.shape == (8, len(points))
    for sig, row in zip(_EVEN_SIGNATURES[..., 0].T.tolist(), even):
        assert sig.count(-1) % 2 == 0
        assert row.tobytes() == moments[tuple(sig)].tobytes()
    assert len({tuple(sig) for sig in _EVEN_SIGNATURES[..., 0].T.tolist()}) == 8
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
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_runtime_views_equal_their_batch_rows(points):
    p, correlators, state = _batch(points)
    for i, point in enumerate(points):
        alone = ModelParams(*point)
        c, m = point_state(alone)
        assert CorrelatorSet(*(v[i].item() for v in correlators)) == c
        assert XDensityMatrix(*(v[i].item() for v in state)) == m
        # the first row of a sweep that starts at the point is the point's
        spec = SweepSpec("dtau", alone, start=alone.delay, stop=alone.delay + 1.0, steps=2)
        assert evaluate_point(alone)[1:] == run_sweep(spec)[0][1:]


def _scalar_params(rng, lambda_max=8.0, tau_span=0.0):
    # the point draw written out point by point, as the reference order and
    # arithmetic of the rng calls: rng.uniform over each knob's bound
    values = [rng.uniform(lo, hi) for lo, hi in _bounds(lambda_max, tau_span)]
    return ModelParams(*values, *([] if tau_span else [0.0]))


@_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.sampled_from([8.0, 5.0]),
    st.sampled_from([0.0, 5.0]),
)
def test_column_draws_equal_repeated_point_draws(seed, n, lambda_max, tau_span):
    batch_rng, point_rng = random.Random(seed), random.Random(seed)
    batch = _draw(batch_rng, n, lambda_max=lambda_max, tau_span=tau_span)
    points = [_scalar_params(point_rng, lambda_max, tau_span) for _ in range(n)]
    for name, column in vars(batch).items():
        assert [getattr(q, name).hex() for q in points] == [v.hex() for v in column.tolist()]
    assert batch_rng.getstate() == point_rng.getstate()
    one = random_model_params(random.Random(seed), lambda_max=lambda_max, tau_span=tau_span)
    assert one == points[0]


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20))
def test_one_pass_state_draw_equals_four_column_draws(seed, assembly, each):
    batch_rng, column_rng = random.Random(seed), random.Random(seed)
    batch = _state_draw(batch_rng, assembly, each)
    parts = [_draw(column_rng, assembly, tau_span=5.0)]
    parts += [_draw(column_rng, each) for _ in range(3)]
    for name, column in vars(batch).items():
        drawn = np.concatenate([getattr(q, name) for q in parts])
        assert [v.hex() for v in drawn.tolist()] == [v.hex() for v in column.tolist()]
    assert batch_rng.getstate() == column_rng.getstate()


def _scalar_decade_params(rng):
    # the decade draw written out point by point, as the reference order of
    # the rng calls: two exponents, the other knobs, then the delay's sign
    separation, delay = (10.0 ** rng.uniform(*_DECADE_EXPONENTS) for _ in range(2))
    return replace(
        _scalar_params(rng, lambda_max=5.0),
        separation=separation,
        delay=rng.choice((-1.0, 1.0)) * delay,
    )


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_decade_column_draws_equal_scalar_decade_draws(seed, n):
    batch_rng, point_rng = random.Random(seed), random.Random(seed)
    batch = _decade_draw(batch_rng, n)
    points = [_scalar_decade_params(point_rng) for _ in range(n)]
    for name, column in vars(batch).items():
        assert [getattr(q, name).hex() for q in points] == [v.hex() for v in column.tolist()]
    assert batch_rng.getstate() == point_rng.getstate()
    assert random_decade_params(random.Random(seed)) == points[0]


@_SETTINGS
@given(st.lists(_DECADE, min_size=1, max_size=12))
@example(_MIXED)
def test_oracle_kernel_equals_its_scalar_view(draws):
    # guards the far draws' I_f, evaluated once per width and scattered
    batch = _oracle(*map(np.array, zip(*draws)))
    for i, (lam_a, eta_a, lam_b, eta_b, sep, delay, sigma) in enumerate(draws):
        a, b = DetectorParams(lam_a, eta_a), DetectorParams(lam_b, eta_b)
        one = oracle_correlators(a, b, PairGeometry(sep, delay, sigma))
        assert (one.f_a, one.f_b, one.kappa, one.omega) == tuple(v[i] for v in batch)


@_SETTINGS
@given(st.lists(_DECADE, min_size=1, max_size=12))
@example(_MIXED)
def test_kappa_is_odd_and_omega_even_in_the_delay(draws):
    *detectors, sep, delay, sigma = map(np.array, zip(*draws))
    for kernel in (_correlators, _oracle):
        f_a, f_b, kappa, omega = kernel(*detectors, sep, delay, sigma)
        flipped = kernel(*detectors, sep, -delay, sigma)
        assert np.array_equal(flipped[0], f_a) and np.array_equal(flipped[1], f_b)
        assert np.array_equal(flipped[2], -kappa)
        assert np.array_equal(flipped[3], omega)
