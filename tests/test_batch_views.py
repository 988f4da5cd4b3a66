"""Property tests: every batched oracle kernel equals its public scalar
view point by point; the runtime views of one point, point_state and
evaluate_point, equal their rows of a batch; the column drawers equal
their draws written out point by point, bit for bit, as the bulk
uniforms under them equal successive rng.random() calls, verify's state
checks take one column draw right after the correlator draws, and the
public draw is its one-row view; both correlator kernels keep kappa odd
and omega even in the delay; the public views are unchanged when
lengths, times, switching weights and the width scale together and the
gaps inversely, and when the couplings and switching weights trade a
factor; over the whole finite float range a batch's pass/fail mask
equals whether the single-point route raises, and the state check alone
rejects the points whose correlators are not finite; near the positivity edge
that mask's one eigenvalue check and C_rec clause equal the predicate
they replaced; and over decades of L and dt every state is accepted, with
trace 1 and its measures in their bounds.  All but the last compare
exactly."""

import math
import random
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from udwpair import (
    AssemblyError,
    CorrelatorSet,
    DetectorParams,
    FSignature,
    InitialState,
    PairGeometry,
    SweepSpec,
    XDensityMatrix,
    assemble_appendix,
    assemble_main,
    closed_form_correlators,
    detector_pair,
    evaluate_point,
    f_jklm,
    negativity_closed,
    negativity_full,
    oracle_correlators,
    point_state,
    random_model_params,
    run_sweep,
    spectrum_closed,
    verify,
)
from udwpair.detector_state import (
    _EVEN_SIGNATURES,
    _appendix,
    _assemble,
    _block_eigs,
    _dense,
    _modulus,
    _moment,
    _state_ok,
)
from udwpair.field_correlators import _correlators, _oracle, _phases
from udwpair.quantum_measures import (
    _measures,
    _negativity_closed,
    _negativity_full,
    _rec,
    _spectrum_closed,
)
from udwpair.sweep_engine import ModelParams, _batch_states, _checked_states, _point, _row
from udwpair.verify import (
    _DECADE_EXPONENTS,
    _UNIFORM_BLOCK,
    _bounds,
    _decade_draw,
    _draw,
    _uniforms,
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

# one draw of the decade draws' domain as (lambda_a, eta_a, lambda_b,
# eta_b, L, dt, sigma), at one of several widths: L and |dt| log-uniform
# over [1e-3, 1e8] widths, so that a batch mixes the oracle's k-space and
# rotated-contour bands
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


def _in_widths(draws):
    # kernel arguments of the draws, as _view forms them: each coupling
    # g = lambda (eta / sigma), and L and dt over the width, which is exact
    # for the powers of two that _DECADE draws
    lam_a, eta_a, lam_b, eta_b, sep, delay, sigma = map(np.array, zip(*draws))
    return lam_a * (eta_a / sigma), lam_b * (eta_b / sigma), sep / sigma, delay / sigma


def _params(points):
    return ModelParams(*(np.array(column) for column in zip(*points)))


def _batch(points):
    # (p, correlators, state, moduli, spectrum, measures) of a batch of points
    p = _params(points)
    return p, *_batch_states(p, lambda i: f"point {i} of the batch")


@_SETTINGS
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_moment_and_appendix_kernels_equal_their_scalar_views(points):
    p, correlators, *_ = _batch(points)
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
    _, _, state, moduli, *_ = _batch(points)
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
    p, correlators, state, *_ = _batch(points)
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
@given(st.integers(0, 2**32 - 1), st.integers(1, 1000), st.sampled_from([_UNIFORM_BLOCK, 1, 7, 64]))
@example(0, 1, _UNIFORM_BLOCK)
@example(7, 11, _UNIFORM_BLOCK)
@example(7, 11, 4)
@example(3, 64, 32)
def test_bulk_uniforms_equal_successive_random_calls(seed, count, block):
    # getrandbits blocks, read as 32-bit word pairs, give what count
    # rng.random() calls give, bit for bit, and leave the generator where
    # they leave it; a small block size puts seams inside the draw, where
    # the shipped one needs 2^24 values
    bulk_rng, call_rng = random.Random(seed), random.Random(seed)
    with mock.patch.object(verify, "_UNIFORM_BLOCK", block):
        bulk = _uniforms(bulk_rng, count)
    assert bulk.tobytes() == np.fromiter(iter(call_rng.random, None), float, count).tobytes()
    assert bulk_rng.getstate() == call_rng.getstate()


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
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_state_checks_take_one_draw_after_the_correlator_draws(seed, n):
    # run_all's one state batch is _draw(rng, n, tau_span=5.0) from the
    # generator the correlator check has just drawn from
    after, batches = [], []
    check_correlators, batch_states = verify._check_correlators, verify._batch_states

    def correlators_then_state(rng, *args):
        result = check_correlators(rng, *args)
        after.append(rng.getstate())
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_check_correlators", correlators_then_state)
        patch.setattr(
            verify, "_batch_states", lambda p, name: batches.append(p) or batch_states(p, name)
        )
        verify.run_all(seed=seed, points=n)
    assert len(after) == len(batches) == 1
    rng = random.Random()
    rng.setstate(after[0])
    expected = _draw(rng, n, tau_span=5.0)
    for name, column in vars(batches[0]).items():
        drawn = getattr(expected, name).tolist()
        assert [v.hex() for v in drawn] == [v.hex() for v in column.tolist()]


def _scalar_decade_params(rng):
    # the decade draw written out point by point, as the reference order of
    # the rng calls: two exponents, the delay's sign, then the other knobs;
    # the exponents and sign stay as drawn
    exponents = [rng.uniform(*_DECADE_EXPONENTS) for _ in range(2)]
    sign = rng.uniform(-1.0, 1.0)
    return exponents, sign, _scalar_params(rng, lambda_max=5.0)


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_decade_column_draws_equal_scalar_decade_draws(seed, n):
    batch_rng, point_rng = random.Random(seed), random.Random(seed)
    batch = _decade_draw(batch_rng, n)
    exponents, signs, points = zip(*(_scalar_decade_params(point_rng) for _ in range(n)))
    for name, column in vars(batch).items():
        if name not in ("separation", "delay"):
            assert [getattr(q, name).hex() for q in points] == [v.hex() for v in column.tolist()]
    # the exponent and sign columns through numpy's power, whose last bit
    # can differ from Python's
    separation, delay = (10.0 ** np.array(exponents).T).tolist()
    assert [v.hex() for v in separation] == [v.hex() for v in batch.separation.tolist()]
    delay = [math.copysign(v, s) for v, s in zip(delay, signs)]
    assert [v.hex() for v in delay] == [v.hex() for v in batch.delay.tolist()]
    assert batch_rng.getstate() == point_rng.getstate()


@_SETTINGS
@given(st.lists(_DECADE, min_size=1, max_size=12))
@example(_MIXED)
def test_oracle_kernel_equals_its_scalar_view(draws):
    # a batch mixes the k-space and rotated bands; each draw takes its own
    batch = _oracle(*_in_widths(draws))
    for i, (lam_a, eta_a, lam_b, eta_b, sep, delay, sigma) in enumerate(draws):
        a, b = DetectorParams(lam_a, eta_a), DetectorParams(lam_b, eta_b)
        one = oracle_correlators(a, b, PairGeometry(sep, delay, sigma))
        assert (one.f_a, one.f_b, one.kappa, one.omega) == tuple(v[i] for v in batch)


@_SETTINGS
@given(st.lists(_DECADE, min_size=1, max_size=12))
@example(_MIXED)
def test_kappa_is_odd_and_omega_even_in_the_delay(draws):
    *detectors, sep, delay = _in_widths(draws)
    for kernel in (_correlators, _oracle):
        f_a, f_b, kappa, omega = kernel(*detectors, sep, delay)
        flipped = kernel(*detectors, sep, -delay)
        assert np.array_equal(flipped[0], f_a) and np.array_equal(flipped[1], f_b)
        assert np.array_equal(flipped[2], -kappa)
        assert np.array_equal(flipped[3], omega)


def _bits(obj):
    # every field of a dataclass instance, compared bit for bit
    return np.array(astuple(obj), dtype=complex).tobytes()


@_SETTINGS
@given(_POINT, st.sampled_from([0.5, 2.0]))
def test_public_views_are_covariant_under_a_change_of_width(point, s):
    # lengths, times, switching weights and the width times s, the gaps
    # over s: the views divide the width out, so their kernels see the same
    # numbers, and every phase is the same product.  Couplings times s and
    # switching weights over s: the views take them only as their product.
    # s is a power of two, so each rescaling is exact
    p = ModelParams(*point)
    a, b, g = detector_pair(p)
    scaled = (
        DetectorParams(a.coupling, a.switching_weight * s, a.energy_gap / s),
        DetectorParams(b.coupling, b.switching_weight * s, b.energy_gap / s),
        PairGeometry(g.separation * s, g.delay * s, g.smearing_width * s, g.time_origin * s),
    )
    traded = (
        DetectorParams(a.coupling * s, a.switching_weight / s, a.energy_gap),
        DetectorParams(b.coupling * s, b.switching_weight / s, b.energy_gap),
        g,
    )
    start = InitialState(p.theta)
    for view in (closed_form_correlators, oracle_correlators):
        c = view(a, b, g)
        for moved in (scaled, traded):
            c_moved = view(*moved)
            assert _bits(c_moved) == _bits(c)
            assert _bits(assemble_main(start, c_moved)) == _bits(assemble_main(start, c))


# a point of _POINT's domain with up to three knobs replaced by values from
# the whole finite float range: zero, negatives, subnormals and +-1e308
_WILD = st.floats(allow_nan=False, allow_infinity=False)
_WILD_POINT = st.tuples(
    _POINT, st.lists(st.tuples(st.integers(0, len(vars(ModelParams())) - 1), _WILD), max_size=3)
).map(lambda t: [dict(t[1]).get(i, v) for i, v in enumerate(t[0])])
# the default point with one knob at an edge of the float range, each knob
# and edge in turn
_EDGES = [
    astuple(replace(ModelParams(), **{knob: edge}))
    for knob in vars(ModelParams())
    for edge in (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
]
# the default point with finite knobs whose correlators are not finite:
# kappa = -inf, omega = nan, phase_a = inf, phase_b = inf, and g = inf with
# f_a = 0 and kappa = -inf
_NOT_FINITE = [
    astuple(replace(ModelParams(), **knobs))
    for knobs in (
        {"lambda_a": 1e155, "lambda_b": 1e155},
        {"separation": 0.0, "delay": 1e103},
        {"tau_a0": 1e308, "gap_a": 4.0},
        {"tau_a0": 1e308, "delay": 1e308, "gap_b": 4.0},
        {"lambda_a": 1e200, "eta_a": 1e200},
    )
]


@settings(_SETTINGS, max_examples=100)
@given(st.lists(_WILD_POINT, min_size=1, max_size=20))
@example(_EDGES)
@example(_NOT_FINITE)
def test_batch_mask_equals_the_single_point_route(points):
    # the one accept mask that run_sweep and _batch_states read
    p = _params(points)
    for i, passes in enumerate(_checked_states(p)[0].tolist()):
        try:
            _point(_row(p, i))
        except (AssemblyError, ValueError):
            assert not passes, points[i]
        else:
            assert passes, points[i]


def test_the_state_check_alone_rejects_correlators_that_are_not_finite():
    # the accept mask tests only the knobs for finiteness: a kappa, omega
    # or phase that is not finite reaches every population through a
    # product, and the state check rejects it, as _checked_states runs it
    p = _params(_NOT_FINITE)
    with np.errstate(all="ignore"):
        correlators = (
            *_correlators(p.lambda_a * p.eta_a, p.lambda_b * p.eta_b, p.separation, p.delay),
            *_phases(p.gap_a, p.gap_b, p.tau_a0, p.delay),
        )
        elements = _assemble(p.theta, *correlators)
        ok = _state_ok(*elements[:4], _modulus(elements[4]), _modulus(elements[5]))[0]
    assert not np.isfinite(correlators).all(axis=0).any()
    assert not ok.any()


# a population: negative dust down to -2e-9, small over decades, or of
# order one
_POPULATION = st.one_of(
    st.floats(-2e-9, 0.0),
    st.floats(-12.0, -1.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0 / 3.0),
)


def _edge_modulus(d1, d2, exponent, sign):
    # |off-diagonal| of a block at its positivity edge: |m|^2 = d1 d2 + t hi
    # puts the low eigenvalue at -t, with t = +-10^exponent and hi = d1 + d2
    # there; the populations count with their dust clamped
    d1, d2 = max(0.0, d1), max(0.0, d2)
    return math.sqrt(max(0.0, d1 * d2 + sign * 10.0**exponent * (d1 + d2)))


@st.composite
def _edge_state(draw):
    """(rho11, rho22, rho33, rho44, |rho14|, |rho23|) of an X state whose
    two blocks each sit within 1e-8 of their positivity edge: three
    populations drawn, the fourth, at a drawn place, 1 minus their sum."""
    populations = [draw(_POPULATION) for _ in range(3)]
    populations.insert(draw(st.integers(0, 3)), 1.0 - math.fsum(populations))
    rho11, rho22, rho33, rho44 = populations
    moduli = [
        _edge_modulus(d1, d2, draw(st.floats(-12.0, -8.0)), draw(st.sampled_from([-1.0, 1.0])))
        for d1, d2 in ((rho11, rho44), (rho22, rho33))
    ]
    return (*populations, *moduli)


@settings(_SETTINGS, max_examples=100)
@given(st.lists(_edge_state(), min_size=1, max_size=50))
def test_one_positivity_check_equals_the_former_predicate(states):
    # the accept mask's state part, the state check and the C_rec clause,
    # against the predicate it replaced, written out: trace and populations,
    # |off-diagonal|^2 - product <= 1e-9 and low eigenvalue >= -1e-9 in
    # each block, all eight entropy arguments >= -1e-10, C_rec >= -1e-12
    columns = [np.array(column) for column in zip(*states)]
    populations, moduli = columns[:4], columns[4:]
    ok, diagonals, spectrum = _state_ok(*populations, *moduli)
    mask = ok & _measures(diagonals, moduli, spectrum)[0]

    d = [np.maximum(0.0, v) for v in populations]
    outer = _block_eigs(d[0], d[3], moduli[0])
    inner = _block_eigs(d[1], d[2], moduli[1])
    former = abs(sum(populations) - 1.0) <= 1e-9
    for v in populations:
        former &= v >= -1e-9
    for d1, d2, m, (low, _) in ((d[0], d[3], moduli[0], outer), (d[1], d[2], moduli[1], inner)):
        former &= (m * m - d1 * d2 <= 1e-9) & (low >= -1e-9)
    former &= np.all(np.array((*d, *inner, *outer)) >= -1e-10, axis=0)
    former &= _rec(d, (*inner, *outer)) >= -1e-12
    assert mask.tolist() == former.tolist()


# a point of _POINT's domain with L and dt taken over decades instead:
# L = 10^e and dt = +-10^e, e uniform over _DECADE_EXPONENTS
_DECADE_POINT = st.tuples(
    _POINT,
    st.floats(*_DECADE_EXPONENTS),
    st.sampled_from([-1.0, 1.0]),
    st.floats(*_DECADE_EXPONENTS),
).map(lambda t: (*t[0][:7], 10.0 ** t[1], t[2] * 10.0 ** t[3], t[0][9]))

_EPS = np.finfo(float).eps


@_SETTINGS
@given(st.lists(_DECADE_POINT, min_size=1, max_size=20))
def test_states_and_measures_are_physical_over_the_decade_domain(points):
    # trace 1, C_l1 <= 1 (the X-state bound), C_rec in [0, 2] bits and
    # negativity in [0, 1/2], each to a few ulps, on every accepted row
    ok, _, state, _, _, measures = _checked_states(_params(points))
    assert ok.all()
    for row in zip(*(v.tolist() for v in (*state[:4], *measures))):
        *populations, c_l1, c_rec, negativity = row
        assert abs(math.fsum(populations) - 1.0) <= 4 * _EPS, row
        assert c_l1 <= 1.0 + 4 * _EPS, row
        assert 0.0 <= c_rec <= 2.0, row
        assert 0.0 <= negativity <= 0.5 + 4 * _EPS, row
