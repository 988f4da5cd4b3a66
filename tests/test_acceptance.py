"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line before asserting, so the run log
always carries the full scoreboard with measured numbers, including for
criteria that fail.
"""

import cmath
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from udwpair import (
    FSignature,
    InitialState,
    ModelParams,
    SweepSpec,
    XDensityMatrix,
    assemble_appendix,
    assemble_main,
    closed_form_correlators,
    coherence_l1,
    coherence_rec,
    detector_pair,
    evaluate_point,
    f_jklm,
    negativity_closed,
    negativity_full,
    oracle_correlators,
    random_model_params,
    run_sweep,
    spectrum_closed,
    spectrum_general,
)
from udwpair.special_functions import dawson

from conftest import dawson_reference

ODD_SIGNATURES = [
    (+1, +1, +1, -1), (+1, +1, -1, +1), (+1, -1, +1, +1), (-1, +1, +1, +1),
    (-1, -1, -1, +1), (-1, -1, +1, -1), (-1, +1, -1, -1), (+1, -1, -1, -1),
]


def _check(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _lambda_sweep(theta, separation, delay):
    fixed = ModelParams(theta=theta, separation=separation, delay=delay)
    return SweepSpec("lambda", fixed=fixed, start=0.0, stop=12.0, steps=401)


@pytest.fixture(scope="module")
def coupling_sweeps():
    """The two 401-point coupling sweeps (lightlike and spacelike), with
    wall time per sweep."""
    out = {}
    for tag, (l, dt) in (("lightlike", (3.0, 3.0)), ("spacelike", (5.0, 3.0))):
        spec = _lambda_sweep(math.pi / 4.0, l, dt)
        t0 = time.perf_counter()
        rows = run_sweep(spec)
        out[tag] = (rows, time.perf_counter() - t0)
    return out


def test_initial_state_reproduction():
    p = ModelParams(theta=math.pi / 4.0, lambda_a=0.0, lambda_b=0.0)
    evaluate_point(p)  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        row = evaluate_point(p)
        best = min(best, time.perf_counter() - t0)
    worst = max(
        abs(row.negativity - 0.5), abs(row.c_l1 - 1.0), abs(row.c_rec - 1.0)
    )
    _check(
        1,
        "zero coupling returns the maximally entangled start",
        worst <= 1e-12 and best < 1e-3,
        f"max deviation {worst:.2e}, point evaluation {best * 1e6:.0f} us",
    )


def test_coherence_amplification(coupling_sweeps):
    details = []
    ok = True
    for tag, (rows, seconds) in coupling_sweeps.items():
        peak = max(r.c_l1 for r in rows)
        details.append(f"{tag}: max C_l1 {peak:.6f} in {seconds:.2f} s")
        ok = ok and peak > 1.0 + 1e-3 and seconds < 1.0
    _check(
        2,
        "coupling sweep pushes C_l1 above its starting value by 1e-3",
        ok,
        "; ".join(details),
    )


def test_entanglement_monotonic_decay(coupling_sweeps):
    details = []
    ok = True
    for tag, (rows, _) in coupling_sweeps.items():
        negs = [r.negativity for r in rows]
        monotone = all(b <= a + 1e-12 for a, b in zip(negs, negs[1:]))
        details.append(f"{tag}: final {negs[-1]:.2e}, monotone {monotone}")
        ok = ok and monotone and negs[-1] < 1e-6
    _check(
        3,
        "negativity decays monotonically and dies by coupling 12",
        ok,
        "; ".join(details),
    )


def test_no_harvesting_from_separable_states():
    ok = True
    details = []
    for theta, theta_tag in ((0.0, "theta=0"), (math.pi / 2.0, "theta=pi/2")):
        for tag, (l, dt) in (("lightlike", (3.0, 3.0)), ("spacelike", (5.0, 3.0))):
            rows = run_sweep(_lambda_sweep(theta, l, dt))
            worst_neg = max(r.negativity for r in rows)
            peak_l1 = max(r.c_l1 for r in rows)
            ok = ok and worst_neg <= 1e-12 and peak_l1 > 0.01
            details.append(
                f"{theta_tag} {tag}: neg<={worst_neg:.1e}, max C_l1 {peak_l1:.3f}"
            )
    _check(
        4,
        "separable starts harvest coherence but never entanglement",
        ok,
        "; ".join(details),
    )


def test_correlator_oracle_equivalence():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a, b, g = detector_pair(random_model_params(rng, lambda_max=5.0))
        closed = closed_form_correlators(a, b, g)
        numeric = oracle_correlators(a, b, g)
        for name in ("f_a", "f_b", "kappa", "omega", "gamma"):
            ref = getattr(numeric, name)
            err = abs(getattr(closed, name) - ref) / max(abs(ref), 1e-3)
            worst = max(worst, err)
    seconds = time.perf_counter() - t0
    _check(
        5,
        "closed-form correlators match quadrature on 200 random points",
        worst <= 1e-6 and seconds < 30.0,
        f"worst scaled error {worst:.2e} in {seconds:.2f} s",
    )


def test_dual_path_state_assembly():
    rng = random.Random(102)
    worst = 0.0
    zero_violation = 0.0
    for _ in range(1000):
        p = random_model_params(rng, tau_span=5.0)
        a, b, g = detector_pair(p)
        c = closed_form_correlators(a, b, g)
        main = assemble_main(InitialState(p.theta), c)
        appendix = assemble_appendix(InitialState(p.theta), c)
        for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
            worst = max(worst, abs(getattr(main, name) - getattr(appendix, name)))
        for sig in ODD_SIGNATURES:
            zero_violation = max(zero_violation, abs(f_jklm(FSignature(*sig), c)))
    _check(
        6,
        "both state constructions agree and odd moments vanish",
        worst <= 1e-12 and zero_violation == 0.0,
        f"worst element gap {worst:.2e}, odd-moment residue {zero_violation:.1e}",
    )


def test_physicality_grid(draw_grid):
    worst_trace = 0.0
    worst_dip = 0.0
    for _, state in draw_grid:
        worst_trace = max(worst_trace, abs(math.fsum(state.diagonals()) - 1.0))
        eigs = np.linalg.eigvalsh(state.as_matrix())
        worst_dip = max(worst_dip, -float(eigs[0]))
    _check(
        7,
        "10^4-point grid stays trace-one and positive",
        worst_trace <= 1e-12 and worst_dip <= 1e-10,
        f"worst |trace-1| {worst_trace:.2e}, worst eigenvalue dip {worst_dip:.2e}",
    )


def test_spectral_and_negativity_dual_paths(draw_grid):
    worst_spec = 0.0
    worst_neg = 0.0
    exceptions = 0
    for _, state in draw_grid:
        a = spectrum_closed(state).as_tuple()
        b = spectrum_general(state).as_tuple()
        worst_spec = max(worst_spec, max(abs(x - y) for x, y in zip(a, b)))
        gap = abs(negativity_full(state) - negativity_closed(state))
        worst_neg = max(worst_neg, gap)
        if gap > 1e-12:
            exceptions += 1
    _check(
        8,
        "closed-form spectrum and negativity match the generic routes",
        worst_spec <= 1e-12 and worst_neg <= 1e-12,
        f"worst spectrum gap {worst_spec:.2e}, worst negativity gap "
        f"{worst_neg:.2e}, {exceptions} exceptions",
    )


def test_symmetry_suite(draw_grid):
    # delay parity of the two field scalars
    worst_parity = 0.0
    rng = random.Random(103)
    for _ in range(200):
        p = random_model_params(rng)
        ap, bp, gp = detector_pair(p)
        am, bm, gm = detector_pair(replace(p, delay=-p.delay))
        kp = closed_form_correlators(ap, bp, gp)
        km = closed_form_correlators(am, bm, gm)
        worst_parity = max(
            worst_parity, abs(km.kappa + kp.kappa), abs(km.omega - kp.omega)
        )

    # a common phase on both coherences must not move any measure
    worst_phase = 0.0
    for _, state in draw_grid[:300]:
        spun = XDensityMatrix(
            state.rho11,
            state.rho22,
            state.rho33,
            state.rho44,
            state.rho14 * cmath.exp(1.1j),
            state.rho23 * cmath.exp(1.1j),
        )
        worst_phase = max(
            worst_phase,
            abs(coherence_l1(spun) - coherence_l1(state)),
            abs(coherence_rec(spun) - coherence_rec(state)),
            abs(negativity_full(spun) - negativity_full(state)),
        )

    # far separation: measures against the far-field reduction, kappa = 0
    # (Gaussian-suppressed) and omega at its massless tail; expanding both
    # Dawson terms as D(x) ~ 1/(2x) gives
    # omega -> -lambda_A lambda_B eta_A eta_B / (pi^2 (L^2 - dtau^2))
    worst_far = 0.0
    for delay in (0.0, 2.0, 4.0):
        p = ModelParams(separation=50.0, delay=delay)
        a, b, g = detector_pair(p)
        c = closed_form_correlators(a, b, g)
        cprod = a.coupling * b.coupling * a.switching_weight * b.switching_weight
        tail = -cprod / (math.pi**2 * (g.separation**2 - g.delay**2))
        reduced = replace(c, kappa=0.0, omega=tail)
        s = InitialState(p.theta)
        full = assemble_main(s, c)
        limit = assemble_main(s, reduced)
        worst_far = max(
            worst_far,
            abs(coherence_l1(full) - coherence_l1(limit)),
            abs(coherence_rec(full) - coherence_rec(limit)),
            abs(negativity_full(full) - negativity_full(limit)),
        )

    _check(
        9,
        "delay parity, phase invariance, and far-separation reduction",
        worst_parity <= 1e-14 and worst_phase <= 1e-12 and worst_far <= 1e-6,
        f"parity {worst_parity:.1e}, phase {worst_phase:.1e}, "
        f"far-separation vs kappa = 0 and the omega tail {worst_far:.2e}",
    )


def test_special_function_oracle():
    lo, hi = math.log10(1e-6), math.log10(40.0)
    worst = 0.0
    for i in range(500):
        x = 10.0 ** (lo + (hi - lo) * i / 499)
        ref = dawson_reference(x)
        worst = max(worst, abs(dawson(x) - ref) / abs(ref))
    seam = abs(
        dawson(math.nextafter(4.0, 0.0)) - dawson(math.nextafter(4.0, math.inf))
    ) / dawson(4.0)
    _check(
        10,
        "Dawson evaluator matches the extended-precision series",
        worst <= 1e-12 and seam <= 1e-12,
        f"worst relative error {worst:.2e} over 500 points, "
        f"mismatch across x=4 {seam:.1e}",
    )
