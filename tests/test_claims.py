"""The abstract's claims as properties of random coupling sweeps.

Each sweep moves both couplings together over lambda in [0, 12] in 401
steps, with every other knob drawn from verify's model bounds
(_bounds(8.0, 0.0)) by a generator of this file's own.  Separable starts,
theta = 0 and theta = pi/2, never gain negativity (the delta-switching
no-go result; Simidzija, Jonsson & Martin-Martinez, PRD 97, 125002, 2018)
and gain l1 coherence at every lambda > 0; the entangled start
theta = pi/4 loses negativity monotonically as the coupling grows.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from udwpair import SweepSpec, run_sweep
from udwpair.sweep_engine import _row
from udwpair.verify import _draw

_SWEEPS = 150
_SEPARABLE = (0.0, math.pi / 2.0)


@pytest.fixture(scope="module")
def sweeps():
    """{theta: (negativity, C_l1)}, each of shape (sweeps, 401), with the
    same knob draws at every theta."""
    knobs = _draw(random.Random(2506), _SWEEPS, lambda_max=8.0)
    out = {}
    for theta in (*_SEPARABLE, math.pi / 4.0):
        rows = [
            run_sweep(SweepSpec("lambda", fixed, start=0.0, stop=12.0, steps=401))
            for fixed in (replace(_row(knobs, i), theta=theta) for i in range(_SWEEPS))
        ]
        assert all(r[0].value == 0.0 and r[-1].value == 12.0 for r in rows)
        out[theta] = tuple(
            np.array([[getattr(r, name) for r in sweep] for sweep in rows])
            for name in ("negativity", "c_l1")
        )
    return out


def test_separable_starts_never_gain_negativity(sweeps):
    # theta = pi/2 is |ee> exactly, as theta = 0 is |gg>
    for theta in _SEPARABLE:
        negativity, _ = sweeps[theta]
        assert (negativity == 0.0).all(), theta


def test_separable_starts_gain_coherence_at_every_coupling(sweeps):
    # both separable starts have C_l1 = 0 exactly, and any coupling raises it
    for theta in _SEPARABLE:
        _, c_l1 = sweeps[theta]
        assert (c_l1[:, 0] == 0.0).all(), theta
        assert (c_l1[:, 1:] > 0.0).all(), theta


def test_entangled_start_loses_negativity_as_coupling_grows(sweeps):
    negativity, _ = sweeps[math.pi / 4.0]
    assert negativity[:, 0].min() > 0.49
    assert (np.diff(negativity, axis=1) <= 0.0).all()
