"""Seeded product ensembles, their extensions and closure sweeps, pinned to the byte.

One sha256 covers `random_separable` over six shapes, k = 1..6 and seeds
0..59 (the mixed state, its spectrum, and each weight and factor in member
order), `extend_separable(ens, 2)` for the 2x2 mixtures with k <= 3, and the
`repr` of a 20-trial `closure_sweep` for every criterion. Any change to the
order of the random draws, the arithmetic of the mixture sum or the sweep's
sampling moves it.
"""

import hashlib

import numpy as np

from sepkit.closure import closure_sweep
from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.states import random_separable
from sepkit.symext import extend_separable

DIMS = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
DIGEST = "cdc6da16f10731bf1c531ce6fda4dabcacec1a27a3f3175b566d5f273eb3e0f9"


def test_seeded_outputs_pinned():
    h = hashlib.sha256()
    for dims in DIMS:
        for k in range(1, 7):
            for seed in range(60):
                state, ens = random_separable(dims, k, seed)
                h.update(state.mat.tobytes())
                h.update(state.eigenvalues.tobytes())
                for w, a, b in zip(ens.weights, ens.a, ens.b):
                    h.update(np.float64(w).tobytes())
                    h.update(a.tobytes())
                    h.update(b.tobytes())
                if dims == (2, 2) and k <= 3:
                    h.update(extend_separable(ens, 2).tobytes())
    for criterion in [*ONE_SHOT_TESTS, "symext"]:
        h.update(repr(closure_sweep(criterion, 20, 7)).encode())
    assert h.hexdigest() == DIGEST
