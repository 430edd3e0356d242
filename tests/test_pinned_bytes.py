"""Seeded product ensembles, their extensions and closure sweeps, pinned to the byte.

`SEPARABLE_DIGEST` covers `random_separable` over six shapes, k = 1..6 and
seeds 0..59 (the mixed state, its spectrum, and each weight and factor in
member order) and `extend_separable(ens, 2)` for the 2x2 mixtures with
k <= 3. Any change to the order of the random draws or the arithmetic of the
mixture sum moves it. `SWEEP_DIGEST` covers the `repr` of a 20-trial
`closure_sweep` for every criterion, so it also moves when the sweep's
sampling does.
"""

import hashlib

import numpy as np
import pytest

from sepkit.closure import closure_sweep
from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.states import random_separable
from sepkit.symext import extend_separable

DIMS = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
SEPARABLE_DIGEST = "d2ba9cf06b647091c850d32062e36286ad66570b56631768652c6f7c2ba4b60e"
SWEEP_DIGEST = "e3baa5bed1a0dfdbd1dd00647959a91525353062680862ac19b97fb04b32acdf"
SWEEP_CRITERIA = [*ONE_SHOT_TESTS, "symext"]


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
    assert h.hexdigest() == SEPARABLE_DIGEST


def test_closure_sweeps_pinned():
    h = hashlib.sha256()
    for criterion in SWEEP_CRITERIA:
        h.update(repr(closure_sweep(criterion, 20, 7)).encode())
    assert h.hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize("criterion", SWEEP_CRITERIA)
def test_closure_sweep_repeats_per_seed(criterion):
    assert closure_sweep(criterion, 9, (3, 1)) == closure_sweep(criterion, 9, (3, 1))
    assert closure_sweep(criterion, 9, 3) != closure_sweep(criterion, 9, 4)
