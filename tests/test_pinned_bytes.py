"""Seeded product ensembles, their extensions and closure sweeps, pinned to the byte.

`SEPARABLE_DIGEST` covers `random_separable` over six shapes, k = 1..6 and
seeds 0..59 (the mixed state, its spectrum, and each weight and factor in
member order) and `extend_separable(ens, 2)` for the 2x2 mixtures with
k <= 3. Any change to the order of the random draws or the arithmetic of the
mixture sum moves it. `SWEEP_DIGEST` covers the `repr` of a 20-trial
`closure_sweep` for every criterion, so it also moves when the sweep's
sampling does. `TOMO_DIGEST` covers the `repr` of `acceptance_probability`
on a grid of d=2 and d=3 default product POVMs, sources, copy counts and
eps, one `mixture_acceptance`, and the bytes of two `build_ic_povm` keys
whose first draw fails the duality check; it moves with the trial stream,
the reconstruction arithmetic or any acceptance decision.
"""

import hashlib

import numpy as np
import pytest

from sepkit.closure import closure_sweep
from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.states import max_entangled, maximally_mixed, random_separable, segment_state
from sepkit.symext import extend_separable
from sepkit.tomography import acceptance_probability, build_ic_povm, default_product_povm, mixture_acceptance

DIMS = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
SEPARABLE_DIGEST = "d2ba9cf06b647091c850d32062e36286ad66570b56631768652c6f7c2ba4b60e"
SWEEP_DIGEST = "e3baa5bed1a0dfdbd1dd00647959a91525353062680862ac19b97fb04b32acdf"
SWEEP_CRITERIA = [*ONE_SHOT_TESTS, "symext"]
TOMO_DIGEST = "79ec52c5e97d8b70b9f545ba44d0b99cf84491e9293a20914e29545ed72067b0"
# d: (default POVM seed, eps values); a d=3 POVM with tame duals, and eps
# wide enough that both grids hold acceptance values strictly inside (0, 1)
TOMO_GRID = {2: (2, (0.75, 1.5, 2.5)), 3: (4, (4.0, 8.0, 16.0))}
TOMO_N = (10, 50, 500)


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


def test_tomography_outputs_pinned():
    h = hashlib.sha256()
    for d, (povm_seed, eps_list) in TOMO_GRID.items():
        phi, mixed = max_entangled(d), maximally_mixed((d, d))
        povm = default_product_povm((d, d), povm_seed)
        sources = (phi, segment_state(mixed, 0.7), mixed, random_separable((d, d), 3, d)[0])
        for source in sources:
            for n in TOMO_N:
                for eps in eps_list:
                    h.update(repr(acceptance_probability(phi, source, n, eps, 60, (d, n), povm)).encode())
    ens = random_separable((2, 2), 3, 5)[1].to_ensemble()
    h.update(repr(mixture_acceptance(ens, max_entangled(2), 50, 2.5, 100, 5)).encode())
    for key in ((948, 11), (1641, 10)):
        povm = build_ic_povm(3, key)
        h.update(povm.elements.tobytes())
        h.update(povm.duals.tobytes())
    assert h.hexdigest() == TOMO_DIGEST


@pytest.mark.parametrize("criterion", SWEEP_CRITERIA)
def test_closure_sweep_repeats_per_seed(criterion):
    assert closure_sweep(criterion, 9, (3, 1)) == closure_sweep(criterion, 9, (3, 1))
    assert closure_sweep(criterion, 9, 3) != closure_sweep(criterion, 9, 4)
