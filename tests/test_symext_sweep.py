"""Every cold extension search on a fixed sweep ends with a certificate that checks out.

A k-extendible input must end `feasible`, and its witness must pass
`verify_extension`. Any other input must end, on the empty face or after a
search, with a Farkas witness W': Tr(W' rho) > 0 while symmetrize_b(W' ⊗ I)
is negative definite, checked here by a dense `eigvalsh` in plain numpy. No
input may end `inconclusive`. The inputs were fixed before the search they test was written.
"""

import numpy as np
import pytest

from sepkit.linalg import DensityMatrix
from sepkit.statespec import parse_state_spec
from sepkit.symext import has_symmetric_extension, verify_extension

# the three separable searches of the symext_cold benchmark workload, seeds 1-10
COLD = [
    ("sep:2:2:3:518788", 2), ("sep:2:2:3:331873", 3), ("sep:2:3:4:362182", 2),
    ("sep:2:2:3:298949", 2), ("sep:2:2:3:894637", 3), ("sep:2:3:4:305406", 2),
    ("sep:2:2:3:978228", 2), ("sep:2:2:3:253253", 3), ("sep:2:3:4:579224", 2),
    ("sep:2:2:3:437593", 2), ("sep:2:2:3:979818", 3), ("sep:2:3:4:34164", 2),
    ("sep:2:2:3:132305", 2), ("sep:2:2:3:774204", 3), ("sep:2:3:4:778229", 2),
    ("sep:2:2:3:74158", 2), ("sep:2:2:3:568152", 3), ("sep:2:3:4:898214", 2),
    ("sep:2:2:3:870260", 2), ("sep:2:2:3:770141", 3), ("sep:2:3:4:875856", 2),
    ("sep:2:2:3:846858", 2), ("sep:2:2:3:168089", 3), ("sep:2:3:4:297540", 2),
    ("sep:2:2:3:253668", 2), ("sep:2:2:3:830267", 3), ("sep:2:3:4:416058", 2),
    ("sep:2:2:3:935077", 2), ("sep:2:2:3:152578", 3), ("sep:2:3:4:891736", 2),
]
# isotropic states (1 - t) I/d^2 + t Phi(d) with fidelity F = t + (1 - t)/d^2 are
# k-extendible iff F <= (d + k - 1)/(d k) (Johnson–Viola); isotropic:3:0.5 at k=3
# sits on that boundary, F = 5/9
EXTENDIBLE = [
    *COLD,
    ("tiles", 2),
    ("sep:2:3:3:12", 2),  # random_separable((2, 3), 3, 12)
    ("isotropic:2:0.3", 2),
    ("isotropic:3:0.2", 4),
    ("isotropic:3:0.5", 3),
    # no answer was known for these two Hilbert–Schmidt samples; the search's
    # witness, verified here, shows they extend
    ("random:3:3:1", 3),
    ("random:2:3:1", 5),
]
NOT_EXTENDIBLE = [
    ("isotropic:2:0.5", 5),
    ("isotropic:2:0.6", 3),
    ("isotropic:2:0.8", 2),
    ("isotropic:3:0.5", 4),
    ("maxent:2", 2),
    ("maxent:2", 3),
    ("maxent:2", 5),
]


def lift_dense(w: np.ndarray, dims: tuple[int, int], k: int) -> np.ndarray:
    """symmetrize_b(W ⊗ I) = (1/k) Σ_j W on A:B_j, from index arithmetic alone."""
    da, db = dims
    n = da * db**k
    big = np.kron(w, np.eye(db ** (k - 1)))
    index = np.arange(n).reshape([da] + [db] * k)
    swaps = [index.swapaxes(1, j).reshape(-1) for j in range(1, k + 1)]
    return sum(big[np.ix_(p, p)] for p in swaps) / k


def farkas_margins(w: np.ndarray, rho: DensityMatrix, k: int) -> tuple[float, float]:
    """(Tr(W rho), -λ_max(symmetrize_b(W ⊗ I))): both positive certify that rho has no k-extension."""
    assert np.allclose(w, w.conj().T, rtol=0, atol=1e-15)
    return float(np.trace(w @ rho.mat).real), float(-np.linalg.eigvalsh(lift_dense(w, rho.dims, k))[-1])


def check_farkas(w: np.ndarray, rho: DensityMatrix, k: int) -> None:
    inside, below = farkas_margins(w, rho, k)
    scale = 1e-3 * np.linalg.norm(w)
    assert inside >= scale and below >= scale, (inside, below, scale)


def check_witness(x: np.ndarray, rho: DensityMatrix, k: int) -> None:
    check = verify_extension(x, rho, k)
    assert check["symmetry_residual"] <= 1e-12
    assert check["marginal_residual"] <= 1e-7
    assert check["psd_margin"] >= -1e-12


@pytest.mark.parametrize("spec, k", EXTENDIBLE)
def test_extendible_inputs_end_feasible(spec, k):
    rho = parse_state_spec(spec).state
    res = has_symmetric_extension(rho, k)
    assert (res.status, res.stop_reason) == ("feasible", "marginal-within-tol")
    assert res.residual <= res.tol
    assert res.farkas_witness is None
    check_witness(res.witness_extension, rho, k)


@pytest.mark.parametrize("spec, k", NOT_EXTENDIBLE)
def test_other_inputs_end_certified(spec, k):
    rho = parse_state_spec(spec).state
    res = has_symmetric_extension(rho, k)
    assert res.status == "infeasible-evidence"
    assert res.witness_extension is None
    assert res.stop_reason in ("empty-face", "farkas")
    check_farkas(res.farkas_witness, rho, k)


# ---------------------------------------------------------- metamorphic checks


@pytest.mark.parametrize("spec, k", [("isotropic:2:0.8", 2), ("isotropic:2:0.6", 3)])
def test_farkas_witness_certifies_higher_levels(spec, k):
    # a state with no k-extension has no k'-extension for k' > k, and the same W' says so
    rho = parse_state_spec(spec).state
    res = has_symmetric_extension(rho, k)
    assert res.stop_reason == "farkas"
    for higher in (k + 1, k + 2):
        check_farkas(res.farkas_witness, rho, higher)


@pytest.mark.parametrize("spec, k", [("sep:2:2:3:331873", 3), ("isotropic:3:0.2", 4), ("sep:2:3:4:362182", 3)])
def test_traced_down_extension_is_one_level_lower(spec, k):
    rho = parse_state_spec(spec).state
    res = has_symmetric_extension(rho, k)
    assert res.status == "feasible"
    da, db = rho.dims
    m = da * db ** (k - 1)
    lower = np.einsum("aibi->ab", res.witness_extension.reshape(m, db, m, db))
    check_witness(lower, rho, k - 1)


def local_unitary(dims, seed):
    rng = np.random.default_rng(seed)
    us = []
    for d in dims:
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.kron(*us)


@pytest.mark.parametrize("spec, k", [("isotropic:2:0.8", 2), ("tiles", 2), ("sep:2:3:4:362182", 2)])
def test_outcome_invariant_under_local_unitaries_and_conjugation(spec, k):
    rho = parse_state_spec(spec).state
    u = local_unitary(rho.dims, 3)
    rotated = u @ rho.mat @ u.conj().T
    variants = [rho.mat, 0.5 * (rotated + rotated.conj().T), rho.mat.conj()]
    outcomes = set()
    for mat in variants:
        state = DensityMatrix(mat, rho.dims)
        res = has_symmetric_extension(state, k)
        if res.status == "feasible":
            check_witness(res.witness_extension, state, k)
        elif res.stop_reason == "farkas":
            check_farkas(res.farkas_witness, state, k)
        outcomes.add((res.status, res.stop_reason))
    assert len(outcomes) == 1, outcomes
