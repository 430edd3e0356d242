"""Constructions the tests share that the library itself never calls."""

import json

import numpy as np

from sepkit.linalg import DensityMatrix
from sepkit.serialize import density_to_obj


def haar_unitary(d: int, seed) -> np.ndarray:
    """Seeded Haar-random unitary via QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def antisym_vector(i: int, j: int, d: int) -> np.ndarray:
    """(|i>|j> - |j>|i>)/sqrt(2) on a d x d bipartite space, for 0 <= i < j < d."""
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0 / np.sqrt(2.0)
    v[j * d + i] = -1.0 / np.sqrt(2.0)
    return v


def pure_fidelity(sigma: DensityMatrix, psi: np.ndarray) -> float:
    """Fidelity sqrt(<psi|sigma|psi>) between a state and a unit vector."""
    overlap = float(np.real(psi.conj() @ sigma.mat @ psi))
    return float(np.sqrt(max(overlap, 0.0)))


def save_density(path, rho: DensityMatrix) -> None:
    """Write rho as a one-line matrix JSON document, the form `file:` specs read."""
    with open(path, "w") as fh:
        json.dump(density_to_obj(rho), fh)
        fh.write("\n")
