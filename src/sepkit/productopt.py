"""Overlaps of product unit vectors |a> ⊗ |b> with given vectors.

The maximum overlap with one vector is exact (a singular value); the minimum
over a span is found by multi-start alternating optimization.
"""

from __future__ import annotations

import numpy as np

from .linalg import Dims, singular_values
from .states import _haar_ket

# alternating-optimization sweeps per start, and the change in the objective
# that ends a start early
SPAN_ITERS = 500
SPAN_TOL = 1e-14


def max_overlap_with_vector(psi: np.ndarray, dims: Dims) -> float:
    """Maximum of |<a ⊗ b|psi>|^2 over product unit vectors, computed exactly.

    It is the largest squared singular value of the d_a x d_b reshaping of
    psi (the top Schmidt coefficient); the top singular pair attains it.
    """
    da, db = dims
    return float(singular_values(np.asarray(psi, dtype=complex).reshape(da, db))[0] ** 2)


def min_overlap_with_span(
    vectors: list[np.ndarray],
    dims: Dims,
    starts: int = 64,
    seed: int = 0,
) -> float:
    """Minimize sum_k |<psi_k|a ⊗ b>|^2 over product unit vectors.

    A strictly positive minimum certifies that no product vector lies in the
    orthocomplement of span{psi_k} (the unextendibility certificate).
    """
    da, db = dims
    proj = np.zeros((da * db, da * db), dtype=complex)
    for psi in vectors:
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        proj += np.outer(psi, psi.conj())
    t = proj.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(max(1, starts)):
        b = _haar_ket(rng, db)
        val = np.inf
        for _ in range(SPAN_ITERS):
            a_mat = np.einsum("ikjl,k,l->ij", t, b.conj(), b)
            vals, vecs = np.linalg.eigh(a_mat)
            a = vecs[:, 0]
            b_mat = np.einsum("ikjl,i,j->kl", t, a.conj(), a)
            vals, vecs = np.linalg.eigh(b_mat)
            b = vecs[:, 0]
            new = float(vals[0].real)
            if abs(val - new) <= SPAN_TOL:
                val = new
                break
            val = new
        best = min(best, val)
    return float(max(best, 0.0))
