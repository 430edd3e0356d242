"""Overlaps of product unit vectors |a> ⊗ |b> with given vectors.

The maximum overlap with one vector is exact (a singular value). Whether a
set of product vectors is unextendible is decided exactly by a general-position
test on their local parts. The minimum over a span is only bounded from above,
by multi-start alternating optimization.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import Dims, singular_values
from .states import _haar_ket

# alternating-optimization sweeps per start, and the change in the objective
# that ends a start early
SPAN_ITERS = 500
SPAN_TOL = 1e-14
# a local-part determinant above this is nonzero; a second Schmidt
# coefficient below it is zero
GENERAL_POSITION_TOL = 1e-9


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
    """Heuristic minimum of sum_k |<psi_k|a ⊗ b>|^2 over product unit vectors.

    The value is the best of the starts, an upper bound on the true minimum,
    so it certifies nothing; upb_general_position decides unextendibility
    exactly. It is kept for the `screen` workload in perfbench/.
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


def upb_general_position(vectors: list[np.ndarray], dims: Dims) -> dict:
    """Exact unextendibility test for product vectors a_i ⊗ b_i (Bennett et al., quant-ph/9808030).

    Each vector, reshaped to d_a x d_b, must have rank 1; its leading singular
    vectors are its local parts. If every d_a of the a_i span C^{d_a}, every
    d_b of the b_i span C^{d_b}, and there are more than d_a + d_b - 2
    vectors, then no product vector is orthogonal to all of them: it could be
    orthogonal to at most d_a - 1 of the a_i and d_b - 1 of the b_i. Returns
    the smallest |det| over those subsets on each side, the largest second
    Schmidt coefficient and whether the test holds (`unextendible`).
    """
    da, db = dims
    mats = np.stack([np.asarray(v, dtype=complex).reshape(da, db) for v in vectors])
    u, s, vh = np.linalg.svd(mats)

    def min_det(parts: np.ndarray, d: int) -> float:
        subsets = list(combinations(range(len(parts)), d))
        return float(np.min(np.abs(np.linalg.det(parts[subsets])))) if subsets else 0.0

    det_a, det_b = min_det(u[:, :, 0], da), min_det(vh[:, 0, :], db)
    second = float(np.max(s[:, 1] / s[:, 0])) if min(da, db) > 1 else 0.0
    unextendible = (
        len(mats) > da + db - 2
        and min(det_a, det_b) > GENERAL_POSITION_TOL
        and second < GENERAL_POSITION_TOL
    )
    return {
        "min_abs_det_a": det_a,
        "min_abs_det_b": det_b,
        "max_second_schmidt": second,
        "tol": GENERAL_POSITION_TOL,
        "unextendible": unextendible,
    }
