"""Dense complex linear algebra and structural maps for bipartite operators.

Conventions, fixed project-wide: matrices are dense row-major numpy arrays,
zero-based indices, and the product basis is ordered |i>|j> <-> i * dim_b + j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_REL_TOL = 1e-9

Dims = tuple[int, int]


def _as_complex(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got ndim={a.ndim}")
    return a


def _check_square(m: np.ndarray, dims: Dims) -> None:
    da, db = dims
    if da < 1 or db < 1:
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")


def is_hermitian(m: np.ndarray) -> bool:
    m = _as_complex(m)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m - m.conj().T))) <= HERM_TOL * scale


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; entry (i*db+k, j*dl+l) = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def permute_systems(m: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """Reorder tensor factors of a square operator on a product space.

    ``dims[s]`` is the dimension of system ``s``; output system ``a`` is input
    system ``perm[a]`` (numpy transpose semantics). Applying ``perm`` followed
    by its inverse (``np.argsort(perm)``) restores the input.
    """
    m = _as_complex(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims product {total}")
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    axes = [perm[a] for a in range(n)] + [n + perm[a] for a in range(n)]
    new_dims = [dims[p] for p in perm]
    new_total = int(np.prod(new_dims))
    return np.ascontiguousarray(t.transpose(axes).reshape(new_total, new_total))


def partial_trace(m: np.ndarray, dims: Dims, keep: str) -> np.ndarray:
    """Trace out one tensor factor; ``keep`` selects the surviving one ('A' or 'B')."""
    m = _as_complex(m)
    _check_square(m, dims)
    da, db = dims
    t = m.reshape(da, db, da, db)
    if keep == "A":
        return np.ascontiguousarray(np.einsum("ikjk->ij", t))
    if keep == "B":
        return np.ascontiguousarray(np.einsum("kikj->ij", t))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m: np.ndarray, dims: Dims) -> np.ndarray:
    """Transpose the second tensor factor: (M ⊗ N) -> M ⊗ N^T, extended linearly."""
    m = _as_complex(m)
    _check_square(m, dims)
    da, db = dims
    t = m.reshape(da, db, da, db)
    return np.ascontiguousarray(t.transpose(0, 3, 2, 1).reshape(da * db, da * db))


def realign(m: np.ndarray, dims: Dims) -> np.ndarray:
    """Realignment map: M ⊗ N -> v(M) v(N)^T with v the column-stacking vec.

    Output is dim_a^2 x dim_b^2 and generally not Hermitian.
    """
    m = _as_complex(m)
    _check_square(m, dims)
    da, db = dims
    t = m.reshape(da, db, da, db)
    # R[j*da+i, l*db+k] = m[(i,k),(j,l)]
    return np.ascontiguousarray(t.transpose(2, 0, 3, 1).reshape(da * da, db * db))


def _hermitian(m: np.ndarray) -> np.ndarray:
    m = _as_complex(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in non-increasing order; their sum is the trace norm."""
    return np.linalg.svd(_as_complex(m), compute_uv=False)


def psd_floor(vals: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of an ascending spectrum and its PSD tolerance.

    The one PSD rule used project-wide: a Hermitian operator is accepted as
    PSD when its smallest eigenvalue is >= -tol, tol = PSD_REL_TOL * max|eigenvalue|.
    """
    return float(vals[0]), PSD_REL_TOL * float(np.max(np.abs(vals)))


def psd_margin(m: np.ndarray) -> float:
    """Minimum eigenvalue of a Hermitian matrix ("how positive" it is)."""
    return psd_floor(np.linalg.eigvalsh(_hermitian(m)))[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A PSD, unit-trace Hermitian operator tagged with a bipartite split.

    ``dims = (dim_a, dim_b)``; the matrix is (dim_a*dim_b) x (dim_a*dim_b).
    Instances are immutable; all invariants are checked at construction.
    ``eigenvalues`` is the read-only ascending spectrum computed by that check.
    """

    mat: np.ndarray
    dims: Dims
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = _as_complex(self.mat).copy()
        dims = (int(self.dims[0]), int(self.dims[1]))
        _check_square(m, dims)
        # each check is written to fail on NaN and Inf entries; Inf - Inf in
        # the Hermiticity check is NaN, which fails it without a warning
        with np.errstate(invalid="ignore"):
            herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= HERM_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")
        vals = np.linalg.eigvalsh(m)
        low, tol = psd_floor(vals)
        if not low >= -tol:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        m.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    @classmethod
    def from_vector(cls, psi: np.ndarray, dims: Dims) -> "DensityMatrix":
        """Pure state |psi><psi| from a unit vector."""
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {nrm} is not 1 within 1e-10")
        return cls(np.outer(psi, psi.conj()), dims)

    def marginal(self, keep: str) -> np.ndarray:
        return partial_trace(self.mat, self.dims, keep)

    @cached_property
    def marginal_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending spectra of rho_A and rho_B, computed once per state."""
        spectra = tuple(np.linalg.eigvalsh(self.marginal(keep)) for keep in "AB")
        for vals in spectra:
            vals.setflags(write=False)
        return spectra


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma; in [0, 1] for states."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    vals = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return 0.5 * float(np.sum(np.abs(vals)))


def pure_fidelity(sigma: DensityMatrix, psi: np.ndarray) -> float:
    """Fidelity sqrt(<psi|sigma|psi>) between a state and a unit vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm {nrm} is not 1 within 1e-10")
    if psi.shape[0] != sigma.dim:
        raise ValueError(f"vector length {psi.shape[0]} does not match state dim {sigma.dim}")
    overlap = float(np.real(psi.conj() @ sigma.mat @ psi))
    return float(np.sqrt(max(overlap, 0.0)))
