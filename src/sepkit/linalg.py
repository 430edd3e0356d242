"""Dense complex linear algebra and structural maps for bipartite operators.

Conventions, fixed project-wide: matrices are dense row-major numpy arrays,
zero-based indices, and the product basis is ordered |i>|j> <-> i * dim_b + j.
The structural maps and `DensityMatrix` also take a stack (..., d, d) of
matrices and act on each one; a single matrix is a stack with no leading axes.
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
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return a


def _check_square(m: np.ndarray, dims: Dims) -> None:
    da, db = dims
    if da < 1 or db < 1:
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    if m.shape[-2:] != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")


def _split(m: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """A checked operator or stack, and its matrices as one tensor (n, da, db, da, db)."""
    m = _as_complex(m)
    _check_square(m, dims)
    return m, m.reshape(-1, dims[0], dims[1], dims[0], dims[1])


def is_hermitian(m: np.ndarray) -> bool:
    """Hermitian within HERM_TOL * max(1, max|entry|); for a stack, every matrix must be."""
    m = _as_complex(m)
    scale = np.maximum(np.maximum.reduce(np.abs(m), axis=(-2, -1)), 1.0)
    skew = np.maximum.reduce(np.abs(m - m.conj().swapaxes(-2, -1)), axis=(-2, -1))
    return bool(np.all(skew <= HERM_TOL * scale))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; entry (i*db+k, j*dl+l) = a[i,j] * b[k,l].

    Leading stack axes broadcast, so stacks pair row by row. The same
    elementwise multiply np.kron runs, so bit-equal to it.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape[-2:]
    rb, cb = b.shape[-2:]
    m = a[..., :, None, :, None] * b[..., None, :, None, :]
    return m.reshape(m.shape[:-4] + (ra * rb, ca * cb))


def permute_systems(m: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """Reorder tensor factors of a square operator on a product space.

    ``dims[s]`` is the dimension of system ``s``; output system ``a`` is input
    system ``perm[a]`` (numpy transpose semantics). Applying ``perm`` followed
    by its inverse (``np.argsort(perm)``) restores the input.
    """
    m = _as_complex(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape[-2:] != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims product {total}")
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    lead = m.shape[:-2]
    t = m.reshape(lead + tuple(dims + dims))
    s = len(lead)
    axes = [*range(s)] + [s + perm[a] for a in range(n)] + [s + n + perm[a] for a in range(n)]
    return np.ascontiguousarray(t.transpose(axes).reshape(m.shape))


def partial_trace(m: np.ndarray, dims: Dims, keep: str) -> np.ndarray:
    """Trace out one tensor factor; ``keep`` selects the surviving one ('A' or 'B')."""
    m, t = _split(m, dims)
    if keep == "A":
        return np.ascontiguousarray(t.trace(0, 2, 4).reshape(m.shape[:-2] + (dims[0],) * 2))
    if keep == "B":
        return np.ascontiguousarray(t.trace(0, 1, 3).reshape(m.shape[:-2] + (dims[1],) * 2))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m: np.ndarray, dims: Dims) -> np.ndarray:
    """Transpose the second tensor factor: (M ⊗ N) -> M ⊗ N^T, extended linearly."""
    m, t = _split(m, dims)
    return np.ascontiguousarray(t.swapaxes(2, 4).reshape(m.shape))


def realign(m: np.ndarray, dims: Dims) -> np.ndarray:
    """Realignment map: M ⊗ N -> v(M) v(N)^T with v the column-stacking vec.

    Output is dim_a^2 x dim_b^2 and generally not Hermitian.
    """
    m, t = _split(m, dims)
    # R[j*da+i, l*db+k] = m[(i,k),(j,l)]
    r = t.transpose(0, 3, 1, 4, 2).reshape(m.shape[:-2] + (dims[0] ** 2, dims[1] ** 2))
    return np.ascontiguousarray(r)


def _hermitian(m: np.ndarray) -> np.ndarray:
    m = _as_complex(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in non-increasing order; their sum is the trace norm."""
    return np.linalg.svd(_as_complex(m), compute_uv=False)


def psd_floor(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of an ascending spectrum and its PSD tolerance, per spectrum of a stack.

    The one PSD rule used project-wide: a Hermitian operator is accepted as
    PSD when its smallest eigenvalue is >= -tol, tol = PSD_REL_TOL * max|eigenvalue|.
    """
    return vals[..., 0], PSD_REL_TOL * np.maximum.reduce(np.abs(vals), axis=-1)


def check_density(m: np.ndarray) -> np.ndarray:
    """Apply the density-matrix rules to one matrix or a stack (..., d, d).

    Hermitian within HERM_TOL, unit trace within TRACE_TOL and PSD by
    ``psd_floor``, each written to fail on NaN and Inf entries. Returns the
    ascending spectra the PSD check computed.
    """
    # Inf - Inf in the Hermiticity check is NaN, which fails it without a warning
    with np.errstate(invalid="ignore"):
        herm_ok = np.maximum.reduce(np.abs(m - m.conj().swapaxes(-2, -1)), axis=(-2, -1)) <= HERM_TOL
    tr = m.trace(0, -2, -1)
    tr_ok = abs(tr - 1.0) <= TRACE_TOL
    # ufunc reductions and count_nonzero cost less than the .max() and .all()
    # methods on the small matrices most states are
    if np.count_nonzero(~(herm_ok & tr_ok)):
        if np.count_nonzero(~herm_ok):
            raise ValueError("density matrix is not Hermitian within 1e-10")
        bad = complex(np.ravel(tr)[~np.ravel(tr_ok)][0])
        raise ValueError(f"density matrix trace {bad} is not 1 within 1e-10")
    vals = np.linalg.eigvalsh(m)
    low, tol = psd_floor(vals)
    psd_ok = low >= -tol
    if np.count_nonzero(~psd_ok):
        raise ValueError(f"density matrix has negative eigenvalue {np.ravel(low)[~np.ravel(psd_ok)][0]:.3e}")
    return vals


def psd_margin(m: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of a Hermitian matrix ("how positive" it is), per matrix of a stack."""
    return np.linalg.eigvalsh(_hermitian(m))[..., 0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A PSD, unit-trace Hermitian operator tagged with a bipartite split.

    ``dims = (dim_a, dim_b)``; the matrix is (dim_a*dim_b) x (dim_a*dim_b), or
    a stack (..., dim_a*dim_b, dim_a*dim_b) of such states checked by one
    batched call. Instances are immutable; all invariants are checked at
    construction. ``eigenvalues`` is the read-only ascending spectrum (one per
    state of a stack) computed by that check.
    """

    mat: np.ndarray
    dims: Dims
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = _as_complex(self.mat).copy()
        dims = (int(self.dims[0]), int(self.dims[1]))
        _check_square(m, dims)
        vals = check_density(m)
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
        """Read-only ascending spectra of rho_A and rho_B, computed once per state or stack."""
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

