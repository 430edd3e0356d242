"""Symmetric-extension feasibility via Dykstra-corrected alternating projections.

A state rho on A:B has a symmetric extension to k copies when some PSD
operator X on A:B_1..B_k is invariant under every permutation of the B factors
and has Tr_{B_2..B_k} X = rho. Membership is decided here by alternating
projections between the affine set (permutation invariance + marginal
constraint, projected in closed form) and the PSD cone, with Dykstra's
correction on the cone side.

Every PSD extension of a rank-deficient rho has its range inside
S = ∩_j (supp rho)_{A B_j} ⊗ C^{dB^(k-1)}, so the cone side is the face
{V Z V† : Z PSD} with V an orthonormal basis of S (facial reduction). A
rank-deficient rho has no extension in the interior of the full cone, which
stalls the projections there; on the face they converge. An empty face (S = 0)
means no extension exists; it is reported as infeasible-evidence without
iterating. The support of rho and the null space that defines S are cut only
across an unambiguous spectral gap; failing that, as for full-rank rho, the
search runs on the full cone.

Beyond the empty face, infeasibility detection is heuristic: when the gap
between the two projections stabilizes above tolerance, the result is
reported as evidence, not proof; runs that neither converge nor stabilize are
inconclusive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, partial_trace, tensor
from .states import ProductEnsemble, check_total_dim

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
PLATEAU_WINDOW = 50
PLATEAU_REL = 1e-6
# spectral cut for the face: relative to the largest eigenvalue, an eigenvalue
# at or below SPECTRAL_ZERO is zero and one at or above SPECTRAL_SUPPORT is
# not; one in between makes the cut ambiguous and the search keeps the full cone
SPECTRAL_ZERO = 1e-10
SPECTRAL_SUPPORT = 1e-6


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """The k-copy extension search space for a given base state."""

    base: DensityMatrix
    copies: int

    def __post_init__(self) -> None:
        if self.copies < 2:
            raise ValueError("symmetric extension needs k >= 2 copies")
        check_total_dim(self.total_dim)

    @property
    def dim_a(self) -> int:
        return self.base.dims[0]

    @property
    def dim_b(self) -> int:
        return self.base.dims[1]

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b**self.copies


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # feasible | infeasible-evidence | inconclusive
    residual: float
    iterations: int
    witness_extension: np.ndarray | None = None
    tol: float = DEFAULT_TOL


def symmetrize_b(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Group average (1/k!) sum_pi P_pi X P_pi over permutations of the B factors.

    Computed by the coset recursion S_m = (1/m) sum_{j<=m} P_(j m) S_{m-1} P_(j m),
    which needs k(k-1)/2 transpositions instead of k! permutations.
    """
    x = np.asarray(x, dtype=complex)
    n = problem.total_dim
    if x.shape != (n, n):
        raise ValueError(f"operator shape {x.shape} does not match problem dim {n}")
    k = problem.copies
    # row factors A, B_1..B_k on axes 0..k, column factors on axes k+1..2k+1
    shape = [problem.dim_a] + [problem.dim_b] * k
    acc = x
    for m in range(2, k + 1):
        t = acc.reshape(shape + shape)
        terms = acc.copy()
        for j in range(1, m):
            axes = list(range(2 * k + 2))
            axes[j], axes[m], axes[k + 1 + j], axes[k + 1 + m] = m, j, k + 1 + m, k + 1 + j
            terms += t.transpose(axes).reshape(n, n)
        acc = terms / m
    return acc


def extend_separable(ens: ProductEnsemble, k: int) -> np.ndarray:
    """Explicit extension sum_i p_i sigma_i ⊗ tau_i^{⊗k} of a known-separable state."""
    if k < 2:
        raise ValueError("symmetric extension needs k >= 2 copies")
    da, db = ens.dims
    total = da * db**k
    check_total_dim(total)
    acc = np.zeros((total, total), dtype=complex)
    for w, ra, rb in ens.members:
        term = ra
        for _ in range(k):
            term = tensor(term, rb)
        acc += w * term
    return acc


def _trace_out_extra_copies(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Tr_{B_2..B_k} X, the marginal on A:B_1."""
    dims = (problem.dim_a * problem.dim_b, problem.dim_b ** (problem.copies - 1))
    return partial_trace(x, dims, "A")


def project_affine(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Orthogonal projection onto {X : symmetrize_b(X) = X, Tr_{B_2..B_k} X = rho}.

    Projects onto the symmetric subspace first, then applies the exact
    closed-form correction for the marginal constraint (the normal equation
    of the partial-trace map restricted to symmetric operators).
    """
    da, db, k = problem.dim_a, problem.dim_b, problem.copies
    xs = symmetrize_b(x, problem)
    defect = problem.base.mat - _trace_out_extra_copies(xs, problem)
    # G = alpha I + beta * db * P with P(Y) = Tr_B(Y) ⊗ I/db is the Gram map of
    # the constraint; invert it on the defect before lifting back.
    alpha = db ** (k - 1) / k
    beta = (k - 1) * db ** (k - 2) / k
    gamma = beta * db / (alpha + beta * db)
    p_defect = tensor(partial_trace(defect, (da, db), "A"), np.eye(db)) / db
    w = (defect - gamma * p_defect) / alpha
    lift = tensor(w, np.eye(db ** (k - 1)))
    return xs + symmetrize_b(lift, problem)


def project_psd(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (clip negative eigenvalues)."""
    x = 0.5 * (x + x.conj().T)
    vals, vecs = np.linalg.eigh(x)
    clipped = np.clip(vals, 0.0, None)
    y = (vecs * clipped) @ vecs.conj().T
    return 0.5 * (y + y.conj().T)


def project_face(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Nearest point of the face {V Z V† : Z PSD} in Frobenius norm, V = basis (orthonormal columns)."""
    y = basis @ project_psd(basis.conj().T @ x @ basis) @ basis.conj().T
    return 0.5 * (y + y.conj().T)


def _null_space(h: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the null space of PSD h, or None when no clear spectral gap bounds it."""
    vals, vecs = np.linalg.eigh(h)
    scale = vals[-1]
    zero = vals <= SPECTRAL_ZERO * scale
    if np.any(~zero & (vals < SPECTRAL_SUPPORT * scale)):
        return None
    return vecs[:, zero]


def support_face(problem: ExtensionProblem) -> np.ndarray | None:
    """Orthonormal basis of S = ∩_j (supp rho)_{A B_j} ⊗ C^{dB^(k-1)}, the range of every PSD extension.

    S is the null space of symmetrize_b((I - P_supp) ⊗ I) = (1/k) sum_j
    (I - P_supp)_{A B_j} ⊗ I. Returns None (search the full cone) when rho has
    full rank or when either spectral cut is ambiguous; a basis with no
    columns means the face is {0} and rho has no k-copy extension.
    """
    kernel = _null_space(problem.base.mat)
    if kernel is None or kernel.shape[1] == 0:
        return None
    lift = tensor(kernel @ kernel.conj().T, np.eye(problem.dim_b ** (problem.copies - 1)))
    return _null_space(symmetrize_b(lift, problem))


def verify_extension(x: np.ndarray, rho: DensityMatrix, k: int) -> dict[str, float]:
    """Residuals of the three extension constraint families for a candidate X."""
    problem = ExtensionProblem(rho, k)
    sym_res = float(np.linalg.norm(symmetrize_b(x, problem) - x))
    tr_res = float(np.linalg.norm(_trace_out_extra_copies(x, problem) - rho.mat))
    vals = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    return {
        "symmetry_residual": sym_res,
        "marginal_residual": tr_res,
        "psd_margin": float(vals[0]),
    }


def has_symmetric_extension(
    rho: DensityMatrix,
    k: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> FeasibilityResult:
    """Search for a k-copy symmetric extension of rho by alternating projections.

    The cone side is the face of rho's support (see support_face); for
    full-rank rho, or when the spectrum gives no clear cut, it is the full PSD
    cone. Returns infeasible-evidence after 0 iterations when the face is
    {0}, with the distance from the affine set to 0 as residual. Otherwise
    returns feasible with a witness once an iterate satisfies both constraint
    families within tol (the affine-exact iterate PSD to within tol, or the
    PSD-exact iterate matching the marginal to within tol); returns
    infeasible-evidence when the inter-set gap stabilizes above tol over a
    50-iteration window; otherwise inconclusive at max_iters. Raises
    ValueError unless tol is finite and > 0, max_iters >= 1 and start is finite.
    """
    # written to fail on a NaN tol
    if not (0.0 < tol < np.inf and max_iters >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iters >= 1, got {tol} and {max_iters}")
    if start is not None and not np.all(np.isfinite(start)):
        raise ValueError("start holds NaN or Inf")
    problem = ExtensionProblem(rho, k)
    face = support_face(problem)
    if face is not None and face.shape[1] == 0:
        n = problem.total_dim
        residual = float(np.linalg.norm(project_affine(np.zeros((n, n)), problem)))
        return FeasibilityResult("infeasible-evidence", residual, 0, None, tol)
    if start is None:
        rho_b = rho.marginal("B")
        x = rho.mat
        for _ in range(k - 1):
            x = tensor(x, rho_b)
        x = symmetrize_b(x, problem)
    else:
        x = np.asarray(start, dtype=complex)
        x = 0.5 * (x + x.conj().T)
    correction = np.zeros_like(x)
    window: deque[float] = deque(maxlen=PLATEAU_WINDOW)
    for it in range(1, max_iters + 1):
        y = project_affine(x, problem)
        z = y + correction
        x = project_psd(z) if face is None else project_face(z, face)
        correction = z - x
        gap = float(np.linalg.norm(x - y))
        window.append(gap)
        # y satisfies the affine constraints exactly; feasible once it is PSD
        # within tol. x is PSD and symmetric exactly (the face is invariant
        # under permutations of the B factors); feasible once its marginal
        # matches within tol.
        y_min = float(np.linalg.eigvalsh(y)[0])
        if y_min >= -tol:
            return FeasibilityResult("feasible", max(0.0, -y_min), it, y, tol)
        marg = float(np.linalg.norm(_trace_out_extra_copies(x, problem) - rho.mat))
        if marg <= tol:
            return FeasibilityResult("feasible", marg, it, x, tol)
        if it >= PLATEAU_WINDOW:
            lo, hi = min(window), max(window)
            if lo > tol and (hi - lo) <= PLATEAU_REL * hi:
                return FeasibilityResult("infeasible-evidence", gap, it, None, tol)
    return FeasibilityResult("inconclusive", gap, max_iters, None, tol)
