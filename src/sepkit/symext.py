"""Symmetric-extension feasibility by a dual quasi-Newton search with Farkas certificates.

A state rho on A:B has a symmetric extension to k copies when some PSD
operator X on A:B_1..B_k is invariant under every permutation of the B factors
and has Tr_{B_2..B_k} X = rho. Every PSD extension of a rank-deficient rho has
its range inside S = ∩_j (supp rho)_{A B_j} ⊗ C^{dB^(k-1)}, so X is sought on
the face {V Z V† : Z PSD}, V an orthonormal basis of S (facial reduction). An
empty face (S = 0) means no extension exists. The support of rho and the null
space that defines S are cut only across an unambiguous spectral gap; failing
that, as for full-rank rho, the search runs on the full cone.

Block coordinates. A permutation-invariant X is block diagonal by Schur–Weyl
duality, X = ⊕_λ X_λ ⊗ I_{f_λ}, over the Young diagrams λ ⊢ k with at most dB
rows: X_λ acts on A ⊗ Q_λ, Q_λ the U(dB) irrep of dimension m_λ, and f_λ is the
dimension of the S_k irrep. The search stores only the blocks
X_λ = V_λ† X V_λ, V_λ = I_A ⊗ U_λ, where U_λ is an isometry onto one copy of
Q_λ inside (C^dB)^{⊗k}: the joint eigenspace of the Jucys–Murphy elements
X_j = Σ_{i<j} (i j) at the contents of λ's row-reading tableau, cut one factor
at a time (the eigenvalues are integers, so every cut has a gap of 1). The map
W -> symmetrize_b(W ⊗ I) from A:B operators to blocks (lift) and its adjoint,
the marginal Tr_{B_2..B_k}, pass through the B factor only, as products with
the sparse matrix H_λ[(b,b'),(p,q)] = (1/k) Σ_j (U_λ† E_bb' on B_j U_λ)[p,q].
Norms weight a block by f_λ. The face S is cut per block too.

The search (Malick's dual method for semidefinite least squares). For a
Hermitian W on A:B let X(W) be the blockwise projection of X_0 + lift(W) onto
the face (X_0 = 0 unless a start is given). L-BFGS with Armijo backtracking
minimizes the convex dual F(W) = ½‖X(W)‖² − Re Tr(W rho), whose gradient is
the marginal defect Tr_{B_2..B_k} X(W) − rho. X(W) is PSD on the face and
permutation-invariant by construction, so it is an extension as soon as that
defect is within tol. A rho with no extension makes F unbounded below, and W
runs off along a Doherty–Parrilo–Spedalieri witness: once the largest
eigenvalue μ of the face-compressed lift(W) falls below ℓ − tol‖W‖, with
ℓ = Re Tr(W rho), the shifted W' = W/‖W‖ − (ℓ+μ)/2 · I (ℓ, μ of W/‖W‖;
lift(I) = I) has Tr(W' rho) > tol/2 while symmetrize_b(W' ⊗ I) has no
eigenvalue above −tol/2 on the face. Every extension X would give
Tr(W' rho) = Tr(symmetrize_b(W' ⊗ I) X) < 0. Dense dA·dB^k operators appear
only for a given start and in a returned extension, expanded from its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .linalg import DensityMatrix, partial_trace, tensor
from .states import ProductEnsemble, _check_count, check_total_dim

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
# L-BFGS keeps this many (step, gradient change) pairs
LBFGS_MEMORY = 30
# Armijo sufficient-decrease fraction of the predicted decrease
ARMIJO = 1e-4
# spectral cut for the face: relative to the largest eigenvalue, an eigenvalue
# at or below SPECTRAL_ZERO is zero and one at or above SPECTRAL_SUPPORT is
# not; one in between makes the cut ambiguous and the search keeps the full cone
SPECTRAL_ZERO = 1e-10
SPECTRAL_SUPPORT = 1e-6
# schur_weyl_blocks keeps the data of up to 8 (dB, k) whose isometries hold
# at most this many complex numbers (16 MB); larger ones are built per search
CACHE_ENTRIES = 2**20


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """The k-copy extension search space for a given base state."""

    base: DensityMatrix
    copies: int

    def __post_init__(self) -> None:
        if _check_count("copies", self.copies) < 2:
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
    # marginal-within-tol | farkas | empty-face | max-iters
    stop_reason: str = "max-iters"
    # (block size dA·m_λ, multiplicity f_λ, face dimension) per Young diagram
    blocks: tuple[tuple[int, int, int], ...] = ()
    # on a farkas stop, a Hermitian W' on A:B with Tr(W' rho) > 0 and
    # symmetrize_b(W' ⊗ I) negative definite on the searched face
    farkas_witness: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class _SparseMap:
    """x -> x @ M for a sparse matrix M, held as its nonzero entries grouped by column."""

    rows: np.ndarray  # row of each entry
    vals: np.ndarray
    starts: np.ndarray  # first entry of each column that has one
    cols: np.ndarray  # those columns
    n_cols: int

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_cols: int) -> _SparseMap:
        order = np.argsort(cols, kind="stable")
        targets, starts = np.unique(cols[order], return_index=True)
        arrays = (rows[order], vals[order], starts, targets)
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays, n_cols)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], self.n_cols), dtype=complex)
        out[:, self.cols] = np.add.reduceat(x[:, self.rows] * self.vals, self.starts, axis=1)
        return out


@dataclass(frozen=True, eq=False)
class SchurWeylBlocks:
    """Schur–Weyl data of (C^dB)^{⊗k}, one entry per Young diagram λ ⊢ k with at most dB rows.

    isometries[i] (dB^k x m_λ) spans one copy of Q_λ; multiplicities[i]
    is f_λ. A permutation-invariant X on A ⊗ B^{⊗k} is stored stacked: a
    (dA^2, sum m_λ^2) array whose columns offsets[i]:offsets[i+1] hold
    X_λ[(a,p),(a',q)] at [(a,a'),(p,q)]. An operator w on A:B regrouped the
    same way, w[(a,b),(a',b')] at [(a,a'),(b,b')], lifts to the stack of
    symmetrize_b(w ⊗ I) as lift(w), and the marginal Tr_{B_2..B_k} X of a
    stack, regrouped, is marginal(stack). All arrays are read-only.
    """

    multiplicities: tuple[int, ...]
    isometries: tuple[np.ndarray, ...]
    offsets: tuple[int, ...]
    lift: _SparseMap  # w -> w @ H, H = [H_λ ...] (dB^2, sum m^2)
    marginal: _SparseMap  # stack -> stack @ (H f_λ)†
    weights: np.ndarray  # sqrt(f_λ) per stacked column: ||X||_F = ||stack * weights||_F

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        return tuple(u.shape[1] for u in self.isometries)


def young_diagrams(db: int, k: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(λ, f_λ, m_λ) for every λ ⊢ k with at most db rows, rows in non-increasing order.

    f_λ (S_k irrep) by the hook-length formula, m_λ (U(db) irrep) by the
    hook-content formula; sum_λ f_λ m_λ = db^k.
    """
    shapes: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], rest: int) -> None:
        if rest == 0:
            shapes.append(prefix)
        elif len(prefix) < db:
            for part in range(min(rest, prefix[-1] if prefix else rest), 0, -1):
                grow(prefix + (part,), rest - part)

    grow((), k)
    out = []
    for lam in shapes:
        boxes = [(r, c) for r, row in enumerate(lam) for c in range(row)]
        col_len = [sum(1 for row in lam if row > c) for c in range(lam[0])]
        hooks = math.prod(lam[r] - c + col_len[c] - r - 1 for r, c in boxes)
        contents = math.prod(db + c - r for r, c in boxes)
        out.append((lam, math.factorial(k) // hooks, contents // hooks))
    return out


def _jucys_murphy_isometry(shape: tuple[int, ...], db: int) -> np.ndarray:
    """Orthonormal basis of Q_λ ⊗ e_T in (C^db)^{⊗k}, T the row-reading tableau of shape λ.

    W_1 = C^db; W_j is the eigenspace of X_j = Σ_{i<j} (i j) on W_{j-1} ⊗ C^db
    at the content of the box holding j in T. X_j keeps the letter counts of
    a basis state, so each cut runs per count vector and every column lies
    in one: the isometry is as sparse as the weight spaces of Q_λ, and so
    are the blocks of operators that conserve the counts.
    """
    contents = [c - r for r, row in enumerate(shape) for c in range(row)]
    # the letters of a column's basis states as a sorted tuple: its counts
    u, counts = np.eye(db, dtype=complex), [(b,) for b in range(db)]
    for j in range(1, len(contents)):
        y = np.kron(u, np.eye(db))
        t = y.reshape([db] * (j + 1) + [-1])
        xy = sum(np.swapaxes(t, i, j) for i in range(j)).reshape(y.shape)
        sectors: dict[tuple[int, ...], list[int]] = {}
        for col, w in enumerate(tuple(sorted(w + (b,))) for w in counts for b in range(db)):
            sectors.setdefault(w, []).append(col)
        cols, counts = [], []
        for w, idx in sectors.items():
            vals, vecs = np.linalg.eigh(y[:, idx].conj().T @ xy[:, idx])
            cut = vecs[:, np.abs(vals - contents[j]) < 0.5]
            cols.append(y[:, idx] @ cut)
            counts += [w] * cut.shape[1]
        u = np.hstack(cols)
    return u


def _b_coupling(u: np.ndarray, db: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows (b,b'), columns (p,q), values) of H[(b,b'),(p,q)] = (1/k) Σ_j (U† E_bb' on B_j U)[p,q].

    Every column of U lies in one letter-count sector, so an entry vanishes
    unless p's sector holds b and q's holds b'; each (b, b') block is
    computed over those columns only.
    """
    m = u.shape[1]
    t = u.reshape([db] * k + [m])
    # per position j, U's rows with letter b there: (db, db^(k-1), m)
    slices = [np.moveaxis(t, j, 0).reshape(db, -1, m) for j in range(k)]
    holds = [np.flatnonzero(np.any([s[b] for s in slices], axis=(0, 1))) for b in range(db)]
    rows, cols, vals = [], [], []
    for b in range(db):
        for b2 in range(db):
            p, q = holds[b], holds[b2]
            blk = sum(s[b][:, p].conj().T @ s[b2][:, q] for s in slices) / k
            i, j = np.nonzero(blk)
            rows.append(np.full(i.size, b * db + b2))
            cols.append(p[i] * m + q[j])
            vals.append(blk[i, j])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def schur_weyl_blocks(db: int, k: int) -> SchurWeylBlocks:
    """The block data for dB = db and k copies, built on first use.

    Cached when its isometries hold at most CACHE_ENTRIES numbers.
    """
    if db**k * sum(m for _, _, m in young_diagrams(db, k)) > CACHE_ENTRIES:
        return _build_blocks(db, k)
    return _cached_blocks(db, k)


def _build_blocks(db: int, k: int) -> SchurWeylBlocks:
    diagrams = young_diagrams(db, k)
    if sum(f * m for _, f, m in diagrams) != db**k:
        raise RuntimeError(f"Young diagram dimensions do not add up to {db}^{k}")
    isometries = []
    for lam, _, m in diagrams:
        u = _jucys_murphy_isometry(lam, db)
        if u.shape[1] != m:
            raise RuntimeError(f"Jucys–Murphy cut for {lam} has {u.shape[1]} columns, expected {m}")
        isometries.append(u)
    mults = [f for _, f, _ in diagrams]
    sizes = [m * m for _, _, m in diagrams]
    offsets = [int(o) for o in np.cumsum([0, *sizes])]
    entries = [_b_coupling(u, db, k) for u in isometries]
    rows = np.concatenate([r for r, _, _ in entries])
    cols = np.concatenate([c + lo for (_, c, _), lo in zip(entries, offsets)])
    vals = np.concatenate([v for _, _, v in entries])
    f = np.repeat(mults, sizes)
    sw = SchurWeylBlocks(
        multiplicities=tuple(mults),
        isometries=tuple(isometries),
        offsets=tuple(offsets),
        lift=_SparseMap.from_entries(rows, cols, vals, offsets[-1]),
        marginal=_SparseMap.from_entries(cols, rows, f[cols] * vals.conj(), db * db),
        weights=np.sqrt(f),
    )
    for a in (sw.weights, *sw.isometries):
        a.flags.writeable = False
    return sw


_cached_blocks = lru_cache(maxsize=8)(_build_blocks)


def _regroup(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """X[(i,p),(i',q)] -> R[(i,i'),(p,q)] for X on C^d1 ⊗ C^d2."""
    return x.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def _ungroup(r: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Inverse of _regroup: R[(i,i'),(p,q)] -> X[(i,p),(i',q)]."""
    return r.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def _compress(x: np.ndarray, sw: SchurWeylBlocks, da: int) -> np.ndarray:
    """The stacked blocks V_λ† X V_λ of a permutation-invariant X."""
    nb = x.shape[0] // da
    blocks = []
    for u in sw.isometries:
        m = u.shape[1]
        blk = u.conj().T @ (x.reshape(-1, nb) @ u).reshape(da, nb, da * m)
        blocks.append(_regroup(blk.reshape(da * m, da * m), da, m))
    return np.hstack(blocks)


def _expand(s: np.ndarray, sw: SchurWeylBlocks, problem: ExtensionProblem) -> np.ndarray:
    """The dense operator symmetrize_b(Σ_λ f_λ V_λ X_λ V_λ†) = ⊕_λ X_λ ⊗ I_{f_λ} of stacked blocks."""
    da, n = problem.dim_a, problem.total_dim
    acc = np.zeros((da, n // da, n), dtype=complex)
    for f, u, lo, hi in zip(sw.multiplicities, sw.isometries, sw.offsets, sw.offsets[1:]):
        m = u.shape[1]
        half = (_ungroup(s[:, lo:hi], da, m).reshape(-1, m) @ u.conj().T).reshape(da, m, n)
        acc += f * (u @ half)
    return symmetrize_b(acc.reshape(n, n), problem)


def symmetrize_b(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Group average (1/k!) sum_pi P_pi X P_pi over permutations of the B factors.

    Computed by the coset recursion S_m = (1/m) sum_{j<=m} P_(j m) S_{m-1} P_(j m),
    which needs k(k-1)/2 transpositions instead of k! permutations. A stack
    (..., n, n) is averaged operator by operator.
    """
    x = np.asarray(x, dtype=complex)
    n = problem.total_dim
    if x.shape[-2:] != (n, n):
        raise ValueError(f"operator shape {x.shape} does not match problem dim {n}")
    acc = x
    for m in range(2, problem.copies + 1):
        terms = acc.copy()
        for j in range(1, m):
            terms += _swap_b(acc, problem, j, m)
        terms /= m
        acc = terms
    return acc


def _swap_b(x: np.ndarray, problem: ExtensionProblem, i: int, j: int) -> np.ndarray:
    """P X P for P the swap of the factors B_i and B_j (1-based), per operator of a stack."""
    k = problem.copies
    s = x.ndim - 2
    # row factors A, B_1..B_k on axes s..s+k, column factors on axes s+k+1..s+2k+1
    shape = (problem.dim_a,) + (problem.dim_b,) * k
    axes = list(range(s + 2 * k + 2))
    for a, b in ((s + i, s + j), (s + k + 1 + i, s + k + 1 + j)):
        axes[a], axes[b] = b, a
    return x.reshape(x.shape[:-2] + shape + shape).transpose(axes).reshape(x.shape)


def extend_separable(ens: ProductEnsemble, k: int) -> np.ndarray:
    """Explicit extension sum_i p_i sigma_i ⊗ tau_i^{⊗k} of a known-separable state (a stack for a stack)."""
    if _check_count("k", k) < 2:
        raise ValueError("symmetric extension needs k >= 2 copies")
    da, db = ens.dims
    total = da * db**k
    check_total_dim(total)
    acc = np.zeros(ens.weights.shape[:-1] + (total, total), dtype=complex)
    for i in range(ens.weights.shape[-1]):
        term = ens.a[..., i, :, :]
        for _ in range(k):
            term = tensor(term, ens.b[..., i, :, :])
        acc += ens.weights[..., i, None, None] * term
    return acc


def _trace_out_extra_copies(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Tr_{B_2..B_k} X, the marginal on A:B_1."""
    dims = (problem.dim_a * problem.dim_b, problem.dim_b ** (problem.copies - 1))
    return partial_trace(x, dims, "A")


def project_affine(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Orthogonal projection onto {X : symmetrize_b(X) = X, Tr_{B_2..B_k} X = rho}.

    Projects onto the symmetric subspace first, then applies the exact
    closed-form correction for the marginal constraint (the normal equation
    of the partial-trace map restricted to symmetric operators). Dense; a
    reference for the block maps, not used by the search.
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


def _null_spaces(hs: list[np.ndarray]) -> list[np.ndarray] | None:
    """Orthonormal null-space bases of the PSD hs cut at their largest eigenvalue, or None when no clear gap bounds them."""
    spectra = [np.linalg.eigh(h) for h in hs]
    scale = max(vals[-1] for vals, _ in spectra)
    bases = []
    for vals, vecs in spectra:
        zero = vals <= SPECTRAL_ZERO * scale
        if np.any(~zero & (vals < SPECTRAL_SUPPORT * scale)):
            return None
        bases.append(vecs[:, zero])
    return bases


def support_face(problem: ExtensionProblem, sw: SchurWeylBlocks) -> list[np.ndarray] | None:
    """Per block, an orthonormal basis of S_λ, S = ⊕_λ S_λ ⊗ C^{f_λ} = ∩_j (supp rho)_{A B_j} ⊗ C^{dB^(k-1)}.

    S holds the range of every PSD extension. It is the null space of
    symmetrize_b(P_ker ⊗ I), P_ker the projector onto rho's kernel, whose
    blocks are sw.lift(P_ker regrouped). Returns None (search the full cone)
    when rho has full rank or when either spectral cut is ambiguous; no
    columns in every block means the face is {0} and rho has no extension.
    """
    da, db = problem.dim_a, problem.dim_b
    kernel = _null_spaces([problem.base.mat])
    if kernel is None or kernel[0].shape[1] == 0:
        return None
    lifted = sw.lift(_regroup(kernel[0] @ kernel[0].conj().T, da, db))
    return _null_spaces(
        [_ungroup(lifted[:, lo:hi], da, m) for lo, hi, m in zip(sw.offsets, sw.offsets[1:], sw.irrep_dims)]
    )


def verify_extension(x: np.ndarray, rho: DensityMatrix, k: int) -> dict:
    """Residuals of the three extension constraint families for a candidate X.

    For a stack of candidates and a stack of states, each residual is an
    array with one entry per pair.
    """
    problem = ExtensionProblem(rho, k)
    sym_res = np.linalg.norm(symmetrize_b(x, problem) - x, axis=(-2, -1))
    tr_res = np.linalg.norm(_trace_out_extra_copies(x, problem) - rho.mat, axis=(-2, -1))
    vals = np.linalg.eigvalsh(0.5 * (x + x.conj().swapaxes(-2, -1)))
    return {
        "symmetry_residual": sym_res,
        "marginal_residual": tr_res,
        "psd_margin": vals[..., 0],
    }


def _project_blocks(z: np.ndarray, sw: SchurWeylBlocks, faces: list, da: int) -> tuple[np.ndarray, float]:
    """The nearest point of the face to the stacked blocks z, and the largest eigenvalue of z compressed to the face."""
    x = np.zeros_like(z)
    top = -np.inf
    for lo, hi, m, basis in zip(sw.offsets, sw.offsets[1:], sw.irrep_dims, faces):
        # a block whose face is {0} stays 0
        if basis is not None and not basis.shape[1]:
            continue
        blk = _ungroup(z[:, lo:hi], da, m)
        if basis is not None:
            blk = basis.conj().T @ blk @ basis
        vals, vecs = np.linalg.eigh(blk)
        top = max(top, vals[-1])
        # a PSD block is kept as it is, free of the rebuild's rounding
        if vals[0] < 0.0:
            blk = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        if basis is not None:
            blk = basis @ blk @ basis.conj().T
        x[:, lo:hi] = _regroup(0.5 * (blk + blk.conj().T), da, m)
    return x, top


def _lbfgs_step(grad: np.ndarray, pairs: list, scale: float) -> np.ndarray:
    """-H grad for the L-BFGS inverse-Hessian estimate H of the (step, gradient change, curvature) pairs.

    H starts as scale·I without pairs and as the last pair's curvature ratio
    with them (Nocedal–Wright, Algorithm 7.4), in the real inner product Re⟨·,·⟩.
    """
    q = -grad
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(np.vdot(s, q).real / sy)
        q = q - alphas[-1] * y
    if pairs:
        scale = pairs[-1][2] / np.vdot(pairs[-1][1], pairs[-1][1]).real
    q = scale * q
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - np.vdot(y, q).real / sy) * s
    return q


def has_symmetric_extension(
    rho: DensityMatrix,
    k: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> FeasibilityResult:
    """Search for a k-copy symmetric extension of rho by the dual search of the module docstring.

    The search runs on the face of rho's support (see support_face), or on the
    full PSD cone for full-rank rho or an ambiguous spectral cut, from X_0 = 0
    or from the given start symmetrized over the B factors. Each iteration
    evaluates X(W) once, line-search trials included. It ends (status,
    stop_reason):
    - infeasible-evidence, empty-face: the face is {0}, after 0 iterations;
    - feasible, marginal-within-tol: witness_extension X(W) has its marginal
      within tol of rho;
    - infeasible-evidence, farkas: farkas_witness W' has Tr(W' rho) and
      -λ_max(symmetrize_b(W' ⊗ I)) above tol/2. On a face cut from rho's
      spectrum, λ_max is taken on that face, whose dimensions blocks reports;
    - inconclusive, max-iters.
    residual is ‖rho − Tr_{B_2..B_k} X(W)‖_F at the last X(W) (‖rho‖_F on the
    empty face); blocks lists the block size, multiplicity and face dimension
    searched per Young diagram. Raises ValueError unless k >= 2 and
    max_iters >= 1 are integers, tol is finite and > 0, and start is finite
    with shape (dA·dB^k, dA·dB^k).
    """
    k = _check_count("k", k)
    # written to fail on a NaN or non-real tol; a max_iters of another type
    # goes on to _check_count
    too_few = isinstance(max_iters, Integral) and max_iters < 1
    if too_few or not (isinstance(tol, Real) and 0.0 < tol < np.inf):
        raise ValueError(f"need a finite tol > 0 and max_iters >= 1, got {tol} and {max_iters}")
    max_iters = _check_count("max_iters", max_iters)
    if start is not None and not np.all(np.isfinite(start)):
        raise ValueError("start holds NaN or Inf")
    problem = ExtensionProblem(rho, k)
    n, da, db = problem.total_dim, problem.dim_a, problem.dim_b
    if start is not None and np.shape(start) != (n, n):
        raise ValueError(f"start has shape {np.shape(start)}, expected {(n, n)}")
    sw = schur_weyl_blocks(db, k)
    # per block, the face basis, or None on the full cone
    faces = support_face(problem, sw) or [None] * len(sw.irrep_dims)
    blocks = tuple(
        (da * m, f, da * m if b is None else b.shape[1]) for m, f, b in zip(sw.irrep_dims, sw.multiplicities, faces)
    )
    if not any(face_dim for _, _, face_dim in blocks):
        return FeasibilityResult(
            "infeasible-evidence", float(np.linalg.norm(rho.mat)), 0, None, tol, "empty-face", blocks
        )
    x0 = 0.0
    if start is not None:
        x0 = _compress(symmetrize_b(0.5 * (start + np.conj(start).T), problem), sw, da)
    rho_r = _regroup(rho.mat, da, db)
    # away from the cone's boundary F is quadratic with largest curvature dB^(k-1)
    scale = 1.0 / db ** (k - 1)
    w = step = last_grad = np.zeros_like(rho_r)
    last, slope, t, pairs = np.inf, 0.0, 1.0, []
    for it in range(1, max_iters + 1):
        trial = w + t * step
        x, top = _project_blocks(x0 + sw.lift(trial), sw, faces, da)
        grad = sw.marginal(x) - rho_r
        residual = float(np.linalg.norm(grad))
        if residual <= tol:
            return FeasibilityResult(
                "feasible", residual, it, _expand(x, sw, problem), tol, "marginal-within-tol", blocks
            )
        ell = np.vdot(trial, rho_r).real
        # with a start, X(W) is not the projection of lift(W) alone
        mu = top if start is None else _project_blocks(sw.lift(trial), sw, faces, da)[1]
        # both margins of W' are then above tol/2, far from rounding
        if mu < ell - tol * np.linalg.norm(trial):
            farkas = _ungroup(trial, da, db)
            farkas = 0.5 * (farkas + farkas.conj().T) - 0.5 * (ell + mu) * np.eye(da * db)
            return FeasibilityResult(
                "infeasible-evidence", residual, it, None, tol, "farkas", blocks, farkas / np.linalg.norm(trial)
            )
        value = 0.5 * float(np.linalg.norm(x * sw.weights)) ** 2 - ell
        if value > last + ARMIJO * t * slope:
            t /= 2
            continue
        s_step, y_step = trial - w, grad - last_grad
        curvature = np.vdot(s_step, y_step).real
        if curvature > 0.0:
            pairs = [*pairs[1 - LBFGS_MEMORY :], (s_step, y_step, curvature)]
        w, last, last_grad = trial, value, grad
        step = _lbfgs_step(grad, pairs, scale)
        slope, t = np.vdot(grad, step).real, 1.0
    return FeasibilityResult("inconclusive", residual, max_iters, None, tol, "max-iters", blocks)
