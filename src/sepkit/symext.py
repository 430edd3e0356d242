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

Block coordinates. Every iterate is invariant under permutations of the B
factors, so by Schur–Weyl duality it is block diagonal,
X = ⊕_λ X_λ ⊗ I_{f_λ}, over the Young diagrams λ ⊢ k with at most dB rows:
X_λ acts on A ⊗ Q_λ, Q_λ the U(dB) irrep of dimension m_λ, and f_λ is the
dimension of the S_k irrep. The search stores only the blocks
X_λ = V_λ† X V_λ, V_λ = I_A ⊗ U_λ, where U_λ is an isometry onto one copy of
Q_λ inside (C^dB)^{⊗k}: the joint eigenspace of the Jucys–Murphy elements
X_j = Σ_{i<j} (i j) at the contents of λ's row-reading tableau, cut one factor
at a time (the eigenvalues are integers, so every cut has a gap of 1). The PSD
or face projection, the stop-check spectrum and the Frobenius gap split over
the blocks, a block of multiplicity f counting f times in the norm; the affine
step and the marginal pass through the B factor only, as products with the
sparse matrix H_λ[(b,b'),(p,q)] = (1/k) Σ_j (U_λ† E_bb' on B_j U_λ)[p,q],
which is nonzero only where the letter counts of p and q differ by b and b'.
The face S is cut per block too. Dense dA·dB^k operators appear only at the
start and in a returned witness. The default start symmetrize_b(rho ⊗
rho_B^{⊗(k-1)}) is built as the mean of the product's k swaps of B_1 with
B_j; a given start goes through symmetrize_b. Either is compressed to blocks
once. A witness is expanded from its blocks and symmetrized, since reports
carry it dense. The stop check takes block spectra only until one block falls
below -tol. Iterates, stop tests and outcomes are those of the dense search;
only rounding differs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

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
# schur_weyl_blocks keeps the data of up to 8 (dB, k) whose isometries hold
# at most this many complex numbers (16 MB); larger ones are built per search
CACHE_ENTRIES = 2**20


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
    # psd-within-tol | marginal-within-tol | plateau | empty-face | max-iters
    stop_reason: str = "max-iters"
    # (block size dA·m_λ, multiplicity f_λ, face dimension) per Young diagram
    blocks: tuple[tuple[int, int, int], ...] = ()


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


def _gram_inverse(db: int, k: int) -> np.ndarray:
    """Inverse of the marginal constraint's Gram map, acting on regrouped A:B operators from the right.

    On symmetric operators the Gram map is alpha I + beta * db * P with
    P(Y) = Tr_B(Y) ⊗ I/db.
    """
    alpha = db ** (k - 1) / k
    beta = (k - 1) * db ** (k - 2) / k
    gamma = beta * db / (alpha + beta * db)
    e = np.eye(db).reshape(-1)
    return (np.eye(db * db) - gamma / db * np.outer(e, e)) / alpha


def symmetrize_b(x: np.ndarray, problem: ExtensionProblem) -> np.ndarray:
    """Group average (1/k!) sum_pi P_pi X P_pi over permutations of the B factors.

    Computed by the coset recursion S_m = (1/m) sum_{j<=m} P_(j m) S_{m-1} P_(j m),
    which needs k(k-1)/2 transpositions instead of k! permutations.
    """
    x = np.asarray(x, dtype=complex)
    n = problem.total_dim
    if x.shape != (n, n):
        raise ValueError(f"operator shape {x.shape} does not match problem dim {n}")
    acc = x
    for m in range(2, problem.copies + 1):
        terms = acc.copy()
        for j in range(1, m):
            terms += _swap_b(acc, problem, j, m)
        acc = terms / m
    return acc


def _swap_b(x: np.ndarray, problem: ExtensionProblem, i: int, j: int) -> np.ndarray:
    """P X P for P the swap of the factors B_i and B_j (1-based)."""
    k = problem.copies
    # row factors A, B_1..B_k on axes 0..k, column factors on axes k+1..2k+1
    shape = [problem.dim_a] + [problem.dim_b] * k
    axes = list(range(2 * k + 2))
    axes[i], axes[j], axes[k + 1 + i], axes[k + 1 + j] = j, i, k + 1 + j, k + 1 + i
    return x.reshape(shape + shape).transpose(axes).reshape(x.shape)


def _product_start(problem: ExtensionProblem) -> np.ndarray:
    """symmetrize_b(rho ⊗ rho_B^{⊗(k-1)}) as (1/k) Σ_j rho on A:B_j ⊗ rho_B on the other copies.

    The product's orbit under the B permutations is its swaps of B_1 with B_j,
    so this takes k-1 transposes where symmetrize_b takes k(k-1)/2.
    """
    x, rho_b = problem.base.mat, problem.base.marginal("B")
    for _ in range(problem.copies - 1):
        x = tensor(x, rho_b)
    acc = x.copy()
    for j in range(2, problem.copies + 1):
        acc += _swap_b(x, problem, 1, j)
    return acc / problem.copies


def extend_separable(ens: ProductEnsemble, k: int) -> np.ndarray:
    """Explicit extension sum_i p_i sigma_i ⊗ tau_i^{⊗k} of a known-separable state."""
    if k < 2:
        raise ValueError("symmetric extension needs k >= 2 copies")
    da, db = ens.dims
    total = da * db**k
    check_total_dim(total)
    acc = np.zeros((total, total), dtype=complex)
    for w, ra, rb in zip(ens.weights, ens.a, ens.b):
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
    of the partial-trace map restricted to symmetric operators). Dense; the
    search takes the same step in block coordinates.
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
    50-iteration window; otherwise inconclusive at max_iters. The result
    names its stop_reason and, per Young diagram, the block size, multiplicity
    and face dimension searched. A start is symmetrized over the B factors
    before use. Raises ValueError unless tol is finite and > 0,
    max_iters >= 1 and start is finite with shape (dA·dB^k, dA·dB^k).
    """
    # written to fail on a NaN tol
    if not (0.0 < tol < np.inf and max_iters >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iters >= 1, got {tol} and {max_iters}")
    if start is not None and not np.all(np.isfinite(start)):
        raise ValueError("start holds NaN or Inf")
    problem = ExtensionProblem(rho, k)
    n, da, db = problem.total_dim, problem.dim_a, problem.dim_b
    if start is not None and np.shape(start) != (n, n):
        raise ValueError(f"start has shape {np.shape(start)}, expected {(n, n)}")
    sw = schur_weyl_blocks(db, k)
    sizes = [da * m for m in sw.irrep_dims]
    # per block, the face basis, or None on the full cone
    faces = support_face(problem, sw) or [None] * len(sizes)
    blocks = tuple(
        (size, f, size if b is None else b.shape[1]) for size, f, b in zip(sizes, sw.multiplicities, faces)
    )
    rho_r = _regroup(rho.mat, da, db)
    gram = _gram_inverse(db, k)
    if not any(face_dim for _, _, face_dim in blocks):
        # the distance from 0 to the affine set, whose point nearest 0 is the affine step from 0
        residual = float(np.linalg.norm(sw.lift(rho_r @ gram) * sw.weights))
        return FeasibilityResult("infeasible-evidence", residual, 0, None, tol, "empty-face", blocks)
    if start is None:
        x = _product_start(problem)
    else:
        x = np.asarray(start, dtype=complex)
        x = symmetrize_b(0.5 * (x + x.conj().T), problem)
    x = _compress(x, sw, da)
    parts = [(slice(lo, hi), m, b) for lo, hi, m, b in zip(sw.offsets, sw.offsets[1:], sw.irrep_dims, faces)]
    defect = rho_r - sw.marginal(x)
    correction = np.zeros_like(x)
    window: deque[float] = deque(maxlen=PLATEAU_WINDOW)
    for it in range(1, max_iters + 1):
        y = x + sw.lift(defect @ gram)
        z = y + correction
        x = np.zeros_like(z)
        y_min = np.inf
        for cols, m, basis in parts:
            # once a block is below -tol this iteration cannot stop as feasible
            if y_min >= -tol:
                y_min = min(y_min, np.linalg.eigvalsh(_ungroup(y[:, cols], da, m))[0])
            # a block whose face is {0} stays 0
            if basis is None or basis.shape[1]:
                z_blk = _ungroup(z[:, cols], da, m)
                x_blk = project_psd(z_blk) if basis is None else project_face(z_blk, basis)
                x[:, cols] = _regroup(x_blk, da, m)
        correction = z - x
        gap = float(np.linalg.norm((x - y) * sw.weights))
        window.append(gap)
        # y satisfies the affine constraints exactly; feasible once it is PSD
        # within tol. x is PSD, and permutation-invariant by construction;
        # feasible once its marginal matches within tol. That marginal's
        # defect drives the next iteration's affine step.
        if y_min >= -tol:
            witness = _expand(y, sw, problem)
            return FeasibilityResult(
                "feasible", max(0.0, -float(y_min)), it, witness, tol, "psd-within-tol", blocks
            )
        defect = rho_r - sw.marginal(x)
        marg = float(np.linalg.norm(defect))
        if marg <= tol:
            witness = _expand(x, sw, problem)
            return FeasibilityResult("feasible", marg, it, witness, tol, "marginal-within-tol", blocks)
        if it >= PLATEAU_WINDOW:
            lo, hi = min(window), max(window)
            if lo > tol and (hi - lo) <= PLATEAU_REL * hi:
                return FeasibilityResult("infeasible-evidence", gap, it, None, tol, "plateau", blocks)
    return FeasibilityResult("inconclusive", gap, max_iters, None, tol, "max-iters", blocks)
