"""Constructors and seeded samplers for the state families used throughout.

All samplers are pure functions of their integer seed: the same seed yields
a bit-identical result. A ``ProductEnsemble`` holds its k product members as
stacks: weights (k,), A factors (k, dA, dA) and B factors (k, dB, dB), each
stack checked by one batched density-matrix validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

# partial_trace is unused here but kept importable: perfbench/spans.py traces
# the structural maps at states.partial_trace among other lookup sites
from .linalg import (  # noqa: F401
    Dims,
    DensityMatrix,
    check_density,
    partial_trace,
    permute_systems,
    tensor,
)

# largest total dimension any construction here or in symext/closure builds
DIM_CAP = 4096


def check_total_dim(total: int) -> None:
    """Reject a construction whose total dimension exceeds DIM_CAP."""
    if total > DIM_CAP:
        raise ValueError(f"total dimension {total} exceeds cap {DIM_CAP}")


def _check_count(name: str, value) -> int:
    """Reject a size or count that is not a positive integer, naming the argument."""
    if not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_weights(weights: list[float] | np.ndarray) -> None:
    # written to fail on NaN weights
    w = np.array(weights, dtype=float)
    if not np.all(w >= -1e-12):
        raise ValueError("ensemble weights must be non-negative")
    if not abs(float(np.sum(w)) - 1.0) <= 1e-10:
        raise ValueError("ensemble weights must sum to 1 within 1e-10")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite mixture: list of (weight, state); weights sum to 1."""

    members: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        _check_weights([w for w, _ in self.members])
        dims = self.members[0][1].dims
        for _, st in self.members:
            if st.dims != dims:
                raise ValueError("all ensemble members must share one bipartite shape")
        object.__setattr__(self, "members", tuple((float(w), st) for w, st in self.members))

    @property
    def dims(self) -> Dims:
        return self.members[0][1].dims


@dataclass(frozen=True, eq=False)
class ProductEnsemble:
    """Mixture sum_i weights[i] a[i] ⊗ b[i] of product states; separable by construction.

    ``weights`` is (k,), ``a`` is (k, dA, dA) and ``b`` is (k, dB, dB). Each
    factor must be a density matrix; read-only copies of the stacks are kept.
    """

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not w.size:
            raise ValueError("ensemble needs at least one member")
        for name in ("a", "b"):
            f = np.array(getattr(self, name), dtype=complex, order="C")
            if f.ndim != 3 or len(f) != len(w) or not f.shape[1] == f.shape[2] >= 1:
                raise ValueError(f"{name} must stack {len(w)} square factors, got shape {f.shape}")
            try:
                check_density(f)
            except ValueError as err:
                raise ValueError(f"factor stack {name}: {err}") from None
            f.setflags(write=False)
            object.__setattr__(self, name, f)
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dims(self) -> Dims:
        return self.a.shape[1], self.b.shape[1]

    def state(self) -> DensityMatrix:
        """The mixture sum_i w_i rho_a_i ⊗ rho_b_i this ensemble certifies."""
        da, db = self.dims
        acc = np.zeros((da * db, da * db), dtype=complex)
        for w, ra, rb in zip(self.weights, self.a, self.b):
            acc += w * tensor(ra, rb)
        return DensityMatrix(acc, self.dims)

    def to_ensemble(self) -> Ensemble:
        return Ensemble(
            tuple(
                (w, DensityMatrix(tensor(ra, rb), self.dims))
                for w, ra, rb in zip(self.weights, self.a, self.b)
            )
        )


def max_entangled_vector(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) sum_i |i,i> on a d x d bipartite space."""
    check_total_dim(d * d)
    if d < 2:
        raise ValueError("maximally entangled state needs d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return v


def max_entangled(d: int) -> DensityMatrix:
    """The maximally entangled state (1/d) sum_{i,j} |i,i><j,j|."""
    return DensityMatrix.from_vector(max_entangled_vector(d), (d, d))


def antisym_vector(i: int, j: int, d: int) -> np.ndarray:
    """(|i>|j> - |j>|i>)/sqrt(2) on a d x d bipartite space; requires 0 <= i < j < d."""
    if not (0 <= i < j < d):
        raise ValueError(f"need 0 <= i < j < d, got i={i}, j={j}, d={d}")
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0 / np.sqrt(2.0)
    v[j * d + i] = -1.0 / np.sqrt(2.0)
    return v


def segment_state(rho: DensityMatrix, t: float) -> DensityMatrix:
    """Convex combination (1-t) rho + t Phi(d) along the segment toward max entangled."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    da, db = rho.dims
    if da != db:
        raise ValueError(f"segment toward Phi(d) needs dim_a == dim_b, got {rho.dims}")
    # the matrix of max_entangled(da), left unvalidated: the mixture is checked
    v = max_entangled_vector(da)
    return _segment_mix(rho, np.outer(v, v.conj()), t)


def _segment_mix(rho: DensityMatrix, phi: np.ndarray, t: float) -> DensityMatrix:
    """(1-t) rho + t phi for phi the matrix of Phi(d); only the mixture is validated."""
    return DensityMatrix((1.0 - t) * rho.mat + t * phi, rho.dims)


def tiles_upb_vectors() -> list[np.ndarray]:
    """The five tiles product vectors: an unextendible product basis on 3 x 3."""
    e = np.eye(3, dtype=complex)
    s2 = 1.0 / np.sqrt(2.0)
    plus = (e[0] + e[1] + e[2]) / np.sqrt(3.0)
    pairs = [
        (e[0], s2 * (e[0] - e[1])),
        (e[2], s2 * (e[1] - e[2])),
        (s2 * (e[0] - e[1]), e[2]),
        (s2 * (e[1] - e[2]), e[0]),
        (plus, plus),
    ]
    return [np.kron(a, b) for a, b in pairs]


def tiles_upb_state() -> DensityMatrix:
    """The 3 x 3 PPT entangled state built from the tiles UPB.

    rho = (I - sum_k |psi_k><psi_k|) / 4 with the five tiles vectors; it is PPT
    yet entangled because no product vector is orthogonal to all five tiles.
    """
    proj = np.zeros((9, 9), dtype=complex)
    for psi in tiles_upb_vectors():
        proj += np.outer(psi, psi.conj())
    return DensityMatrix((np.eye(9) - proj) / 4.0, (3, 3))


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(d: int, seed, dims: Dims | None = None, cols: int | None = None) -> DensityMatrix:
    """Seeded sample G G^dag / Tr(G G^dag) with G a d x cols complex Gaussian.

    cols=d (the default) is the Hilbert-Schmidt measure; larger cols gives the
    induced measure with more-mixed samples (useful when rejection-sampling
    for rare spectral properties).
    """
    check_total_dim(d)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if dims is None:
        dims = (1, d)
    elif dims[0] * dims[1] != d:
        raise ValueError(f"dims {dims} do not multiply to {d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, cols or d)) + 1j * rng.standard_normal((d, cols or d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, dims)


def _haar_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_separable(dims: Dims, k: int, seed) -> tuple[DensityMatrix, ProductEnsemble]:
    """Seeded mixture of k pure product states, with its certifying ensemble.

    After the Dirichlet weights, each member draws the real then imaginary
    parts of its A ket, then those of its B ket.
    """
    da, db = (_check_count(f"dims[{i}]", d) for i, d in enumerate(dims))
    k = _check_count("k", k)
    check_total_dim(da * db)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k)) if k > 1 else np.array([1.0])
    re_a, im_a, re_b, im_b = np.split(
        rng.standard_normal((k, 2 * (da + db))), [da, 2 * da, 2 * da + db], axis=1
    )
    factors = []
    for re, im in ((re_a, im_a), (re_b, im_b)):
        kets = re + 1j * im
        kets /= np.array([np.linalg.norm(v) for v in kets])[:, None]
        factors.append(kets[:, :, None] * kets.conj()[:, None, :])
    ens = ProductEnsemble(weights, *factors)
    return ens.state(), ens


def tensor_power_bipartite(rho: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold tensor power of a bipartite state, regrouped to the A^n : B^n cut."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    da, db = rho.dims
    check_total_dim((da * db) ** n)
    if n == 1:
        return rho
    m = rho.mat
    for _ in range(n - 1):
        m = tensor(m, rho.mat)
    # systems currently ordered A1 B1 A2 B2 ...; regroup to A1..An B1..Bn
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    m = permute_systems(m, [da, db] * n, perm)
    return DensityMatrix(m, (da**n, db**n))


def maximally_mixed(dims: Dims) -> DensityMatrix:
    d = dims[0] * dims[1]
    check_total_dim(d)
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims)
