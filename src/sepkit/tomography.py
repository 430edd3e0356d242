"""IC-POVM construction, linear-inversion tomography, and acceptance estimates.

An informationally complete POVM has d^2 elements spanning Hermitian space;
the dual frame {M_n*} satisfies Tr(M_n M_m*) = delta_nm, so any Hermitian X
equals sum_n Tr(X M_n) M_n*. Measuring N copies and feeding the outcome
frequencies through the dual frame gives the linear-inversion estimate
sum_i (r_i / N) M_i*. Estimates are kept raw (Hermitian but possibly
non-PSD): projecting onto states would change the acceptance statistic.

A `Povm` holds its elements and duals as read-only stacked (d^2, d, d)
arrays, so the Born probabilities of a state take one batched product and a
block of frequency vectors is reconstructed with one matmul against the
duals. `acceptance_probability` computes the Born distribution of its source
once per call and draws every trial from one generator derived from
(seed, trial stream): trial t is that generator's t-th multinomial draw.
Trials are drawn and measured in blocks of `TRIAL_BLOCK`, which bounds
memory only and does not change any result. All Monte-Carlo entry points
are deterministic per seed.

A trial's distance ‖Δ‖_1, Δ = estimate - target on d = dA·dB dimensions,
lies between ‖Δ‖_F and sqrt(d)·‖Δ‖_F (Watrous, The Theory of Quantum
Information, §1.1.3). `acceptance_probability` rejects a trial whose
Frobenius norm exceeds eps and accepts one whose sqrt(d) bound falls below
it, each with a relative guard of `SCREEN_GUARD`, far above rounding, so
every screened decision equals the spectral one. Only the trials in between
reach `eigvalsh`, which returns the same values for a matrix whichever stack
holds it, so the result is bit-identical to measuring every trial's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, tensor
from .states import _check_count

POVM_SUM_TOL = 1e-9
DUALITY_TOL = 1e-8
# trials reconstructed and measured together; bounds the batched arrays at
# TRIAL_BLOCK * d^2 complex entries whatever the trial count
TRIAL_BLOCK = 256
# relative margin by which a norm bound must clear eps to decide a trial
SCREEN_GUARD = 1e-9
# derived seeds build_ic_povm tries before it gives up
POVM_RETRIES = 16

_STREAM_POVM_A = 10
_STREAM_POVM_B = 11
_STREAM_TRIAL = 7
_STREAM_MEMBER = 17


def _entropy(seed, *keys: int) -> tuple[int, ...]:
    base = list(np.atleast_1d(np.asarray(seed, dtype=np.int64)))
    return tuple(int(e) for e in base) + tuple(int(k) for k in keys)


def _derived_rng(seed, *keys: int) -> np.random.Generator:
    return np.random.default_rng(_entropy(seed, *keys))


@dataclass(frozen=True, eq=False)
class Povm:
    """IC-POVM: PSD elements summing to identity, with their dual frame.

    ``elements`` and ``duals`` accept any sequence of d x d matrices and are
    stored as read-only stacked (d^2, d, d) complex arrays, so ``elements[n]``
    is M_n and ``duals[n]`` is M_n*. NaN or Inf entries are rejected before
    either tolerance check.
    """

    elements: np.ndarray
    duals: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        d = int(self.dim)
        m = d * d
        elements = np.array(self.elements, dtype=complex)
        duals = np.array(self.duals, dtype=complex)
        if elements.shape != (m, d, d):
            raise ValueError(f"need {m} elements of shape {d}x{d} for informational completeness")
        if duals.shape != elements.shape:
            raise ValueError("element and dual counts differ")
        if not (np.isfinite(elements).all() and np.isfinite(duals).all()):
            raise ValueError("POVM elements or duals hold NaN or Inf")
        if not float(np.max(np.abs(elements.sum(axis=0) - np.eye(d)))) <= POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-9")
        # Tr(M_n M_m*) = sum_ij M_n[i, j] M_m*[j, i], one matmul over flattened stacks
        gram = (elements.reshape(m, -1) @ duals.transpose(0, 2, 1).reshape(m, -1).T).real
        if not float(np.max(np.abs(gram - np.eye(m)))) <= DUALITY_TOL:
            raise ValueError("dual frame fails Tr(M_n M_m*) = delta within 1e-8")
        elements.setflags(write=False)
        duals.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "dim", d)

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class OutcomeCounts:
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if int(np.sum(counts)) != int(self.total):
            raise ValueError("counts do not sum to the shot total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))


def build_ic_povm(d: int, seed) -> Povm:
    """Seeded IC-POVM from d^2 random rank-1 projectors P_n via S^{-1/2} P_n S^{-1/2}.

    Retries with the next derived seed if the Gram matrix of the elements is
    rank deficient, or if the computed dual frame misses `Povm`'s 1e-8
    duality check (an ill-conditioned draw; about one d=3 seed in a thousand).
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    for attempt in range(POVM_RETRIES):
        # row n holds vector n's real part, then its imaginary part
        draw = _derived_rng(seed, attempt).standard_normal((d * d, 2, d))
        v = draw[:, 0] + 1j * draw[:, 1]
        for row in v:
            row /= np.linalg.norm(row)
        projs = v[:, :, None] * v.conj()[:, None, :]
        vals, vecs = np.linalg.eigh(np.sum(projs, axis=0))
        if float(vals[0]) < 1e-12 * float(vals[-1]):
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        elements = _hermitian_part(inv_sqrt @ projs @ inv_sqrt)
        gram = np.trace(elements[:, None] @ elements[None], axis1=2, axis2=3).real
        gvals = np.linalg.eigvalsh(gram)
        if float(gvals[0]) < 1e-10 * float(gvals[-1]):
            continue
        coeff = np.linalg.inv(gram)
        duals = _hermitian_part(np.sum(coeff[:, :, None, None] * elements[:, None], axis=0))
        try:
            return Povm(elements, duals, d)
        except ValueError:
            continue
    raise RuntimeError(f"no full-rank IC-POVM after {POVM_RETRIES} seeds; RNG fault?")


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().transpose(0, 2, 1))


def product_povm(pa: Povm, pb: Povm) -> Povm:
    """Local tensor POVM {P_n ⊗ Q_m}, element n * len(pb) + m; duals factorize the same way."""
    d = pa.dim * pb.dim
    elements = tensor(pa.elements[:, None], pb.elements[None]).reshape(-1, d, d)
    duals = tensor(pa.duals[:, None], pb.duals[None]).reshape(-1, d, d)
    return Povm(elements, duals, d)


def born_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    if rho.dim != povm.dim:
        raise ValueError(f"state dim {rho.dim} does not match POVM dim {povm.dim}")
    return np.trace(rho.mat @ povm.elements, axis1=1, axis2=2).real


def _born_distribution(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Born probabilities checked for sign, clipped at 0 and normalized for sampling."""
    p = born_probabilities(rho, povm)
    if float(np.min(p)) < -1e-12:
        raise ValueError(f"negative Born probability {np.min(p):.3e}; invalid inputs")
    p = np.clip(p, 0.0, None)
    p /= np.sum(p)
    return p


def sample_outcomes(rho: DensityMatrix, povm: Povm, shots: int, seed) -> OutcomeCounts:
    """i.i.d. categorical samples from the Born probabilities; deterministic per seed."""
    shots = _check_count("shots", shots)
    counts = _derived_rng(seed).multinomial(shots, _born_distribution(rho, povm))
    return OutcomeCounts(counts, shots)


def reconstruct(counts: OutcomeCounts, povm: Povm) -> np.ndarray:
    """Linear-inversion frame estimate sum_i (r_i / total) M_i*; raw Hermitian output."""
    if counts.total < 1:
        raise ValueError("need at least one recorded shot")
    freqs = counts.counts / counts.total
    return reconstruct_from_probabilities(freqs, povm)


def reconstruct_from_probabilities(probs: np.ndarray, povm: Povm) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (povm.n_outcomes,):
        raise ValueError("probability vector length does not match POVM")
    return _estimates(probs[None], povm)[0]


def _estimates(freqs: np.ndarray, povm: Povm) -> np.ndarray:
    """Hermitian linear-inversion estimates for a (b, d^2) block of frequency rows."""
    d = povm.dim
    est = freqs @ povm.duals.reshape(povm.n_outcomes, d * d)
    return _hermitian_part(est.reshape(-1, d, d))


def default_product_povm(dims, seed) -> Povm:
    """The product IC-POVM derived from a master seed (local tomography setup)."""
    pa = build_ic_povm(dims[0], _entropy(seed, _STREAM_POVM_A))
    pb = build_ic_povm(dims[1], _entropy(seed, _STREAM_POVM_B))
    return product_povm(pa, pb)


def acceptance_probability(
    target: DensityMatrix,
    source: DensityMatrix,
    n: int,
    eps: float,
    trials: int,
    seed,
    povm: Povm | None = None,
) -> float:
    """Probability that tomography of n-1 copies of source lands within eps/2 of target.

    Each trial measures the source n-1 times with a product IC-POVM, forms the
    linear-inversion estimate, and accepts when half the trace norm of
    (estimate - target) is at most eps/2. Standard error of the returned
    fraction is bounded by 1/(2 sqrt(trials)).

    One generator, derived from (seed, trial stream), serves the whole call:
    trial t takes its counts from that generator's t-th multinomial draw out
    of a Born distribution computed once per call. Blocks of `TRIAL_BLOCK`
    trials are drawn, reconstructed and measured together; the block size
    bounds memory only and does not change the result.
    """
    n, trials = _check_count("n", n), _check_count("trials", trials)
    if n < 2:
        raise ValueError("need n >= 2 copies (n - 1 measured)")
    # written to fail on NaN and Inf
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if target.dims != source.dims:
        raise ValueError(f"shape mismatch: {target.dims} vs {source.dims}")
    if povm is None:
        povm = default_product_povm(target.dims, seed)
    p = _born_distribution(source, povm)
    shots = n - 1
    rng = _derived_rng(seed, _STREAM_TRIAL)
    accepted = 0
    for start in range(0, trials, TRIAL_BLOCK):
        counts = rng.multinomial(shots, p, size=min(TRIAL_BLOCK, trials - start))
        accepted += int(np.count_nonzero(_within_ball(_estimates(counts / shots, povm) - target.mat, eps)))
    return accepted / trials


def _within_ball(delta: np.ndarray, eps: float) -> np.ndarray:
    """Per (d, d) row of the stack delta, whether half its trace norm is at most eps/2.

    ‖Δ‖_F <= ‖Δ‖_1 <= sqrt(d)·‖Δ‖_F decides every row whose bounds clear eps
    by the relative SCREEN_GUARD; the rest go to one batched eigvalsh.
    """
    fro = np.linalg.norm(delta, axis=(1, 2))
    inside = np.sqrt(delta.shape[1]) * fro < eps * (1.0 - SCREEN_GUARD)
    open_rows = ~inside & (fro <= eps * (1.0 + SCREEN_GUARD))
    vals = np.linalg.eigvalsh(delta[open_rows])
    inside[open_rows] = 0.5 * np.sum(np.abs(vals), axis=1) <= eps / 2.0
    return inside


def mixture_acceptance(
    ens,
    target: DensityMatrix,
    n: int,
    eps: float,
    trials: int,
    seed,
    povm: Povm | None = None,
) -> float:
    """Weight-averaged acceptance probability over an ensemble of source states.

    The POVM is shared across members; per-member sampling seeds derive from
    the master seed.
    """
    if povm is None:
        povm = default_product_povm(target.dims, seed)
    value = 0.0
    for idx, (weight, member) in enumerate(ens.members):
        if weight == 0.0:
            continue
        value += weight * acceptance_probability(
            target, member, n, eps, trials, _entropy(seed, _STREAM_MEMBER, idx), povm
        )
    return value
