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
once per call and handles trials in blocks of `TRIAL_BLOCK`, so its memory
does not grow with the trial count.

All Monte-Carlo entry points are deterministic per seed, with per-trial
generators derived from (seed, stream, trial index) so any evaluation order
gives identical aggregates; each trial draws its counts from its own
generator before its block is reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# tensor is unused here but kept importable: perfbench/spans.py traces the
# structural maps at tomography.tensor among other lookup sites
from .linalg import DensityMatrix, tensor  # noqa: F401

POVM_SUM_TOL = 1e-9
DUALITY_TOL = 1e-8
# trials reconstructed and measured together; bounds the batched arrays at
# TRIAL_BLOCK * d^2 complex entries whatever the trial count
TRIAL_BLOCK = 256
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
    return np.random.default_rng(np.random.SeedSequence(list(_entropy(seed, *keys))))


@dataclass(frozen=True, eq=False)
class Povm:
    """IC-POVM: PSD elements summing to identity, with their dual frame.

    ``elements`` and ``duals`` accept any sequence of d x d matrices and are
    stored as read-only stacked (d^2, d, d) complex arrays, so ``elements[n]``
    is M_n and ``duals[n]`` is M_n*. Both tolerance checks fail on NaN or Inf
    entries.
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
        if not float(np.max(np.abs(elements.sum(axis=0) - np.eye(d)))) <= POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-9")
        gram = np.einsum("nij,mji->nm", elements, duals).real
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
        rng = _derived_rng(seed, attempt)
        projs = []
        for _ in range(d * d):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            projs.append(np.outer(v, v.conj()))
        s = sum(projs)
        vals, vecs = np.linalg.eigh(s)
        if float(vals[0]) < 1e-12 * float(vals[-1]):
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        elements = []
        for p in projs:
            m = inv_sqrt @ p @ inv_sqrt
            elements.append(0.5 * (m + m.conj().T))
        gram = np.array([[np.trace(a @ b).real for b in elements] for a in elements])
        gvals = np.linalg.eigvalsh(gram)
        if float(gvals[0]) < 1e-10 * float(gvals[-1]):
            continue
        coeff = np.linalg.inv(gram)
        duals = []
        for m_idx in range(d * d):
            dual = sum(coeff[n_idx, m_idx] * elements[n_idx] for n_idx in range(d * d))
            duals.append(0.5 * (dual + dual.conj().T))
        try:
            return Povm(elements, duals, d)
        except ValueError:
            continue
    raise RuntimeError(f"no full-rank IC-POVM after {POVM_RETRIES} seeds; RNG fault?")


def product_povm(pa: Povm, pb: Povm) -> Povm:
    """Local tensor POVM {P_n ⊗ Q_m}; duals factorize the same way."""
    return Povm(
        _kron_stack(pa.elements, pb.elements), _kron_stack(pa.duals, pb.duals), pa.dim * pb.dim
    )


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every a[n] ⊗ b[m] at index n * len(b) + m, entry for entry equal to `tensor`."""
    (ma, da, _), (mb, db, _) = a.shape, b.shape
    outer = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return outer.reshape(ma * mb, da * db, da * db)


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
    if shots < 1:
        raise ValueError("need at least one shot")
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
    # summed in outcome order, so a single estimate is reproducible to the
    # bit; acceptance_probability reconstructs its trial blocks by matmul
    est = np.sum(probs[:, None, None] * povm.duals, axis=0)
    return 0.5 * (est + est.conj().T)


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

    Trial t draws its counts from its own generator, derived from
    (seed, trial stream, t), out of a Born distribution computed once per
    call; blocks of `TRIAL_BLOCK` trials are then reconstructed and measured
    together.
    """
    if n < 2:
        raise ValueError("need n >= 2 copies (n - 1 measured)")
    if trials < 1:
        raise ValueError("need at least one trial")
    if target.dims != source.dims:
        raise ValueError(f"shape mismatch: {target.dims} vs {source.dims}")
    if povm is None:
        povm = default_product_povm(target.dims, seed)
    p = _born_distribution(source, povm)
    shots = n - 1
    d = povm.dim
    duals = povm.duals.reshape(povm.n_outcomes, d * d)
    accepted = 0
    for start in range(0, trials, TRIAL_BLOCK):
        counts = np.array(
            [
                _derived_rng(seed, _STREAM_TRIAL, t).multinomial(shots, p)
                for t in range(start, min(start + TRIAL_BLOCK, trials))
            ]
        )
        est = ((counts / shots) @ duals).reshape(-1, d, d)
        est = 0.5 * (est + est.conj().transpose(0, 2, 1))
        vals = np.linalg.eigvalsh(est - target.mat)
        accepted += int(np.count_nonzero(0.5 * np.sum(np.abs(vals), axis=1) <= eps / 2.0))
    return accepted / trials


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
