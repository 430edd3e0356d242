"""Distance geometry of the separable set versus the PPT set.

Computing the true distance to the separable set is NP-hard, so everything
here is one of: an exact witness-based lower bound, a bisected boundary
construction along the segment toward the maximally entangled state, the
finite de Finetti bound formula, or a Monte-Carlo lower bound against an
explicit separable ansatz (clearly labelled as such, never as a bound
against all separable states).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .criteria import ppt_test
from .linalg import DensityMatrix, is_hermitian, partial_transpose, trace_distance
from .productopt import max_overlap_with_vector
from .states import Ensemble, _segment_mix, max_entangled, max_entangled_vector, segment_state
from .tomography import Povm, acceptance_probability, default_product_povm, mixture_acceptance

BISECT_TOL = 1e-6
WITNESS_TOL = 1e-9
FIDELITY_SLACK = 1e-8
OVERLAP_SLACK = 1e-6


def definetti_bound(dim: int, n: int, k: int) -> float:
    """Trace-distance bound 2 * dim * n / (n + k) for a k-extendible n-copy marginal."""
    for name, value in (("dim", dim), ("n", n), ("k", k)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if dim < 1:
        raise ValueError("need dim >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        raise ValueError("need k >= 0")
    return 2.0 * dim * n / (n + k)


def sep_max_overlap_maxent(d: int) -> float:
    """Maximum overlap Tr(sigma Phi(d)) over separable sigma; equals 1/d.

    Returns the analytic value but always cross-validates it against the
    exact maximum of |<a ⊗ b|Phi>|^2 over product unit vectors; a maximum
    above 1/d + 1e-6 signals a bug and raises.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    analytic = 1.0 / d
    numeric = max_overlap_with_vector(max_entangled_vector(d), (d, d))
    if numeric > analytic + OVERLAP_SLACK:
        raise RuntimeError(f"product-vector overlap {numeric} exceeds the bound {analytic}")
    return analytic


def witness_lower_bound(rho: DensityMatrix, witness: np.ndarray, sep_max: float) -> float:
    """Certified lower bound max(0, Tr(W rho) - sep_max) on the distance from SEP.

    Valid whenever 0 <= W <= I and sep_max upper-bounds Tr(W sigma) over
    separable sigma (the caller vouches for sep_max's provenance).
    """
    w = np.asarray(witness, dtype=complex)
    if not is_hermitian(w):
        raise ValueError("witness is not Hermitian")
    vals = np.linalg.eigvalsh(0.5 * (w + w.conj().T))
    if float(vals[0]) < -WITNESS_TOL or float(vals[-1]) > 1.0 + WITNESS_TOL:
        raise ValueError("witness is not between 0 and identity")
    value = float(np.trace(w @ rho.mat).real) - sep_max
    return max(0.0, value)


@dataclass(frozen=True)
class FidelityBound:
    fidelity: float
    bound: float
    ok: bool
    transpose_identity_gap: float


def fidelity_bound_check(sigma: DensityMatrix) -> FidelityBound:
    """Check F(sigma, Phi(d)) <= 1/sqrt(d) for a PPT state sigma.

    Also verifies the trace-pairing identity Tr(sigma Phi) =
    Tr(sigma^{T_B} Phi^{T_B}) to 1e-10; a violation is a bug and raises.
    """
    d = sigma.dim_a
    if sigma.dim_b != d:
        raise ValueError(f"need dim_a == dim_b, got {sigma.dims}")
    if not ppt_test(sigma).passed:
        raise ValueError("state is not PPT; the fidelity bound does not apply")
    phi = max_entangled(d)
    overlap = float(np.trace(sigma.mat @ phi.mat).real)
    pt_overlap = float(
        np.trace(
            partial_transpose(sigma.mat, sigma.dims) @ partial_transpose(phi.mat, phi.dims)
        ).real
    )
    gap = abs(overlap - pt_overlap)
    if gap > 1e-10:
        raise RuntimeError(f"transpose-pairing identity violated by {gap:.3e}")
    fid = float(np.sqrt(max(overlap, 0.0)))
    bound = float(1.0 / np.sqrt(d))
    return FidelityBound(fid, bound, bool(fid <= bound + FIDELITY_SLACK), gap)


@dataclass(frozen=True)
class BoundaryResult:
    t_star: float
    boundary_state: DensityMatrix
    distance_from_start: float
    bound_ok: bool
    certified: bool
    tol: float


def ppt_boundary_bisect(
    rho: DensityMatrix, tol: float = BISECT_TOL, certified_separable: bool = False
) -> BoundaryResult:
    """Bisect the PPT/non-PPT crossing on the segment from rho toward Phi(d).

    Requires rho itself PPT (so t=0 is on the PPT side; t=1 is Phi(d), never
    PPT). Reports the trace distance from rho to the boundary state and
    whether it is within 1/sqrt(d) + 1e-6; that bound is guaranteed only when
    rho is certified separable by construction (certified_separable=True).
    """
    # written to fail on NaN; a tol <= 0 would never end the bisection
    if not 0.0 < tol < 1.0:
        raise ValueError(f"bisection tolerance must lie in (0, 1), got {tol}")
    d = rho.dim_a
    if rho.dim_b != d or d < 2:
        raise ValueError(f"need a d x d shape with d >= 2, got {rho.dims}")
    if not ppt_test(rho).passed:
        raise ValueError("state is not PPT; no boundary crossing is guaranteed")
    phi = max_entangled(d)
    if ppt_test(phi).passed:
        raise RuntimeError("maximally entangled state tested PPT; eigensolver fault")

    def ppt_at(t: float) -> bool:
        # segment_state(rho, t), reusing this call's Phi(d) at every step
        return ppt_test(_segment_mix(rho, phi.mat, t)).passed

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ppt_at(mid):
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    boundary = segment_state(rho, t_star)
    dist = trace_distance(rho, boundary)
    bound_ok = bool(dist <= 1.0 / np.sqrt(d) + 1e-6)
    return BoundaryResult(t_star, boundary, dist, bound_ok, certified_separable, tol)


@dataclass(frozen=True)
class FarnessPoint:
    n: int
    lower_bound: float
    accept_target: float
    accept_ansatz: float
    stderr_bound: float


@dataclass(frozen=True)
class FarnessResult:
    """Monte-Carlo lower bounds on the distance of rho^(n) from one explicit ansatz.

    The bound is against the supplied mixture of tensor powers only, never
    against all separable states.
    """

    points: tuple[FarnessPoint, ...]
    member_distances: tuple[float, ...]
    far_members: tuple[int, ...]
    label: str = "vs given ansatz"


def farness_certificate(
    rho: DensityMatrix,
    ens: Ensemble,
    n_list: list[int],
    eps: float,
    trials: int,
    seed,
    povm: Povm | None = None,
) -> FarnessResult:
    """Estimate LB(n) = accept(rho|rho, n) - accept(rho|ansatz, n) for each n.

    LB(n) lower-bounds (up to Monte-Carlo error, reported as a standard-error
    bound) the trace distance between rho^{⊗n} and sum_i p_i tau_i^{⊗n}.
    Members at trace distance >= eps from rho are flagged; only those drive
    the bound toward its large-n limit.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not n_list:
        raise ValueError("need at least one n")
    if ens.dims != rho.dims:
        raise ValueError(f"ansatz shape {ens.dims} does not match state shape {rho.dims}")
    dists = tuple(trace_distance(member, rho) for _, member in ens.members)
    far = tuple(i for i, dist in enumerate(dists) if dist >= eps - 1e-12)
    points = []
    stderr = float(np.sqrt(2.0) / (2.0 * np.sqrt(trials)))
    if povm is None:
        povm = default_product_povm(rho.dims, seed)
    for n in n_list:
        acc_t = acceptance_probability(rho, rho, n, eps, trials, seed, povm)
        acc_a = mixture_acceptance(ens, rho, n, eps, trials, seed, povm)
        points.append(FarnessPoint(n, acc_t - acc_a, acc_t, acc_a, stderr))
    return FarnessResult(tuple(points), dists, far)
