"""Tensor-product closure checks for every implemented separability criterion.

Each criterion here has the property that two passing states yield a passing
tensor product (on the joined A:B cut). The sweep engine samples passing
pairs, re-runs the criterion on their product, and records margins; a single
violation is a bug, either in the criterion or in the closure argument. Each
check also verifies the structural identity that underlies the closure proof
(partial-transpose factorization, the reduction decomposition, entropy
additivity, prefix-sum dominance of Kronecker spectra, realignment
factorization, or constructive extension tensoring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import ENTROPIES, ONE_SHOT_TESTS, Verdict, prefix_diffs
from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_margin,
    realign,
    tensor,
)
from .states import ProductEnsemble, check_total_dim, random_density, random_separable
from .symext import extend_separable, verify_extension

SUB_ASSERT_TOL = 1e-8
VIOLATION_TOL = 1e-8
# every sweep pairs two 2 x 2 states; symext sweeps compose 2-copy extensions
SWEEP_DIMS = (2, 2)
SWEEP_SYMEXT_K = 2


def _product_matrix(a: np.ndarray, dims_a, b: np.ndarray, dims_b) -> np.ndarray:
    """Kronecker product regrouped so A-parts precede B-parts."""
    da, db = dims_a
    da2, db2 = dims_b
    m = tensor(a, b)
    return permute_systems(m, [da, db, da2, db2], [0, 2, 1, 3])


def bipartite_product(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Tensor product of two bipartite states on the joined AA':BB' cut."""
    check_total_dim(rho.dim * sigma.dim)
    m = _product_matrix(rho.mat, rho.dims, sigma.mat, sigma.dims)
    return DensityMatrix(m, (rho.dim_a * sigma.dim_a, rho.dim_b * sigma.dim_b))


def realign_product_perms(dims_a, dims_b) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations (pa, pb) with realign(product) = kron(realigns)[ix_(pa, pb)].

    Column-stacking vec obeys v(X ⊗ X') = v(X) ⊗ v(X') only up to a fixed
    interleaving that depends on the dimensions; these arrays pin it down.
    """
    da, db = dims_a
    da2, db2 = dims_b
    pa = np.arange((da * da2) ** 2).reshape(da, da, da2, da2).transpose(0, 2, 1, 3).reshape(-1)
    pb = np.arange((db * db2) ** 2).reshape(db, db, db2, db2).transpose(0, 2, 1, 3).reshape(-1)
    return pa, pb


def _closure_sub_assertions(
    criterion: str, rho: DensityMatrix, sigma: DensityMatrix, prod: DensityMatrix
) -> dict:
    """Structural identity behind the closure proof; prod is bipartite_product(rho, sigma)."""
    out: dict[str, float | bool] = {}
    if criterion == "ppt":
        lhs = partial_transpose(prod.mat, prod.dims)
        rhs = _product_matrix(
            partial_transpose(rho.mat, rho.dims),
            rho.dims,
            partial_transpose(sigma.mat, sigma.dims),
            sigma.dims,
        )
        out["pt_factorization_gap"] = float(np.max(np.abs(lhs - rhs)))
        out["ok"] = out["pt_factorization_gap"] <= SUB_ASSERT_TOL
    elif criterion == "reduction":
        x = tensor(partial_trace(rho.mat, rho.dims, "A"), np.eye(rho.dim_b))
        y = rho.mat
        z = tensor(partial_trace(sigma.mat, sigma.dims, "A"), np.eye(sigma.dim_b))
        w = sigma.mat
        m1, m2 = psd_margin(tensor(x - y, z + w)), psd_margin(tensor(x + y, z - w))
        out["decomposition_margins"] = (m1, m2)
        out["ok"] = min(m1, m2) >= -SUB_ASSERT_TOL
    elif criterion in ENTROPIES:
        ent = ENTROPIES[criterion]
        s_prod = ent(prod.eigenvalues)
        out["additivity_gap"] = abs(s_prod - (ent(rho.eigenvalues) + ent(sigma.eigenvalues)))
        out["ok"] = out["additivity_gap"] <= 1e-9
    elif criterion == "majorization":
        lam_global = np.sort(np.kron(rho.eigenvalues, sigma.eigenvalues))[::-1]
        worst = np.inf
        for lam_r, lam_s in zip(rho.marginal_spectra, sigma.marginal_spectra):
            lam_m = np.sort(np.kron(lam_r, lam_s))[::-1]
            worst = min(worst, float(np.min(prefix_diffs(lam_m, lam_global))))
        out["kron_prefix_margin"] = float(worst)
        out["ok"] = worst >= -SUB_ASSERT_TOL
    elif criterion == "crossnorm":
        lhs = realign(prod.mat, prod.dims)
        pa, pb = realign_product_perms(rho.dims, sigma.dims)
        rhs = tensor(realign(rho.mat, rho.dims), realign(sigma.mat, sigma.dims))
        out["realign_factorization_gap"] = float(np.max(np.abs(lhs - rhs[np.ix_(pa, pb)])))
        out["ok"] = out["realign_factorization_gap"] <= SUB_ASSERT_TOL
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return out


def closure_check(criterion: str, rho: DensityMatrix, sigma: DensityMatrix) -> Verdict:
    """Run one criterion on the tensor product of two states that pass it."""
    test = ONE_SHOT_TESTS[criterion]
    v_rho, v_sigma = test(rho), test(sigma)
    if not (v_rho.passed and v_sigma.passed):
        raise ValueError(f"both inputs must pass {criterion} before a closure check")
    prod = bipartite_product(rho, sigma)
    verdict = test(prod)
    details = dict(verdict.details)
    details["inputs_margins"] = (v_rho.margin, v_sigma.margin)
    details["sub_assertions"] = _closure_sub_assertions(criterion, rho, sigma, prod)
    return Verdict(verdict.criterion, verdict.passed, verdict.margin, details, verdict.status)


def symext_closure_check(
    ens_rho: ProductEnsemble, ens_sigma: ProductEnsemble, k: int = 2
) -> dict:
    """Constructively verify extension closure: tensored witnesses extend the product.

    Builds explicit k-extensions of two separable states, tensors and regroups
    them so paired B factors become one composite system per copy, and checks
    all extension constraints for the product state directly (no solver run).
    """
    rho, sigma = ens_rho.state(), ens_sigma.state()
    w_rho = extend_separable(ens_rho, k)
    w_sigma = extend_separable(ens_sigma, k)
    da, db = rho.dims
    da2, db2 = sigma.dims
    big = tensor(w_rho, w_sigma)
    # systems: [A, B_1..B_k, A', B'_1..B'_k] -> [A, A', B_1, B'_1, ..., B_k, B'_k]
    dims = [da] + [db] * k + [da2] + [db2] * k
    perm = [0, k + 1]
    for j in range(1, k + 1):
        perm += [j, k + 1 + j]
    witness = permute_systems(big, dims, perm)
    prod = bipartite_product(rho, sigma)
    residuals = verify_extension(witness, prod, k)
    ok = (
        residuals["symmetry_residual"] <= SUB_ASSERT_TOL
        and residuals["marginal_residual"] <= SUB_ASSERT_TOL
        and residuals["psd_margin"] >= -SUB_ASSERT_TOL
    )
    return {"ok": ok, **residuals}


@dataclass(frozen=True)
class SweepReport:
    criterion: str
    trials: int
    violations: int
    sub_assertion_failures: int
    min_margin: float
    margins: tuple[float, ...]


def _sample_passing_state(criterion: str, dims, rng: np.random.Generator) -> DensityMatrix:
    """A state passing the criterion: random separable, or a filtered PPT sample."""
    test = ONE_SHOT_TESTS[criterion]
    use_random = rng.random() < 0.5
    for _ in range(64):
        if use_random:
            cand = random_density(dims[0] * dims[1], int(rng.integers(2**31)), dims)
        else:
            cand, _ = random_separable(dims, int(rng.integers(1, 7)), int(rng.integers(2**31)))
        if test(cand).passed:
            return cand
        use_random = False
    raise RuntimeError(f"could not sample a state passing {criterion}")


def closure_sweep(criterion: str, trials: int, seed) -> SweepReport:
    """Sample passing pairs of SWEEP_DIMS states and count closure violations (expected: zero).

    A violation is a product margin below -1e-8 or a failed sub-assertion.
    For criterion='symext' the check is the constructive witness composition
    on separable pairs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    margins = []
    violations = 0
    sub_failures = 0
    for _ in range(trials):
        if criterion == "symext":
            _, ens_rho = random_separable(
                SWEEP_DIMS, int(rng.integers(1, 5)), int(rng.integers(2**31))
            )
            _, ens_sigma = random_separable(
                SWEEP_DIMS, int(rng.integers(1, 5)), int(rng.integers(2**31))
            )
            res = symext_closure_check(ens_rho, ens_sigma, SWEEP_SYMEXT_K)
            margin, violated, sub_ok = float(res["psd_margin"]), not res["ok"], True
        else:
            rho = _sample_passing_state(criterion, SWEEP_DIMS, rng)
            sigma = _sample_passing_state(criterion, SWEEP_DIMS, rng)
            verdict = closure_check(criterion, rho, sigma)
            margin, sub_ok = verdict.margin, verdict.details["sub_assertions"]["ok"]
            violated = margin < -VIOLATION_TOL
        margins.append(margin)
        violations += int(violated)
        sub_failures += int(not sub_ok)
    return SweepReport(
        criterion, trials, violations, sub_failures, float(np.min(margins)), tuple(margins)
    )
