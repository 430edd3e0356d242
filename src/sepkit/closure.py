"""Tensor-product closure checks for every implemented separability criterion.

Each criterion here has the property that two passing states yield a passing
tensor product (on the joined A:B cut). The sweep engine samples passing
pairs, re-runs the criterion on their product, and records margins; a single
violation is a bug, either in the criterion or in the closure argument. Each
check also verifies the structural identity that underlies the closure proof
(partial-transpose factorization, the reduction decomposition, entropy
additivity, prefix-sum dominance of Kronecker spectra, realignment
factorization, or constructive extension tensoring).

Sweeps run on blocks of trials, and one generator seeded once per sweep
draws every block in order. Per block, each round of candidate states comes
as stacks (Hilbert-Schmidt samples and separable mixtures), each validated by
one `DensityMatrix` and filtered by the criterion's stacked rule in one call;
the products of the accepted pairs are built by broadcasting, validated in
one call, and run through the rule and the structural identity row by row.
The symext branch composes and verifies its extensions on stacks the same
way. The rows per block follow from BLOCK_ENTRIES, so the block size is part
of the random stream. That stream replaced one with a generator per candidate
state; a seed's margins from before that change are not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .criteria import ENTROPIES, ONE_SHOT_TESTS, RULES, Verdict, prefix_diffs
from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_margin,
    realign,
    tensor,
)

from .states import ProductEnsemble, check_total_dim, random_density_block, random_separable_block

# unused here but kept importable: perfbench/spans.py traces the samplers at
# closure:random_density and closure:random_separable among other sites
from .states import random_density, random_separable  # noqa: F401
from .symext import extend_separable, verify_extension

SUB_ASSERT_TOL = 1e-8
VIOLATION_TOL = 1e-8
# every sweep pairs two 2 x 2 states; symext sweeps compose 2-copy extensions
SWEEP_DIMS = (2, 2)
SWEEP_SYMEXT_K = 2
# complex entries of the largest per-trial operator, summed over a block's
# rows: 32 rows of 16 x 16 products, 2 of 64 x 64 symext witnesses. It bounds
# the block's arrays (and so peak memory), and it is part of the random stream
BLOCK_ENTRIES = 2**13


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


def _kron_spectra(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two spectra, per row of two stacks, sorted non-increasing."""
    lam = (x[..., :, None] * y[..., None, :]).reshape(x.shape[:-1] + (-1,))
    return np.sort(lam, axis=-1)[..., ::-1]


def _closure_sub_assertions(
    criterion: str, rho: DensityMatrix, sigma: DensityMatrix, prod: DensityMatrix
) -> dict:
    """Structural identity behind the closure proof; prod is bipartite_product(rho, sigma).

    Every value has the states' leading stack axes, so each pair of a stack
    gets its own flag under "ok".
    """
    out: dict = {}
    if criterion == "ppt":
        lhs = partial_transpose(prod.mat, prod.dims)
        rhs = _product_matrix(
            partial_transpose(rho.mat, rho.dims),
            rho.dims,
            partial_transpose(sigma.mat, sigma.dims),
            sigma.dims,
        )
        out["pt_factorization_gap"] = np.abs(lhs - rhs).max(axis=(-2, -1))
        out["ok"] = out["pt_factorization_gap"] <= SUB_ASSERT_TOL
    elif criterion == "reduction":
        x = tensor(partial_trace(rho.mat, rho.dims, "A"), np.eye(rho.dim_b))
        y = rho.mat
        z = tensor(partial_trace(sigma.mat, sigma.dims, "A"), np.eye(sigma.dim_b))
        w = sigma.mat
        m1, m2 = psd_margin(tensor(x - y, z + w)), psd_margin(tensor(x + y, z - w))
        out["decomposition_margins"] = np.stack([m1, m2], axis=-1)
        out["ok"] = np.minimum(m1, m2) >= -SUB_ASSERT_TOL
    elif criterion in ENTROPIES:
        ent = ENTROPIES[criterion]
        s_prod = ent(prod.eigenvalues)
        out["additivity_gap"] = np.abs(s_prod - (ent(rho.eigenvalues) + ent(sigma.eigenvalues)))
        out["ok"] = out["additivity_gap"] <= 1e-9
    elif criterion == "majorization":
        lam_global = _kron_spectra(rho.eigenvalues, sigma.eigenvalues)
        worst = np.minimum(
            *(
                prefix_diffs(_kron_spectra(lam_r, lam_s), lam_global).min(axis=-1)
                for lam_r, lam_s in zip(rho.marginal_spectra, sigma.marginal_spectra)
            )
        )
        out["kron_prefix_margin"] = worst
        out["ok"] = worst >= -SUB_ASSERT_TOL
    elif criterion == "crossnorm":
        lhs = realign(prod.mat, prod.dims)
        pa, pb = realign_product_perms(rho.dims, sigma.dims)
        rhs = tensor(realign(rho.mat, rho.dims), realign(sigma.mat, sigma.dims))
        out["realign_factorization_gap"] = np.abs(lhs - rhs[..., pa[:, None], pb]).max(axis=(-2, -1))
        out["ok"] = out["realign_factorization_gap"] <= SUB_ASSERT_TOL
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return out


def closure_check(criterion: str, rho: DensityMatrix, sigma: DensityMatrix) -> Verdict:
    """Run one criterion on the tensor product of two states that pass it."""
    if criterion not in ONE_SHOT_TESTS:
        raise ValueError(f"unknown criterion {criterion!r}")
    test = ONE_SHOT_TESTS[criterion]
    v_rho, v_sigma = test(rho), test(sigma)
    if not (v_rho.passed and v_sigma.passed):
        raise ValueError(f"both inputs must pass {criterion} before a closure check")
    prod = bipartite_product(rho, sigma)
    verdict = test(prod)
    details = dict(verdict.details)
    details["inputs_margins"] = (v_rho.margin, v_sigma.margin)
    subs = _closure_sub_assertions(criterion, rho, sigma, prod)
    details["sub_assertions"] = {key: np.asarray(value).tolist() for key, value in subs.items()}
    return Verdict(verdict.criterion, verdict.passed, verdict.margin, details, verdict.status)


def symext_closure_check(
    ens_rho: ProductEnsemble, ens_sigma: ProductEnsemble, k: int = 2
) -> dict:
    """Constructively verify extension closure: tensored witnesses extend the product.

    Builds explicit k-extensions of two separable states, tensors and regroups
    them so paired B factors become one composite system per copy, and checks
    all extension constraints for the product state directly (no solver run).
    Two stacks of ensembles are checked pair by pair, each residual and "ok"
    then holding one entry per pair. Each mixed state is built once.
    """
    rho, sigma = ens_rho.state(), ens_sigma.state()
    w_rho = extend_separable(ens_rho, k)
    w_sigma = extend_separable(ens_sigma, k)
    da, db = rho.dims
    da2, db2 = sigma.dims
    # systems: [A, B_1..B_k, A', B'_1..B'_k] -> [A, A', B_1, B'_1, ..., B_k, B'_k]
    dims = [da] + [db] * k + [da2] + [db2] * k
    perm = [0, k + 1]
    for j in range(1, k + 1):
        perm += [j, k + 1 + j]
    witness = permute_systems(tensor(w_rho, w_sigma), dims, perm)
    prod = bipartite_product(rho, sigma)
    residuals = verify_extension(witness, prod, k)
    ok = (
        (residuals["symmetry_residual"] <= SUB_ASSERT_TOL)
        & (residuals["marginal_residual"] <= SUB_ASSERT_TOL)
        & (residuals["psd_margin"] >= -SUB_ASSERT_TOL)
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


def _separable_ensembles(rng: np.random.Generator, n: int, most: int) -> ProductEnsemble:
    """A stack of n random separable SWEEP_DIMS ensembles, each mixing 1 to `most` product states.

    Each row draws its member count first, then all rows draw `most` members
    in one random_separable_block call. Members past a row's count get
    weight 0 and the rest are renormalized, which leaves Dirichlet(1, ..., 1)
    weights over the members kept; the zero-weight members add exact zeros
    to the row's mixture and extensions.
    """
    counts = rng.integers(1, most + 1, size=n)
    weights, a, b = random_separable_block(SWEEP_DIMS, most, n, rng)
    weights = np.where(np.arange(most) < counts[:, None], weights, 0.0)
    return ProductEnsemble(weights / weights.sum(axis=-1, keepdims=True), a, b)


def _sample_passing_states(criterion: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n SWEEP_DIMS states passing the criterion, as an (n, d, d) stack of validated candidates.

    Each state tries a Hilbert-Schmidt candidate first with probability 1/2;
    otherwise, or when that fails, it takes random separable candidates (1 to
    6 members) until one passes. A round's candidates of each kind form one
    stack, validated once and filtered by the criterion's stacked rule.
    """
    rule = RULES[criterion]
    d = SWEEP_DIMS[0] * SWEEP_DIMS[1]
    mats = np.empty((n, d, d), dtype=complex)
    pending = np.arange(n)
    use_random = rng.random(n) < 0.5
    for _ in range(64):
        hs = use_random[pending]
        done = np.zeros(n, dtype=bool)
        for slots, random_kind in ((pending[hs], True), (pending[~hs], False)):
            if not slots.size:
                continue
            if random_kind:
                cand = DensityMatrix(random_density_block(d, slots.size, rng), SWEEP_DIMS)
            else:
                cand = _separable_ensembles(rng, slots.size, 6).state()
            passed = rule(cand)[1]
            mats[slots[passed]] = cand.mat[passed]
            done[slots[passed]] = True
        use_random[pending] = False
        pending = pending[~done[pending]]
        if not pending.size:
            return mats
    raise RuntimeError(f"could not sample a state passing {criterion}")


def _check_block(criterion: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """n trials at once: the product margins, the violation flags and the sub-assertion failures.

    A function of its own so that a block's arrays are freed before the next
    block is drawn.
    """
    if criterion == "symext":
        ens_rho = _separable_ensembles(rng, n, 4)
        ens_sigma = _separable_ensembles(rng, n, 4)
        res = symext_closure_check(ens_rho, ens_sigma, SWEEP_SYMEXT_K)
        return res["psd_margin"], ~res["ok"], 0
    mats = _sample_passing_states(criterion, 2 * n, rng)
    rho, sigma = DensityMatrix(mats[:n], SWEEP_DIMS), DensityMatrix(mats[n:], SWEEP_DIMS)
    prod = bipartite_product(rho, sigma)
    margin = RULES[criterion](prod)[0]
    sub_ok = _closure_sub_assertions(criterion, rho, sigma, prod)["ok"]
    return margin, margin < -VIOLATION_TOL, int(np.count_nonzero(~sub_ok))


def closure_sweep(criterion: str, trials: int, seed) -> SweepReport:
    """Sample passing pairs of SWEEP_DIMS states and count closure violations (expected: zero).

    A violation is a product margin below -1e-8 or a failed sub-assertion.
    For criterion='symext' the check is the constructive witness composition
    on separable pairs (1 to 4 members each).
    """
    if criterion not in RULES and criterion != "symext":
        raise ValueError(f"unknown criterion {criterion!r}")
    if not isinstance(trials, Integral) or isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    trials = int(trials)
    rng = np.random.default_rng(seed)
    da, db = SWEEP_DIMS
    if criterion == "symext":
        width = da * da * (db * db) ** SWEEP_SYMEXT_K  # the product's extension
    else:
        width = da * da * db * db  # the product state
    rows = max(1, BLOCK_ENTRIES // width**2)
    margins: list[float] = []
    violations = 0
    sub_failures = 0
    for start in range(0, trials, rows):
        margin, violated, failures = _check_block(criterion, min(rows, trials - start), rng)
        margins += margin.tolist()
        violations += int(np.count_nonzero(violated))
        sub_failures += failures
    return SweepReport(
        criterion, trials, violations, sub_failures, float(np.min(margins)), tuple(margins)
    )
