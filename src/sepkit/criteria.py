"""One-shot separability criteria, each returning a quantitative Verdict.

Every test is a necessary condition for separability: a failure certifies
entanglement, a pass is inconclusive on its own. Margins are signed distances
from the decision threshold (positive = pass). Logs are base 2 throughout.
Each criterion is one stacked rule (`RULES`), which takes a `DensityMatrix`
holding one state or a stack and reuses the spectra it carries; the one-state
`*_test` functions (`ONE_SHOT_TESTS`) turn its output on one state into a
`Verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    psd_floor,
    realign,
    singular_values,
    tensor,
)

PREFIX_ABS_TOL = 1e-10
ENTROPY_ABS_TOL = 1e-9
CROSSNORM_ABS_TOL = 1e-9

_EIG_FLOOR = 1e-15


@dataclass(frozen=True)
class Verdict:
    criterion: str
    passed: bool
    margin: float
    details: dict[str, Any] = field(default_factory=dict)
    status: str = ""

    def __post_init__(self) -> None:
        if not self.status:
            object.__setattr__(self, "status", "pass" if self.passed else "fail")


def _verdict(name: str, margin, passed, details: dict) -> Verdict:
    """The Verdict of a rule's output on one state (no stack axes), in plain Python numbers."""
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else float(v) for k, v in details.items()}
    return Verdict(name, bool(passed), float(margin), plain)


def ppt_rule(rho: DensityMatrix):
    """Positive partial transpose: rho^{T_B} must stay PSD. Returns (margins, passed, details)."""
    vals = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims))
    margin, tol = psd_floor(vals)
    return margin, margin >= -tol, {"tol": tol, "pt_eigenvalues": vals[..., ::-1]}


def ppt_test(rho: DensityMatrix) -> Verdict:
    """ppt_rule on one state, as a Verdict."""
    return _verdict("ppt", *ppt_rule(rho))


def reduction_rule(rho: DensityMatrix):
    """Reduction criterion on both sides: I ⊗ rho_B >= rho and rho_A ⊗ I >= rho."""
    da, db = rho.dims
    rho_a = partial_trace(rho.mat, rho.dims, "A")
    rho_b = partial_trace(rho.mat, rho.dims, "B")
    sides = np.array([tensor(np.eye(da), rho_b), tensor(rho_a, np.eye(db))]) - rho.mat
    margins, tols = psd_floor(np.linalg.eigvalsh(sides))
    margin, tol = np.minimum.reduce(margins), np.maximum.reduce(tols)
    details = {"tol": tol, "margin_b_side": margins[0], "margin_a_side": margins[1]}
    return margin, margin >= -tol, details


def reduction_test(rho: DensityMatrix) -> Verdict:
    """reduction_rule on one state, as a Verdict."""
    return _verdict("reduction", *reduction_rule(rho))


def _renyi2(vals: np.ndarray) -> np.ndarray:
    vals = np.maximum(vals, 0.0)
    return -np.log2(np.add.reduce(vals * vals, axis=-1))


def _von_neumann(vals: np.ndarray) -> np.ndarray:
    kept = vals > _EIG_FLOOR
    vals = np.where(kept, vals, 1.0)
    # summing only the kept entries adds them in the order a sum of the
    # filtered spectrum would, so the bits do not depend on the zeros
    return -np.add.reduce(vals * np.log2(vals), axis=-1, where=kept)


# criterion name -> entropy of each spectrum along the last axis; negative
# eigenvalues count as zero
ENTROPIES = {"entropic-2": _renyi2, "entropic-vn": _von_neumann}


def _entropic_name(alpha: int | str) -> str:
    if alpha == 2:
        return "entropic-2"
    if alpha == "vn":
        return "entropic-vn"
    raise ValueError(f"alpha must be 2 or 'vn', got {alpha!r}")


def entropic_rule(rho: DensityMatrix, alpha: int | str = 2):
    """Entropy comparison S(rho_AB) >= S(rho_M) for both marginals M.

    alpha=2 uses the Renyi-2 entropy -log2 Tr(rho^2); alpha='vn' uses the von
    Neumann limit. Zero eigenvalues contribute nothing.
    """
    ent = ENTROPIES[_entropic_name(alpha)]
    s_ab = ent(rho.eigenvalues)
    s_a, s_b = (ent(vals) for vals in rho.marginal_spectra)
    margin = np.minimum(s_ab - s_a, s_ab - s_b)
    details = {"tol": ENTROPY_ABS_TOL, "s_ab": s_ab, "s_a": s_a, "s_b": s_b}
    return margin, margin >= -ENTROPY_ABS_TOL, details


def entropic_test(rho: DensityMatrix, alpha: int | str = 2) -> Verdict:
    """entropic_rule on one state, as a Verdict."""
    return _verdict(_entropic_name(alpha), *entropic_rule(rho, alpha))


def prefix_diffs(marginal: np.ndarray, global_: np.ndarray) -> np.ndarray:
    """Prefix sums of a marginal spectrum minus those of the global spectrum, along the last axis.

    Both are non-increasing; the marginal is zero-padded to the global length.
    The marginal majorizes the global spectrum when every entry is >= 0.
    """
    pad = np.zeros(marginal.shape[:-1] + (global_.shape[-1] - marginal.shape[-1],))
    padded = np.concatenate([marginal, pad], axis=-1)
    return np.cumsum(padded, axis=-1) - np.cumsum(global_, axis=-1)


def majorization_rule(rho: DensityMatrix):
    """Marginal spectra must majorize the global spectrum (prefix-sum dominance)."""
    lam_ab = rho.eigenvalues[..., ::-1]
    prefix = {
        f"prefix_diffs_{label}": prefix_diffs(lam_m[..., ::-1], lam_ab)
        for label, lam_m in zip("ab", rho.marginal_spectra)
    }
    margin = np.minimum(*(diffs.min(axis=-1) for diffs in prefix.values()))
    return margin, margin >= -PREFIX_ABS_TOL, {"tol": PREFIX_ABS_TOL, **prefix}


def majorization_test(rho: DensityMatrix) -> Verdict:
    """majorization_rule on one state, as a Verdict."""
    return _verdict("majorization", *majorization_rule(rho))


def cross_norm_rule(rho: DensityMatrix):
    """Realignment criterion: trace norm of the realigned state must be <= 1."""
    tn = np.add.reduce(singular_values(realign(rho.mat, rho.dims)), axis=-1)
    margin = 1.0 - tn
    details = {"tol": CROSSNORM_ABS_TOL, "realigned_trace_norm": tn}
    return margin, margin >= -CROSSNORM_ABS_TOL, details


def cross_norm_test(rho: DensityMatrix) -> Verdict:
    """cross_norm_rule on one state, as a Verdict."""
    return _verdict("crossnorm", *cross_norm_rule(rho))


ONE_SHOT_TESTS = {
    "ppt": ppt_test,
    "reduction": reduction_test,
    "entropic-2": lambda rho: entropic_test(rho, 2),
    "entropic-vn": lambda rho: entropic_test(rho, "vn"),
    "majorization": majorization_test,
    "crossnorm": cross_norm_test,
}

# the same criteria as stacked rules: a state or a stack (..., d, d) in, and
# (margins, pass flags, details) out with the input's leading axes; each
# ONE_SHOT_TESTS entry is its rule on one state
RULES = {
    "ppt": ppt_rule,
    "reduction": reduction_rule,
    "entropic-2": lambda rho: entropic_rule(rho, 2),
    "entropic-vn": lambda rho: entropic_rule(rho, "vn"),
    "majorization": majorization_rule,
    "crossnorm": cross_norm_rule,
}


def block_objs(blocks) -> list[dict]:
    """FeasibilityResult.blocks as JSON-ready records, one per Young diagram."""
    return [{"size": s, "multiplicity": f, "face_dim": r} for s, f, r in blocks]


def symext_verdict(rho: DensityMatrix, symext_k: int = 2, **symext_opts) -> Verdict:
    """The symmetric-extension search as a Verdict; PPT runs only to flag infeasible-evidence."""
    from .symext import has_symmetric_extension

    res = has_symmetric_extension(rho, symext_k, **symext_opts)
    margin = res.tol - res.residual
    status = {"feasible": "pass", "infeasible-evidence": "fail", "inconclusive": "inconclusive"}[
        res.status
    ]
    details = {
        "tol": res.tol,
        "copies": symext_k,
        "solver_status": res.status,
        "iterations": res.iterations,
        "residual": res.residual,
        "stop_reason": res.stop_reason,
        "blocks": block_objs(res.blocks),
    }
    if res.status == "infeasible-evidence" and ppt_test(rho).passed:
        details["flag"] = "entangled by symmetric-extension evidence despite PPT pass"
    return Verdict(f"symext-{symext_k}", res.status == "feasible", margin, details, status)


def run_all(rho: DensityMatrix, symext_k: int = 2, **symext_opts) -> list[Verdict]:
    """All one-shot criteria plus the symmetric-extension search at copies=symext_k."""
    verdicts = [test(rho) for test in ONE_SHOT_TESTS.values()]
    return verdicts + [symext_verdict(rho, symext_k, **symext_opts)]
