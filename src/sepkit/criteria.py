"""One-shot separability criteria, each returning a quantitative Verdict.

Every test is a necessary condition for separability: a failure certifies
entanglement, a pass is inconclusive on its own. Margins are signed distances
from the decision threshold (positive = pass). Logs are base 2 throughout.
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


def ppt_test(rho: DensityMatrix) -> Verdict:
    """Positive partial transpose: rho^{T_B} must stay PSD."""
    vals = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims))
    margin, tol = psd_floor(vals)
    details = {"tol": tol, "pt_eigenvalues": [float(v) for v in vals[::-1]]}
    return Verdict("ppt", margin >= -tol, margin, details)


def reduction_test(rho: DensityMatrix) -> Verdict:
    """Reduction criterion on both sides: I ⊗ rho_B >= rho and rho_A ⊗ I >= rho."""
    da, db = rho.dims
    rho_a = partial_trace(rho.mat, rho.dims, "A")
    rho_b = partial_trace(rho.mat, rho.dims, "B")
    margin_b, tol_b = psd_floor(np.linalg.eigvalsh(tensor(np.eye(da), rho_b) - rho.mat))
    margin_a, tol_a = psd_floor(np.linalg.eigvalsh(tensor(rho_a, np.eye(db)) - rho.mat))
    margin = min(margin_b, margin_a)
    tol = max(tol_b, tol_a)
    details = {"tol": tol, "margin_b_side": margin_b, "margin_a_side": margin_a}
    return Verdict("reduction", margin >= -tol, margin, details)


def marginal_spectra(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of rho_A and rho_B."""
    return tuple(np.linalg.eigvalsh(partial_trace(rho.mat, rho.dims, keep)) for keep in "AB")


def _renyi2(vals: np.ndarray) -> float:
    vals = np.clip(vals, 0.0, None)
    return -float(np.log2(float(np.sum(vals**2))))


def _von_neumann(vals: np.ndarray) -> float:
    vals = np.clip(vals, 0.0, None)
    vals = vals[vals > _EIG_FLOOR]
    return -float(np.sum(vals * np.log2(vals)))


# criterion name -> entropy of a spectrum; negative eigenvalues count as zero
ENTROPIES = {"entropic-2": _renyi2, "entropic-vn": _von_neumann}


def entropic_test(rho: DensityMatrix, alpha: int | str = 2) -> Verdict:
    """Entropy comparison S(rho_AB) >= S(rho_M) for both marginals M.

    alpha=2 uses the Renyi-2 entropy -log2 Tr(rho^2); alpha='vn' uses the von
    Neumann limit. Zero eigenvalues contribute nothing.
    """
    if alpha == 2:
        name = "entropic-2"
    elif alpha in ("vn", "von-neumann", 1):
        name = "entropic-vn"
    else:
        raise ValueError(f"alpha must be 2 or 'vn', got {alpha!r}")
    ent = ENTROPIES[name]
    s_ab = ent(rho.eigenvalues)
    s_a, s_b = (ent(vals) for vals in marginal_spectra(rho))
    margin = min(s_ab - s_a, s_ab - s_b)
    details = {"tol": ENTROPY_ABS_TOL, "s_ab": s_ab, "s_a": s_a, "s_b": s_b}
    return Verdict(name, margin >= -ENTROPY_ABS_TOL, margin, details)


def prefix_diffs(marginal: np.ndarray, global_: np.ndarray) -> np.ndarray:
    """Prefix sums of a marginal spectrum minus those of the global spectrum.

    Both are non-increasing; the marginal is zero-padded to the global length.
    The marginal majorizes the global spectrum when every entry is >= 0.
    """
    padded = np.concatenate([marginal, np.zeros(global_.size - marginal.size)])
    return np.cumsum(padded) - np.cumsum(global_)


def majorization_test(rho: DensityMatrix) -> Verdict:
    """Marginal spectra must majorize the global spectrum (prefix-sum dominance)."""
    lam_ab = rho.eigenvalues[::-1]
    margin = np.inf
    prefix = {}
    for label, lam_m in zip("ab", marginal_spectra(rho)):
        diffs = prefix_diffs(lam_m[::-1], lam_ab)
        prefix[f"prefix_diffs_{label}"] = [float(x) for x in diffs]
        margin = min(margin, float(np.min(diffs)))
    details = {"tol": PREFIX_ABS_TOL, **prefix}
    return Verdict("majorization", margin >= -PREFIX_ABS_TOL, float(margin), details)


def cross_norm_test(rho: DensityMatrix) -> Verdict:
    """Realignment criterion: trace norm of the realigned state must be <= 1."""
    tn = float(np.sum(singular_values(realign(rho.mat, rho.dims))))
    margin = 1.0 - tn
    details = {"tol": CROSSNORM_ABS_TOL, "realigned_trace_norm": tn}
    return Verdict("crossnorm", margin >= -CROSSNORM_ABS_TOL, margin, details)


ONE_SHOT_TESTS = {
    "ppt": ppt_test,
    "reduction": reduction_test,
    "entropic-2": lambda rho: entropic_test(rho, 2),
    "entropic-vn": lambda rho: entropic_test(rho, "vn"),
    "majorization": majorization_test,
    "crossnorm": cross_norm_test,
}


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
    }
    if res.status == "infeasible-evidence" and ppt_test(rho).passed:
        details["flag"] = "entangled by symmetric-extension evidence despite PPT pass"
    return Verdict(f"symext-{symext_k}", res.status == "feasible", margin, details, status)


def run_all(rho: DensityMatrix, symext_k: int = 2, **symext_opts) -> list[Verdict]:
    """All one-shot criteria plus the symmetric-extension search at copies=symext_k."""
    verdicts = [test(rho) for test in ONE_SHOT_TESTS.values()]
    return verdicts + [symext_verdict(rho, symext_k, **symext_opts)]
