"""Matrix JSON schema shared project-wide.

Documents look like::

    {"kind": "density" | "hermitian" | "matrix",
     "dims": [dim_a, dim_b],          # optional for non-bipartite payloads
     "re": [[...], ...],
     "im": [[...], ...]}

Numbers are IEEE-754 doubles in decimal; python's repr round-trips them
exactly, so a write/read cycle is bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .linalg import DensityMatrix, is_hermitian

KINDS = ("density", "hermitian", "matrix")


def matrix_to_obj(m: np.ndarray, kind: str = "matrix", dims=None) -> dict[str, Any]:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    m = np.asarray(m, dtype=complex)
    obj: dict[str, Any] = {"kind": kind}
    if dims is not None:
        obj["dims"] = [int(dims[0]), int(dims[1])]
    obj["re"] = [[float(x) for x in row] for row in m.real]
    obj["im"] = [[float(x) for x in row] for row in m.imag]
    return obj


def density_to_obj(rho: DensityMatrix) -> dict[str, Any]:
    return matrix_to_obj(rho.mat, "density", rho.dims)


def obj_to_matrix(obj: dict[str, Any]) -> tuple[str, np.ndarray, tuple[int, int] | None]:
    """Decode a schema document; validates the declared kind's invariants."""
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown or missing kind {kind!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError("re/im parts must be 2D arrays of the same shape")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("re/im parts must be finite numbers")
    m = re + 1j * im
    dims = obj.get("dims")
    if dims is not None:
        dims = (int(dims[0]), int(dims[1]))
    if kind == "hermitian" and not is_hermitian(m):
        raise ValueError("matrix declared hermitian is not Hermitian within tolerance")
    if kind == "density":
        if dims is None:
            raise ValueError("density payloads need explicit dims")
        DensityMatrix(m, dims)  # runs all state invariants; raises with the failing one
    return kind, m, dims


def obj_to_density(obj: dict[str, Any]) -> DensityMatrix:
    kind, m, dims = obj_to_matrix(obj)
    if kind != "density":
        raise ValueError(f"expected a density payload, got kind={kind!r}")
    assert dims is not None
    return DensityMatrix(m, dims)


def save_matrix(path: str, m: np.ndarray, kind: str = "matrix", dims=None) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(m, kind, dims), fh)
        fh.write("\n")


def save_density(path: str, rho: DensityMatrix) -> None:
    save_matrix(path, rho.mat, "density", rho.dims)


def load_matrix(path: str) -> tuple[str, np.ndarray, tuple[int, int] | None]:
    with open(path) as fh:
        return obj_to_matrix(json.load(fh))


def load_density(path: str) -> DensityMatrix:
    with open(path) as fh:
        return obj_to_density(json.load(fh))
