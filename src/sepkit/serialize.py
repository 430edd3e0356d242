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
    obj["re"] = m.real.tolist()
    obj["im"] = m.imag.tolist()
    return obj


def density_to_obj(rho: DensityMatrix) -> dict[str, Any]:
    return matrix_to_obj(rho.mat, "density", rho.dims)


def _decode(
    obj: dict[str, Any],
) -> tuple[str, np.ndarray, tuple[int, int] | None, DensityMatrix | None]:
    """obj_to_matrix's decoding, plus the state a density payload is validated as."""
    if not isinstance(obj, dict):
        raise ValueError(f"a matrix document must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown or missing kind {kind!r}")
    try:
        parts = obj["re"], obj["im"]
    except KeyError as exc:
        raise ValueError(f"matrix document has no {exc.args[0]!r} part") from None
    for part in parts:
        if not (isinstance(part, list) and all(isinstance(row, list) for row in part)):
            raise ValueError("re/im parts must be 2D arrays of numbers")
        for row in part:
            for x in row:
                # numpy would read "1" and true as the number 1; bool subclasses int
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise ValueError(f"re/im entries must be numbers, got {x!r}")
    try:
        re, im = (np.asarray(part, dtype=float) for part in parts)
    except OverflowError:
        raise ValueError("re/im parts must be finite numbers") from None
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError("re/im parts must be 2D arrays of the same shape")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("re/im parts must be finite numbers")
    m = re + 1j * im
    dims = obj.get("dims")
    if dims is not None:
        if not (isinstance(dims, list) and len(dims) == 2 and all(type(n) is int for n in dims)):
            raise ValueError(f"dims must be a list of two integers, got {dims!r}")
        dims = (dims[0], dims[1])
    if kind == "hermitian" and not is_hermitian(m):
        raise ValueError("matrix declared hermitian is not Hermitian within tolerance")
    if kind != "density":
        return kind, m, dims, None
    if dims is None:
        raise ValueError("density payloads need explicit dims")
    return kind, m, dims, DensityMatrix(m, dims)


def obj_to_matrix(obj: dict[str, Any]) -> tuple[str, np.ndarray, tuple[int, int] | None]:
    """Decode a schema document; validates the declared kind's invariants."""
    return _decode(obj)[:3]


def obj_to_density(obj: dict[str, Any]) -> DensityMatrix:
    kind, _, _, rho = _decode(obj)
    if rho is None:
        raise ValueError(f"expected a density payload, got kind={kind!r}")
    return rho


def load_density(path: str) -> DensityMatrix:
    with open(path) as fh:
        return obj_to_density(json.load(fh))
