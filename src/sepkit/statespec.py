"""Compact textual state specifiers used on the command line.

Grammar::

    maxent:d                maximally entangled state on d x d
    isotropic:d:t           segment (1-t) I/d^2 + t Phi(d)
    tiles                   the 3 x 3 tiles UPB bound entangled state
    random:dA:dB:seed       Hilbert-Schmidt random state on dA x dB
    sep:dA:dB:k:seed        seeded mixture of k pure product states
    file:PATH               JSON matrix document with kind "density"

"sep:" specs also return the certifying product ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DensityMatrix
from .serialize import load_density
from .states import (
    ProductEnsemble,
    maximally_mixed,
    max_entangled,
    random_density,
    random_separable,
    segment_state,
    tiles_upb_state,
)


@dataclass(frozen=True)
class ParsedState:
    state: DensityMatrix
    ensemble: ProductEnsemble | None
    kind: str


class StateSpecError(ValueError):
    pass


def _ints(parts: list[str], spec: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise StateSpecError(f"malformed state spec {spec!r}: {exc}") from exc


def parse_state_spec(spec: str) -> ParsedState:
    head, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if head == "maxent":
        if len(parts) != 1:
            raise StateSpecError(f"usage maxent:d, got {spec!r}")
        (d,) = _ints(parts, spec)
        return ParsedState(max_entangled(d), None, "maxent")
    if head == "isotropic":
        if len(parts) != 2:
            raise StateSpecError(f"usage isotropic:d:t, got {spec!r}")
        d = _ints(parts[:1], spec)[0]
        try:
            t = float(parts[1])
        except ValueError as exc:
            raise StateSpecError(f"malformed state spec {spec!r}: {exc}") from exc
        return ParsedState(segment_state(maximally_mixed((d, d)), t), None, "isotropic")
    if head == "tiles":
        if parts:
            raise StateSpecError(f"tiles takes no arguments, got {spec!r}")
        return ParsedState(tiles_upb_state(), None, "tiles")
    if head == "random":
        if len(parts) != 3:
            raise StateSpecError(f"usage random:dA:dB:seed, got {spec!r}")
        da, db, seed = _ints(parts, spec)
        return ParsedState(random_density(da * db, seed, (da, db)), None, "random")
    if head == "sep":
        if len(parts) != 4:
            raise StateSpecError(f"usage sep:dA:dB:k:seed, got {spec!r}")
        da, db, k, seed = _ints(parts, spec)
        state, ens = random_separable((da, db), k, seed)
        return ParsedState(state, ens, "sep")
    if head == "file":
        if not rest:
            raise StateSpecError(f"usage file:PATH, got {spec!r}")
        return ParsedState(load_density(rest), None, "file")
    raise StateSpecError(f"unknown state spec {spec!r}")
