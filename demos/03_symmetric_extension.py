#!/usr/bin/env python3
"""Symmetric-extension feasibility by a dual search that ends on a certificate.

A separable state always extends: sum_i p_i sigma_i (x) tau_i^{(x)k} is an
explicit witness, and the search finds one from a cold start because it runs
on the face of the state's support. A state with no extension ends with a
Farkas witness W': Tr(W' rho) > 0 while symmetrize_b(W' (x) I) is negative
definite, so no PSD extension X can have Tr(W' rho) = Tr(symmetrize_b(W' (x) I) X).
The maximally entangled state has no 2-copy extension at all (monogamy): the
face of its support is empty, so the search stops before its first iteration
with W' = c I - P_ker, P_ker the projector onto its kernel.
"""

import numpy as np

from sepkit import (
    ExtensionProblem,
    extend_separable,
    has_symmetric_extension,
    max_entangled,
    maximally_mixed,
    random_separable,
    segment_state,
    symmetrize_b,
    tensor,
    verify_extension,
)


def main():
    state, ens = random_separable((2, 2), 3, seed=11)

    print("rank-3 separable mixture, cold start (search on the face of its support):")
    res = has_symmetric_extension(state, 2)
    print(f"  {res.status} after {res.iterations} iterations (marginal residual {res.residual:.2e})")
    print(f"  witness residuals: {verify_extension(res.witness_extension, state, 2)}")

    print("separable mixture, started from its explicit extension:")
    res = has_symmetric_extension(state, 2, start=extend_separable(ens, 2))
    print(f"  {res.status} after {res.iterations} iteration(s)")
    print(f"  witness residuals: {verify_extension(res.witness_extension, state, 2)}")

    print("\nmaximally mixed state, k = 3 copies:")
    res = has_symmetric_extension(maximally_mixed((2, 2)), 3)
    print(f"  {res.status} after {res.iterations} iterations (the extension I/16)")

    print("\nisotropic state 0.2 I/4 + 0.8 Phi(2), k = 2 copies:")
    iso = segment_state(maximally_mixed((2, 2)), 0.8)
    res = has_symmetric_extension(iso, 2)
    print(f"  {res.status} ({res.stop_reason}) after {res.iterations} iterations")
    w = res.farkas_witness
    lifted = symmetrize_b(tensor(w, np.eye(2)), ExtensionProblem(iso, 2))
    print(f"  Tr(W' rho) = {np.trace(w @ iso.mat).real:.4f} > 0, "
          f"largest eigenvalue of symmetrize_b(W' (x) I) = {np.linalg.eigvalsh(lifted)[-1]:.4f} < 0")

    print("\nmaximally entangled state, k = 2 copies:")
    res = has_symmetric_extension(max_entangled(2), 2)
    print(f"  {res.status} ({res.stop_reason}) after {res.iterations} iterations")
    print(f"  the empty face holds only X = 0, whose marginal misses rho by {res.residual:.4f}")
    phi, w = max_entangled(2), res.farkas_witness
    lifted = symmetrize_b(tensor(w, np.eye(2)), ExtensionProblem(phi, 2))
    print(f"  Tr(W' rho) = {np.trace(w @ phi.mat).real:.4f} > 0, "
          f"largest eigenvalue of symmetrize_b(W' (x) I) = {np.linalg.eigvalsh(lifted)[-1]:.4f} < 0")
    print("  (monogamy: a pure entangled state cannot share itself symmetrically)")

    print("\nhierarchy: a 3-copy witness traced down is a 2-copy witness:")
    res3 = has_symmetric_extension(state, 3, start=extend_separable(ens, 3))
    w3 = res3.witness_extension
    da, db = state.dims
    w2 = np.einsum("aibi->ab", w3.reshape(da * db * db, db, da * db * db, db))
    print(f"  traced-down residuals: {verify_extension(w2, state, 2)}")


if __name__ == "__main__":
    main()
