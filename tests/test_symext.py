"""Symmetric-extension machinery: projections, explicit extensions, feasibility."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from sepkit.linalg import DensityMatrix, tensor
from sepkit.states import (
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
    tiles_upb_state,
)
from sepkit.symext import (
    ExtensionProblem,
    extend_separable,
    has_symmetric_extension,
    project_affine,
    project_psd,
    support_face,
    symmetrize_b,
    verify_extension,
)

DATA = Path(__file__).parent / "data"


def rand_op(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


def perm_indices(problem):
    """Flat index arrays realizing each permutation of the B factors (k! of them)."""
    shape = [problem.dim_a] + [problem.dim_b] * problem.copies
    base = np.arange(problem.total_dim).reshape(shape)
    return [
        np.ascontiguousarray(base.transpose([0] + [1 + p for p in pi])).reshape(-1)
        for pi in itertools.permutations(range(problem.copies))
    ]


class TestSymmetrize:
    def test_already_symmetric_fixed(self):
        rho = maximally_mixed((2, 2))
        problem = ExtensionProblem(rho, 3)
        x = np.eye(problem.total_dim) / problem.total_dim
        assert np.allclose(symmetrize_b(x, problem), x)

    def test_two_copy_average(self):
        rng = np.random.default_rng(0)
        sigma = random_density(2, 1).mat
        tau1 = random_density(2, 2).mat
        tau2 = random_density(2, 3).mat
        rho = maximally_mixed((2, 2))
        problem = ExtensionProblem(rho, 2)
        got = symmetrize_b(tensor(sigma, tensor(tau1, tau2)), problem)
        expected = 0.5 * (
            tensor(sigma, tensor(tau1, tau2)) + tensor(sigma, tensor(tau2, tau1))
        )
        assert np.allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("k", [2, 3])
    def test_projector_law(self, k):
        rng = np.random.default_rng(4)
        problem = ExtensionProblem(maximally_mixed((2, 2)), k)
        x = rand_op(rng, problem.total_dim)
        once = symmetrize_b(x, problem)
        assert np.allclose(symmetrize_b(once, problem), once, atol=1e-12)

    def test_permutation_invariance_of_output(self):
        rng = np.random.default_rng(5)
        problem = ExtensionProblem(maximally_mixed((2, 2)), 3)
        s = symmetrize_b(rand_op(rng, problem.total_dim), problem)
        for p in perm_indices(problem):
            assert np.allclose(s[np.ix_(p, p)], s, atol=1e-12)


class TestExtendSeparable:
    def test_single_product_member(self):
        _, ens = random_separable((2, 2), 1, 0)
        w, ra, rb = ens.members[0]
        ext = extend_separable(ens, 2)
        assert np.allclose(ext, tensor(ra, tensor(rb, rb)), atol=1e-14)
        res = verify_extension(ext, ens.state(), 2)
        assert res["symmetry_residual"] < 1e-12
        assert res["marginal_residual"] < 1e-12
        assert res["psd_margin"] > -1e-12

    def test_random_ensemble_marginal(self):
        state, ens = random_separable((2, 3), 4, 1)
        ext = extend_separable(ens, 2)
        res = verify_extension(ext, state, 2)
        assert res["marginal_residual"] < 1e-12

    def test_warm_start_feasible_immediately(self):
        state, ens = random_separable((3, 3), 5, 2)
        ext = extend_separable(ens, 2)
        res = has_symmetric_extension(state, 2, start=ext)
        assert res.status == "feasible"
        assert res.iterations <= 1

    def test_cap_and_copies_validated(self):
        _, ens = random_separable((2, 2), 1, 3)
        with pytest.raises(ValueError):
            extend_separable(ens, 1)
        with pytest.raises(ValueError):
            extend_separable(ens, 12)


class TestAffineProjection:
    def setup_method(self):
        self.state, self.ens = random_separable((2, 2), 3, 7)
        self.problem = ExtensionProblem(self.state, 2)
        self.witness = extend_separable(self.ens, 2)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        z = rand_op(rng, self.problem.total_dim)
        once = project_affine(z, self.problem)
        twice = project_affine(once, self.problem)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_lands_on_constraints(self):
        rng = np.random.default_rng(9)
        z = rand_op(rng, self.problem.total_dim)
        y = project_affine(z, self.problem)
        res = verify_extension(y, self.state, 2)
        assert res["symmetry_residual"] < 1e-12
        assert res["marginal_residual"] < 1e-12

    def test_fejer_monotone_toward_feasible_points(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            z = rand_op(rng, self.problem.total_dim)
            d_before = np.linalg.norm(z - self.witness)
            d_after = np.linalg.norm(project_affine(z, self.problem) - self.witness)
            assert d_after <= d_before + 1e-12

    def test_psd_projection(self):
        rng = np.random.default_rng(11)
        z = rand_op(rng, 6)
        p = project_psd(z)
        assert np.linalg.eigvalsh(p)[0] >= -1e-12
        # projection is the positive part: z = p - n with p n orthogonal
        n = p - z
        assert np.linalg.eigvalsh(n)[0] >= -1e-10
        assert abs(np.trace(p @ n)) < 1e-8


class TestFeasibility:
    def test_separable_cold_start(self):
        state, _ = random_separable((2, 2), 4, 7)
        res = has_symmetric_extension(state, 2)
        assert res.status == "feasible"
        check = verify_extension(res.witness_extension, state, 2)
        assert check["symmetry_residual"] <= 1e-7
        assert check["marginal_residual"] <= 1e-7
        assert check["psd_margin"] >= -1e-7

    @pytest.mark.parametrize("dims, k", [((2, 2), 2), ((3, 3), 2), ((2, 3), 2), ((2, 2), 3)])
    def test_rank_deficient_cold_start(self, dims, k):
        # rank 3 < dA*dB: no strictly feasible extension on the full cone, so
        # the search must run on the face of rho's support to converge
        state, _ = random_separable(dims, 3, 0)
        res = has_symmetric_extension(state, k)
        assert res.status == "feasible"
        check = verify_extension(res.witness_extension, state, k)
        assert check["symmetry_residual"] <= 1e-7
        assert check["marginal_residual"] <= 1e-7
        assert check["psd_margin"] >= -1e-7

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_maxent_empty_face(self, k):
        rho = max_entangled(2)
        problem = ExtensionProblem(rho, k)
        assert support_face(problem).shape == (problem.total_dim, 0)
        res = has_symmetric_extension(rho, k)
        assert res.status == "infeasible-evidence"
        assert res.iterations == 0
        zero = np.zeros((problem.total_dim, problem.total_dim))
        assert res.residual == pytest.approx(np.linalg.norm(project_affine(zero, problem)))

    def test_face_holds_explicit_extension(self):
        state, ens = random_separable((2, 3), 3, 4)
        problem = ExtensionProblem(state, 2)
        v = support_face(problem)
        ext = extend_separable(ens, 2)
        assert np.linalg.norm(v @ (v.conj().T @ ext @ v) @ v.conj().T - ext) < 1e-12

    def test_full_rank_or_ambiguous_spectrum_keeps_full_cone(self):
        assert support_face(ExtensionProblem(random_separable((2, 2), 4, 7)[0], 2)) is None
        # an eigenvalue of 1e-8 lies between zero and support: no cut is made
        rho = DensityMatrix((1 - 9e-8) * tiles_upb_state().mat + 1e-8 * np.eye(9), (3, 3))
        assert support_face(ExtensionProblem(rho, 2)) is None

    def test_maxent_two_copies_infeasible(self):
        res = has_symmetric_extension(max_entangled(2), 2)
        assert res.status == "infeasible-evidence"
        assert res.witness_extension is None
        assert res.residual > 0.1  # the gap is macroscopic for Phi(2)

    def test_maximally_mixed_three_copies(self):
        res = has_symmetric_extension(maximally_mixed((2, 2)), 3)
        assert res.status == "feasible"
        assert res.iterations <= 1

    def test_monotone_hierarchy_trace_down(self):
        state, ens = random_separable((2, 2), 3, 12)
        res3 = has_symmetric_extension(state, 3, start=extend_separable(ens, 3))
        assert res3.status == "feasible"
        w3 = res3.witness_extension
        # tracing out the last B copy turns a 3-extension into a 2-extension
        da, db = state.dims
        t = w3.reshape(da * db * db, db, da * db * db, db)
        w2 = np.einsum("aibi->ab", t)
        check = verify_extension(w2, state, 2)
        assert check["symmetry_residual"] <= 1e-7
        assert check["marginal_residual"] <= 1e-7
        assert check["psd_margin"] >= -1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            has_symmetric_extension(maximally_mixed((2, 2)), 1)
        with pytest.raises(ValueError):
            has_symmetric_extension(maximally_mixed((2, 2)), 12)  # 2 * 2**12 > DIM_CAP


class TestTilesTwoExtension:
    """The tiles state admits an exact symmetric 2-copy extension.

    The frozen witness has rational entries (denominator 432); its symmetry
    and marginal constraints hold exactly and it is PSD with rank 3. Plain
    2-copy extendibility therefore cannot flag this state as entangled; the
    unextendible-product-basis certificate is what detects it.
    """

    def test_frozen_witness_is_valid(self):
        obj = json.loads((DATA / "tiles_two_extension.json").read_text())
        witness = np.asarray(obj["numerators"], dtype=float) / obj["denominator"]
        res = verify_extension(witness, tiles_upb_state(), 2)
        assert res["symmetry_residual"] < 1e-13
        assert res["marginal_residual"] < 1e-13
        assert res["psd_margin"] > -1e-13
        vals = np.linalg.eigvalsh(witness)
        assert int(np.sum(vals > 1e-9)) == 3
        assert abs(np.trace(witness) - 1.0) < 1e-12

    def test_solver_does_not_report_infeasibility(self):
        res = has_symmetric_extension(tiles_upb_state(), 2, max_iters=600)
        assert res.status in ("feasible", "inconclusive")


@pytest.mark.slow
class TestSdpCrossCheck:
    """One-time independent semidefinite-programming oracle (skipped without cvxpy)."""

    def _solve(self, rho):
        cp = pytest.importorskip("cvxpy")
        da, db = rho.dims
        n = da * db * db
        problem = ExtensionProblem(rho, 2)
        x = cp.Variable((n, n), hermitian=True)
        perm = perm_indices(problem)[1]
        p = np.zeros((n, n))
        p[np.arange(n), perm] = 1.0
        cons = [
            x >> 0,
            p @ x @ p.T == x,
            cp.partial_trace(x, [da * db, db], 1) == rho.mat,
        ]
        prob = cp.Problem(cp.Minimize(0), cons)
        prob.solve(solver="SCS")
        return prob.status

    def test_maxent_infeasible_by_sdp(self):
        assert self._solve(max_entangled(2)) in ("infeasible", "infeasible_inaccurate")

    def test_tiles_feasible_by_sdp(self):
        assert self._solve(tiles_upb_state()) in ("optimal", "optimal_inaccurate")
