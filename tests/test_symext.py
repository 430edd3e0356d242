"""Symmetric-extension machinery: projections, explicit extensions, feasibility."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import sepkit.symext
from sepkit.linalg import DensityMatrix, partial_trace, tensor
from sepkit.statespec import parse_state_spec
from sepkit.states import (
    DIM_CAP,
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
    segment_state,
    tiles_upb_state,
)
from sepkit.symext import (
    ExtensionProblem,
    extend_separable,
    has_symmetric_extension,
    project_affine,
    project_psd,
    schur_weyl_blocks,
    support_face,
    symmetrize_b,
    verify_extension,
    young_diagrams,
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

    @pytest.mark.parametrize(
        "dims, k",
        [((2, 3), 2), ((2, 3), 3), ((2, 3), 4), ((3, 2), 2), ((3, 2), 3), ((2, 2), 4), ((2, 2), 5)],
    )
    def test_equals_group_average(self, dims, k):
        # dA != dB tells the A axis from the B axes
        rng = np.random.default_rng(6)
        problem = ExtensionProblem(maximally_mixed(dims), k)
        x = rand_op(rng, problem.total_dim)
        perms = perm_indices(problem)
        average = sum(x[np.ix_(p, p)] for p in perms) / len(perms)
        assert np.max(np.abs(symmetrize_b(x, problem) - average)) < 1e-12

    def test_problem_holds_no_cache(self):
        problem = ExtensionProblem(maximally_mixed((2, 2)), 3)
        symmetrize_b(np.eye(problem.total_dim), problem)
        assert set(vars(problem)) == {"base", "copies"}

    def test_permutation_invariance_of_output(self):
        rng = np.random.default_rng(5)
        problem = ExtensionProblem(maximally_mixed((2, 2)), 3)
        s = symmetrize_b(rand_op(rng, problem.total_dim), problem)
        for p in perm_indices(problem):
            assert np.allclose(s[np.ix_(p, p)], s, atol=1e-12)


class TestExtendSeparable:
    def test_single_product_member(self):
        _, ens = random_separable((2, 2), 1, 0)
        w, ra, rb = ens.weights[0], ens.a[0], ens.b[0]
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
        sw = schur_weyl_blocks(2, k)
        assert [b.shape[1] for b in support_face(problem, sw)] == [0] * len(sw.multiplicities)
        res = has_symmetric_extension(rho, k)
        assert (res.status, res.iterations, res.stop_reason) == ("infeasible-evidence", 0, "empty-face")
        # W' = c·I − P_ker: both margins equal c/‖W'‖ up to rounding, well above tol/2
        w = res.farkas_witness
        lifted = symmetrize_b(tensor(w, np.eye(2 ** (k - 1))), problem)
        inside, top = np.trace(w @ rho.mat).real, np.linalg.eigvalsh(lifted)[-1]
        assert inside == pytest.approx(-top, rel=1e-9)
        assert inside > 0.08
        # X = 0 is all the empty face holds: the marginal defect is rho itself
        assert res.residual == pytest.approx(np.linalg.norm(rho.mat), rel=1e-15)

    def test_face_holds_explicit_extension(self):
        state, ens = random_separable((2, 3), 3, 4)
        problem = ExtensionProblem(state, 2)
        faces = support_face(problem, schur_weyl_blocks(3, 2))
        ext = extend_separable(ens, 2)
        for (v, _), b in zip(block_isometries(2, 3, 2), faces, strict=True):
            blk = v.conj().T @ ext @ v
            assert np.linalg.norm(b @ (b.conj().T @ blk @ b) @ b.conj().T - blk) < 1e-12

    def test_full_rank_or_ambiguous_spectrum_keeps_full_cone(self):
        full_rank = ExtensionProblem(random_separable((2, 2), 4, 7)[0], 2)
        assert support_face(full_rank, schur_weyl_blocks(2, 2)) is None
        # an eigenvalue of 1e-8 lies between zero and support: no cut is made
        rho = DensityMatrix((1 - 9e-8) * tiles_upb_state().mat + 1e-8 * np.eye(9), (3, 3))
        assert support_face(ExtensionProblem(rho, 2), schur_weyl_blocks(3, 2)) is None

    def test_blocks_cut_at_one_scale(self):
        # the blocks of one operator are cut at its largest eigenvalue, not each at its own
        big, small, tiny = np.diag([1.0, 0.0]), np.diag([1e-8, 0.0]), np.diag([1e-12, 0.0])
        assert sepkit.symext._null_spaces([big, small]) is None  # 1e-8 lies between zero and support
        assert [b.shape[1] for b in sepkit.symext._null_spaces([big, tiny])] == [1, 2]

    def test_maxent_two_copies_infeasible(self):
        res = has_symmetric_extension(max_entangled(2), 2)
        assert res.status == "infeasible-evidence"
        assert res.witness_extension is None
        assert res.residual > 0.1  # the gap is macroscopic for Phi(2)

    def test_isotropic_farkas_certificate(self):
        # full rank, so the face is the full cone and W' holds on the whole space
        rho = segment_state(maximally_mixed((2, 2)), 0.8)
        res = has_symmetric_extension(rho, 2)
        assert (res.status, res.iterations, res.stop_reason) == ("infeasible-evidence", 2, "farkas")
        assert res.residual == pytest.approx(0.34641016151377546, rel=1e-9)
        w = res.farkas_witness
        lifted = symmetrize_b(tensor(w, np.eye(2)), ExtensionProblem(rho, 2))
        inside, top = np.trace(w @ rho.mat).real, np.linalg.eigvalsh(lifted)[-1]
        # the shift by (ℓ + μ)/2 splits the margin evenly
        assert inside == pytest.approx(-top, rel=1e-9)
        assert inside > 0.04

    def test_maximally_mixed_three_copies(self):
        # the first evaluation is X(0) = 0; the first step lands on W = rho / dB^2 and X = I/16
        res = has_symmetric_extension(maximally_mixed((2, 2)), 3)
        assert (res.status, res.iterations) == ("feasible", 2)
        assert np.max(np.abs(res.witness_extension - np.eye(16) / 16)) <= 1e-15

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": "1e-7"},
            {"tol": None},
            {"tol": 1e-7j},
            {"max_iters": 0},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        # sep:2:2:3:1 has an exact 2-extension; bad settings must not reach the loop
        state, _ = random_separable((2, 2), 3, 1)
        with pytest.raises(ValueError, match="need a finite tol > 0 and max_iters >= 1"):
            has_symmetric_extension(state, 2, **kwargs)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda state, ens: has_symmetric_extension(state, 2, max_iters=True), "max_iters"),
            (lambda state, ens: has_symmetric_extension(state, 2, max_iters=2.5), "max_iters"),
            (lambda state, ens: has_symmetric_extension(state, 2, max_iters="5"), "max_iters"),
            (lambda state, ens: has_symmetric_extension(state, 2, max_iters=None), "max_iters"),
            (lambda state, ens: has_symmetric_extension(state, 2.0), "k"),
            (lambda state, ens: has_symmetric_extension(state, True), "k"),
            (lambda state, ens: extend_separable(ens, 2.0), "k"),
            (lambda state, ens: ExtensionProblem(state, 2.0), "copies"),
        ],
        ids=[
            "max_iters-bool", "max_iters-float", "max_iters-str", "max_iters-none",
            "k-float", "k-bool", "extend-k-float", "problem-copies-float",
        ],
    )
    def test_rejects_non_integer_counts(self, call, name):
        state, ens = random_separable((2, 2), 3, 1)
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            call(state, ens)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_start(self, bad):
        state, ens = random_separable((2, 2), 3, 1)
        start = extend_separable(ens, 2)
        start[0, 0] = bad
        # not a LinAlgError (a ValueError too) from inside the loop
        with pytest.raises(ValueError, match="start holds NaN or Inf"):
            has_symmetric_extension(state, 2, start=start)

    def test_rejects_misshapen_start_before_any_work(self, monkeypatch):
        state, _ = random_separable((2, 2), 3, 1)
        monkeypatch.setattr(sepkit.symext, "support_face", lambda problem, sw: pytest.fail("work started"))
        with pytest.raises(ValueError, match=r"shape \(3, 4\), expected \(8, 8\)"):
            has_symmetric_extension(state, 2, start=np.zeros((3, 4)))

    def test_start_symmetrized_before_use(self):
        # a start that is not permutation-invariant: the search reached
        # feasible after 26 iterations from its symmetrization
        state, _ = random_separable((2, 2), 4, 7)
        start = random_density(16, 3).mat
        res = has_symmetric_extension(state, 3, start=start)
        assert (res.status, res.iterations) == ("feasible", 26)
        symmetrized = has_symmetric_extension(state, 3, start=symmetrize_b(start, ExtensionProblem(state, 3)))
        assert symmetrized.iterations == 26
        assert np.max(np.abs(symmetrized.witness_extension - res.witness_extension)) <= 1e-12

    def test_marginal_stop_reason(self):
        # recorded: the marginal of X(W) comes within the loose tol at iteration 7
        state, _ = random_separable((2, 2), 4, 32)
        res = has_symmetric_extension(state, 2, tol=1e-2)
        assert (res.status, res.iterations, res.stop_reason) == ("feasible", 7, "marginal-within-tol")
        assert verify_extension(res.witness_extension, state, 2)["marginal_residual"] <= 1e-2

    def test_blocks_report_face(self):
        rho = tiles_upb_state()
        res = has_symmetric_extension(rho, 2)
        assert res.blocks == ((18, 1, 3), (9, 1, 0))
        problem = ExtensionProblem(rho, 2)
        faces = support_face(problem, schur_weyl_blocks(3, 2))
        assert [b.shape[1] for b in faces] == [r for _, _, r in res.blocks]
        # the dense face: the null space of symmetrize_b(P_ker ⊗ I)
        vals, vecs = np.linalg.eigh(rho.mat)
        kernel = vecs[:, vals < 1e-10]
        lifted = symmetrize_b(tensor(kernel @ kernel.conj().T, np.eye(3)), problem)
        assert sum(f * r for _, f, r in res.blocks) == np.sum(np.linalg.eigvalsh(lifted) < 1e-10)

    @pytest.mark.parametrize("spec, k", [("tiles", 2), ("maxent:2", 5), ("sep:2:3:3:4", 3)])
    def test_no_decomposition_above_block_size(self, monkeypatch, spec, k):
        # n = 27, 64 and 54: the face and every projection are cut per block
        rho = parse_state_spec(spec).state
        da, db = rho.dims
        # built here, before recording: building the block data runs its own eigh per sector
        sw = schur_weyl_blocks(db, k)
        sizes = []
        for name in ("eigh", "eigvalsh"):
            def recorded(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
                sizes.append(np.shape(a)[-1])
                return _decompose(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        has_symmetric_extension(rho, k)
        assert sizes
        assert max(sizes) <= max(da * db, da * max(sw.irrep_dims))


def singular_b_state(da, db, seed):
    """A random state whose B marginal has rank db - 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((da, db, 3)) + 1j * rng.standard_normal((da, db, 3))
    g[:, -1] = 0
    g = g.reshape(da * db, 3)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (da, db))


def product_start(rho, k):
    """rho ⊗ rho_B^{⊗(k-1)}, a start that is not permutation-invariant."""
    product = rho.mat
    for _ in range(k - 1):
        product = tensor(product, rho.marginal("B"))
    return product


class TestProductStart:
    """A given start enters the search once, as the blocks of its symmetrization."""

    @pytest.mark.parametrize(
        "dims, k", [((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 2), 5), ((2, 3), 5), ((3, 3), 4)]
    )
    @pytest.mark.parametrize("singular", [False, True])
    def test_blocks_match_symmetrized_product(self, dims, k, singular):
        rho = singular_b_state(*dims, 5) if singular else random_density(dims[0] * dims[1], 5, dims)
        assert (np.linalg.matrix_rank(rho.marginal("B")) < dims[1]) == singular
        problem = ExtensionProblem(rho, k)
        sw = schur_weyl_blocks(dims[1], k)
        symmetrized = symmetrize_b(product_start(rho, k), problem)
        blocks = sepkit.symext._compress(symmetrized, sw, dims[0])
        # the blocks lose nothing of the symmetrized product
        assert np.max(np.abs(sepkit.symext._expand(blocks, sw, problem) - symmetrized)) <= 1e-14
        # its marginal is (rho + (k-1) rho_A ⊗ rho_B) / k
        expected = (rho.mat + (k - 1) * tensor(rho.marginal("A"), rho.marginal("B"))) / k
        assert np.max(np.abs(sw.marginal(blocks) - regroup(expected, *dims))) <= 1e-14

    @pytest.mark.parametrize("dims, k", [((2, 2), 3), ((2, 3), 3)])
    def test_search_starts_from_symmetrized_product(self, dims, k):
        rho = random_density(dims[0] * dims[1], 6, dims)
        product = product_start(rho, k)
        given = has_symmetric_extension(rho, k, max_iters=3, start=product)
        start = symmetrize_b(product, ExtensionProblem(rho, k))
        symmetrized = has_symmetric_extension(rho, k, max_iters=3, start=start)
        assert (given.status, given.iterations) == (symmetrized.status, symmetrized.iterations)
        assert given.residual == pytest.approx(symmetrized.residual, rel=1e-9)


def random_invariant(rng, dims, k):
    problem = ExtensionProblem(maximally_mixed(dims), k)
    return problem, symmetrize_b(rand_op(rng, problem.total_dim), problem)


def block_isometries(da, db, k):
    """(V_λ = I_A ⊗ U_λ, f_λ) per Young diagram."""
    sw = schur_weyl_blocks(db, k)
    return [(np.kron(np.eye(da), u), f) for u, f in zip(sw.isometries, sw.multiplicities)]


def regroup(x, d1, d2):
    """X[(i,p),(i',q)] at [(i,i'),(p,q)]."""
    return x.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


class TestSchurWeylBlocks:
    def test_dimensions_add_up_below_cap(self):
        pairs = [(db, k) for db in range(2, 46) for k in range(2, 13) if 2 * db**k <= DIM_CAP]
        assert len(pairs) > 50
        for db, k in pairs:
            assert sum(f * m for _, f, m in young_diagrams(db, k)) == db**k, (db, k)

    @pytest.mark.parametrize(
        "da, db, k, sizes, mults",
        [(2, 3, 5, [42, 48, 30, 12, 6], [1, 4, 5, 6, 5]), (3, 3, 4, [45, 45, 18, 9], [1, 3, 2, 3])],
    )
    def test_deep_block_sizes(self, da, db, k, sizes, mults):
        sw = schur_weyl_blocks(db, k)
        assert [da * m for m in sw.irrep_dims] == sizes
        assert list(sw.multiplicities) == mults

    def test_large_db_below_dim_cap(self):
        # dB = 18, k = 2 (n = 648): the lift is sparse, so nothing bounds dB but DIM_CAP
        sw = schur_weyl_blocks(18, 2)
        assert sw.irrep_dims == (171, 153)
        assert sw.lift.vals.size < 18**2 * sum(m * m for m in sw.irrep_dims) / 1000
        # X(0) = 0, then W = rho / dB lands on X = I/648
        res = has_symmetric_extension(maximally_mixed((2, 18)), 2, max_iters=2)
        assert (res.status, res.iterations) == ("feasible", 2)
        assert res.blocks == ((342, 1, 342), (306, 1, 306))

    def test_cached_read_only(self):
        sw = schur_weyl_blocks(2, 3)
        assert schur_weyl_blocks(2, 3) is sw
        for a in (sw.weights, *sw.isometries, sw.lift.vals, sw.marginal.rows, sw.marginal.cols):
            assert not a.flags.writeable

    def test_cache_bounded_by_size(self, monkeypatch):
        monkeypatch.setattr(sepkit.symext, "CACHE_ENTRIES", 2**3 * 3)
        assert schur_weyl_blocks(2, 3) is not schur_weyl_blocks(2, 3)
        assert schur_weyl_blocks(2, 2) is schur_weyl_blocks(2, 2)

    @pytest.mark.parametrize("da, db, k", [(2, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 5), (1, 3, 4)])
    def test_blocks_carry_spectrum_and_rebuild(self, da, db, k):
        rng = np.random.default_rng(20)
        problem, x = random_invariant(rng, (da, db), k)
        scale = np.linalg.norm(x)
        pieces = [(v.conj().T @ x @ v, v, f) for v, f in block_isometries(da, db, k)]
        spectra = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b), f) for b, _, f in pieces]))
        assert np.max(np.abs(spectra - np.linalg.eigvalsh(x))) <= 1e-12 * scale
        rebuilt = symmetrize_b(sum(f * v @ b @ v.conj().T for b, v, f in pieces), problem)
        assert np.max(np.abs(rebuilt - x)) <= 1e-12 * scale

    @pytest.mark.parametrize("da, db, k", [(2, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 5), (1, 3, 4)])
    def test_lift_and_marginal(self, da, db, k):
        rng = np.random.default_rng(21)
        problem, x = random_invariant(rng, (da, db), k)
        sw = schur_weyl_blocks(db, k)
        pairs = block_isometries(da, db, k)
        stack = lambda op: np.hstack([regroup(v.conj().T @ op @ v, da, v.shape[1] // da) for v, _ in pairs])
        w = rand_op(rng, da * db)
        lifted = symmetrize_b(tensor(w, np.eye(db ** (k - 1))), problem)
        assert np.max(np.abs(sw.lift(regroup(w, da, db)) - stack(lifted))) <= 1e-12 * np.linalg.norm(w)
        marginal = partial_trace(x, (da * db, db ** (k - 1)), "A")
        assert np.max(np.abs(sw.marginal(stack(x)) - regroup(marginal, da, db))) <= 1e-12 * np.linalg.norm(x)
        # the stacked norm weights each block by sqrt(f)
        assert np.linalg.norm(stack(x) * sw.weights) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    @pytest.mark.parametrize("da, db, k", [(2, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 5), (1, 3, 4)])
    def test_lift_is_adjoint_to_marginal(self, da, db, k):
        # Σ_λ f_λ <lift(w)_λ, X_λ> = <w, marginal(X)>: the gradient of the dual search is the marginal defect
        rng = np.random.default_rng(22)
        sw = schur_weyl_blocks(db, k)
        for _ in range(3):
            w = rng.standard_normal((da * da, db * db)) + 1j * rng.standard_normal((da * da, db * db))
            x = rng.standard_normal((da * da, sw.offsets[-1])) + 1j * rng.standard_normal((da * da, sw.offsets[-1]))
            lhs = np.vdot(sw.lift(w) * sw.weights**2, x)
            assert lhs == pytest.approx(np.vdot(w, sw.marginal(x)), rel=1e-12)


# Outcomes of the dual search (status, iterations, residual, stop reason),
# recorded from it; the capped searches are the symext_deep benchmark's.
RECORDED = [
    ("maxent:3", 3, None, "infeasible-evidence", 0, 1.0000000000000002, "empty-face"),
    ("sep:3:3:5:643261", 3, "warm", "feasible", 1, 3.609144131737731e-15, "marginal-within-tol"),
    ("sep:3:3:20:448415", 4, 60, "inconclusive", 60, 9.150316841128067e-07, "max-iters"),
    ("random:2:3:938409", 5, 10, "inconclusive", 10, 0.15321739970485115, "max-iters"),
    ("isotropic:3:0.2", 4, None, "feasible", 8, 6.255307699894506e-10, "marginal-within-tol"),
    ("sep:2:2:3:331873", 3, None, "feasible", 17, 5.911234971367118e-08, "marginal-within-tol"),
    ("sep:2:3:4:362182", 2, None, "feasible", 46, 3.368494930728899e-08, "marginal-within-tol"),
    ("tiles", 2, None, "feasible", 10, 7.159869766678854e-08, "marginal-within-tol"),
]


@pytest.mark.parametrize(
    "spec, k, option, status, iterations, residual, reason", RECORDED, ids=[f"{r[0]}-k{r[1]}" for r in RECORDED]
)
def test_recorded_outcomes(spec, k, option, status, iterations, residual, reason):
    parsed = parse_state_spec(spec)
    if option == "warm":
        res = has_symmetric_extension(parsed.state, k, start=extend_separable(parsed.ensemble, k))
    elif option is not None:
        res = has_symmetric_extension(parsed.state, k, max_iters=option)
    else:
        res = has_symmetric_extension(parsed.state, k)
    assert (res.status, res.iterations, res.stop_reason) == (status, iterations, reason)
    assert res.residual == pytest.approx(residual, rel=1e-6)
    if status == "feasible":
        check = verify_extension(res.witness_extension, parsed.state, k)
        assert check["symmetry_residual"] <= 1e-7
        assert check["marginal_residual"] <= 1e-7
        assert check["psd_margin"] >= -1e-7


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
