"""Tensor-product closure: product construction, identities, and sweeps."""

import numpy as np
import pytest

import sepkit.closure
from sepkit.closure import (
    bipartite_product,
    closure_check,
    closure_sweep,
    realign_product_perms,
    symext_closure_check,
)
from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.linalg import partial_trace, partial_transpose, realign, tensor
from sepkit.states import (
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
)


class TestBipartiteProduct:
    def test_product_of_products(self):
        ra, rb = random_density(2, 0).mat, random_density(3, 1).mat
        sa, sb = random_density(2, 2).mat, random_density(2, 3).mat
        from sepkit.linalg import DensityMatrix

        rho = DensityMatrix(tensor(ra, rb), (2, 3))
        sigma = DensityMatrix(tensor(sa, sb), (2, 2))
        got = bipartite_product(rho, sigma)
        expected = tensor(tensor(ra, sa), tensor(rb, sb))
        assert got.dims == (4, 6)
        assert np.allclose(got.mat, expected, atol=1e-13)

    def test_marginals_factorize(self):
        rho = random_density(4, 4, (2, 2))
        sigma = random_density(4, 5, (2, 2))
        prod = bipartite_product(rho, sigma)
        got_a = partial_trace(prod.mat, prod.dims, "A")
        expected_a = tensor(
            partial_trace(rho.mat, rho.dims, "A"), partial_trace(sigma.mat, sigma.dims, "A")
        )
        assert np.allclose(got_a, expected_a, atol=1e-12)
        # independent contraction oracle: trace the B and B' legs of the
        # unregrouped product tensor (systems ordered A B A' B')
        t = tensor(rho.mat, sigma.mat).reshape([2] * 8)
        oracle = np.einsum("abcdebgd->aceg", t)
        assert np.allclose(got_a.reshape(2, 2, 2, 2), oracle, atol=1e-12)

    def test_pt_factorization(self):
        rho = random_density(4, 6, (2, 2))
        sigma = random_density(4, 7, (2, 2))
        prod = bipartite_product(rho, sigma)
        lhs = partial_transpose(prod.mat, prod.dims)
        rho_pt = partial_transpose(rho.mat, rho.dims)
        sigma_pt = partial_transpose(sigma.mat, sigma.dims)
        from sepkit.linalg import permute_systems

        rhs = permute_systems(tensor(rho_pt, sigma_pt), [2, 2, 2, 2], [0, 2, 1, 3])
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_cap(self):
        with pytest.raises(ValueError):
            bipartite_product(maximally_mixed((8, 8)), maximally_mixed((9, 8)))  # 4608 > DIM_CAP


class TestRealignFactorization:
    @pytest.mark.parametrize("dims_pair", [((2, 2), (2, 2)), ((2, 3), (2, 2)), ((3, 2), (2, 3))])
    def test_pinned_permutation_identity(self, dims_pair):
        dims_r, dims_s = dims_pair
        rho = random_density(dims_r[0] * dims_r[1], 8, dims_r)
        sigma = random_density(dims_s[0] * dims_s[1], 9, dims_s)
        prod = bipartite_product(rho, sigma)
        lhs = realign(prod.mat, prod.dims)
        pa, pb = realign_product_perms(dims_r, dims_s)
        rhs = tensor(realign(rho.mat, dims_r), realign(sigma.mat, dims_s))
        assert np.allclose(lhs, rhs[np.ix_(pa, pb)], atol=1e-12)

    def test_permutation_preserves_singular_values(self):
        rho = random_density(4, 10, (2, 2))
        sigma = random_density(4, 11, (2, 2))
        prod = bipartite_product(rho, sigma)
        sv_prod = np.linalg.svd(realign(prod.mat, prod.dims), compute_uv=False)
        sv_kron = np.linalg.svd(
            tensor(realign(rho.mat, (2, 2)), realign(sigma.mat, (2, 2))), compute_uv=False
        )
        assert np.allclose(np.sort(sv_prod), np.sort(sv_kron), atol=1e-10)


class TestClosureCheck:
    def test_requires_passing_inputs(self):
        with pytest.raises(ValueError):
            closure_check("ppt", max_entangled(2), maximally_mixed((2, 2)))

    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_separable_pairs_close(self, criterion):
        rho, _ = random_separable((2, 2), 3, 20)
        sigma, _ = random_separable((2, 2), 2, 21)
        verdict = closure_check(criterion, rho, sigma)
        assert verdict.passed
        assert verdict.details["sub_assertions"]["ok"]

    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_ppt_entangled_pairs_close(self, criterion):
        # PPT states that pass the criterion must stay passing under products
        test = ONE_SHOT_TESTS[criterion]
        candidates = []
        seed = 0
        while len(candidates) < 2 and seed < 200:
            cand = random_density(4, (30, seed), (2, 2))
            if test(cand).passed:
                candidates.append(cand)
            seed += 1
        verdict = closure_check(criterion, candidates[0], candidates[1])
        assert verdict.passed

    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_builds_the_product_once(self, criterion, monkeypatch):
        calls = []

        def counting(rho, sigma, *args):
            calls.append(1)
            return bipartite_product(rho, sigma, *args)

        monkeypatch.setattr(sepkit.closure, "bipartite_product", counting)
        rho, _ = random_separable((2, 2), 3, 22)
        sigma, _ = random_separable((2, 2), 2, 23)
        closure_check(criterion, rho, sigma)
        assert len(calls) == 1


class TestSweeps:
    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_small_sweep_no_violations(self, criterion):
        rep = closure_sweep(criterion, 20, (40, list(ONE_SHOT_TESTS).index(criterion)))
        assert rep.violations == 0
        assert rep.sub_assertion_failures == 0
        assert rep.min_margin >= -1e-8

    def test_symext_constructive_sweep(self):
        rep = closure_sweep("symext", 5, 41)
        assert rep.violations == 0
        assert rep.min_margin >= -1e-8

    @pytest.mark.parametrize("criterion, trials", [("ppt", 0), ("symext", -2)])
    def test_rejects_no_trials(self, criterion, trials):
        with pytest.raises(ValueError, match="need at least one trial"):
            closure_sweep(criterion, trials, 0)


class TestSymextClosure:
    def test_explicit_composition(self):
        _, ens_rho = random_separable((2, 2), 2, 50)
        _, ens_sigma = random_separable((2, 2), 3, 51)
        res = symext_closure_check(ens_rho, ens_sigma, 2)
        assert res["ok"]
        assert res["symmetry_residual"] <= 1e-10
        assert res["marginal_residual"] <= 1e-10
        assert res["psd_margin"] >= -1e-10

    def test_three_copies(self):
        _, ens_rho = random_separable((2, 2), 2, 52)
        _, ens_sigma = random_separable((2, 2), 2, 53)
        res = symext_closure_check(ens_rho, ens_sigma, 3)
        assert res["ok"]
