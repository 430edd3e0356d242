"""Tensor-product closure: product construction, identities, and sweeps."""

import numpy as np
import pytest

import sepkit.closure
from sepkit.closure import (
    BLOCK_ENTRIES,
    bipartite_product,
    closure_check,
    closure_sweep,
    realign_product_perms,
    symext_closure_check,
)
from sepkit.criteria import ONE_SHOT_TESTS, RULES
from sepkit.linalg import DensityMatrix, partial_trace, partial_transpose, realign, tensor
from sepkit.states import (
    ProductEnsemble,
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
)
from sepkit.statespec import parse_state_spec


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
        # once per closure_check, and once per block of a sweep, holding
        # every product of the block
        calls = []

        def counting(rho, sigma, *args):
            calls.append(rho.mat.shape[:-2])
            return bipartite_product(rho, sigma, *args)

        monkeypatch.setattr(sepkit.closure, "bipartite_product", counting)
        rho, _ = random_separable((2, 2), 3, 22)
        sigma, _ = random_separable((2, 2), 2, 23)
        closure_check(criterion, rho, sigma)
        assert calls == [()]
        calls.clear()
        rows = BLOCK_ENTRIES // 16**2
        closure_sweep(criterion, rows + 3, (23, list(ONE_SHOT_TESTS).index(criterion)))
        assert calls == [(rows,), (3,)]


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

    @pytest.mark.parametrize("criterion, trials", [("ppt", 2.5), ("symext", "3")])
    def test_rejects_non_integer_trials(self, criterion, trials):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            closure_sweep(criterion, trials, 0)

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError, match="^unknown criterion 'bogus'"):
            closure_sweep("bogus", 5, 0)
        with pytest.raises(ValueError, match="^unknown criterion 'bogus'"):
            closure_check("bogus", maximally_mixed((2, 2)), maximally_mixed((2, 2)))

    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_criterion_runs_three_times_per_trial(self, criterion, monkeypatch):
        # the stacked rule sees each input once while sampling it and each
        # product once, plus one row per rejected candidate; the products of
        # a block go through it in one call
        rule = RULES[criterion]
        calls = []

        def counting(rho):
            out = rule(rho)
            calls.append((rho.dim, np.size(out[1]), int(np.count_nonzero(out[1]))))
            return out

        monkeypatch.setitem(RULES, criterion, counting)
        rows = BLOCK_ENTRIES // 16**2
        trials = rows + 12
        rep = closure_sweep(criterion, trials, (42, list(ONE_SHOT_TESTS).index(criterion)))
        assert rep.violations == 0
        rejected = sum(size - passed for _, size, passed in calls)
        assert sum(size for _, size, _ in calls) == 3 * trials + rejected
        assert [size for dim, size, _ in calls if dim == 16] == [rows, 12]

    def test_mutant_pt_factorization_fails_one_row(self, monkeypatch):
        # break PT(rho ⊗ sigma) = PT(rho) ⊗ PT(sigma) for one product of a block
        def broken(m, dims):
            out = partial_transpose(m, dims)
            if out.ndim == 3 and out.shape[-1] == 16:
                out[2, 0, 1] += 1e-3
            return out

        monkeypatch.setattr(sepkit.closure, "partial_transpose", broken)
        rep = closure_sweep("ppt", 10, 5)
        assert (rep.violations, rep.sub_assertion_failures) == (0, 1)

    def test_symext_builds_each_mixture_once(self, monkeypatch):
        built = []
        state = ProductEnsemble.state

        def counting(ens):
            built.append(ens.weights[..., 0].size)
            return state(ens)

        monkeypatch.setattr(ProductEnsemble, "state", counting)
        trials = 9
        assert closure_sweep("symext", trials, 6).violations == 0
        assert sum(built) == 2 * trials

    @pytest.mark.parametrize("trials", [True, np.bool_(True)])
    def test_rejects_boolean_trials(self, trials):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            closure_sweep("ppt", trials, 0)

    def test_reports_plain_int_trials(self):
        rep = closure_sweep("ppt", np.int64(3), 0)
        assert type(rep.trials) is int and rep.trials == 3


class TestStackedRules:
    """Each stacked rule on a stack equals its one-row calls and the one-state test."""

    @staticmethod
    def screen_states():
        # the 102 states the benchmark's screen workload checks (seed 1)
        seeds = iter(int(s) for s in np.random.default_rng([1, 4]).integers(1, 1_000_000, 120))
        specs = []
        for da, db in ((2, 2), (2, 3), (3, 3)):
            for i in range(13):
                specs.append(f"sep:{da}:{db}:{1 + i % 4}:{next(seeds)}")
                specs.append(f"random:{da}:{db}:{next(seeds)}")
        specs += [f"isotropic:{d}:{t:.2f}" for d in (2, 3) for t in np.linspace(0.05, 0.95, 10)]
        specs += ["tiles"] + [f"maxent:{d}" for d in (2, 3, 4)]
        return [parse_state_spec(spec).state for spec in specs]

    @pytest.mark.parametrize("criterion", ONE_SHOT_TESTS)
    def test_stack_equals_one_row_calls(self, criterion):
        states = self.screen_states()
        assert len(states) == 102
        groups = {}
        for rho in states:
            groups.setdefault(rho.dims, []).append(rho)
        rule, test = RULES[criterion], ONE_SHOT_TESTS[criterion]
        for dims, group in groups.items():
            mats = np.stack([rho.mat for rho in group])
            margins, passed, details = rule(DensityMatrix(mats, dims))
            for i, rho in enumerate(group):
                row_margin, row_passed, row_details = rule(DensityMatrix(mats[i : i + 1], dims))
                verdict = test(rho)
                assert passed[i] == row_passed[0] == verdict.passed
                assert abs(margins[i] - row_margin[0]) <= 1e-12
                assert abs(margins[i] - verdict.margin) <= 1e-12
                for key, value in verdict.details.items():
                    stacked = np.broadcast_to(details[key], passed.shape + np.shape(value))[i]
                    one_row = np.broadcast_to(row_details[key], (1,) + np.shape(value))[0]
                    assert np.allclose(stacked, value, rtol=0, atol=1e-12)
                    assert np.allclose(one_row, value, rtol=0, atol=1e-12)


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
