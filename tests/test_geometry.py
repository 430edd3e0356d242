"""Witness bounds, boundary bisection, fidelity bound, de Finetti formula."""

import numpy as np
import pytest

import sepkit.geometry
import sepkit.tomography
from sepkit.criteria import ppt_test
from sepkit.geometry import (
    BISECT_TOL,
    definetti_bound,
    farness_certificate,
    fidelity_bound_check,
    ppt_boundary_bisect,
    sep_max_overlap_maxent,
    witness_lower_bound,
)
from sepkit.linalg import partial_transpose, psd_margin, pure_fidelity, trace_distance
from sepkit.productopt import max_overlap_with_vector
from sepkit.states import (
    Ensemble,
    max_entangled,
    max_entangled_vector,
    maximally_mixed,
    random_density,
    random_separable,
    segment_state,
    tensor_power_bipartite,
    tiles_upb_state,
)
from sepkit.tomography import default_product_povm


class TestDefinetti:
    def test_reference_value(self):
        assert definetti_bound(4, 1, 99) == 0.08

    def test_vacuous_at_k0(self):
        assert definetti_bound(4, 1, 0) == 8.0

    def test_monotone_in_k(self):
        vals = [definetti_bound(4, 3, k) for k in range(0, 50, 5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_square_register_choice(self):
        for n in range(1, 11):
            assert np.isclose(definetti_bound(4, n, n * n), 8.0 / (1 + n))

    def test_validation(self):
        with pytest.raises(ValueError):
            definetti_bound(4, 0, 3)
        with pytest.raises(ValueError):
            definetti_bound(4, 1, -1)
        for args in [(2, 1, float("nan")), (2, 1, float("inf")), (2, 1.5, 1), (2.0, 1, 1), (float("nan"), 1, 1)]:
            with pytest.raises(ValueError, match="must be an integer"):
                definetti_bound(*args)
        assert definetti_bound(np.int64(4), 1, 99) == 0.08

    @pytest.mark.parametrize("dim", [0, -3])
    def test_rejects_dimension_below_one(self, dim):
        with pytest.raises(ValueError):
            definetti_bound(dim, 1, 9)


class TestSepMaxOverlap:
    @pytest.mark.parametrize("d", range(2, 33))
    def test_analytic_value(self, d):
        assert sep_max_overlap_maxent(d) == 1.0 / d

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_numeric_search_attains_bound(self, d):
        got = max_overlap_with_vector(max_entangled_vector(d), (d, d))
        assert abs(got - 1.0 / d) < 1e-6

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 2)])
    def test_max_overlap_is_exact(self, dims):
        da, db = dims
        rng = np.random.default_rng(10 * da + db)

        def unit(n):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return v / np.linalg.norm(v)

        psi = unit(da * db)
        got = max_overlap_with_vector(psi, dims)
        u, s, vh = np.linalg.svd(psi.reshape(da, db))
        assert got == pytest.approx(s[0] ** 2, rel=1e-12)
        # the top singular pair attains it: a = u_0 and b = conj(v_0), row 0 of V^H
        top = np.kron(u[:, 0], vh[0])
        assert abs(np.vdot(top, psi)) ** 2 == pytest.approx(got, rel=1e-12)
        for _ in range(200):
            assert abs(np.vdot(np.kron(unit(da), unit(db)), psi)) ** 2 <= got + 1e-12

    def test_overlap_above_bound_raises(self, monkeypatch):
        import sepkit.geometry

        monkeypatch.setattr(sepkit.geometry, "max_overlap_with_vector", lambda psi, dims: 0.5 + 2e-6)
        with pytest.raises(RuntimeError):
            sep_max_overlap_maxent(2)

    def test_sampled_separable_states_respect_bound(self):
        phi_vec = max_entangled_vector(3)
        for seed in range(40):
            state, _ = random_separable((3, 3), 5, seed)
            assert pure_fidelity(state, phi_vec) ** 2 <= 1.0 / 3 + 1e-9


class TestWitnessLowerBound:
    def test_maxent_self_witness(self):
        phi = max_entangled(2)
        lb = witness_lower_bound(phi, phi.mat, 0.5)
        assert abs(lb - 0.5) < 1e-9

    def test_clamped_at_zero_for_separable(self):
        state, _ = random_separable((2, 2), 3, 0)
        phi = max_entangled(2)
        assert witness_lower_bound(state, phi.mat, 0.5) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_epr_power_bounds(self, n):
        power = tensor_power_bipartite(max_entangled(2), n)
        lb = witness_lower_bound(power, power.mat, 2.0**-n)
        assert abs(lb - (1.0 - 2.0**-n)) < 1e-9

    def test_never_exceeds_distance_to_separable_points(self):
        phi = max_entangled(2)
        for seed in range(25):
            rho = random_density(4, (seed, 0), (2, 2))
            sigma, _ = random_separable((2, 2), 4, (seed, 1))
            gap = np.trace(phi.mat @ (rho.mat - sigma.mat)).real
            assert gap <= trace_distance(rho, sigma) + 1e-9

    def test_rejects_bad_witness(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(ValueError):
            witness_lower_bound(rho, 2.0 * np.eye(4), 0.5)
        with pytest.raises(ValueError):
            witness_lower_bound(rho, -0.1 * np.eye(4), 0.5)
        w = 0.5 * np.eye(4, dtype=complex)
        w[0, 1] = 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            witness_lower_bound(rho, w, 0.5)
        w[0, 1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            witness_lower_bound(rho, w, 0.5)


class TestFidelityBound:
    def test_maximally_mixed(self):
        res = fidelity_bound_check(maximally_mixed((2, 2)))
        assert np.isclose(res.fidelity, 0.5)
        assert res.ok
        assert res.transpose_identity_gap <= 1e-10

    def test_tiles(self):
        res = fidelity_bound_check(tiles_upb_state())
        assert res.ok
        assert res.fidelity <= 1.0 / np.sqrt(3) + 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_isotropic_boundary_state(self, d):
        sigma = segment_state(maximally_mixed((d, d)), 1.0 / (d + 1))
        res = fidelity_bound_check(sigma)
        assert res.ok
        expected = np.sqrt((1.0 / (d + 1)) * (1 - 1.0 / d**2) + 1.0 / d**2)
        assert abs(res.fidelity - expected) < 1e-9

    def test_rejects_non_ppt(self):
        with pytest.raises(ValueError):
            fidelity_bound_check(max_entangled(2))


class TestBoundaryBisect:
    @pytest.mark.parametrize("d,t_expected", [(2, 1 / 3), (3, 1 / 4)])
    def test_isotropic_crossing(self, d, t_expected):
        res = ppt_boundary_bisect(maximally_mixed((d, d)), tol=1e-6)
        assert abs(res.t_star - t_expected) < 2e-6
        assert res.bound_ok

    def test_bracket_invariant(self):
        rho = maximally_mixed((2, 2))
        res = ppt_boundary_bisect(rho, tol=1e-6)
        below = partial_transpose(segment_state(rho, res.t_star - 1e-6).mat, (2, 2))
        above = partial_transpose(segment_state(rho, res.t_star + 1e-6).mat, (2, 2))
        assert psd_margin(below) >= -1e-12
        assert psd_margin(above) < 0

    def test_boundary_state_nearly_singular_pt(self):
        res = ppt_boundary_bisect(maximally_mixed((3, 3)), tol=1e-8)
        pt = partial_transpose(res.boundary_state.mat, (3, 3))
        assert abs(psd_margin(pt)) < 1e-7

    def test_separable_sweep_within_bound(self):
        for seed in range(10):
            state, ens = random_separable((3, 3), 4, (2000, seed))
            res = ppt_boundary_bisect(state, certified_separable=True)
            assert res.certified
            assert res.distance_from_start <= 1.0 / np.sqrt(3) + 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_same_bits_as_segment_state_loop(self, d):
        state, _ = random_separable((d, d), 3, 11)
        lo, hi = 0.0, 1.0
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if ppt_test(segment_state(state, mid)).passed:
                lo = mid
            else:
                hi = mid
        res = ppt_boundary_bisect(state)
        assert res.t_star == 0.5 * (lo + hi)
        assert res.boundary_state.mat.tobytes() == segment_state(state, res.t_star).mat.tobytes()

    def test_rejects_non_ppt_start(self):
        with pytest.raises(ValueError):
            ppt_boundary_bisect(max_entangled(2))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_tolerance_that_cannot_end(self, tol):
        with pytest.raises(ValueError):
            ppt_boundary_bisect(maximally_mixed((2, 2)), tol=tol)


class TestFarness:
    def test_self_ansatz_gives_noise_level_bound(self):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, phi),))
        res = farness_certificate(phi, ens, [20], 0.75, 200, 0)
        assert abs(res.points[0].lower_bound) <= 0.15
        assert res.far_members == ()

    def test_maxent_vs_mixed_trend(self):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, maximally_mixed((2, 2))),))
        res = farness_certificate(phi, ens, [10, 150], 0.75, 200, 14)
        lbs = [p.lower_bound for p in res.points]
        assert res.far_members == (0,)
        assert res.member_distances[0] == pytest.approx(0.75, abs=1e-9)
        assert lbs[1] > lbs[0]
        assert lbs[1] >= 0.3
        assert res.label == "vs given ansatz"

    def test_shape_mismatch_rejected(self):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, maximally_mixed((1, 4))),))
        with pytest.raises(ValueError):
            farness_certificate(phi, ens, [5], 0.5, 10, 0)

    def test_builds_default_povm_once(self, monkeypatch):
        rho = segment_state(max_entangled(2), 0.4)
        ens = Ensemble(((0.5, maximally_mixed((2, 2))), (0.5, rho)))
        calls = []

        def counting(dims, seed):
            calls.append((dims, seed))
            return default_product_povm(dims, seed)

        monkeypatch.setattr(sepkit.geometry, "default_product_povm", counting)
        monkeypatch.setattr(sepkit.tomography, "default_product_povm", counting)
        res = farness_certificate(rho, ens, [5, 20, 60], 0.75, 40, 3)
        assert calls == [((2, 2), 3)]
        monkeypatch.undo()
        explicit = default_product_povm((2, 2), 3)
        assert res == farness_certificate(rho, ens, [5, 20, 60], 0.75, 40, 3, explicit)

    @pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_eps_not_finite_positive(self, eps):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, maximally_mixed((2, 2))),))
        with pytest.raises(ValueError, match="eps"):
            farness_certificate(phi, ens, [4], eps, 10, 0)

    def test_rejects_empty_n_list(self):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, phi),))
        with pytest.raises(ValueError, match="at least one n"):
            farness_certificate(phi, ens, [], 0.75, 10, 0)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_rejects_no_trials(self, trials):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, phi),))
        with pytest.raises(ValueError, match="need at least one trial"):
            farness_certificate(phi, ens, [4], 0.5, trials, 0)

    def test_tiles_vs_closest_found_separable_ansatz(self):
        # seed 37 picked for dual-frame conditioning at 3x3 (sum of dual norms)
        tiles = tiles_upb_state()
        best, best_dist = None, np.inf
        for seed in range(150):
            cand, _ = random_separable((3, 3), 1 + seed % 9, (900, seed))
            dist = trace_distance(cand, tiles)
            if dist < best_dist:
                best, best_dist = cand, dist
        ens = Ensemble(((1.0, best),))
        povm = default_product_povm((3, 3), 37)
        res = farness_certificate(tiles, ens, [1000, 100_000, 400_000], best_dist, 60, 37, povm)
        lbs = [p.lower_bound for p in res.points]
        assert res.far_members == (0,)
        assert all(b >= a - 0.05 for a, b in zip(lbs, lbs[1:]))
        assert lbs[-1] >= 0.5
