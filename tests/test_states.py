"""State constructors and seeded samplers."""

import warnings

import numpy as np
import pytest

import sepkit.states
from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.linalg import (
    DensityMatrix,
    partial_transpose,
    psd_margin,
    tensor,
    trace_distance,
)
from sepkit.productopt import min_overlap_with_span, upb_general_position
from sepkit.statespec import parse_state_spec
from sepkit.states import (
    Ensemble,
    ProductEnsemble,
    max_entangled,
    max_entangled_vector,
    maximally_mixed,
    random_density,
    random_density_block,
    random_separable,
    random_separable_block,
    segment_state,
    tensor_power_bipartite,
    tiles_upb_state,
    tiles_upb_vectors,
)

from helpers import antisym_vector, pure_fidelity


class TestMaxEntangled:
    def test_d2_explicit_entries(self):
        m = max_entangled(2).mat
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(m, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_marginal_maximally_mixed(self, d):
        phi = max_entangled(d)
        assert np.allclose(phi.marginal("A"), np.eye(d) / d, atol=1e-12)

    def test_unit_fidelity_with_own_vector(self):
        assert np.isclose(pure_fidelity(max_entangled(3), max_entangled_vector(3)), 1.0)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            max_entangled(1)

    def test_fresh_state_per_call(self):
        assert max_entangled(3) is not max_entangled(3)


class TestAntisymVector:
    """Phi(d)^{T_B} is the swap over d: the antisymmetric vectors span its -1/d eigenspace."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_family(self, d):
        # the d(d-1)/2 antisymmetric vectors are an orthonormal basis of the
        # eigenspace of Phi(d)^{T_B} below zero
        family = np.array([antisym_vector(i, j, d) for i in range(d) for j in range(i + 1, d)])
        assert np.allclose(family.conj() @ family.T, np.eye(len(family)), atol=1e-14)
        vals, vecs = np.linalg.eigh(partial_transpose(max_entangled(d).mat, (d, d)))
        negative = vecs[:, vals < 0]
        assert negative.shape[1] == len(family)
        assert np.allclose(negative @ negative.conj().T, family.T @ family.conj(), atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_maxent_pt_eigenrelation(self, d):
        pt = partial_transpose(max_entangled(d).mat, (d, d))
        for i in range(d):
            for j in range(i + 1, d):
                v = antisym_vector(i, j, d)
                assert np.max(np.abs(pt @ v - (-1.0 / d) * v)) < 1e-12


class TestSegmentState:
    def test_endpoints(self):
        rho = random_density(4, 0, (2, 2))
        assert np.allclose(segment_state(rho, 0.0).mat, rho.mat)
        assert np.allclose(segment_state(maximally_mixed((2, 2)), 1.0).mat, max_entangled(2).mat)

    @pytest.mark.parametrize("d", [2, 3])
    def test_same_bytes_as_mixing_with_max_entangled(self, d):
        rho = random_density(d * d, 1, (d, d))
        for t in (0.0, 0.3, 1.0):
            expected = (1.0 - t) * rho.mat + t * max_entangled(d).mat
            assert segment_state(rho, t).mat.tobytes() == expected.tobytes()

    def test_isotropic_ppt_threshold(self):
        mixed = maximally_mixed((2, 2))
        below = partial_transpose(segment_state(mixed, 1 / 3 - 0.01).mat, (2, 2))
        above = partial_transpose(segment_state(mixed, 1 / 3 + 0.01).mat, (2, 2))
        assert psd_margin(below) > 0
        assert psd_margin(above) < 0

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            segment_state(maximally_mixed((2, 2)), 1.5)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            segment_state(random_density(6, 0, (2, 3)), 0.5)


class TestTilesState:
    def test_vectors_are_orthonormal_products(self):
        vs = tiles_upb_vectors()
        assert len(vs) == 5
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.allclose(gram, np.eye(5), atol=1e-14)

    def test_state_properties(self):
        rho = tiles_upb_state()
        vals = np.linalg.eigvalsh(rho.mat)
        assert np.isclose(np.trace(rho.mat).real, 1.0)
        assert int(np.sum(vals > 1e-10)) == 4
        pt_margin = psd_margin(partial_transpose(rho.mat, (3, 3)))
        assert pt_margin >= -1e-10

    def test_unextendibility_certificate(self):
        # the span heuristic's value is only an upper bound on the minimum
        # overlap; on tiles it stays well above zero
        overlap = min_overlap_with_span(tiles_upb_vectors(), (3, 3), starts=24, seed=0)
        assert overlap > 1e-3

    def test_general_position_certificate(self):
        cert = upb_general_position(tiles_upb_vectors(), (3, 3))
        assert cert["unextendible"] is True
        assert cert["min_abs_det_a"] == pytest.approx(1 / np.sqrt(6))
        assert cert["min_abs_det_b"] == pytest.approx(1 / np.sqrt(6))

    def test_general_position_rejects_extendible_sets(self):
        vs = tiles_upb_vectors()
        e = np.eye(3)
        # four vectors are too few: 4 <= dA + dB - 2
        assert upb_general_position(vs[:4], (3, 3))["unextendible"] is False
        # the first vector's A-part e_0 twice: three A-parts no longer span C^3
        repeated = vs[:4] + [np.kron(e[0], e[2])]
        assert upb_general_position(repeated, (3, 3))["unextendible"] is False
        # an entangled vector has no local parts
        entangled = vs[:4] + [(np.kron(e[0], e[0]) + np.kron(e[1], e[1])) / np.sqrt(2)]
        assert upb_general_position(entangled, (3, 3))["max_second_schmidt"] > 0.5
        assert upb_general_position(entangled, (3, 3))["unextendible"] is False


class TestRandomDensity:
    def test_valid_states_many_seeds(self):
        for seed in range(100):
            rho = random_density(4, seed, (2, 2))
            assert np.isclose(np.trace(rho.mat).real, 1.0)
            assert psd_margin(rho.mat) >= -1e-12

    def test_seed_determinism(self):
        a = random_density(6, 123, (2, 3))
        b = random_density(6, 123, (2, 3))
        assert np.array_equal(a.mat, b.mat)

    @pytest.mark.parametrize("seed", [0, 123, (4, 5)])
    def test_generator_seed_same_as_its_seed(self, seed):
        a = random_density(6, seed, (2, 3), cols=8)
        b = random_density(6, np.random.default_rng(seed), (2, 3), cols=8)
        assert a.mat.tobytes() == b.mat.tobytes()

    def test_mean_approaches_maximally_mixed(self):
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for seed in range(n):
            acc += random_density(2, seed).mat
        mean = DensityMatrix(acc / n, (1, 2))
        assert trace_distance(mean, maximally_mixed((1, 2))) < 0.05

    @pytest.mark.parametrize(
        "args, kwargs, name",
        [
            ((4, 1, (2, 2)), {"cols": 0}, "cols"),
            ((4, 1, (2, 2)), {"cols": -1}, "cols"),
            ((4, 1, (2, 2)), {"cols": 2.0}, "cols"),
            ((2.5, 1), {}, "d"),
            ((True, 1), {}, "d"),
        ],
    )
    def test_rejects_bad_sizes_by_name(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            random_density(*args, **kwargs)

    def test_is_the_one_row_block(self):
        block = random_density_block(6, 3, 9, cols=8)
        assert block.shape == (3, 6, 6)
        one = random_density(6, 9, (2, 3), cols=8)
        assert one.mat.tobytes() == random_density_block(6, 1, 9, cols=8)[0].tobytes()
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            random_density_block(6, 0, 9)

    def test_induced_measure_more_mixed(self):
        pure_ish = random_density(9, 5, (3, 3))
        mixed_ish = random_density(9, 5, (3, 3), cols=27)
        assert np.trace(mixed_ish.mat @ mixed_ish.mat).real < np.trace(
            pure_ish.mat @ pure_ish.mat
        ).real


class TestRandomSeparable:
    def test_single_member_passes_all_criteria(self):
        rho, _ = random_separable((2, 2), 1, 0)
        for test in ONE_SHOT_TESTS.values():
            assert test(rho).passed

    def test_state_matches_ensemble(self):
        state, ens = random_separable((2, 3), 5, 7)
        rebuilt = np.zeros((6, 6), dtype=complex)
        for w, ra, rb in zip(ens.weights, ens.a, ens.b):
            rebuilt += w * tensor(ra, rb)
        assert np.max(np.abs(rebuilt - state.mat)) < 1e-12

    def test_large_mixtures_are_full_rank(self):
        for seed in range(10):
            state, _ = random_separable((2, 2), 6, seed)
            assert int(np.sum(np.linalg.eigvalsh(state.mat) > 1e-8)) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_separable((2, 2), 0, 0)

    @pytest.mark.parametrize(
        "dims, k, name",
        [
            ((0, 2), 1, r"dims\[0\]"),
            ((2, -1), 1, r"dims\[1\]"),
            ((2.0, 2), 1, r"dims\[0\]"),
            ((2, 2), 2.5, "k"),
            ((2, 2), 0, "k"),
            ((2, 2), "3", "k"),
            ((2, 2), True, "k"),
            ((True, 2), 1, r"dims\[0\]"),
        ],
    )
    def test_rejects_bad_sizes_by_name(self, dims, k, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            random_separable(dims, k, 0)

    def test_numpy_integer_sizes_accepted(self):
        a, _ = random_separable((np.int64(2), 3), np.int32(4), 5)
        b, _ = random_separable((2, 3), 4, 5)
        assert a.mat.tobytes() == b.mat.tobytes()

    def test_one_draw_per_member_in_order(self):
        # weights, then per member: Re and Im of the A ket, then of the B ket
        dims, k, seed = (2, 3), 3, 8
        _, ens = random_separable(dims, k, seed)
        rng = np.random.default_rng(seed)
        assert np.array_equal(ens.weights, rng.dirichlet(np.ones(k)))
        for i in range(k):
            for factor, d in ((ens.a[i], dims[0]), (ens.b[i], dims[1])):
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                v = v / np.linalg.norm(v)
                assert factor.tobytes() == np.outer(v, v.conj()).tobytes()

    def test_is_the_one_row_block(self):
        _, ens = random_separable((2, 3), 4, 5)
        weights, a, b = random_separable_block((2, 3), 4, 1, 5)
        assert weights[0].tobytes() == ens.weights.tobytes()
        assert a[0].tobytes() == ens.a.tobytes() and b[0].tobytes() == ens.b.tobytes()
        stacked = ProductEnsemble(*random_separable_block((2, 3), 4, 3, 5))
        assert stacked.dims == (2, 3) and stacked.state().mat.shape == (3, 6, 6)
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            random_separable_block((2, 3), 4, 0, 5)

    @pytest.mark.parametrize("seed", [0, 7, (4, 5)])
    def test_generator_seed_same_as_its_seed(self, seed):
        a, ens_a = random_separable((2, 3), 4, seed)
        b, ens_b = random_separable((2, 3), 4, np.random.default_rng(seed))
        assert a.mat.tobytes() == b.mat.tobytes()
        assert ens_a.weights[0] == ens_b.weights[0]


@pytest.mark.parametrize("spec", ["maxent:{d}", "isotropic:{d}:0.5", "random:{d}:{d}:1", "sep:{d}:{d}:2:1"])
def test_constructors_respect_dim_cap(monkeypatch, spec):
    monkeypatch.setattr(sepkit.states, "DIM_CAP", 16)
    with pytest.raises(ValueError, match="total dimension 25 exceeds cap 16"):
        parse_state_spec(spec.format(d=5))
    assert parse_state_spec(spec.format(d=4)).state.dims == (4, 4)


class TestTensorPower:
    def test_single_power_unchanged(self):
        rho = random_density(4, 0, (2, 2))
        assert tensor_power_bipartite(rho, 1) is rho

    def test_product_state_oracle(self):
        rng = np.random.default_rng(3)
        ra = random_density(2, 1).mat
        rb = random_density(2, 2).mat
        rho = DensityMatrix(tensor(ra, rb), (2, 2))
        got = tensor_power_bipartite(rho, 2)
        expected = tensor(tensor(ra, ra), tensor(rb, rb))
        assert np.allclose(got.mat, expected, atol=1e-13)
        assert got.dims == (4, 4)

    def test_power_additivity(self):
        rho = random_density(4, 4, (2, 2))
        three = tensor_power_bipartite(rho, 3)
        two = tensor_power_bipartite(rho, 2)
        # regrouped product of the 2- and 1-powers equals the 3-power
        from sepkit.linalg import permute_systems

        combined = tensor(two.mat, rho.mat)
        regrouped = permute_systems(combined, [4, 4, 2, 2], [0, 2, 1, 3])
        assert np.allclose(regrouped, three.mat, atol=1e-12)

    def test_ppt_closed_under_powers(self):
        squared = tensor_power_bipartite(tiles_upb_state(), 2)
        pt = partial_transpose(squared.mat, squared.dims)
        vals = np.linalg.eigvalsh(pt)
        assert vals[0] >= -1e-9 * np.max(np.abs(vals))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            tensor_power_bipartite(maximally_mixed((2, 2)), 7)


class TestEnsembles:
    def test_weights_must_sum_to_one(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(ValueError):
            Ensemble(((0.5, rho),))

    def test_members_share_shape(self):
        with pytest.raises(ValueError):
            Ensemble(((0.5, maximally_mixed((2, 2))), (0.5, maximally_mixed((1, 4)))))

    def test_product_ensemble_roundtrip(self):
        _, ens = random_separable((2, 2), 3, 9)
        as_ensemble = ens.to_ensemble()
        rebuilt = sum(w * st.mat for w, st in as_ensemble.members)
        assert np.max(np.abs(rebuilt - ens.state().mat)) < 1e-12

    def test_product_ensemble_validates_factors(self):
        bad = np.eye(2)  # trace 2
        with pytest.raises(ValueError):
            ProductEnsemble([1.0], [bad], [np.eye(2) / 2])
        for entry in (np.nan, np.inf):
            bad = np.eye(2, dtype=complex) / 2
            bad[0, 1] = bad[1, 0] = entry
            with pytest.raises(ValueError):
                ProductEnsemble([1.0], [bad], [np.eye(2) / 2])
            with pytest.raises(ValueError):
                ProductEnsemble([1.0], [np.eye(2) / 2], [bad])

    def test_product_ensemble_holds_read_only_stacks(self):
        state, ens = random_separable((2, 3), 4, 3)
        assert ens.dims == (2, 3)
        assert ens.weights.shape == (4,)
        assert ens.a.shape == (4, 2, 2) and ens.b.shape == (4, 3, 3)
        for arr in (ens.weights, ens.a, ens.b):
            assert not arr.flags.writeable
        rebuilt = ProductEnsemble(list(ens.weights), list(ens.a), list(ens.b))
        assert rebuilt.state().mat.tobytes() == state.mat.tobytes()

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("trace2", "trace"),
            ("nan", "not Hermitian"),
            ("inf", "not Hermitian"),
            ("nonhermitian", "not Hermitian"),
            ("negative", "negative eigenvalue"),
        ],
    )
    def test_stacked_validator_names_bad_member_side(self, side, defect, message):
        # the bad factor is member 2 of 3
        _, ens = random_separable((2, 2), 3, 4)
        stacks = {"a": np.array(ens.a), "b": np.array(ens.b)}
        bad = stacks[side][1]
        if defect == "trace2":
            bad *= 2
        elif defect in ("nan", "inf"):
            bad[0, 1] = bad[1, 0] = np.nan if defect == "nan" else np.inf
        elif defect == "nonhermitian":
            bad[0, 1] += 1e-3j
        else:
            bad[...] = np.diag([1.5, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^factor stack {side}: .*{message}"):
                ProductEnsemble(ens.weights, stacks["a"], stacks["b"])

    @pytest.mark.parametrize(
        "weights, a, b, match",
        [
            ([], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), "at least one member"),
            ([1.0], np.eye(2)[None] / 2, np.eye(2) / 2, "^b must stack 1 square factors"),
            ([0.5, 0.5], np.eye(2)[None] / 2, np.stack([np.eye(2) / 2] * 2), "^a must stack 2"),
            ([1.0], np.ones((1, 2, 3)) / 2, np.eye(2)[None] / 2, "^a must stack"),
            ([1.0], np.zeros((1, 0, 0)), np.eye(2)[None] / 2, "^a must stack"),
        ],
    )
    def test_product_ensemble_rejects_bad_shapes(self, weights, a, b, match):
        with pytest.raises(ValueError, match=match):
            ProductEnsemble(weights, a, b)

    def test_ensembles_reject_nan_weights(self):
        half = np.eye(2) / 2
        with pytest.raises(ValueError, match="weights"):
            ProductEnsemble([np.nan], [half], [half])
        with pytest.raises(ValueError, match="weights"):
            Ensemble(((np.nan, maximally_mixed((2, 2))),))
