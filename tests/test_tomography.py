"""IC-POVMs, linear-inversion reconstruction, and acceptance estimates."""

import tracemalloc

import numpy as np
import pytest

from sepkit import tomography
from sepkit.geometry import farness_certificate
from sepkit.linalg import DensityMatrix, tensor
from sepkit.states import (
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
    segment_state,
    tensor_power_bipartite,
    tiles_upb_state,
)
from sepkit.states import Ensemble
from sepkit.tomography import (
    TRIAL_BLOCK,
    OutcomeCounts,
    Povm,
    acceptance_probability,
    born_probabilities,
    build_ic_povm,
    default_product_povm,
    mixture_acceptance,
    product_povm,
    reconstruct,
    reconstruct_from_probabilities,
    sample_outcomes,
)

# seed pinned after calibrating the acceptance-trend runs
TREND_SEED = 14
# (d, seed) pairs whose first IC-POVM draw is accepted; the first five lead
# so that their test ids stay put
FIRST_DRAW_SEEDS = [(2, 0), (2, 9), (3, 1), (3, 37), (3, (5, 11))]
FIRST_DRAW_SEEDS += [(d, s) for d in (2, 3) for s in range(25) if (d, s) not in FIRST_DRAW_SEEDS]


def hermitian_basis(d):
    """Orthogonal basis of d x d Hermitian space."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            f = np.zeros((d, d), dtype=complex)
            f[i, j] = -1j
            f[j, i] = 1j
            basis.append(f)
    return basis


def reference_ic_povm_draw(d, entropy):
    """One draw of build_ic_povm, written out step by step as a reference.

    Returns (elements, duals) as lists, or None where the Gram test rejects
    the draw; the Povm duality check is left to the caller.
    """
    rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
    projs = []
    for _ in range(d * d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        projs.append(np.outer(v, v.conj()))
    vals, vecs = np.linalg.eigh(sum(projs))
    if vals[0] < 1e-12 * vals[-1]:
        return None
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    elements = []
    for p in projs:
        m = inv_sqrt @ p @ inv_sqrt
        elements.append(0.5 * (m + m.conj().T))
    gram = np.array([[np.trace(a @ b).real for b in elements] for a in elements])
    gvals = np.linalg.eigvalsh(gram)
    if gvals[0] < 1e-10 * gvals[-1]:
        return None
    coeff = np.linalg.inv(gram)
    duals = []
    for m_idx in range(d * d):
        dual = sum(coeff[n_idx, m_idx] * elements[n_idx] for n_idx in range(d * d))
        duals.append(0.5 * (dual + dual.conj().T))
    return elements, duals


def reference_estimate(probs, povm):
    """Linear inversion by accumulating the duals one outcome at a time."""
    est = np.zeros((povm.dim, povm.dim), dtype=complex)
    for r, dual in zip(probs, povm.duals):
        if r != 0.0:
            est += r * dual
    return 0.5 * (est + est.conj().T)


def reference_acceptance(target, source, n, eps, trials, seed, povm):
    """The per-trial loop acceptance_probability batches: trial t is the t-th
    multinomial draw of one generator on (seed, trial stream 7), then a
    reconstruction and one eigvalsh per trial. ``seed`` is the entropy tuple."""
    p = np.clip(born_probabilities(source, povm), 0.0, None)
    p /= np.sum(p)
    rng = np.random.default_rng((*seed, 7))
    accepted = 0
    for _ in range(trials):
        counts = rng.multinomial(n - 1, p)
        est = reference_estimate(counts / (n - 1), povm)
        vals = np.linalg.eigvalsh(est - target.mat)
        if 0.5 * float(np.sum(np.abs(vals))) <= eps / 2.0:
            accepted += 1
    return accepted / trials


class TestBuildIcPovm:
    @pytest.mark.parametrize("d", [2, 3])
    def test_elements_sum_to_identity(self, d):
        povm = build_ic_povm(d, 0)
        assert np.max(np.abs(sum(povm.elements) - np.eye(d))) < 1e-9
        for m in povm.elements:
            assert np.linalg.eigvalsh(m)[0] > -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_duality(self, d):
        povm = build_ic_povm(d, 1)
        gram = np.array(
            [[np.trace(m @ md).real for md in povm.duals] for m in povm.elements]
        )
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-8

    def test_frame_identity_on_hermitian_basis(self):
        povm = build_ic_povm(2, 2)
        for x in hermitian_basis(2):
            probs = np.array([np.trace(x @ m).real for m in povm.elements])
            rec = reconstruct_from_probabilities(probs, povm)
            assert np.max(np.abs(rec - x)) < 1e-8

    def test_born_probabilities_valid(self):
        povm = build_ic_povm(3, 3)
        for seed in range(5):
            p = born_probabilities(random_density(3, seed, (1, 3)), povm)
            assert np.all(p > -1e-12)
            assert abs(np.sum(p) - 1.0) < 1e-10

    def test_determinism(self):
        a = build_ic_povm(2, 9)
        b = build_ic_povm(2, 9)
        for x, y in zip(a.elements, b.elements):
            assert np.array_equal(x, y)

    def test_povm_validation(self):
        povm = build_ic_povm(2, 0)
        with pytest.raises(ValueError):
            Povm(povm.elements[:3], povm.duals[:3], 2)
        with pytest.raises(ValueError):
            Povm(povm.elements, tuple(2.0 * d for d in povm.duals), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["elements", "duals"])
    def test_povm_rejects_non_finite(self, bad, part):
        povm = build_ic_povm(2, 0)
        parts = {"elements": povm.elements.copy(), "duals": povm.duals.copy()}
        parts[part][1, 0, 1] = bad
        with pytest.raises(ValueError):
            Povm(parts["elements"], parts["duals"], 2)

    def test_stores_read_only_stacked_arrays(self):
        povm = build_ic_povm(2, 0)
        elements = tuple(np.array(m) for m in povm.elements)
        built = Povm(elements, tuple(povm.duals), 2)
        for arr, src in ((built.elements, povm.elements), (built.duals, povm.duals)):
            assert arr.shape == (4, 2, 2)
            assert arr.dtype == complex
            assert not arr.flags.writeable
            assert np.array_equal(arr, src)
        elements[0][0, 0] = 7.0
        assert built.elements[0, 0, 0] != 7.0
        assert built.n_outcomes == 4

    @pytest.mark.parametrize("d, seed", FIRST_DRAW_SEEDS)
    def test_seeds_that_pass_first_draw_unchanged(self, d, seed):
        # bytes, not values, so a flipped sign of zero fails too
        ref = reference_ic_povm_draw(d, (*np.atleast_1d(seed), 0))
        povm = build_ic_povm(d, seed)
        assert povm.elements.tobytes() == np.array(ref[0]).tobytes()
        assert povm.duals.tobytes() == np.array(ref[1]).tobytes()

    @pytest.mark.parametrize("master, stream", [(948, 11), (1641, 10)])
    def test_ill_conditioned_dual_frame_retried(self, master, stream):
        # the first draw passes the Gram test, but its duals miss the 1e-8 check
        first = reference_ic_povm_draw(3, (master, stream, 0))
        with pytest.raises(ValueError):
            Povm(first[0], first[1], 3)
        povm = build_ic_povm(3, (master, stream))
        second = reference_ic_povm_draw(3, (master, stream, 1))
        assert np.array_equal(povm.elements, np.array(second[0]))
        assert np.array_equal(povm.duals, np.array(second[1]))
        assert default_product_povm((3, 3), master).n_outcomes == 81


class TestProductPovm:
    def test_element_count_and_duality(self):
        pa, pb = build_ic_povm(2, 4), build_ic_povm(3, 5)
        pp = product_povm(pa, pb)
        assert pp.n_outcomes == 4 * 9
        assert pp.dim == 6

    def test_elements_are_kronecker_products(self):
        pa, pb = build_ic_povm(2, 4), build_ic_povm(3, 5)
        pp = product_povm(pa, pb)
        for n in range(4):
            for m in range(9):
                assert np.array_equal(pp.elements[9 * n + m], tensor(pa.elements[n], pb.elements[m]))
                assert np.array_equal(pp.duals[9 * n + m], tensor(pa.duals[n], pb.duals[m]))

    def test_elements_are_np_kron_bit_for_bit(self):
        pa, pb = build_ic_povm(2, 1), build_ic_povm(3, 2)
        pp = product_povm(pa, pb)
        for n in range(4):
            for m in range(9):
                got = pp.elements[9 * n + m], pp.duals[9 * n + m]
                assert got[0].tobytes() == np.kron(pa.elements[n], pb.elements[m]).tobytes()
                assert got[1].tobytes() == np.kron(pa.duals[n], pb.duals[m]).tobytes()

    def test_reconstructs_product_states(self):
        pa, pb = build_ic_povm(2, 6), build_ic_povm(2, 7)
        pp = product_povm(pa, pb)
        rho = DensityMatrix(
            tensor(random_density(2, 0).mat, random_density(2, 1).mat), (2, 2)
        )
        probs = born_probabilities(rho, pp)
        rec = reconstruct_from_probabilities(probs, pp)
        assert np.max(np.abs(rec - rho.mat)) < 1e-8

    def test_local_reconstruction_matches_global(self):
        # a product IC-POVM reconstructs exactly, like any global IC-POVM
        pp = default_product_povm((2, 2), 8)
        glob = build_ic_povm(4, 8)
        state, _ = random_separable((2, 2), 3, 9)
        rec_local = reconstruct_from_probabilities(born_probabilities(state, pp), pp)
        rec_global = reconstruct_from_probabilities(born_probabilities(state, glob), glob)
        assert np.max(np.abs(rec_local - state.mat)) < 1e-8
        assert np.max(np.abs(rec_local - rec_global)) < 1e-8


class TestSampling:
    def test_determinism(self):
        povm = build_ic_povm(2, 0)
        rho = random_density(2, 1, (1, 2))
        a = sample_outcomes(rho, povm, 500, 42)
        b = sample_outcomes(rho, povm, 500, 42)
        assert np.array_equal(a.counts, b.counts)
        assert a.total == 500

    def test_zero_probability_outcome_never_sampled(self):
        povm = build_ic_povm(2, 3)
        # rank-1 POVM element: a state orthogonal to its range never triggers it
        vals, vecs = np.linalg.eigh(povm.elements[0])
        psi = vecs[:, 0]  # kernel vector of the rank-1 element
        rho = DensityMatrix.from_vector(psi / np.linalg.norm(psi), (1, 2))
        assert born_probabilities(rho, povm)[0] < 1e-12
        counts = sample_outcomes(rho, povm, 10_000, 0)
        assert counts.counts[0] == 0

    def test_empirical_frequencies(self):
        povm = build_ic_povm(2, 4)
        rho = random_density(2, 5, (1, 2))
        p = born_probabilities(rho, povm)
        counts = sample_outcomes(rho, povm, 100_000, 7)
        freq = counts.counts / counts.total
        assert np.all(np.abs(freq - p) <= 3.0 * np.sqrt(np.clip(p, 1e-12, 1) / 100_000) + 1e-4)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            OutcomeCounts(np.array([1, 2, 3]), 7)


class TestReconstruct:
    def test_all_counts_on_one_element_gives_dual(self):
        povm = build_ic_povm(2, 1)
        counts = np.zeros(4, dtype=int)
        counts[2] = 25
        est = reconstruct(OutcomeCounts(counts, 25), povm)
        assert np.max(np.abs(est - povm.duals[2])) < 1e-12

    def test_exact_probabilities_reconstruct_exactly(self):
        pp = default_product_povm((2, 2), 10)
        phi = max_entangled(2)
        rec = reconstruct_from_probabilities(born_probabilities(phi, pp), pp)
        assert np.max(np.abs(rec - phi.mat)) < 1e-8

    def test_estimates_have_unit_trace(self):
        pp = default_product_povm((2, 2), 11)
        counts = sample_outcomes(max_entangled(2), pp, 50, 0)
        est = reconstruct(counts, pp)
        assert abs(np.trace(est).real - 1.0) < 1e-10
        assert np.max(np.abs(est - est.conj().T)) < 1e-12

    def test_statistical_accuracy_large_shots(self):
        pp = default_product_povm((2, 2), TREND_SEED)
        phi = max_entangled(2)
        counts = sample_outcomes(phi, pp, 100_000, 3)
        est = reconstruct(counts, pp)
        dev = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(est - phi.mat))))
        assert dev <= 0.1

    @pytest.mark.parametrize("dims, seed", [((2, 2), 11), ((3, 3), 12), ((2, 3), 13)])
    def test_matches_outcome_order_loop(self, dims, seed):
        pp = default_product_povm(dims, seed)
        d = pp.dim
        rho = random_density(d, seed, dims)
        for probs in (born_probabilities(rho, pp), sample_outcomes(rho, pp, 40, seed).counts / 40):
            got = reconstruct_from_probabilities(probs, pp)
            # the stacked estimator acceptance_probability applies to its trial blocks
            row = (probs[None] @ pp.duals.reshape(d * d, d * d)).reshape(d, d)
            assert np.array_equal(got, 0.5 * (row + row.conj().T))
            # rounding scale of the sum: sum_i |r_i| max|M_i*|
            scale = float(np.abs(probs) @ np.max(np.abs(pp.duals), axis=(1, 2)))
            assert np.max(np.abs(got - reference_estimate(probs, pp))) <= 1e-15 * scale

    def test_rejects_empty(self):
        povm = build_ic_povm(2, 1)
        with pytest.raises(ValueError):
            reconstruct(OutcomeCounts(np.zeros(4, dtype=int), 0), povm)


class TestAcceptance:
    def test_requires_two_copies(self):
        phi = max_entangled(2)
        with pytest.raises(ValueError):
            acceptance_probability(phi, phi, 1, 0.5, 10, 0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_eps_not_finite_positive(self, eps):
        phi = max_entangled(2)
        with pytest.raises(ValueError, match="eps"):
            acceptance_probability(phi, phi, 50, eps, 10, 0)
        with pytest.raises(ValueError, match="eps"):
            mixture_acceptance(Ensemble(((1.0, phi),)), phi, 50, eps, 10, 0)

    def test_huge_ball_accepts_everything(self):
        # raw estimates are not states, so this needs enough shots for the
        # linear-inversion noise to stay inside the eps/2 = 1 ball
        phi = max_entangled(2)
        val = acceptance_probability(phi, maximally_mixed((2, 2)), 400, 2.0, 100, TREND_SEED)
        assert val == 1.0

    def test_trend_toward_one_on_target(self):
        phi = max_entangled(2)
        a10 = acceptance_probability(phi, phi, 10, 0.75, 200, TREND_SEED)
        a150 = acceptance_probability(phi, phi, 150, 0.75, 200, TREND_SEED)
        assert a150 > a10
        assert a150 >= 0.3

    def test_far_state_rejected(self):
        phi = max_entangled(2)
        val = acceptance_probability(phi, maximally_mixed((2, 2)), 150, 0.75, 200, TREND_SEED)
        assert val <= 0.05

    def test_monotone_in_eps(self):
        phi = max_entangled(2)
        eps_grid = [0.3, 0.75, 1.2, 2.5]
        vals = [
            acceptance_probability(phi, phi, 40, e, 150, TREND_SEED) for e in eps_grid
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_determinism(self):
        phi = max_entangled(2)
        a = acceptance_probability(phi, phi, 20, 0.75, 50, 5)
        b = acceptance_probability(phi, phi, 20, 0.75, 50, 5)
        assert a == b

    @pytest.mark.parametrize(
        "source, n, eps",
        [("target", 40, 1.2), ("target", 150, 0.75), ("mixed", 150, 2.0), ("segment", 60, 0.75)],
    )
    def test_matches_per_trial_loop_default_povm(self, source, n, eps):
        phi = max_entangled(2)
        src = {
            "target": phi,
            "mixed": maximally_mixed((2, 2)),
            "segment": segment_state(phi, 0.4),
        }[source]
        got = acceptance_probability(phi, src, n, eps, 120, TREND_SEED)
        pov = default_product_povm((2, 2), TREND_SEED)
        assert got == reference_acceptance(phi, src, n, eps, 120, (TREND_SEED,), pov)
        assert 0.0 < got < 1.0

    @pytest.mark.parametrize(
        "source, n, eps", [("target", 10_000, 3.0), ("target", 100_000, 1.5), ("tiles", 10_000, 3.0)]
    )
    def test_matches_per_trial_loop_qutrit_product_povm(self, source, n, eps):
        phi = max_entangled(3)
        src = phi if source == "target" else tiles_upb_state()
        pov = product_povm(build_ic_povm(3, 21), build_ic_povm(3, 22))
        got = acceptance_probability(phi, src, n, eps, 60, 3, pov)
        assert got == reference_acceptance(phi, src, n, eps, 60, (3,), pov)
        assert 0.0 < got < 1.0

    def test_matches_per_trial_loop_across_block_boundary(self):
        phi = max_entangled(2)
        trials = TRIAL_BLOCK + 44
        pov = default_product_povm((2, 2), 5)
        got = acceptance_probability(phi, phi, 150, 0.75, trials, 5, pov)
        ref = reference_acceptance(phi, phi, 150, 0.75, trials, (5,), pov)
        assert got == ref
        assert 0.0 < got < 1.0

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_result_independent_of_block_size(self, monkeypatch, block):
        phi = max_entangled(2)
        pov = default_product_povm((2, 2), 5)
        expected = acceptance_probability(phi, phi, 150, 0.75, 300, 5, pov)
        monkeypatch.setattr(tomography, "TRIAL_BLOCK", block)
        assert acceptance_probability(phi, phi, 150, 0.75, 300, 5, pov) == expected

    def test_single_trial_is_first_draw_of_trial_stream(self):
        phi = max_entangled(2)
        pov = default_product_povm((2, 2), TREND_SEED)
        outcomes = set()
        for seed in range(20):
            est = reconstruct(sample_outcomes(phi, pov, 149, (seed, 7)), pov)
            inside = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(est - phi.mat)))) <= 0.75 / 2.0
            assert acceptance_probability(phi, phi, 150, 0.75, 1, seed, pov) == float(inside)
            outcomes.add(inside)
        assert outcomes == {True, False}

    def test_memory_bounded_by_block_not_trials(self):
        phi = max_entangled(3)
        pov = default_product_povm((3, 3), 37)

        def peak_bytes(trials):
            tracemalloc.start()
            try:
                acceptance_probability(phi, phi, 50, 0.75, trials, 1, pov)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(4 * TRIAL_BLOCK) < 1.5 * peak_bytes(TRIAL_BLOCK)


class TestMixtureAcceptance:
    def test_single_member_matches_acceptance(self):
        phi = max_entangled(2)
        mix = maximally_mixed((2, 2))
        ens = Ensemble(((1.0, mix),))
        pov = default_product_povm((2, 2), 0)
        got = mixture_acceptance(ens, phi, 30, 0.9, 80, 0, pov)
        # member 0 samples from the seed entropy (master seed, member stream 17, index)
        direct = acceptance_probability(phi, mix, 30, 0.9, 80, (0, 17, 0), pov)
        assert got == direct

    def test_matches_per_trial_loop(self):
        phi = max_entangled(2)
        ens = Ensemble(
            ((0.5, phi), (0.3, segment_state(phi, 0.3)), (0.2, maximally_mixed((2, 2))))
        )
        got = mixture_acceptance(ens, phi, 150, 1.2, 80, TREND_SEED)
        pov = default_product_povm((2, 2), TREND_SEED)
        ref = sum(
            w * reference_acceptance(phi, member, 150, 1.2, 80, (TREND_SEED, 17, idx), pov)
            for idx, (w, member) in enumerate(ens.members)
        )
        assert got == ref
        assert 0.0 < got < 1.0

    def test_zero_weight_member_ignored(self):
        phi = max_entangled(2)
        mix = maximally_mixed((2, 2))
        ens = Ensemble(((1.0, mix), (0.0, phi)))
        single = Ensemble(((1.0, mix),))
        pov = default_product_povm((2, 2), 1)
        assert mixture_acceptance(ens, phi, 25, 0.9, 60, 1, pov) == mixture_acceptance(
            single, phi, 25, 0.9, 60, 1, pov
        )

    def test_far_ensemble_rejected(self):
        phi = max_entangled(2)
        ens = Ensemble(((0.5, maximally_mixed((2, 2))), (0.5, random_separable((2, 2), 4, 3)[0])))
        val = mixture_acceptance(ens, phi, 150, 0.75, 100, TREND_SEED)
        assert val <= 0.1

    def test_separation_statistic_non_decreasing(self):
        phi = max_entangled(2)
        ens = Ensemble(((1.0, maximally_mixed((2, 2))),))
        pov = default_product_povm((2, 2), TREND_SEED)
        seps = []
        for n in (10, 60, 150):
            acc = acceptance_probability(phi, phi, n, 0.75, 150, TREND_SEED, pov)
            mix = mixture_acceptance(ens, phi, n, 0.75, 150, TREND_SEED, pov)
            seps.append(acc - mix)
        assert seps[0] <= seps[1] + 0.05
        assert seps[1] <= seps[2] + 0.05
        assert seps[2] >= 0.3


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda phi: acceptance_probability(phi, phi, 2.5, 0.5, 10, 0), "n"),
        (lambda phi: acceptance_probability(phi, phi, 5, 0.5, True, 0), "trials"),
        (lambda phi: sample_outcomes(phi, default_product_povm((2, 2), 0), 2.5, 0), "shots"),
        (lambda phi: farness_certificate(phi, Ensemble(((1.0, phi),)), [4], 0.5, 2.5, 0), "trials"),
        (lambda phi: farness_certificate(phi, Ensemble(((1.0, phi),)), [2.5], 0.5, 10, 0), "n"),
        (lambda phi: tensor_power_bipartite(phi, True), "n"),
    ],
    ids=["accept-n-float", "accept-trials-bool", "shots-float", "farness-trials-float", "farness-n-float",
         "tensor-power-bool"],
)
def test_counts_must_be_positive_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
        call(max_entangled(2))


def test_numpy_integer_counts_accepted():
    phi, source = max_entangled(2), segment_state(maximally_mixed((2, 2)), 0.8)
    got = acceptance_probability(phi, source, np.int64(15), 0.75, np.int32(40), 3)
    assert got == acceptance_probability(phi, source, 15, 0.75, 40, 3)
    pov = default_product_povm((2, 2), 0)
    counts = sample_outcomes(phi, pov, np.int64(7), 1)
    assert counts.total == 7
    assert counts.counts.tobytes() == sample_outcomes(phi, pov, 7, 1).counts.tobytes()
    power = tensor_power_bipartite(phi, np.int64(2))
    assert power.mat.tobytes() == tensor_power_bipartite(phi, 2).mat.tobytes()
