"""One-shot criteria: frozen margins, soundness, and stability properties."""

import numpy as np
import pytest

from sepkit.criteria import (
    ONE_SHOT_TESTS,
    cross_norm_test,
    entropic_test,
    majorization_test,
    ppt_test,
    reduction_test,
    run_all,
)
from sepkit.linalg import DensityMatrix, tensor, trace_distance
from sepkit.states import (
    haar_unitary,
    max_entangled,
    maximally_mixed,
    random_density,
    random_product_pure,
    random_separable,
)
class TestMaxEntangledMargins:
    """Frozen verdicts for Phi(2); each margin known in closed form."""
    def setup_method(self):
        self.phi = max_entangled(2)
    def test_ppt(self):
        v = ppt_test(self.phi)
        assert not v.passed
        assert abs(v.margin - (-0.5)) < 1e-9
    def test_reduction(self):
        v = reduction_test(self.phi)
        assert not v.passed
        assert abs(v.margin - (-0.5)) < 1e-9
    def test_entropic_2(self):
        v = entropic_test(self.phi, 2)
        assert not v.passed
        assert abs(v.margin - (-1.0)) < 1e-9
        assert abs(v.details["s_ab"]) < 1e-12
        assert abs(v.details["s_a"] - 1.0) < 1e-12
    def test_entropic_vn(self):
        v = entropic_test(self.phi, "vn")
        assert not v.passed
        assert abs(v.margin - (-1.0)) < 1e-9

    def test_entropic_other_alpha_rejected(self):
        for alpha in (3, 1, "von-neumann"):
            with pytest.raises(ValueError):
                entropic_test(self.phi, alpha)
    def test_majorization(self):
        v = majorization_test(self.phi)
        assert not v.passed
        assert abs(v.margin - (-0.5)) < 1e-9
    def test_cross_norm(self):
        v = cross_norm_test(self.phi)
        assert not v.passed
        assert abs(v.details["realigned_trace_norm"] - 2.0) < 1e-9
        assert abs(v.margin - (-1.0)) < 1e-9
class TestMaximallyMixedMargins:
    def setup_method(self):
        self.mixed = maximally_mixed((2, 2))
    def test_reduction_margin(self):
        v = reduction_test(self.mixed)
        assert v.passed
        assert abs(v.margin - 0.25) < 1e-12
    def test_entropic_margin(self):
        v = entropic_test(self.mixed, 2)
        assert v.passed
        assert abs(v.margin - 1.0) < 1e-12
    def test_majorization_dominance(self):
        v = majorization_test(self.mixed)
        assert v.passed
    def test_cross_norm_margin(self):
        v = cross_norm_test(self.mixed)
        assert v.passed
        assert abs(v.details["realigned_trace_norm"] - 0.5) < 1e-12
        assert abs(v.margin - 0.5) < 1e-12
class TestProductStates:
    def test_all_pass_on_pure_products(self):
        for seed in range(5):
            rho = random_product_pure((2, 3), seed)
            for name, test in ONE_SHOT_TESTS.items():
                v = test(rho)
                assert v.passed, f"{name} failed on a pure product state: {v.margin}"
    def test_entropic_margin_is_other_marginal_entropy(self):
        ra = random_density(2, 0).mat
        rb = random_density(3, 1).mat
        rho = DensityMatrix(tensor(ra, rb), (2, 3))
        v = entropic_test(rho, "vn")
        s_a, s_b = v.details["s_a"], v.details["s_b"]
        assert abs(v.margin - min(s_a, s_b)) < 1e-10
    def test_majorization_equality_at_k1_for_pure(self):
        rho = random_product_pure((2, 2), 3)
        v = majorization_test(rho)
        assert v.passed
        assert abs(v.details["prefix_diffs_a"][0]) < 1e-10
    def test_cross_norm_zero_margin_for_pure_products(self):
        rho = random_product_pure((3, 3), 4)
        v = cross_norm_test(rho)
        assert v.passed
        assert abs(v.margin) < 1e-9
class TestSoundness:
    def test_random_separable_mini_sweep(self):
        shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for i in range(60):
            state, _ = random_separable(shapes[i % 4], 1 + (i % 12), (1000, i))
            for name, test in ONE_SHOT_TESTS.items():
                v = test(state)
                assert v.passed, f"{name} false positive on separable state {i}: {v.margin}"
class TestStability:
    def test_local_unitary_invariance(self):
        candidates = [
            max_entangled(2),
            maximally_mixed((2, 2)),
            random_density(4, 0, (2, 2)),
            random_separable((2, 2), 3, 1)[0],
        ]
        for idx, rho in enumerate(candidates):
            u = tensor(haar_unitary(2, (idx, 1)), haar_unitary(2, (idx, 2)))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
            for name, test in ONE_SHOT_TESTS.items():
                v0, v1 = test(rho), test(rotated)
                if abs(v0.margin) > 1e-8:
                    assert v0.passed == v1.passed, f"{name} verdict flipped under local unitaries"
    def test_margin_continuity_ppt_reduction(self):
        for seed in range(50):
            rho = random_density(6, (seed, 10), (2, 3))
            sigma = random_density(6, (seed, 11), (2, 3))
            td = trace_distance(rho, sigma)
            for test in (ppt_test, reduction_test):
                gap = abs(test(rho).margin - test(sigma).margin)
                assert gap <= 2.0 * td + 1e-9
class TestVerdictContract:
    def test_passed_iff_margin_within_tol(self):
        states = [
            max_entangled(2),
            maximally_mixed((2, 2)),
            random_density(4, 5, (2, 2)),
            random_separable((2, 2), 4, 6)[0],
        ]
        for rho in states:
            for test in ONE_SHOT_TESTS.values():
                v = test(rho)
                assert v.passed == (v.margin >= -v.details["tol"])
                assert v.status == ("pass" if v.passed else "fail")
class TestRunAll:
    def test_maxent_all_fail(self):
        verdicts = run_all(max_entangled(2))
        assert len(verdicts) == 7
        assert all(not v.passed for v in verdicts)
        sym = verdicts[-1]
        assert sym.criterion == "symext-2"
        assert sym.details["solver_status"] == "infeasible-evidence"
    def test_separable_all_pass(self):
        state, ens = random_separable((2, 2), 2, 8)
        from sepkit.symext import extend_separable
        verdicts = run_all(state, start=extend_separable(ens, 2))
        assert all(v.passed for v in verdicts)

    def test_marginal_spectra_computed_once(self, monkeypatch):
        # on a 2 x 3 state only the marginal spectra are smaller than 6 x 6
        marginal_calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(m):
            if m.shape[-1] < 6:
                marginal_calls.append(m.shape[-1])
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rho = random_density(6, 31, (2, 3), cols=1)  # pure: the extension search stops at once
        run_all(rho)
        assert sorted(marginal_calls) == [2, 3]
        for vals in rho.marginal_spectra:
            assert not vals.flags.writeable
