"""Core linear algebra: structural maps, norms, and their defining identities."""

import warnings

import numpy as np
import pytest

from sepkit.linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    permute_systems,
    check_density,
    psd_floor,
    psd_margin,
    realign,
    singular_values,
    tensor,
    trace_distance,
)
from sepkit.states import (
    max_entangled,
    max_entangled_vector,
    maximally_mixed,
    random_density,
)

from helpers import haar_unitary, pure_fidelity


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_hermitian(rng, d):
    m = rand_complex(rng, d, d)
    return m + m.conj().T


def naive_kron(a, b):
    """Quadruple-loop Kronecker product; the independent oracle."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def colstack(m):
    """Column-stacking vec, independent of the library implementation."""
    return np.concatenate([m[:, j] for j in range(m.shape[1])])


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (3, 2))])
    def test_matches_naive_loop(self, shapes):
        rng = np.random.default_rng(11)
        a = rand_complex(rng, *shapes[0])
        b = rand_complex(rng, *shapes[1])
        assert np.allclose(tensor(a, b), naive_kron(a, b), atol=1e-14)

    @pytest.mark.parametrize("shapes", [((4, 4), (2, 2)), ((2, 3), (3, 2)), ((1, 3), (3, 1))])
    def test_bit_equal_to_kron(self, shapes):
        rng = np.random.default_rng(12)
        a = rand_complex(rng, *shapes[0])
        b = rand_complex(rng, *shapes[1])
        b[0, 0] = -0.0
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()
        ar, br = a.real.copy(), b.real.copy()
        expected = np.kron(ar.astype(complex), br.astype(complex))
        assert tensor(ar, br).tobytes() == expected.tobytes()


class TestPermuteSystems:
    def test_identity_perm(self):
        rng = np.random.default_rng(0)
        m = rand_complex(rng, 12, 12)
        assert np.allclose(permute_systems(m, [2, 3, 2], [0, 1, 2]), m)

    def test_swap_law(self):
        rng = np.random.default_rng(1)
        a = rand_complex(rng, 2, 2)
        b = rand_complex(rng, 3, 3)
        got = permute_systems(tensor(a, b), [2, 3], [1, 0])
        assert np.allclose(got, tensor(b, a), atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(2)
        m = rand_complex(rng, 24, 24)
        dims = [2, 3, 2, 2]
        perm = [2, 0, 3, 1]
        permuted_dims = [dims[p] for p in perm]
        inv = list(np.argsort(perm))
        back = permute_systems(permute_systems(m, dims, perm), permuted_dims, inv)
        assert np.allclose(back, m)

    def test_phi_pair_regroup(self):
        phi2 = max_entangled(2).mat
        big = tensor(phi2, phi2)
        regrouped = permute_systems(big, [2, 2, 2, 2], [0, 2, 1, 3])
        assert np.allclose(regrouped, max_entangled(4).mat, atol=1e-14)
        state = DensityMatrix(regrouped, (4, 4))
        assert np.allclose(state.marginal("A"), np.eye(4) / 4, atol=1e-12)
        # independent contraction oracle for the same marginal
        t = regrouped.reshape(4, 4, 4, 4)
        oracle = np.einsum("ikjk->ij", t)
        assert np.allclose(state.marginal("A"), oracle, atol=1e-14)

    def test_invalid_perm_rejected(self):
        with pytest.raises(ValueError):
            permute_systems(np.eye(4), [2, 2], [0, 0])
        with pytest.raises(ValueError):
            permute_systems(np.eye(4), [2, 3], [0, 1])


class TestPartialTrace:
    def test_product_case(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(2, rng).mat
        rho_b = random_density(3, rng).mat
        m = tensor(rho_a, rho_b)
        assert np.allclose(partial_trace(m, (2, 3), "A"), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(m, (2, 3), "B"), rho_b, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maxent_marginal(self, d):
        phi = max_entangled(d)
        assert np.allclose(partial_trace(phi.mat, (d, d), "B"), np.eye(d) / d, atol=1e-12)

    def test_identity_bookkeeping(self):
        assert np.allclose(partial_trace(np.eye(9), (3, 3), "A"), 3 * np.eye(3))

    def test_trace_preserving(self):
        rng = np.random.default_rng(4)
        m = rand_complex(rng, 6, 6)
        for keep in ("A", "B"):
            assert np.isclose(np.trace(partial_trace(m, (2, 3), keep)), np.trace(m))


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(5)
        a, b = rand_complex(rng, 2, 2), rand_complex(rng, 3, 3)
        assert np.allclose(
            partial_transpose(tensor(a, b), (2, 3)), tensor(a, b.T), atol=1e-14
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_maxent_min_eigenvalue(self, d):
        pt = partial_transpose(max_entangled(d).mat, (d, d))
        vals = np.linalg.eigvalsh(pt)
        assert abs(vals[0] - (-1.0 / d)) < 1e-9

    def test_diagonal_unchanged(self):
        m = np.diag(np.arange(6, dtype=float))
        assert np.array_equal(partial_transpose(m, (2, 3)), m)

    def test_involution_and_marginal_commutation(self):
        rng = np.random.default_rng(6)
        m = rand_hermitian(rng, 6)
        pt = partial_transpose(m, (2, 3))
        assert np.allclose(partial_transpose(pt, (2, 3)), m, atol=1e-14)
        assert np.isclose(np.trace(pt), np.trace(m))
        # tracing out the transposed factor is unaffected; the kept one transposes
        assert np.allclose(partial_trace(pt, (2, 3), "A"), partial_trace(m, (2, 3), "A"))
        assert np.allclose(partial_trace(pt, (2, 3), "B"), partial_trace(m, (2, 3), "B").T)
        assert np.allclose(pt, pt.conj().T, atol=1e-14)

    def test_trace_pairing_identity(self):
        rng = np.random.default_rng(7)
        x, y = rand_hermitian(rng, 6), rand_hermitian(rng, 6)
        xt = partial_transpose(x, (2, 3))
        yt = partial_transpose(y, (2, 3))
        assert np.isclose(np.trace(xt @ yt), np.trace(x @ y), atol=1e-10)


class TestRealign:
    def test_product_oracle(self):
        rng = np.random.default_rng(8)
        for da, db in ((2, 2), (2, 3), (3, 2)):
            m, n = rand_complex(rng, da, da), rand_complex(rng, db, db)
            expected = np.outer(colstack(m), colstack(n))
            assert np.allclose(realign(tensor(m, n), (da, db)), expected, atol=1e-13)

    def test_pure_product_trace_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rand_complex(rng, 2, 1).ravel()
            a /= np.linalg.norm(a)
            b = rand_complex(rng, 3, 1).ravel()
            b /= np.linalg.norm(b)
            rho = tensor(np.outer(a, a.conj()), np.outer(b, b.conj()))
            tn = float(np.sum(singular_values(realign(rho, (2, 3)))))
            va = np.linalg.norm(colstack(np.outer(a, a.conj())))
            vb = np.linalg.norm(colstack(np.outer(b, b.conj())))
            assert np.isclose(tn, va * vb, atol=1e-12)
            assert tn <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maxent_trace_norm(self, d):
        sv = singular_values(realign(max_entangled(d).mat, (d, d)))
        assert np.allclose(sv, np.full(d * d, 1.0 / d), atol=1e-12)
        assert np.isclose(np.sum(sv), d, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        x, y = rand_complex(rng, 6, 6), rand_complex(rng, 6, 6)
        a, b = 0.7, -1.3 + 0.2j
        lhs = realign(a * x + b * y, (2, 3))
        rhs = a * realign(x, (2, 3)) + b * realign(y, (2, 3))
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(5)), np.ones(5))

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(15)
        m = rand_complex(rng, 5, 5)
        sv = singular_values(m)
        oracle_vals = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
        assert np.allclose(sv, np.sqrt(np.clip(oracle_vals, 0, None)), atol=1e-10)

    def test_rank_one(self):
        rng = np.random.default_rng(16)
        u = rand_complex(rng, 4, 1).ravel()
        v = rand_complex(rng, 4, 1).ravel()
        sv = singular_values(np.outer(u, v.conj()))
        assert np.isclose(sv[0], np.linalg.norm(u) * np.linalg.norm(v))
        assert np.allclose(sv[1:], 0.0, atol=1e-12)


class TestTraceDistance:
    def test_self_distance(self):
        rho = random_density(4, 0, (2, 2))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        one = DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]), (2, 2))
        assert np.isclose(trace_distance(zero, one), 1.0)

    def test_maxent_vs_mixed(self):
        assert np.isclose(
            trace_distance(max_entangled(2), maximally_mixed((2, 2))), 0.75, atol=1e-12
        )

    def test_symmetry_and_triangle(self):
        a = random_density(4, 1, (2, 2))
        b = random_density(4, 2, (2, 2))
        c = random_density(4, 3, (2, 2))
        assert np.isclose(trace_distance(a, b), trace_distance(b, a))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(random_density(4, 0, (2, 2)), random_density(6, 0, (2, 3)))

    def test_unitary_invariance_and_marginal_contraction(self):
        count = 0
        for seed in range(100):
            rho = random_density(6, (seed, 1), (2, 3))
            sigma = random_density(6, (seed, 2), (2, 3))
            td = trace_distance(rho, sigma)
            u = tensor(haar_unitary(2, (seed, 3)), haar_unitary(3, (seed, 4)))
            rho_u = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 3))
            sigma_u = DensityMatrix(u @ sigma.mat @ u.conj().T, (2, 3))
            assert np.isclose(trace_distance(rho_u, sigma_u), td, atol=1e-10)
            marg_r = DensityMatrix(rho.marginal("A"), (1, 2))
            marg_s = DensityMatrix(sigma.marginal("A"), (1, 2))
            assert trace_distance(marg_r, marg_s) <= td + 1e-12
            count += 1
        assert count == 100


class TestPureFidelity:
    """Pure states and trace_distance against the fidelity with a unit vector."""

    def test_self(self):
        psi = max_entangled_vector(3)
        assert np.isclose(pure_fidelity(DensityMatrix.from_vector(psi, (3, 3)), psi), 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_mixed(self, d):
        assert np.isclose(
            pure_fidelity(maximally_mixed((d, d)), max_entangled_vector(d)), 1.0 / d
        )

    def test_fidelity_trace_distance_inequality(self):
        psi = max_entangled_vector(2)
        target = DensityMatrix.from_vector(psi, (2, 2))
        for seed in range(25):
            rho = random_density(4, seed, (2, 2))
            f = pure_fidelity(rho, psi)
            assert 1.0 - f <= trace_distance(rho, target) + 1e-10


class TestPsdMargin:
    def test_identity(self):
        assert np.isclose(psd_margin(np.eye(4)), 1.0)

    def test_maxent_partial_transpose(self):
        pt = partial_transpose(max_entangled(2).mat, (2, 2))
        assert np.isclose(psd_margin(pt), -0.5, atol=1e-12)

    def test_relative_tolerance_semantics(self):
        low, tol = psd_floor(np.linalg.eigvalsh(np.diag([1.0, -1e-12])))
        assert low >= -tol
        low, tol = psd_floor(np.linalg.eigvalsh(np.diag([1.0, -1e-6])))
        assert not low >= -tol

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_margin(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckDensity:
    def test_stack_spectra_match_one_at_a_time(self):
        stack = np.stack([random_density(3, seed).mat for seed in range(4)])
        vals = check_density(stack)
        assert vals.shape == (4, 3)
        for m, v in zip(stack, vals):
            assert v.tobytes() == DensityMatrix(m, (1, 3)).eigenvalues.tobytes()

    def test_density_matrix_runs_the_same_check(self, monkeypatch):
        import sepkit.linalg

        seen = []

        def spy(m):
            seen.append(m.shape)
            return check_density(m)

        monkeypatch.setattr(sepkit.linalg, "check_density", spy)
        DensityMatrix(np.eye(4) / 4, (2, 2))
        assert seen == [(4, 4)]


class TestDensityMatrix:
    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), (2, 2))  # trace 4
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))  # negative eigenvalue
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 1j * 1e-3
        with pytest.raises(ValueError):
            DensityMatrix(bad, (2, 2))  # not Hermitian

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 1), (2, 2)])
    def test_rejects_non_finite(self, bad, where):
        m = np.eye(4, dtype=complex) / 4
        i, j = where
        m[i, j] = bad
        m[j, i] = np.conj(bad)
        # rejected with ValueError alone, no RuntimeWarning from inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                DensityMatrix(m, (2, 2))

    def test_immutable(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 5.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eigenvalues_are_the_checked_spectrum(self, seed):
        rho = random_density(6, seed, (2, 3))
        assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.mat))
        assert np.all(np.diff(rho.eigenvalues) >= 0)
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 1.0
        assert "eigenvalues" not in repr(rho)
        with pytest.raises(TypeError):
            DensityMatrix(rho.mat, rho.dims, rho.eigenvalues)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2, 3))
