import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unitary
from dmscramble.hamiltonian import ChainConfig, build_dm
from dmscramble.linalg import (
    eigh,
    psd_sqrt,
    uhlmann_fidelity,
    unitary_propagator,
)
from dmscramble.operators import pauli


class TestEigh:
    def test_pauli_z(self):
        vals, _ = eigh(pauli("z"))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_pauli_x_eigenvectors(self):
        vals, vecs = eigh(pauli("x"))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
        # columns are (|0> -+ |1>)/sqrt(2) up to phase
        for col, sign in zip(vecs.T, (-1.0, 1.0)):
            target = np.array([1.0, sign]) / np.sqrt(2)
            phase = col[0] / target[0]
            np.testing.assert_allclose(col, phase * target, atol=1e-12)

    def test_dm_chain_spectrum(self):
        vals, _ = eigh(build_dm(ChainConfig(n=2, d_strength=1.0)))
        expected = sorted([0.5 - np.sqrt(2), -0.5, -0.5, 0.5 + np.sqrt(2)])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 5, 16):
            h = random_hermitian(rng, dim, scale=3.0)
            vals, vecs = eigh(h)
            recon = (vecs * vals) @ vecs.conj().T
            scale = max(1.0, np.abs(h).max())
            assert np.abs(recon - h).max() <= 1e-10 * scale
            assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() <= 1e-10
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            eigh(np.full((2, 2), bad))


class TestPropagator:
    def test_t0_identity(self, rng):
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(unitary_propagator(h, 0.0), np.eye(4), atol=1e-14)

    def test_pauli_z_quarter_period(self):
        u = unitary_propagator(pauli("z"), np.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-12)

    def test_inverse(self, rng):
        h = random_hermitian(rng, 8)
        u = unitary_propagator(h, 1.3) @ unitary_propagator(h, -1.3)
        assert np.abs(u - np.eye(8)).max() <= 1e-10

    def test_unitarity_grid(self, rng):
        h = random_hermitian(rng, 8, scale=2.0)
        for t in np.linspace(0.0, 10.0, 7):
            u = unitary_propagator(h, t)
            assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-10

    def test_group_property(self, rng):
        h = random_hermitian(rng, 6)
        lhs = unitary_propagator(h, 0.7) @ unitary_propagator(h, 1.9)
        rhs = unitary_propagator(h, 2.6)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_rejects_nonfinite_time(self, rng):
        with pytest.raises(ValueError, match="finite"):
            unitary_propagator(random_hermitian(rng, 2), np.inf)


class TestPsdSqrt:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3) / 4), np.eye(3) / 2, atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 1.0, 0.0])), np.diag([2.0, 1.0, 0.0]), atol=1e-14
        )

    def test_reconstruction_on_random_density(self, rng):
        rho = random_density(rng, 8)
        s = psd_sqrt(rho)
        assert np.abs(s @ s - rho).max() <= 1e-9
        assert np.abs(s - s.conj().T).max() <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestUhlmannFidelity:
    def test_identical_states(self, rng):
        rho = random_density(rng, 6)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert uhlmann_fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_vs_pure(self):
        assert uhlmann_fidelity(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetric(self, rng):
        rho = random_density(rng, 5)
        sigma = random_density(rng, 5)
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(
            uhlmann_fidelity(sigma, rho), abs=1e-9
        )

    def test_bounds(self, rng):
        for _ in range(20):
            f = uhlmann_fidelity(random_density(rng, 4), random_density(rng, 4))
            assert 0.0 <= f <= 1.0

    def test_unitary_invariance(self, rng):
        rho = random_density(rng, 6)
        sigma = random_density(rng, 6)
        u = random_unitary(rng, 6)
        f1 = uhlmann_fidelity(rho, sigma)
        f2 = uhlmann_fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert f2 == pytest.approx(f1, abs=1e-9)

    def test_one_iff_equal(self, rng):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        if np.abs(rho - sigma).max() > 1e-8:
            assert uhlmann_fidelity(rho, sigma) < 1.0 - 1e-9
