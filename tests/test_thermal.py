import numpy as np
import pytest

from conftest import random_hermitian, random_unitary
from dmscramble.hamiltonian import ChainConfig, build_dm
from dmscramble.linalg import eigh
from dmscramble.thermal import check_density_matrix, gibbs_state, purity


def test_two_level_closed_form():
    rho = gibbs_state(np.diag([0.0, 1.0]), 1.0)
    z = 1.0 + np.exp(-1.0)
    np.testing.assert_allclose(np.diag(rho).real, [1.0 / z, np.exp(-1.0) / z],
                               atol=1e-12)
    # 4-decimal closed-form values
    np.testing.assert_allclose(np.diag(rho).real, [0.7311, 0.2689], atol=1e-4)


def test_infinite_temperature_limit(rng):
    h = random_hermitian(rng, 8)
    rho = gibbs_state(h, 1e9)
    assert np.abs(rho - np.eye(8) / 8).max() <= 1e-6


def test_zero_temperature_projector(rng):
    h = np.diag([0.0, 1.0, 2.5])
    rho = gibbs_state(h, 1e-5)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_degenerate_ground_manifold_equal_weights():
    rho = gibbs_state(np.diag([0.0, 0.0, 5.0]), 1e-5)
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0.0]), atol=1e-12)


def test_rejects_nonpositive_temperature(rng):
    with pytest.raises(ValueError, match="temperature"):
        gibbs_state(random_hermitian(rng, 2), 0.0)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_rejects_non_finite_temperature():
    with pytest.raises(ValueError, match="Boltzmann weights"):
        gibbs_state(np.diag([0.0, 1.0]), float("nan"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_density_matrix_rejects_non_finite(bad):
    rho = np.eye(2) / 2
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(rho)


def test_density_matrix_invariants():
    h = build_dm(ChainConfig(n=3, d_strength=0.8))
    for temperature in (0.05, 0.5, 5.0):
        rho = gibbs_state(h, temperature)
        check_density_matrix(rho)


def test_commutes_with_hamiltonian(rng):
    h = random_hermitian(rng, 8)
    rho = gibbs_state(h, 0.7)
    assert np.abs(rho @ h - h @ rho).max() <= 1e-9


def test_purity_non_increasing_in_temperature(rng):
    h = random_hermitian(rng, 8, scale=2.0)
    purities = [purity(gibbs_state(h, t)) for t in (0.05, 0.2, 1.0, 5.0, 50.0)]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_energy_non_decreasing_in_temperature(rng):
    h = random_hermitian(rng, 8, scale=2.0)
    energies = [
        float(np.trace(gibbs_state(h, t) @ h).real)
        for t in (0.05, 0.2, 1.0, 5.0, 50.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_basis_covariance(rng):
    h = random_hermitian(rng, 6)
    u = random_unitary(rng, 6)
    lhs = gibbs_state(u @ h @ u.conj().T, 0.8)
    rhs = u @ gibbs_state(h, 0.8) @ u.conj().T
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_reuses_supplied_decomposition(rng):
    h = random_hermitian(rng, 6)
    dec = eigh(h)
    np.testing.assert_allclose(
        gibbs_state(h, 0.5), gibbs_state(None, 0.5, decomposition=dec), atol=1e-14
    )
