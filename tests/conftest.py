import numpy as np
import pytest

from dmscramble.operators import pauli


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_product(factors, n):
    """Reference Pauli product: the explicit Kronecker product over all sites."""
    op = np.eye(1)
    for r in range(1, n + 1):
        op = np.kron(op, pauli(factors[r]) if r in factors else np.eye(2))
    return op
