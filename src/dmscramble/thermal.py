"""Gibbs thermal states (k_B = 1)."""

import numpy as np

from .linalg import _check_hermitian, eigh

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def _check_hermitian_unit_trace(rho, name):
    _check_hermitian(rho, name=name)
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace {tr} differs from 1 beyond {TRACE_TOL}")


def check_density_matrix(rho, name="rho"):
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    _check_hermitian_unit_trace(rho, name)
    vals, _ = eigh(rho)
    if vals.min() < -PSD_TOL:
        raise ValueError(f"{name} not PSD: min eigenvalue {vals.min():.3e}")
    return rho


def boltzmann_weights(energies, temperature):
    """Normalized weights exp(-E/T) / Z of a spectrum.

    The spectrum is shifted by its minimum so the largest weight is exactly
    1 before normalizing (overflow-free at any T > 0). For T far below the
    spectral gap the excited weights underflow to 0, which is the intended
    ground-manifold limit. Raises unless every weight is finite and >= 0.
    """
    if temperature <= 0:
        raise ValueError(f"temperature={temperature} must be positive")
    weights = np.exp(-(energies - energies.min()) / temperature)
    weights /= weights.sum()
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(f"Boltzmann weights at temperature={temperature} are "
                         "not finite and nonnegative")
    return weights


def gibbs_state(h, temperature, decomposition=None):
    """Thermal state exp(-H/T) / Tr exp(-H/T), from the eigendecomposition.

    rho = (Q sqrt(P)) (Q sqrt(P))^dag is a Gram matrix, so it is PSD by
    construction; Hermiticity, unit trace and the weights are checked.
    """
    if decomposition is None:
        decomposition = eigh(h)
    vals, vecs = decomposition
    root = vecs * np.sqrt(boltzmann_weights(vals, temperature))
    rho = root @ root.conj().T
    # re-hermitize to kill rounding drift before the invariant check
    rho = (rho + rho.conj().T) / 2.0
    _check_hermitian_unit_trace(rho, "gibbs state")
    return rho


def purity(rho):
    """Tr rho^2, real (equals sum |rho_ij|^2 for Hermitian rho)."""
    return float(np.vdot(rho, rho).real)
