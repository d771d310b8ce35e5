"""Hermitian-matrix numerics: eigendecomposition, propagators, PSD square
root and Uhlmann fidelity (squared / Jozsa convention)."""

from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
FIDELITY_OVERSHOOT_TOL = 1e-9

FIDELITY_CONVENTION = "uhlmann-squared-jozsa"


class NumericalError(RuntimeError):
    """Raised when a computation falls outside its numerical contract."""


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary; columns are eigenvectors


def _check_hermitian(h, tol=HERMITICITY_TOL, name="matrix"):
    if not np.isfinite(h).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.abs(h - h.conj().T).max()
    if dev > tol:
        raise ValueError(f"{name} not Hermitian: max |H - H^dag| = {dev:.3e}")


def eigh(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Input is checked and symmetrized to (H + H^dag)/2 before decomposing.
    """
    h = np.asarray(h, dtype=complex)
    _check_hermitian(h)
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return EigenDecomposition(vals, vecs)


def unitary_propagator(h, t, decomposition=None):
    """U(t) = exp(-i H t) via eigendecomposition (hbar = 1).

    Pass a precomputed ``decomposition`` to reuse it across many times t.
    """
    if not np.isfinite(t):
        raise ValueError(f"time t={t} must be finite")
    if decomposition is None:
        decomposition = eigh(h)
    vals, vecs = decomposition
    phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ vecs.conj().T


def psd_sqrt(m):
    """Hermitian PSD square root, clamping tiny negative eigenvalues to 0."""
    m = np.asarray(m, dtype=complex)
    vals, vecs = eigh(m)
    scale = max(1.0, np.abs(vals).max())
    if vals.min() < -1e-10 * scale:
        raise ValueError(
            f"matrix not PSD: min eigenvalue {vals.min():.3e} below tolerance"
        )
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def uhlmann_fidelity(rho, sigma):
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma): the
    singular values equal the eigenvalues of sqrt(sqrt(rho) sigma sqrt(rho))
    but keep full precision for near-singular states, where forming the
    inner product squares tiny weights below the eigensolver noise floor.
    """
    return trace_norm_fidelity(psd_sqrt(rho) @ psd_sqrt(sigma))


def trace_norm_fidelity(m):
    """(Tr|m|)^2 as a fidelity: raises on overshoot past 1, clamps to [0, 1]."""
    f = float(np.linalg.svd(m, compute_uv=False).sum() ** 2)
    if f > 1.0 + FIDELITY_OVERSHOOT_TOL:
        raise NumericalError(f"fidelity overshoot: {f} > 1 + {FIDELITY_OVERSHOOT_TOL}")
    return min(max(f, 0.0), 1.0)
