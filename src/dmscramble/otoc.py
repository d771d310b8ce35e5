"""Fidelity-based out-of-time-order correlator on thermal spin chains.

The probe operators are Pauli-x on the first and last sites. W is evolved
in the Heisenberg picture, W_t = U(-t) W U(t), the initial thermal state
is conjugated in the two operator orderings, and the correlator is
F(t) = sqrt(Re[fidelity(rho_a, rho_b)]).
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChainConfig, build_dm, evolution_hamiltonian
from .linalg import (
    FIDELITY_CONVENTION,
    NumericalError,
    eigh,
    uhlmann_fidelity,
    unitary_propagator,
)
from .operators import site_operator
from .thermal import check_density_matrix, gibbs_state

UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; default spans [0, 10] with 201 points."""

    t_start: float = 0.0
    t_end: float = 10.0
    steps: int = 201

    def __post_init__(self):
        if self.t_start < 0:
            raise ValueError(f"t_start={self.t_start} must be >= 0")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end={self.t_end} must exceed t_start={self.t_start}"
            )
        if self.steps < 2:
            raise ValueError(f"steps={self.steps} must be >= 2")

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.steps)


@dataclass(frozen=True)
class OtocSeries:
    grid: TimeGrid
    values: np.ndarray  # F(t) per grid point, in [0, 1]
    config: ChainConfig
    convention_tag: str = FIDELITY_CONVENTION
    max_imag_residue: float = 0.0

    def __post_init__(self):
        if len(self.values) != self.grid.steps:
            raise ValueError("values length does not match grid")


def butterfly_operators(n):
    """Probe pair (V, W) = (x on site 1, x on site n)."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2: probes need distinct edge sites")
    return site_operator("x", 1, n), site_operator("x", n, n)


def heisenberg_evolve(w, h, t, decomposition=None):
    """W_t = U(-t) W U(t)."""
    u = unitary_propagator(h, t, decomposition=decomposition)
    return u.conj().T @ w @ u


def _check_unitary(u, name):
    dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if dev > UNITARITY_TOL:
        raise ValueError(f"{name} not unitary: max |UU^dag - I| = {dev:.3e}")


def conjugated_pair(rho_i, v, w_t):
    """The two operator-ordering conjugations of the initial state.

    rho_a = W_t V rho V^dag W_t^dag, rho_b = V W_t rho W_t^dag V^dag.
    Both are iso-spectral with rho_i.
    """
    rho_a, rho_b, _ = _conjugated_pair_with_residue(rho_i, v, w_t)
    return rho_a, rho_b


def _conjugated_pair_with_residue(rho_i, v, w_t):
    """conjugated_pair plus the largest anti-Hermitian entry discarded
    when re-hermitizing (analytically zero)."""
    _check_unitary(v, "V")
    _check_unitary(w_t, "W_t")
    rho_a = w_t @ v @ rho_i @ v.conj().T @ w_t.conj().T
    rho_b = v @ w_t @ rho_i @ w_t.conj().T @ v.conj().T
    residue = max(
        float(np.abs(rho_a - rho_a.conj().T).max()),
        float(np.abs(rho_b - rho_b.conj().T).max()),
    ) / 2.0
    rho_a = check_density_matrix((rho_a + rho_a.conj().T) / 2.0, "rho_a")
    rho_b = check_density_matrix((rho_b + rho_b.conj().T) / 2.0, "rho_b")
    return rho_a, rho_b, residue


def _f_value(rho_i, v, w, h_decomp, t):
    """Single F(t) evaluation given precomputed state and eigendecomposition."""
    w_t = heisenberg_evolve(w, None, t, decomposition=h_decomp)
    rho_a, rho_b, residue = _conjugated_pair_with_residue(rho_i, v, w_t)
    f = uhlmann_fidelity(rho_a, rho_b)
    return float(np.sqrt(f)), residue


def _setup(cfg):
    """Gibbs state, probes and evolution eigendecomposition, as _f_value
    takes them."""
    rho_i = gibbs_state(build_dm(cfg), cfg.temperature)
    h_decomp = eigh(evolution_hamiltonian(cfg))
    v, w = butterfly_operators(cfg.n)
    return rho_i, v, w, h_decomp


def otoc_f(cfg, t):
    """F(t) for a single time point (builds everything from cfg)."""
    value, _ = _f_value(*_setup(cfg), t)
    return value


def otoc_series(cfg, grid=None):
    """F(t) over a time grid, reusing the state and eigendecomposition."""
    if grid is None:
        grid = TimeGrid()
    setup = _setup(cfg)
    values = np.empty(grid.steps)
    max_residue = 0.0
    for i, t in enumerate(grid.times):
        values[i], residue = _f_value(*setup, t)
        max_residue = max(max_residue, residue)
    if abs(values[0] - 1.0) > 1e-9 and grid.t_start == 0.0:
        raise NumericalError(f"F(0)={values[0]} deviates from 1 beyond 1e-9")
    return OtocSeries(
        grid=grid,
        values=values,
        config=cfg,
        max_imag_residue=max_residue,
    )


def scrambling_time(series, threshold=0.9):
    """Earliest t with F(t) <= threshold, linearly interpolated.

    Returns None when the curve never crosses the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold={threshold} outside (0, 1)")
    times = series.grid.times
    values = series.values
    for i, f in enumerate(values):
        if f <= threshold:
            if i == 0:
                return float(times[0])
            f0, f1 = values[i - 1], f
            t0, t1 = times[i - 1], times[i]
            return float(t0 + (f0 - threshold) / (f0 - f1) * (t1 - t0))
    return None
