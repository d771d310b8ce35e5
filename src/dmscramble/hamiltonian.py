"""Chain Hamiltonians: the Ising evolution model and the DM-Heisenberg chain."""

from dataclasses import dataclass, fields, replace

import numpy as np

from .operators import MAX_SITES, site_operator, two_site_term

EVOLUTION_MODELS = ("ising", "dm", "sum")


@dataclass(frozen=True)
class ChainConfig:
    """Full physical parameter set for one chain.

    Energy units throughout; hbar = k_B = 1. Defaults follow the standard
    operating point: J = -1, h_x = 1.05, staggered h_z amplitude 0.375,
    J_x = J_y = 1, J_z = -1.
    """

    n: int = 6
    j_ising: float = -1.0
    h_x: float = 1.05
    h_z_amp: float = 0.375
    j_x: float = 1.0
    j_y: float = 1.0
    j_z: float = -1.0
    d_strength: float = 0.0
    temperature: float = 0.05
    # "sum" is the only model under which both published scrambling trends
    # hold at the default operating point; see experiment.model_selection_report
    evolution_model: str = "sum"

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}={getattr(self, f.name)} must be finite")
        if not 2 <= self.n <= MAX_SITES:
            raise ValueError(f"n={self.n} outside [2, {MAX_SITES}]")
        if self.j_x != self.j_y:
            raise ValueError(f"j_x={self.j_x} must equal j_y={self.j_y}")
        if self.j_z >= 0:
            raise ValueError(f"j_z={self.j_z} must be negative")
        if self.temperature <= 0:
            raise ValueError(f"temperature={self.temperature} must be positive")
        if self.d_strength < 0:
            raise ValueError(f"d_strength={self.d_strength} must be nonnegative")
        if self.evolution_model not in EVOLUTION_MODELS:
            raise ValueError(
                f"evolution_model={self.evolution_model!r} not in {EVOLUTION_MODELS}"
            )

    def with_(self, **kwargs):
        """Copy with selected fields replaced (revalidates)."""
        return replace(self, **kwargs)


def build_ising(cfg):
    """Ising chain with transverse field and staggered longitudinal field.

    H = -sum_{r=1}^{n-1} J sz_r sz_{r+1} - sum_r h_x sx_r - sum_r h_z(r) sz_r
    with h_z(r) = h_z_amp * (-1)^r, r 1-based.
    """
    n = cfg.n
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for r in range(1, n):
        h -= cfg.j_ising * two_site_term("z", "z", r, n)
    for r in range(1, n + 1):
        h -= cfg.h_x * site_operator("x", r, n)
        h -= cfg.h_z_amp * (-1.0) ** r * site_operator("z", r, n)
    return h


def build_dm(cfg):
    """Anisotropic Heisenberg chain with a z-axis DM term.

    H = sum_{k=1}^{n-1} (1/2)[J_x sx sx + J_y sy sy + J_z sz sz
                              + D (sx_k sy_{k+1} - sy_k sx_{k+1})]
    """
    n = cfg.n
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n):
        h += 0.5 * (
            cfg.j_x * two_site_term("x", "x", k, n)
            + cfg.j_y * two_site_term("y", "y", k, n)
            + cfg.j_z * two_site_term("z", "z", k, n)
            + cfg.d_strength
            * (two_site_term("x", "y", k, n) - two_site_term("y", "x", k, n))
        )
    return h


def evolution_hamiltonian(cfg):
    """Hamiltonian generating U(t), selected by cfg.evolution_model."""
    if cfg.evolution_model == "ising":
        return build_ising(cfg)
    if cfg.evolution_model == "dm":
        return build_dm(cfg)
    return build_ising(cfg) + build_dm(cfg)
