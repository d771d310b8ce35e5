import numpy as np
import pytest

from dmscramble.hamiltonian import (
    ChainConfig,
    build_dm,
    build_ising,
    evolution_hamiltonian,
)


def cfg2(**kwargs):
    return ChainConfig(n=2, **kwargs)


class TestChainConfig:
    def test_defaults_valid(self):
        cfg = ChainConfig()
        assert cfg.n == 6
        assert cfg.evolution_model == "sum"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"n": 13},
            {"j_x": 1.0, "j_y": 2.0},
            {"j_z": 0.5},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"d_strength": -0.1},
            {"evolution_model": "magic"},
            {"temperature": np.nan},
            {"temperature": np.inf},
            {"d_strength": np.nan},
            {"d_strength": np.inf},
            {"j_z": np.nan},
            {"j_z": -np.inf},
            {"j_x": np.inf, "j_y": np.inf},
            {"j_ising": -np.inf},
            {"h_x": np.nan},
            {"h_z_amp": np.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)

    def test_with_revalidates(self):
        with pytest.raises(ValueError):
            ChainConfig().with_(j_z=1.0)


class TestIsing:
    def test_diagonal_entry_00(self):
        # zz term gives +1 (J=-1 inside the negated sum); staggered fields cancel
        h = build_ising(cfg2())
        assert h[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_zz_limit(self):
        h = build_ising(cfg2(h_x=0.0, h_z_amp=0.0))
        np.testing.assert_allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_hermitian(self):
        h = build_ising(ChainConfig(n=4))
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_no_transverse_field_is_diagonal(self):
        h = build_ising(ChainConfig(n=3, h_x=0.0))
        off = h - np.diag(np.diag(h))
        assert np.abs(off).max() == 0

    def test_staggered_fields_cancel_on_polarized_states(self):
        with_field = build_ising(cfg2(j_ising=-1.0, h_x=0.0))
        without = build_ising(cfg2(j_ising=-1.0, h_x=0.0, h_z_amp=0.0))
        diff = np.diag(with_field - without)
        assert diff[0b00] == 0
        assert diff[0b11] == 0


class TestDm:
    def test_n2_spectrum(self):
        h = build_dm(cfg2(d_strength=1.0))
        expected = sorted([-0.5, -0.5, 0.5 - np.sqrt(2), 0.5 + np.sqrt(2)])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)

    def test_flip_flop_entry_without_dm(self):
        h = build_dm(cfg2(d_strength=0.0))
        assert h[0b01, 0b10] == pytest.approx(1.0, abs=1e-15)

    def test_hermitian_with_dm(self):
        h = build_dm(ChainConfig(n=4, d_strength=0.7))
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_linear_in_d(self):
        h0 = build_dm(ChainConfig(n=3, d_strength=0.0))
        h1 = build_dm(ChainConfig(n=3, d_strength=1.0))
        h2 = build_dm(ChainConfig(n=3, d_strength=2.0))
        assert np.abs((h2 - h0) - 2.0 * (h1 - h0)).max() <= 1e-12


class TestEvolutionSelector:
    def test_ising_selector(self):
        cfg = ChainConfig(n=3, evolution_model="ising")
        np.testing.assert_array_equal(evolution_hamiltonian(cfg), build_ising(cfg))

    def test_dm_selector(self):
        cfg = ChainConfig(n=3, evolution_model="dm")
        np.testing.assert_array_equal(evolution_hamiltonian(cfg), build_dm(cfg))

    def test_sum_selector(self):
        cfg = ChainConfig(n=3, evolution_model="sum", d_strength=0.5)
        np.testing.assert_array_equal(
            evolution_hamiltonian(cfg), build_ising(cfg) + build_dm(cfg)
        )

    def test_sum_with_zero_heisenberg_is_almost_ising(self):
        # j_z must stay negative, so make it negligible instead of zero
        cfg = ChainConfig(n=3, evolution_model="sum", d_strength=0.0,
                          j_x=0.0, j_y=0.0, j_z=-1e-300)
        np.testing.assert_allclose(
            evolution_hamiltonian(cfg), build_ising(cfg), atol=1e-15
        )
