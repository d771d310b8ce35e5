import numpy as np
import pytest

from dmscramble.hamiltonian import (
    EVOLUTION_MODELS,
    ChainConfig,
    build_dm,
    evolution_hamiltonian,
)
from dmscramble.linalg import eigh, uhlmann_fidelity
from dmscramble.operators import pauli, site_operator
from dmscramble.otoc import (
    OtocSeries,
    TimeGrid,
    butterfly_operators,
    conjugated_pair,
    heisenberg_evolve,
    otoc_f,
    otoc_series,
    scrambling_time,
)
from dmscramble.thermal import gibbs_state


class TestTimeGrid:
    def test_default(self):
        grid = TimeGrid()
        assert grid.steps == 201
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_start": -1.0},
            {"t_start": 1.0, "t_end": 1.0},
            {"t_start": 2.0, "t_end": 1.0},
            {"steps": 1},
            {"t_start": np.nan},
            {"t_end": np.nan},
            {"t_end": np.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)


class TestButterflyOperators:
    def test_n2_definition(self):
        v, w = butterfly_operators(2)
        np.testing.assert_array_equal(v, np.kron(pauli("x"), np.eye(2)))
        np.testing.assert_array_equal(w, np.kron(np.eye(2), pauli("x")))

    def test_commute_exactly(self):
        v, w = butterfly_operators(3)
        assert np.abs(v @ w - w @ v).max() == 0

    def test_involution(self):
        v, _ = butterfly_operators(3)
        np.testing.assert_allclose(v @ v, np.eye(8), atol=1e-14)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="n=1"):
            butterfly_operators(1)


class TestHeisenbergEvolve:
    def test_t0_is_identity_map(self):
        w = site_operator("x", 2, 2)
        h = build_dm(ChainConfig(n=2, d_strength=0.3))
        np.testing.assert_allclose(heisenberg_evolve(w, h, 0.0), w, atol=1e-12)

    def test_single_spin_precession(self):
        # H = sigma_z, W = sigma_x: W_t = cos(2t) sx - sin(2t) sy
        for t in (0.1, 0.7, np.pi / 4):
            w_t = heisenberg_evolve(pauli("x"), pauli("z"), t)
            expected = np.cos(2 * t) * pauli("x") - np.sin(2 * t) * pauli("y")
            np.testing.assert_allclose(w_t, expected, atol=1e-12)
        np.testing.assert_allclose(
            heisenberg_evolve(pauli("x"), pauli("z"), np.pi / 4),
            -pauli("y"),
            atol=1e-10,
        )

    def test_commuting_hamiltonian_freezes_operator(self):
        w = pauli("z")
        np.testing.assert_allclose(
            heisenberg_evolve(w, pauli("z"), 2.7), w, atol=1e-12
        )

    def test_stays_hermitian_and_unitary(self):
        w = site_operator("x", 3, 3)
        h = build_dm(ChainConfig(n=3, d_strength=1.0))
        w_t = heisenberg_evolve(w, h, 1.9)
        assert np.abs(w_t - w_t.conj().T).max() <= 1e-9
        assert np.abs(w_t @ w_t.conj().T - np.eye(8)).max() <= 1e-9


class TestConjugatedPair:
    def setup_method(self):
        self.cfg = ChainConfig(n=3, d_strength=1.0, temperature=0.5)
        self.rho = gibbs_state(build_dm(self.cfg), self.cfg.temperature)
        self.v, self.w = butterfly_operators(3)

    def test_equal_at_t0(self):
        rho_a, rho_b = conjugated_pair(self.rho, self.v, self.w)
        assert np.abs(rho_a - rho_b).max() <= 1e-12

    def test_maximally_mixed_invariant(self):
        mixed = np.eye(8) / 8
        h = build_dm(self.cfg)
        w_t = heisenberg_evolve(self.w, h, 1.5)
        rho_a, rho_b = conjugated_pair(mixed, self.v, w_t)
        np.testing.assert_allclose(rho_a, mixed, atol=1e-12)
        np.testing.assert_allclose(rho_b, mixed, atol=1e-12)

    def test_spectrum_preserved(self):
        h = build_dm(self.cfg)
        w_t = heisenberg_evolve(self.w, h, 2.0)
        rho_a, rho_b = conjugated_pair(self.rho, self.v, w_t)
        base = eigh(self.rho).eigenvalues
        assert np.abs(eigh(rho_a).eigenvalues - base).max() <= 1e-10
        assert np.abs(eigh(rho_b).eigenvalues - base).max() <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            conjugated_pair(self.rho, 0.5 * self.v, self.w)


class TestOtocF:
    def test_unity_at_t0(self):
        assert otoc_f(ChainConfig(n=3, d_strength=0.5), 0.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_infinite_temperature_unity(self):
        cfg = ChainConfig(n=3, d_strength=1.0, temperature=1e9)
        assert otoc_f(cfg, 3.0) == pytest.approx(1.0, abs=1e-6)


class TestOtocSeries:
    def test_first_value_unity(self):
        series = otoc_series(ChainConfig(n=2, d_strength=1.0),
                             TimeGrid(steps=5, t_end=2.0))
        assert series.values[0] == pytest.approx(1.0, abs=1e-9)
        assert series.convention_tag == "uhlmann-squared-jozsa"

    def test_pointwise_matches_otoc_f(self):
        cfg = ChainConfig(n=2, d_strength=0.7, temperature=0.3)
        grid = TimeGrid(steps=5, t_end=4.0)
        series = otoc_series(cfg, grid)
        for t, f in zip(grid.times, series.values):
            assert f == pytest.approx(otoc_f(cfg, t), abs=1e-10)

    def test_bounds(self):
        series = otoc_series(ChainConfig(n=3, d_strength=1.0),
                             TimeGrid(steps=21, t_end=10.0))
        assert series.values.min() >= 0.0
        assert series.values.max() <= 1.0 + 1e-9

    def test_deterministic_bitwise(self):
        cfg = ChainConfig(n=3, d_strength=0.0)
        grid = TimeGrid(steps=7, t_end=5.0)
        s1 = otoc_series(cfg, grid)
        s2 = otoc_series(cfg, grid)
        assert s1.values.tobytes() == s2.values.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            OtocSeries(grid=TimeGrid(steps=5), values=np.ones(4),
                       config=ChainConfig(n=2))


def _dense_series(cfg, grid):
    """F(t) from the public dense composition: gibbs_state, heisenberg_evolve,
    conjugated_pair and uhlmann_fidelity."""
    rho = gibbs_state(build_dm(cfg), cfg.temperature)
    decomposition = eigh(evolution_hamiltonian(cfg))
    v, w = butterfly_operators(cfg.n)
    values = []
    for t in grid.times:
        w_t = heisenberg_evolve(w, None, t, decomposition=decomposition)
        values.append(np.sqrt(uhlmann_fidelity(*conjugated_pair(rho, v, w_t))))
    return np.array(values)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 8])
def test_series_matches_dense_composition(n):
    grid = TimeGrid(t_end=6.0, steps=4)
    if n == 8:
        cases = [ChainConfig(n=8, d_strength=1.0, temperature=0.05)]
    else:
        cases = [
            ChainConfig(n=n, d_strength=d, temperature=temperature,
                        evolution_model=model)
            for temperature in (0.05, 0.5, 2.0)
            for d in (0.0, 1.0)
            for model in EVOLUTION_MODELS
        ]
    for cfg in cases:
        deviation = np.abs(otoc_series(cfg, grid).values - _dense_series(cfg, grid))
        assert deviation.max() <= 1e-12, cfg


class TestScramblingTime:
    def _series(self, times, values):
        grid = TimeGrid(t_start=float(times[0]), t_end=float(times[-1]),
                        steps=len(times))
        return OtocSeries(grid=grid, values=np.asarray(values, dtype=float),
                          config=ChainConfig(n=2))

    def test_never_crosses(self):
        s = self._series([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert scrambling_time(s, 0.9) is None

    def test_midpoint_interpolation(self):
        s = self._series([0.0, 1.0], [1.0, 0.8])
        assert scrambling_time(s, 0.9) == pytest.approx(0.5)

    def test_second_segment_interpolation(self):
        s = self._series([0.0, 1.0, 2.0], [1.0, 0.95, 0.85])
        assert scrambling_time(s, 0.9) == pytest.approx(1.5)

    def test_threshold_validation(self):
        s = self._series([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="threshold"):
            scrambling_time(s, 1.5)
