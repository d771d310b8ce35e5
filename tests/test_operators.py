import numpy as np
import pytest

from conftest import kron_product
from dmscramble.operators import pauli, pauli_sum, site_operator, two_site_term

AXES = ("x", "y", "z")


def test_pauli_z_definition():
    np.testing.assert_array_equal(pauli("z"), np.diag([1.0, -1.0]))


def test_pauli_x_involution():
    np.testing.assert_allclose(pauli("x") @ pauli("x"), np.eye(2), atol=1e-15)


def test_pauli_commutation_relation():
    comm = pauli("x") @ pauli("y") - pauli("y") @ pauli("x")
    np.testing.assert_allclose(comm, 2j * pauli("z"), atol=1e-15)


def test_pauli_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli("w")


def test_site_operator_single_site():
    np.testing.assert_array_equal(site_operator("x", 1, 1), pauli("x"))


def test_site_operator_hand_expansion():
    np.testing.assert_array_equal(
        site_operator("z", 2, 2), np.diag([1.0, -1.0, 1.0, -1.0])
    )


def test_site_operator_traceless():
    assert site_operator("y", 3, 5).trace() == 0


@pytest.mark.parametrize("r,n", [(0, 3), (4, 3), (1, 0), (1, 13)])
def test_site_operator_range_errors(r, n):
    with pytest.raises(ValueError, match=str(r) if 1 <= n <= 12 else str(n)):
        site_operator("x", r, n)


@pytest.mark.parametrize(
    "factors,match",
    [
        ({1: "z", 2: "w"}, "axis"),
        ({2: "x", 4: "y"}, "r=4"),
        ({0: "z", 1: "z"}, "r=0"),
    ],
)
def test_pauli_sum_rejects_bad_factor(factors, match):
    with pytest.raises(ValueError, match=match):
        pauli_sum([(1.0, {1: "x"}), (0.5, factors)], 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_site_operator_matches_kronecker_product(n):
    for r in range(1, n + 1):
        for axis in AXES:
            np.testing.assert_array_equal(
                site_operator(axis, r, n), kron_product({r: axis}, n)
            )


@pytest.mark.parametrize("n", range(2, 7))
def test_two_site_term_matches_kronecker_product(n):
    for k in range(1, n):
        for a in AXES:
            for b in AXES:
                np.testing.assert_array_equal(
                    two_site_term(a, b, k, n), kron_product({k: a, k + 1: b}, n)
                )


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 3)])
def test_site_operator_hermitian_involutory(axis, r, n):
    s = site_operator(axis, r, n)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-12)
    np.testing.assert_allclose(s @ s, np.eye(2**n), atol=1e-12)


def test_distinct_sites_commute(rng):
    n = 4
    for _ in range(10):
        r, q = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        a, b = rng.choice(list(AXES), size=2)
        s1 = site_operator(a, int(r), n)
        s2 = site_operator(b, int(q), n)
        assert np.abs(s1 @ s2 - s2 @ s1).max() <= 1e-12


def test_two_site_zz_hand_expansion():
    np.testing.assert_array_equal(
        two_site_term("z", "z", 1, 2), np.diag([1.0, -1.0, -1.0, 1.0])
    )


def test_two_site_xy_entry():
    # <01| sigma_x (x) sigma_y |10> = i
    m = two_site_term("x", "y", 1, 2)
    assert m[0b01, 0b10] == 1j


def test_two_site_symmetric_axes_hermitian():
    m = two_site_term("x", "x", 1, 3)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)


@pytest.mark.parametrize("k", [0, 2])
def test_two_site_bond_range_errors(k):
    with pytest.raises(ValueError, match="bond"):
        two_site_term("z", "z", k, 2)


def test_kronecker_order_consistency():
    product = site_operator("z", 1, 2) @ site_operator("z", 2, 2)
    np.testing.assert_array_equal(product, two_site_term("z", "z", 1, 2))
