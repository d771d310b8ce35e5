"""Pauli operators on the full chain Hilbert space, built as signed permutations.

Site indices are 1-based; site r is bit n - r of a basis-state index, so site
1 is the most significant. Chains are capped at n = 12 to keep dense 2^n x 2^n
complex matrices within desk-scale memory.
"""

import numpy as np

MAX_SITES = 12

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis):
    """Return the 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'")


def pauli_sum(terms, n):
    """Sum of Pauli products on an n-site chain, as a dense complex matrix.

    ``terms`` is a list of ``(coefficient, {site: axis})``. An x or y factor
    flips the bit of its site and each factor contributes one entry of its
    2x2 matrix, so a product fills one entry per column and ``+=`` is exact.
    """
    if not 1 <= n <= MAX_SITES:
        raise ValueError(f"chain length n={n} outside [1, {MAX_SITES}]")
    cols = np.arange(2**n)
    op = np.zeros((cols.size, cols.size), dtype=complex)
    for coefficient, factors in terms:
        rows = cols.copy()
        values = np.ones(cols.size, dtype=complex)
        for r, axis in factors.items():
            if not 1 <= r <= n:
                raise ValueError(f"site index r={r} outside [1, {n}]")
            shift = n - r
            if axis != "z":
                rows ^= 1 << shift
            values *= pauli(axis)[(rows >> shift) & 1, (cols >> shift) & 1]
        op[rows, cols] += coefficient * values
    return op


def site_operator(axis, r, n):
    """Pauli operator sigma^axis on site r of an n-site chain."""
    return pauli_sum([(1.0, {r: axis})], n)


def two_site_term(axis_a, axis_b, k, n):
    """Product sigma^a_k sigma^b_{k+1} on an n-site chain; pauli_sum rejects a bad n."""
    if 1 <= n <= MAX_SITES and not 1 <= k <= n - 1:
        raise ValueError(f"bond index k={k} outside [1, {n - 1}]")
    return pauli_sum([(1.0, {k: axis_a, k + 1: axis_b})], n)
