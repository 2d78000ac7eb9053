from functools import reduce

import numpy as np
import pytest

from chainflux.chain import _string
from chainflux.errors import EmptyChainError, ShapeError
from chainflux.pauli import embed, kron_chain, pauli

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def test_pauli_product_cycle():
    assert np.allclose(SX @ SY, 1j * SZ)
    assert np.allclose(SY @ SZ, 1j * SX)
    assert np.allclose(SZ @ SX, 1j * SY)


def test_rotation_conjugation_table():
    sr = pauli("r")
    assert np.allclose(sr @ SX @ sr.conj().T, SY)
    assert np.allclose(sr @ SY @ sr.conj().T, SX)
    assert np.allclose(sr @ SZ @ sr.conj().T, -SZ)


def test_rotation_matrix_entries():
    assert np.array_equal(pauli("r"), np.array([[0, 1], [1j, 0]]))


def test_ladder_operators():
    assert np.array_equal(pauli("plus"), np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(pauli("minus"), np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(pauli("plus"), 0.5 * (SX + 1j * SY))
    assert np.allclose(pauli("minus"), 0.5 * (SX - 1j * SY))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_squares_traceless_hermitian(axis):
    s = pauli(axis)
    assert np.allclose(s @ s, np.eye(2))
    assert np.trace(s) == 0
    assert np.array_equal(s, s.conj().T)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_leftmost_site_is_leading_factor():
    assert np.array_equal(embed(SZ, 1, 2), np.kron(SZ, np.eye(2)))
    assert np.array_equal(embed(SZ, 2, 2), np.kron(np.eye(2), SZ))


def test_embed_identity_any_site():
    for site in (1, 2, 3):
        assert np.array_equal(embed(pauli("identity"), site, 3), np.eye(8))


def test_embedded_pauli_traceless():
    assert np.trace(embed(SX, 2, 3)) == 0


def test_embed_commutes_for_distinct_sites():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = embed(a, 1, 3) @ embed(b, 3, 3)
        right = embed(b, 3, 3) @ embed(a, 1, 3)
        assert np.allclose(left, right, atol=1e-13)


def test_embed_site_out_of_range():
    with pytest.raises(IndexError):
        embed(SX, 0, 2)
    with pytest.raises(IndexError):
        embed(SX, 3, 2)


def test_embed_rejects_non_power_of_two_operator():
    with pytest.raises(ShapeError):
        embed(np.eye(3), 1, 2)


def test_embed_multi_site_operator_must_fit_the_chain():
    with pytest.raises(IndexError):
        embed(np.eye(4), 3, 3)


def test_embed_local_string_equals_single_site_products():
    rng = np.random.default_rng(11)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    n = 5
    for site in (1, 2, 3):
        products = embed(a, site, n) @ embed(b, site + 1, n) @ embed(c, site + 2, n)
        assert np.allclose(embed(kron_chain([a, b, c]), site, n), products, atol=1e-13)


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_embed_equals_nested_kron_at_every_position(n_sites):
    rng = np.random.default_rng(100 + n_sites)
    for k in range(1, min(3, n_sites) + 1):
        for site in range(1, n_sites - k + 2):
            op = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
            left = np.eye(2 ** (site - 1), dtype=complex)
            right = np.eye(2 ** (n_sites - site - k + 1), dtype=complex)
            assert np.array_equal(embed(op, site, n_sites), np.kron(np.kron(left, op), right))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kron_chain_equals_nested_kron(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(5):
        factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(k)]
        assert np.array_equal(kron_chain(factors), reduce(np.kron, factors))
    for axes in ("x", "yz", "xzy", "rpm"):
        factors = [pauli({"p": "plus", "m": "minus"}.get(a, a)) for a in axes]
        assert np.array_equal(kron_chain(factors), reduce(np.kron, factors))


def test_cached_pauli_string_is_shared_and_read_only():
    string = _string("xzy")
    assert _string("xzy") is string
    assert np.array_equal(string, kron_chain([SX, SZ, SY]))
    with pytest.raises(ValueError):
        string[0, 0] = 1.0
    with pytest.raises(ValueError):
        string += 1.0


def test_kron_chain_x_involution():
    u = kron_chain([SX, SX])
    assert np.allclose(u @ u, np.eye(4))


def test_kron_chain_rotation_unitary():
    u = kron_chain([pauli("r")])
    assert np.allclose(u.conj().T @ u, np.eye(2))


def test_kron_chain_against_index_arithmetic():
    # brute-force tensor product: out[(i1 i2), (j1 j2)] = a[i1,j1] * b[i2,j2]
    a, b = SX, SY
    expected = np.empty((4, 4), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    expected[(i1 << 1) | i2, (j1 << 1) | j2] = a[i1, j1] * b[i2, j2]
    assert np.array_equal(kron_chain([a, b]), expected)


def test_kron_chain_empty_rejected():
    with pytest.raises(EmptyChainError):
        kron_chain([])


def test_kron_chain_rejects_large_factor():
    with pytest.raises(ShapeError):
        kron_chain([np.eye(4)])


def test_commutator_identities():
    # distinct Paulis anticommute
    assert np.allclose(SX @ SY + SY @ SX, 0)
    assert np.trace(SZ @ SZ) == 2


def test_commutators_cyclic_exact():
    assert np.array_equal(SX @ SY - SY @ SX, 2j * SZ)
    assert np.array_equal(SY @ SZ - SZ @ SY, 2j * SX)
    assert np.array_equal(SZ @ SX - SX @ SZ, 2j * SY)
