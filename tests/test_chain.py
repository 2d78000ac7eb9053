from functools import reduce

import numpy as np
import pytest

from chainflux.chain import (
    ChainSpec,
    GradedProfile,
    build_hamiltonian,
    energy_current_field_op,
    energy_current_xxz_op,
    expand_graded,
    spin_current_op,
)
from chainflux.errors import SpecError
from chainflux.pauli import embed, kron_chain, pauli


def _random_spec(rng, n_sites, uniform_b=False):
    deltas = tuple(rng.uniform(0.2, 1.5, n_sites - 1))
    if uniform_b:
        b = (float(rng.uniform(-1, 1)),) * n_sites
    else:
        b = tuple(rng.uniform(-1, 1, n_sites))
    return ChainSpec(n_sites, alpha=float(rng.uniform(0.5, 1.5)), delta=deltas, b_field=b)


def _string_ref(axes, first_site, n):
    """A Pauli string as the product of single-site embeds (the reference formula)."""
    return reduce(np.matmul, [embed(pauli(axis), first_site + offset, n)
                              for offset, axis in enumerate(axes)])


def _hamiltonian_ref(spec):
    n = spec.n_sites
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for j, delta in enumerate(spec.delta, start=1):
        h += spec.alpha * _string_ref("xx", j, n)
        h += spec.alpha * _string_ref("yy", j, n)
        h += delta * _string_ref("zz", j, n)
    for j, b in enumerate(spec.b_field, start=1):
        if b != 0.0:
            h += b * embed(pauli("z"), j, n)
    return h


def _spin_current_ref(spec, bond):
    n = spec.n_sites
    return 2.0 * spec.alpha * (_string_ref("xy", bond, n) - _string_ref("yx", bond, n))


def _energy_current_xxz_ref(spec, site):
    n, alpha = spec.n_sites, spec.alpha
    d_left, d_right = spec.delta[site - 2], spec.delta[site - 1]
    op = alpha * (_string_ref("yzx", site - 1, n) - _string_ref("xzy", site - 1, n))
    op += d_left * (_string_ref("zxy", site - 1, n) - _string_ref("zyx", site - 1, n))
    op += d_right * (_string_ref("xyz", site - 1, n) - _string_ref("yxz", site - 1, n))
    return 2.0 * alpha * op


def _energy_current_field_ref(spec, site):
    b = spec.b_field[site - 1]
    if b == 0.0:
        return np.zeros((spec.dim, spec.dim), dtype=complex)
    return 0.5 * b * (_spin_current_ref(spec, site - 1) + _spin_current_ref(spec, site))


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("field", ["none", "uniform", "random"])
def test_operators_equal_single_site_embed_products(n_sites, field):
    rng = np.random.default_rng(100 + n_sites)
    spec = _random_spec(rng, n_sites, uniform_b=field == "uniform")
    if field == "none":
        spec = ChainSpec(n_sites, spec.alpha, spec.delta, (0.0,) * n_sites)
    assert np.array_equal(build_hamiltonian(spec), _hamiltonian_ref(spec))
    for bond in range(1, n_sites):
        assert np.array_equal(spin_current_op(spec, bond), _spin_current_ref(spec, bond))
    for site in range(2, n_sites):
        assert np.array_equal(energy_current_xxz_op(spec, site),
                              _energy_current_xxz_ref(spec, site))
        assert np.array_equal(energy_current_field_op(spec, site),
                              _energy_current_field_ref(spec, site))


def test_zero_couplings_give_zero_hamiltonian():
    spec = ChainSpec(2, alpha=0.0, delta=(0.0,), b_field=(0.0, 0.0))
    assert np.array_equal(build_hamiltonian(spec), np.zeros((4, 4)))


def test_two_site_hand_expansion():
    # alpha = alpha' = 1, delta = 1: diag from zz, off-diagonal 2s between |01> and |10>
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0))
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, -1, 2, 0],
            [0, 2, -1, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(build_hamiltonian(spec), expected)


def test_hamiltonian_hermitian_for_random_specs():
    rng = np.random.default_rng(3)
    for n_sites in (2, 3, 4):
        for _ in range(3):
            h = build_hamiltonian(_random_spec(rng, n_sites))
            assert np.abs(h - h.conj().T).max() <= 1e-13


def test_x_flip_invariance_without_field():
    rng = np.random.default_rng(5)
    spec = ChainSpec(4, alpha=1.0, delta=tuple(rng.uniform(0.2, 1.5, 3)), b_field=(0.0,) * 4)
    h = build_hamiltonian(spec)
    u = kron_chain([pauli("x")] * 4)
    assert np.abs(u @ h @ u - h).max() < 1e-13


def test_x_flip_only_reverses_field_term():
    # conjugation flips each local z, so U H U = H - 2 sum_i B_i z_i
    rng = np.random.default_rng(6)
    spec = _random_spec(rng, 3)
    h = build_hamiltonian(spec)
    u = kron_chain([pauli("x")] * 3)
    field = sum(
        b * embed(pauli("z"), j, 3) for j, b in enumerate(spec.b_field, start=1)
    )
    assert np.abs(u @ h @ u - (h - 2 * field)).max() < 1e-12


def test_spin_current_zero_without_xy_coupling():
    spec = ChainSpec(2, alpha=0.0, delta=(1.0,), b_field=(0.0, 0.0))
    assert np.array_equal(spin_current_op(spec, 1), np.zeros((4, 4)))


def test_spin_current_odd_under_x_flip():
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    u = kron_chain([pauli("x")] * 3)
    j = spin_current_op(spec, 2)
    assert np.abs(u @ j @ u + j).max() < 1e-13


def test_spin_current_odd_under_rotation():
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    u = kron_chain([pauli("r")] * 3)
    j = spin_current_op(spec, 1)
    assert np.abs(u @ j @ u.conj().T + j).max() < 1e-13


def test_current_operators_traceless_hermitian():
    spec = ChainSpec(3, alpha=0.7, delta=(0.5, 1.5), b_field=(0.3,) * 3)
    for op in (
        spin_current_op(spec, 1),
        energy_current_xxz_op(spec, 2),
        energy_current_field_op(spec, 2),
    ):
        assert abs(np.trace(op)) < 1e-13
        assert np.abs(op - op.conj().T).max() <= 1e-13


def test_energy_current_even_under_both_transformations():
    spec = ChainSpec(4, alpha=1.0, delta=(0.4, 0.9, 1.4), b_field=(0.0,) * 4)
    f_op = energy_current_xxz_op(spec, 2)
    ux = kron_chain([pauli("x")] * 4)
    ur = kron_chain([pauli("r")] * 4)
    assert np.abs(ux @ f_op @ ux - f_op).max() < 1e-12
    assert np.abs(ur @ f_op @ ur.conj().T - f_op).max() < 1e-12


def test_energy_current_zero_without_xy_coupling():
    spec = ChainSpec(3, alpha=0.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    assert np.array_equal(energy_current_xxz_op(spec, 2), np.zeros((8, 8)))


def test_field_current_zero_without_field():
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    assert np.array_equal(energy_current_field_op(spec, 2), np.zeros((8, 8)))


def test_field_current_matches_independent_assembly():
    # rebuild (B/2)(J_1 + J_2) from raw Pauli strings, bypassing spin_current_op
    b = 0.8
    spec = ChainSpec(3, alpha=1.3, delta=(0.5, 1.5), b_field=(b,) * 3)
    sx, sy = pauli("x"), pauli("y")

    def bond_current(j):
        return 2 * spec.alpha * (
            embed(sx, j, 3) @ embed(sy, j + 1, 3) - embed(sy, j, 3) @ embed(sx, j + 1, 3)
        )

    expected = 0.5 * b * (bond_current(1) + bond_current(2))
    assert np.abs(energy_current_field_op(spec, 2) - expected).max() < 1e-13


def test_field_current_odd_under_x_flip():
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.7,) * 3)
    op = energy_current_field_op(spec, 2)
    u = kron_chain([pauli("x")] * 3)
    assert np.abs(u @ op @ u + op).max() < 1e-13


def test_expand_graded_three_sites():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3)
    assert spec.delta == (0.5, 1.5)
    assert spec.graded()


def test_expand_graded_zero_step_homogeneous():
    spec = expand_graded(GradedProfile(1.0, 0.0), 4)
    assert spec.homogeneous()
    assert not spec.graded()


def test_expand_graded_five_sites_progression():
    spec = expand_graded(GradedProfile(1.0, 0.5), 5)
    lo, hi = 0.5, 1.5
    expected = tuple(lo + (hi - lo) * i / 3 for i in range(4))
    assert np.allclose(spec.delta, expected, atol=1e-15)
    assert spec.graded()


def test_expand_graded_needs_three_sites():
    with pytest.raises(SpecError):
        expand_graded(GradedProfile(1.0, 0.5), 2)


def test_spec_length_validation():
    with pytest.raises(SpecError):
        ChainSpec(3, alpha=1.0, delta=(1.0,), b_field=(0.0,) * 3)
    with pytest.raises(SpecError):
        ChainSpec(3, alpha=1.0, delta=(1.0, 1.0), b_field=(0.0,) * 2)


def test_single_site_chain_allowed():
    spec = ChainSpec(1, alpha=0.0, delta=(), b_field=(0.4,))
    assert np.array_equal(build_hamiltonian(spec), 0.4 * pauli("z"))


def test_predicates():
    graded = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    assert graded.graded() and not graded.homogeneous()
    flat = ChainSpec(3, alpha=1.0, delta=(1.0, 1.0), b_field=(0.0,) * 3)
    assert flat.homogeneous() and not flat.graded()
    bumpy = ChainSpec(4, alpha=1.0, delta=(0.5, 1.5, 1.0), b_field=(0.0,) * 4)
    assert not bumpy.graded() and not bumpy.homogeneous()


def test_operator_index_ranges():
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    with pytest.raises(IndexError):
        spin_current_op(spec, 0)
    with pytest.raises(IndexError):
        spin_current_op(spec, 3)
    with pytest.raises(IndexError):
        energy_current_xxz_op(spec, 1)
    with pytest.raises(IndexError):
        energy_current_field_op(spec, 3)
