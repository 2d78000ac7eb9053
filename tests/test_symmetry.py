import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainflux.chain as chain_module
import chainflux.lindblad as lindblad
import chainflux.pauli as pauli_module
import chainflux.symmetry as symmetry

from chainflux.chain import ChainSpec, GradedProfile, expand_graded
from chainflux.errors import SpecError
from chainflux.chain import build_hamiltonian
from chainflux.lindblad import (
    SolverConfig,
    TargetZ,
    TwistedXY,
    build_liouvillian,
    chain_steady_state,
    currents_profile,
    jump_operators,
    steady_state,
)
from chainflux.pauli import embed, kron_chain, pauli
from chainflux.symmetry import (
    check_conjugation_identity,
    conjugation_unitary,
    energy_current_direction_scan,
    inversion_map_holds,
    parity_report,
)

GRADED3 = expand_graded(GradedProfile(1.0, 0.5), 3)


def test_x_flip_is_involutive_unitary():
    for n in (1, 2, 3):
        u = kron_chain([pauli("x")] * n)
        assert np.allclose(u @ u, np.eye(2**n))


def test_x_flip_explicit_two_sites():
    assert np.array_equal(kron_chain([pauli("x")] * 2), np.kron(pauli("x"), pauli("x")))


def test_x_flip_exchanges_ladder_operators():
    u = kron_chain([pauli("x")] * 3)
    for site in (1, 2, 3):
        plus = embed(pauli("plus"), site, 3)
        minus = embed(pauli("minus"), site, 3)
        assert np.allclose(u @ plus @ u, minus)


def test_rotation_unitary():
    for n in (1, 2, 3):
        u = kron_chain([pauli("r")] * n)
        assert np.allclose(u.conj().T @ u, np.eye(2**n))


def test_rotation_single_site_table():
    u = pauli("r")
    assert np.allclose(u @ pauli("z") @ u.conj().T, -pauli("z"))
    assert np.allclose(u @ pauli("x") @ u.conj().T, pauli("y"))


@pytest.mark.parametrize("bath, axis", [(TargetZ(0.5, -0.5), "x"), (TwistedXY(0.5, -0.5), "r")])
def test_conjugation_unitary_is_the_family_axis_on_every_site(bath, axis):
    assert bath.conjugation_axis == axis
    for n in (1, 2, 3):
        assert np.array_equal(conjugation_unitary(bath, n), kron_chain([pauli(axis)] * n))
    with pytest.raises(SpecError, match="n_sites must be >= 1"):
        conjugation_unitary(bath, 0)


def test_invert_target_z_swaps_drivings():
    inv = TargetZ(f_left=0.4, f_right=-0.4, gamma=1.3).inverted()
    assert inv == TargetZ(f_left=-0.4, f_right=0.4, gamma=1.3)


def test_invert_target_z_fixed_point():
    diss = TargetZ(0.0, 0.0)
    assert diss.inverted() == diss


def test_invert_twisted_swaps_pair_placement():
    diss = TwistedXY(k=0.3, k_prime=-0.3)
    inv = diss.inverted()
    assert inv.swapped
    # inverting twice restores the original placement
    assert inv.inverted() == diss


def test_target_z_jump_set_covariant_under_x_flip():
    # conjugating each jump with the x flip gives the jump set at -f
    n = 3
    u = kron_chain([pauli("x")] * n)
    jumps = jump_operators(TargetZ(0.6, -0.6, gamma=1.1), n)
    flipped = jump_operators(TargetZ(-0.6, 0.6, gamma=1.1), n)
    conjugated = [u @ jump @ u for jump in jumps]
    # the x flip exchanges raising and lowering, so pairs swap within each edge
    assert np.allclose(conjugated[0], flipped[1], atol=1e-13)
    assert np.allclose(conjugated[1], flipped[0], atol=1e-13)
    assert np.allclose(conjugated[2], flipped[3], atol=1e-13)
    assert np.allclose(conjugated[3], flipped[2], atol=1e-13)


def test_twisted_jump_set_covariant_under_rotation():
    # phases: W1 -> i V1@site1, W2 -> -i V2@site1, V1 -> -i W1@siteN, V2 -> i W2@siteN
    n = 2
    u = kron_chain([pauli("r")] * n)
    k = 0.4
    jumps = jump_operators(TwistedXY(k=k, k_prime=-k), n)
    swapped = jump_operators(TwistedXY(k=k, k_prime=-k, swapped=True), n)
    conjugated = [u @ jump @ u.conj().T for jump in jumps]
    expected_phases = (1j, -1j, -1j, 1j)
    expected_targets = (swapped[2], swapped[3], swapped[0], swapped[1])
    for got, phase, target in zip(conjugated, expected_phases, expected_targets):
        assert np.abs(got - phase * target).max() < 1e-12


def test_conjugation_identity_target_z_homogeneous():
    spec = ChainSpec(3, alpha=1.0, delta=(1.0, 1.0), b_field=(0.0,) * 3)
    report = check_conjugation_identity(spec, TargetZ(0.5, -0.5))
    assert report.passed
    assert report.max_error < 1e-8


def test_conjugation_identity_target_z_graded():
    report = check_conjugation_identity(GRADED3, TargetZ(0.5, -0.5))
    assert report.passed


def test_conjugation_identity_twisted():
    report = check_conjugation_identity(GRADED3, TwistedXY(0.6, -0.6))
    assert report.passed
    assert report.transformation == "xy-rotation"


def test_conjugation_identity_rejects_field():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3, b_field=0.5)
    with pytest.raises(SpecError):
        check_conjugation_identity(spec, TargetZ(0.5, -0.5))


def test_conjugation_identity_rejects_asymmetric_driving():
    with pytest.raises(SpecError, match="antisymmetric driving f_left = -f_right is required"):
        check_conjugation_identity(GRADED3, TargetZ(0.5, -0.2))
    with pytest.raises(SpecError, match="k_prime = -k is required"):
        check_conjugation_identity(GRADED3, TwistedXY(0.5, 0.5))


def test_steady_state_conjugation_across_sizes():
    for n in (2, 3, 4):
        deltas = tuple(np.linspace(0.5, 1.5, n - 1)) if n > 2 else (0.7,)
        spec = ChainSpec(n, alpha=1.0, delta=deltas, b_field=(0.0,) * n)
        assert check_conjugation_identity(spec, TargetZ(0.5, -0.5)).max_error < 1e-8
        assert check_conjugation_identity(spec, TwistedXY(0.6, -0.6)).max_error < 1e-8


def test_parity_report_graded_no_field():
    report = parity_report(GRADED3, TargetZ(0.5, -0.5))
    assert report.f_even_error < 1e-9
    assert abs(report.f_xxz_forward) > 1e-6  # nonzero current despite B = 0
    assert report.j_odd_error < 1e-9


def test_parity_report_two_sites_spin_only():
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0))
    report = parity_report(spec, TargetZ(0.4, -0.4))
    assert report.j_odd_error < 1e-9
    assert np.isnan(report.f_xxz_forward)


def test_parity_report_with_uniform_field_shows_rectification():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3, b_field=1.0)
    report = parity_report(spec, TargetZ(0.5, -0.5))
    assert report.f_even_error < 1e-9
    assert report.j_odd_error < 1e-9
    assert abs(report.f_total_asymmetry) > 1e-6
    # the asymmetry is carried entirely by the field part: 2 B <J>
    assert report.f_total_asymmetry == pytest.approx(2 * 1.0 * report.spin_forward, abs=1e-8)


def test_parity_report_twisted():
    report = parity_report(GRADED3, TwistedXY(0.6, -0.6))
    assert report.f_even_error < 1e-9
    assert report.j_odd_error < 1e-9


def test_direction_scan_homogeneous_magnitudes_vanish():
    spec = expand_graded(GradedProfile(1.0, 0.0), 3)
    scan = energy_current_direction_scan(spec, [0.2, 0.5, 0.8])
    assert scan.consistent
    assert scan.common_sign == 0
    assert all(abs(r.forward_value) <= 1e-9 for r in scan.rows)


def test_direction_scan_graded_constant_sign():
    scan = energy_current_direction_scan(GRADED3, [0.2, 0.5, 0.8])
    assert scan.consistent
    assert scan.common_sign == 1


def test_direction_scan_sign_flips_with_step():
    mirrored = expand_graded(GradedProfile(1.0, -0.5), 3)
    scan = energy_current_direction_scan(mirrored, [0.2, 0.5, 0.8])
    assert scan.consistent
    assert scan.common_sign == -1


def test_direction_scan_rejects_field():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3, b_field=0.3)
    with pytest.raises(SpecError):
        energy_current_direction_scan(spec, [0.5])


def test_direction_scan_twisted_family():
    scan = energy_current_direction_scan(GRADED3, [0.3, 0.6], bath=TwistedXY(0.0, 0.0))
    assert scan.consistent


@pytest.mark.parametrize("bath, antisymmetric", [
    (TargetZ(0.0, 0.0, gamma=1.3), lambda d: TargetZ(d, -d, gamma=1.3)),
    (TwistedXY(0.0, 0.0, rate=0.8), lambda d: TwistedXY(d, -d, rate=0.8)),
], ids=["target_z", "twisted_xy"])
def test_direction_scan_keeps_the_bath_rate(bath, antisymmetric):
    scan = energy_current_direction_scan(GRADED3, [0.3, 0.6], bath=bath)
    for row in scan.rows:
        report = parity_report(GRADED3, antisymmetric(row.drive))
        assert (row.forward_value, row.inverted_value) == (
            report.f_xxz_forward, report.f_xxz_inverted)
    # the rate matters: the default-rate bath gives another current
    default = energy_current_direction_scan(GRADED3, [0.3], bath=type(bath)(0.0, 0.0))
    assert default.rows[0].forward_value != pytest.approx(scan.rows[0].forward_value)


def test_mirror_oracle_reverses_both_currents():
    # independent consistency check on every index convention: relabel the
    # sites right-to-left, swap the baths, and compare currents
    spec = expand_graded(GradedProfile(1.0, 0.5), 4)
    mirrored = ChainSpec(
        4, alpha=spec.alpha, delta=spec.delta[::-1], b_field=spec.b_field[::-1]
    )
    diss = TargetZ(0.5, -0.5)
    mirrored_diss = TargetZ(f_left=diss.f_right, f_right=diss.f_left, gamma=diss.gamma)
    original = currents_profile(chain_steady_state(spec, diss).rho, spec)
    flipped = currents_profile(chain_steady_state(mirrored, mirrored_diss).rho, mirrored)
    for bond in range(3):
        assert original.spin[bond] == pytest.approx(-flipped.spin[2 - bond], abs=1e-10)
    for idx in range(2):
        assert original.energy_xxz[idx] == pytest.approx(
            -flipped.energy_xxz[1 - idx], abs=1e-10
        )


@pytest.mark.parametrize("bath", [TargetZ(0.0, 0.0), TwistedXY(0.0, 0.0)])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(
    n_sites=st.integers(3, 5),
    delta_mean=st.floats(0.2, 1.8),
    delta_step=st.floats(0.1, 0.8),
    alpha=st.floats(0.5, 1.5),
    drive=st.floats(-0.9, 0.9),
)
def test_parity_identities_hold_for_random_graded_chains(
    bath, n_sites, delta_mean, delta_step, alpha, drive
):
    spec = expand_graded(GradedProfile(delta_mean, delta_step), n_sites, alpha=alpha)
    diss = bath.with_drive(drive)
    floor = SolverConfig().sign_floor
    assert check_conjugation_identity(spec, diss).passed
    report = parity_report(spec, diss)
    assert report.f_even_error <= floor
    assert report.j_odd_error <= floor


# --- the bath-inversion partner route ---------------------------------------------


def _count_certificates(monkeypatch):
    """Record the route of each certificate a solve issues (a partner solved
    with the forward certificate issues none), with an empty solve cache."""
    lindblad._cached_chain_steady_state.cache_clear()
    routes = []
    solve = lindblad.steady_state

    def recording(liouv, certificate=None):
        solved = solve(liouv, certificate=certificate)
        if certificate is None:
            routes.append(solved.certificate.route)
        return solved

    monkeypatch.setattr(lindblad, "steady_state", recording)
    return routes


def _chain(n_sites, b=0.0):
    return ChainSpec(n_sites, alpha=0.8, delta=tuple(np.linspace(0.8, 1.4, n_sites - 1)),
                     b_field=(b,) * n_sites)


@pytest.mark.parametrize("n_sites", [2, 3, 5])
@pytest.mark.parametrize("bath", [TargetZ(0.0, 0.0), TwistedXY(0.0, 0.0)])
def test_inversion_map_holds_exactly_without_field_and_asymmetry(n_sites, bath):
    for drive in (0.5, 1.0, 0.0, -0.7):  # at drive 1 two jumps vanish and are skipped
        assert inversion_map_holds(_chain(n_sites), bath.with_drive(drive))
    # a field breaks u H u^dag == H; an asymmetric drive breaks the jump matching
    assert not inversion_map_holds(_chain(n_sites, b=0.3), bath.with_drive(0.5))
    asymmetric = TargetZ(0.5, -0.4) if isinstance(bath, TargetZ) else TwistedXY(0.5, -0.4)
    assert not inversion_map_holds(_chain(n_sites), asymmetric)


def test_equal_jumps_are_matched_one_to_one():
    # on one site at f = 0 both baths give the same two jumps, so each image
    # equals two partner jumps: the match pairs them off as a multiset
    lindblad._cached_chain_steady_state.cache_clear()
    spec, bath = _chain(1), TargetZ(0.0, 0.0)
    assert bath.inverted() == bath
    assert inversion_map_holds(spec, bath)
    assert check_conjugation_identity(spec, bath).max_error <= 1e-12
    forward = chain_steady_state(spec, bath)
    partner = chain_steady_state(spec, bath, forward.certificate)
    # the one-site q=0 block (dimension 2) is certified by the norm bound
    assert (forward.certificate.route, partner.certificate.route) == ("norm_bound",
                                                                       "bath_inversion")


class _XFlippedTwisted(TwistedXY):
    conjugation_axis = "x"


def test_inversion_map_needs_the_family_unitary():
    # the x-flip does not carry the twisted_xy jumps onto their partners
    assert not inversion_map_holds(_chain(3), _XFlippedTwisted(0.5, -0.5))


def _operator_level_map_holds(spec, diss):
    """The inversion map checked on the 2^N x 2^N operators: u H u^dag == H,
    and the nonzero u L_s u^dag match the nonzero inverted-bath jumps one to
    one, each up to a factor +-1 or +-i. The dense products are exact: u has
    one unit-phase entry per row and column."""
    u = conjugation_unitary(diss, spec.n_sites)
    h = build_hamiltonian(spec)
    if not np.array_equal(u @ h @ u.conj().T, h):
        return False
    images = [u @ jump @ u.conj().T for jump in jump_operators(diss, spec.n_sites) if jump.any()]
    targets = [jump for jump in jump_operators(diss.inverted(), spec.n_sites) if jump.any()]
    for image in images:
        match = [i for i, target in enumerate(targets)
                 if any(np.array_equal(image, phase * target) for phase in (1, -1, 1j, -1j))]
        if not match:
            return False
        targets.pop(match[0])
    return not targets


_MAP_BATHS = (
    *(TargetZ(drive, -drive) for drive in (0.5, 1.0, 0.0, -0.7)),
    TargetZ(0.5, -0.4), TargetZ(1.0, 0.2, gamma=1.5),
    *(TwistedXY(drive, -drive) for drive in (0.5, 1.0, 0.0, -0.7)),
    TwistedXY(0.5, -0.4), TwistedXY(0.3, -0.3, rate=2.0, swapped=True),
    _XFlippedTwisted(0.5, -0.5), _XFlippedTwisted(0.0, 0.0),
)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_per_term_map_check_equals_the_operator_level_oracle(n_sites):
    verdicts = set()
    for b in (0.0, 0.3):
        for bath in _MAP_BATHS:
            verdict = inversion_map_holds(_chain(n_sites, b), bath)
            assert verdict == _operator_level_map_holds(_chain(n_sites, b), bath), (b, bath)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_map_check_builds_no_chain_operator(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the map check built a 2^N x 2^N operator")

    for module in (pauli_module, chain_module, lindblad, symmetry):
        for name in ("embed", "build_hamiltonian", "jump_operators", "conjugation_unitary"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for n_sites in (1, 3, 5):
        for bath in (TargetZ(0.5, -0.5), TwistedXY(0.5, -0.5)):
            assert inversion_map_holds(_chain(n_sites), bath)
            assert not inversion_map_holds(_chain(n_sites, b=0.3), bath)


def test_parity_report_with_a_field_runs_two_certificates(monkeypatch):
    certificates = _count_certificates(monkeypatch)
    spec = expand_graded(GradedProfile(1.0, 0.5), 3, b_field=0.3)
    parity_report(spec, TargetZ(0.5, -0.5))
    assert certificates == ["norm_bound"] * 2  # N=3: q=0 block of dimension 20
    partner = chain_steady_state(spec, TargetZ(-0.5, 0.5))
    assert partner.certificate.route == "norm_bound"


@pytest.mark.parametrize("bath", [TargetZ(0.5, -0.5), TwistedXY(0.5, -0.5)])
def test_certified_pair_runs_one_eigensolve(monkeypatch, bath):
    # one certificate for the pair: the norm bound on the N=4 q=0 block (70),
    # the eigensolve on the full twisted_xy generator (256)
    certificates = _count_certificates(monkeypatch)
    spec = expand_graded(GradedProfile(1.0, 0.5), 4)
    assert check_conjugation_identity(spec, bath).max_error <= 1e-12
    parity_report(spec, bath)
    assert len(certificates) == 1


def test_partner_with_a_small_gap_keeps_the_forward_certificate():
    # alpha 1e-5 leaves a gap of 4.4e-10 (certified by a norm bound of 1.0e-10).
    # The partner is solved by the same one factor, with no gap of its own, and
    # each state is then only as good as the bordered block's condition:
    # within kappa_1(B) eps of the truth, here 2.3e-5. The conjugation error
    # (2.0e-7) stays within that, not within its 1e-8 threshold.
    lindblad._cached_chain_steady_state.cache_clear()
    spec = expand_graded(GradedProfile(1.0, 0.5), 3, alpha=1e-5)
    bath = TwistedXY(0.5, -0.5)
    assert inversion_map_holds(spec, bath)
    report = check_conjugation_identity(spec, bath)
    forward = chain_steady_state(spec, bath)
    partner = chain_steady_state(spec, bath.inverted(), forward.certificate)
    assert SolverConfig().unique_tol < forward.certificate.magnitudes[1] < 1e-9
    assert partner.certificate == dataclasses.replace(forward.certificate, route="bath_inversion")
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(bath.inverted(), 3))
    bordered = liouv._assemble(q0=True, border=True)[0].toarray()
    kappa = np.abs(bordered).sum(axis=0).max() * np.abs(np.linalg.inv(bordered)).sum(axis=0).max()
    bound = kappa * np.finfo(float).eps
    assert report.max_error <= bound
    values, vectors = np.linalg.eig(liouv.matrix.toarray())
    oracle = vectors[:, np.argmin(np.abs(values))].reshape((liouv.dim,) * 2, order="F")
    assert np.abs(partner.rho - oracle / np.trace(oracle)).max() <= bound


@pytest.mark.parametrize("n_sites, bath", [(5, TargetZ(0.5, -0.5)), (5, TwistedXY(0.5, -0.5)),
                                           (6, TargetZ(0.5, -0.5))])
def test_partner_route_matches_the_full_route(n_sites, bath):
    spec = expand_graded(GradedProfile(1.0, 0.5), n_sites)
    forward = chain_steady_state(spec, bath)
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(bath.inverted(), n_sites))
    partner = steady_state(liouv, certificate=forward.certificate)
    full = steady_state(liouv)
    assert (partner.certificate.route, full.certificate.route) == ("bath_inversion",
                                                                   "eigensolve")
    assert np.abs(partner.rho - full.rho).max() <= 1e-12
