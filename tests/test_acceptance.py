"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion. Steady states are cached module-wide, so each N=6 solve runs
exactly once; expect a total runtime of about 5 seconds on a 2-core machine.
"""

import functools

import numpy as np
import pytest
import scipy.linalg

from chainflux.chain import (
    ChainSpec,
    GradedProfile,
    build_hamiltonian,
    expand_graded,
)
from chainflux.classical import (
    ClassicalChainSpec,
    LinearizedSetup,
    conductivity_gap,
    rectification_experiment,
)
from chainflux.lindblad import (
    SOLVER,
    TargetZ,
    TwistedXY,
    build_liouvillian,
    chain_steady_state,
    currents_profile,
    jump_operators,
    liouvillian_residual,
    state_diagnostics,
    steady_state,
)
from chainflux.symmetry import check_conjugation_identity

_SOLVES: dict = {}


def _solve(spec, diss):
    """Cached steady-state solve; keeps the generator and currents around."""
    key = (spec, diss)
    if key not in _SOLVES:
        liouv = build_liouvillian(
            build_hamiltonian(spec), jump_operators(diss, spec.n_sites)
        )
        rho = steady_state(liouv).rho
        profile = currents_profile(rho, spec)
        _SOLVES[key] = (spec, liouv, rho, profile)
    return _SOLVES[key]


def _graded(n_sites, step=0.5, b=0.0):
    return expand_graded(GradedProfile(1.0, step), n_sites, alpha=1.0, b_field=b)


def _mid(values):
    return values[(len(values) - 1) // 2]


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"\ncriterion {label}: FAIL", flush=True)
                raise
            print(f"\ncriterion {label}: PASS", flush=True)
        return wrapper
    return decorate


@criterion("01 three-site closed-form coefficients")
def test_criterion_01_three_site_closed_form():
    # At delta_mean = 1 the closed-form coefficients reduce to
    # 912 / (969 + 48) and 32 * (20224 + 64256 - 1083) / ((51+16) * (323+16)^2).
    bf_expected = 912.0 / 1017.0
    f2d_expected = 2668704.0 / 7699707.0

    delta_step = 1e-3
    b = 1e-3

    def f_total(f, b_field):
        spec = _graded(3, step=delta_step, b=b_field)
        _, _, _, profile = _solve(spec, TargetZ(f_left=f, f_right=-f, gamma=1.0))
        return _mid(profile.energy_total)

    # product coefficient of (field x driving): odd-in-f part at fixed field,
    # Richardson-extrapolated over f and 2f to cancel the O(f^2) term
    def bf_estimate(f):
        return (f_total(f, b) - f_total(-f, b)) / (2 * b * f)

    bf_fit = (4 * bf_estimate(1e-3) - bf_estimate(2e-3)) / 3.0

    # coefficient of f^2 * delta_step: even-in-f part at zero field
    def f2d_estimate(f):
        return (f_total(f, 0.0) + f_total(-f, 0.0)) / (2 * f * f * delta_step)

    f2d_fit = (4 * f2d_estimate(1e-3) - f2d_estimate(2e-3)) / 3.0

    assert bf_fit == pytest.approx(bf_expected, rel=1e-3)
    assert f2d_fit == pytest.approx(f2d_expected, rel=1e-3)


@criterion("02 energy-current direction fixed under bath inversion")
def test_criterion_02_one_way_energy_current():
    for n_sites in (3, 4, 5, 6):
        spec = _graded(n_sites)
        for f in (0.2, 0.5, 0.8):
            _, _, _, fwd = _solve(spec, TargetZ(f, -f))
            _, _, _, inv = _solve(spec, TargetZ(-f, f))
            f_fwd, f_inv = _mid(fwd.energy_xxz), _mid(inv.energy_xxz)
            assert abs(f_fwd - f_inv) <= 1e-9, (n_sites, f)
            assert abs(f_fwd) > 1e-6, (n_sites, f)


@criterion("03 spin-current parity, no spin rectification")
def test_criterion_03_spin_current_odd():
    for n_sites in (3, 4, 5, 6):
        spec = _graded(n_sites)
        for f in (0.2, 0.5, 0.8):
            _, _, _, fwd = _solve(spec, TargetZ(f, -f))
            _, _, _, inv = _solve(spec, TargetZ(-f, f))
            assert abs(_mid(fwd.spin) + _mid(inv.spin)) <= 1e-9, (n_sites, f)


@criterion("04 homogeneous chain carries no exchange energy current")
def test_criterion_04_homogeneous_vanishing():
    for n_sites in (3, 4):
        spec = _graded(n_sites, step=0.0)
        for f in (0.2, 0.5, 0.8):
            _, _, _, profile = _solve(spec, TargetZ(f, -f))
            assert max(abs(v) for v in profile.energy_xxz) <= 1e-9, (n_sites, f)


@criterion("05 rectification of the total energy current with a field")
def test_criterion_05_rectification_with_field():
    b = 1.0
    f = 0.5
    spec = _graded(3, b=b)
    _, _, _, fwd = _solve(spec, TargetZ(f, -f))
    _, _, _, inv = _solve(spec, TargetZ(-f, f))
    difference = _mid(fwd.energy_total) - _mid(inv.energy_total)
    assert abs(difference) > 1e-6
    # the asymmetry is exactly twice the field times the (odd) spin current
    assert difference == pytest.approx(2 * b * _mid(fwd.spin), abs=1e-8)


@criterion("06 steady-state conjugation identities")
def test_criterion_06_conjugation_identities():
    for n_sites in (2, 3, 4):
        deltas = tuple(np.linspace(0.5, 1.5, n_sites - 1)) if n_sites > 2 else (1.0,)
        spec = ChainSpec(n_sites, alpha=1.0, delta=deltas, b_field=(0.0,) * n_sites)
        target = check_conjugation_identity(spec, TargetZ(0.5, -0.5))
        assert target.max_error <= 1e-8, ("target_z", n_sites, target.max_error)
        twisted = check_conjugation_identity(spec, TwistedXY(0.6, -0.6))
        assert twisted.max_error <= 1e-8, ("twisted_xy", n_sites, twisted.max_error)


@criterion("07 state validity of every steady state")
def test_criterion_07_state_validity():
    # make sure the check also covers a fresh solve of each family when this
    # test runs in isolation
    _solve(_graded(3), TargetZ(0.5, -0.5))
    _solve(_graded(3), TwistedXY(0.6, -0.6))
    assert _SOLVES
    for (spec, liouv, rho, profile) in _SOLVES.values():
        diag = state_diagnostics(rho)
        assert diag.trace_error <= 1e-10
        assert diag.hermiticity_error <= 1e-10
        assert diag.min_eigenvalue >= -1e-9
        assert liouvillian_residual(liouv, rho) <= 1e-9
        assert profile.spin_spread <= 1e-9
        assert profile.energy_total_spread <= 1e-9
        # every cached chain has a uniform field, so the exchange part is
        # uniform too
        assert profile.energy_xxz_spread <= 1e-9


@criterion("08 uniform field leaves both currents unchanged")
def test_criterion_08_uniform_field_invariance():
    diss = TargetZ(0.5, -0.5)
    _, _, _, base = _solve(_graded(3, b=0.0), diss)
    _, _, _, shifted = _solve(_graded(3, b=0.7), diss)
    assert abs(_mid(base.spin) - _mid(shifted.spin)) <= 1e-8
    assert abs(_mid(base.energy_xxz) - _mid(shifted.energy_xxz)) <= 1e-8


@criterion("09 classical contrast: asymmetry alone does not rectify")
def test_criterion_09_classical_contrast():
    graded_c = (2.0, 1.5, 1.0)

    # (a) temperature-independent conductivity: equal flux magnitudes at any
    # gradient size
    for t_left, t_right in ((2.0, 1.0), (5.0, 1.0)):
        report = rectification_experiment(
            ClassicalChainSpec(graded_c, 0.0, t_left, t_right)
        )
        assert abs(abs(report.flux_forward) - abs(report.flux_reverse)) <= 1e-12
    report5 = rectification_experiment(
        ClassicalChainSpec((3.0, 2.0, 1.5, 1.0, 0.5), 0.0, 4.0, 1.0)
    )
    assert abs(abs(report5.flux_forward) - abs(report5.flux_reverse)) <= 1e-12

    # (b) alpha_exp = 1: conductivity gap matches the closed form inside the
    # O(eps)-relative envelope, which halves with eps (the measured agreement
    # is exact up to solver precision, far below both envelopes)
    for eps, envelope in ((1e-3, 1e-2), (5e-4, 5e-3)):
        setup = LinearizedSetup(1.0, (1.0, 0.0, -1.0), eps)
        temps = setup.temperatures()
        report = rectification_experiment(
            ClassicalChainSpec(graded_c, 1.0, temps[0], temps[2])
        )
        predicted = conductivity_gap(setup, graded_c, 1.0)
        assert abs(report.inv_kappa_gap / predicted - 1) <= envelope

    # (c) the reverse-bias profile is not the site-reversed forward profile
    report = rectification_experiment(ClassicalChainSpec(graded_c, 0.0, 2.0, 1.0))
    assert report.profile_reversal_mismatch > 1e-3


def _apply_eig_oracle(liouv):
    """Trace-one null vector and second eigenvalue magnitude of a full dense
    eig of the superoperator built column by column from ``Liouvillian.apply``
    on the matrix units: independent of the sparse assembly, the q=0 block,
    the LU factor and ARPACK."""
    d = liouv.dim
    superop = np.empty((d * d, d * d), dtype=complex)
    for column in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[column] = 1.0
        superop[:, column] = liouv.apply(unit.reshape((d, d), order="F")).reshape(-1, order="F")
    values, vectors = scipy.linalg.eig(superop)
    order = np.argsort(np.abs(values))
    null = vectors[:, order[0]].reshape((d, d), order="F")
    return null / np.trace(null), abs(values[order[1]])


def _oracle_chains():
    """The 20 seeded random chains, then fixed chains: N=3 with both
    families, and the fully polarized N=2 target_z chain."""
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n_sites = int(rng.integers(2, 5))
        spec = ChainSpec(
            n_sites,
            alpha=1.0,
            delta=tuple(rng.uniform(0.3, 1.5, n_sites - 1)),
            b_field=tuple(rng.uniform(-0.5, 0.5, n_sites)),
        )
        if trial % 2 == 0:
            diss = TargetZ(
                f_left=float(rng.uniform(-0.9, 0.9)),
                f_right=float(rng.uniform(-0.9, 0.9)),
                gamma=float(rng.uniform(0.5, 2.0)),
            )
        else:
            diss = TwistedXY(
                k=float(rng.uniform(-0.9, 0.9)),
                k_prime=float(rng.uniform(-0.9, 0.9)),
                rate=float(rng.uniform(0.5, 2.0)),
            )
        yield spec, diss
    spec = ChainSpec(3, alpha=1.0, delta=(0.5, 1.5), b_field=(0.0,) * 3)
    yield spec, TargetZ(0.5, -0.5)
    yield spec, TwistedXY(0.6, -0.6)
    yield ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0)), TargetZ(1.0, -1.0)


@criterion("10 certified solver matches a dense eig of the apply-built generator")
def test_criterion_10_method_oracle_equivalence():
    for spec, diss in _oracle_chains():
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, spec.n_sites))
        oracle, second = _apply_eig_oracle(liouv)
        assert second > SOLVER.unique_tol, (spec, diss, second)
        rho = chain_steady_state(spec, diss).rho
        gap = float(np.abs(rho - oracle).max())
        assert gap <= 1e-12, (spec, diss, gap)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("bath", [TargetZ(0.5, -0.5), TwistedXY(0.6, -0.6)])
def test_bath_inversion_partner_matches_the_apply_eig_oracle(n_sites, bath):
    # the partner route (the forward certificate, one bordered LU solve)
    # against the same independent oracle as criterion 10
    spec = ChainSpec(n_sites, alpha=1.0, delta=tuple(np.linspace(0.5, 1.5, n_sites - 1)),
                     b_field=(0.0,) * n_sites)
    forward = chain_steady_state(spec, bath)
    liouv = build_liouvillian(build_hamiltonian(spec),
                              jump_operators(bath.inverted(), n_sites))
    partner = steady_state(liouv, certificate=forward.certificate)
    assert partner.certificate.route == "bath_inversion"
    oracle, second = _apply_eig_oracle(liouv)
    assert second > SOLVER.unique_tol
    assert float(np.abs(partner.rho - oracle).max()) <= 1e-12
