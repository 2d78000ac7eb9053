import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from chainflux import classical
from chainflux.classical import (
    ClassicalChainSpec,
    LinearizedSetup,
    bond_flux,
    conductivity_gap,
    linearized_middle_amplitude,
    rectification_experiment,
    steady_temps,
)
from chainflux.errors import DomainError, NoConvergenceError, SpecError

GRADED_C = (2.0, 1.5, 1.0)


def _alpha0_middle_temp(c, t1, t3):
    # independent linear solve of the two-bond flux balance for alpha_exp = 0:
    # (T2 - T1)(c2 + c3) = (T3 - T2)(c1 + c2)
    c1, c2, c3 = c
    return (t1 * (c2 + c3) + t3 * (c1 + c2)) / (c1 + 2 * c2 + c3)


def test_flux_vanishes_without_gradient():
    spec = ClassicalChainSpec(GRADED_C, 1.0, 1.0, 1.0)
    assert bond_flux(spec, 1, (1.0, 1.0, 1.0)) == 0.0


def test_flux_alpha_zero_direct_substitution():
    spec = ClassicalChainSpec((1.0, 1.0), 0.0, 2.0, 1.0)
    assert bond_flux(spec, 1, (2.0, 1.0)) == pytest.approx(0.5)  # -(1-2)/(1+1)


def test_flux_rejects_nonpositive_temperature():
    spec = ClassicalChainSpec(GRADED_C, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        bond_flux(spec, 1, (2.0, -1.0, 1.0))


def test_flux_bond_range():
    spec = ClassicalChainSpec(GRADED_C, 1.0, 2.0, 1.0)
    with pytest.raises(IndexError):
        bond_flux(spec, 3, (2.0, 1.5, 1.0))


def test_three_site_summed_flux_identity():
    # at the steady profile, the flux equals the combined two-bond expression
    spec = ClassicalChainSpec(GRADED_C, 1.0, 2.0, 1.0)
    temps = steady_temps(spec)
    t1, t2, t3 = temps
    a = spec.alpha_exp
    combined = -(t3 - t1) / (
        spec.c[0] * t1**a + 2 * spec.c[1] * t2**a + spec.c[2] * t3**a
    )
    assert bond_flux(spec, 1, temps) == pytest.approx(combined, rel=1e-12)
    assert bond_flux(spec, 2, temps) == pytest.approx(combined, rel=1e-12)


def test_steady_temps_symmetric_edges_uniform():
    spec = ClassicalChainSpec((1.0, 2.0, 1.0), 1.5, 1.3, 1.3)
    temps = steady_temps(spec)
    assert np.allclose(temps, 1.3, atol=1e-12)
    assert bond_flux(spec, 1, temps) == pytest.approx(0.0, abs=1e-13)


def test_steady_temps_alpha_zero_closed_form():
    spec = ClassicalChainSpec(GRADED_C, 0.0, 2.0, 1.0)
    temps = steady_temps(spec)
    assert temps[1] == pytest.approx(_alpha0_middle_temp(GRADED_C, 2.0, 1.0), abs=1e-13)


def test_steady_temps_flux_uniform_for_generic_graded_chain():
    spec = ClassicalChainSpec((3.0, 2.2, 1.4, 1.0, 0.6), 1.7, 2.5, 0.8)
    temps = steady_temps(spec)
    fluxes = [bond_flux(spec, j, temps) for j in range(1, 5)]
    assert max(fluxes) - min(fluxes) < 1e-12


def test_steady_temps_needs_three_sites():
    with pytest.raises(SpecError):
        steady_temps(ClassicalChainSpec((1.0, 2.0), 0.0, 2.0, 1.0))


def test_spec_validation():
    with pytest.raises(SpecError):
        ClassicalChainSpec((1.0, -2.0, 1.0), 0.0, 2.0, 1.0)
    with pytest.raises(SpecError):
        ClassicalChainSpec(GRADED_C, -0.5, 2.0, 1.0)
    with pytest.raises(SpecError):
        ClassicalChainSpec(GRADED_C, 1.0, 0.0, 1.0)
    with pytest.raises(SpecError):
        LinearizedSetup(1.0, (1.0, 0.0, -1.0), -1e-3)


def test_graded_predicate():
    assert ClassicalChainSpec(GRADED_C, 0.0, 2.0, 1.0).graded()
    assert not ClassicalChainSpec((1.0, 2.0, 1.5), 0.0, 2.0, 1.0).graded()


def test_middle_amplitude_uniform_perturbation():
    assert linearized_middle_amplitude(GRADED_C, 0.3, 0.3) == pytest.approx(0.3)


def test_middle_amplitude_graded_value():
    # [c1*a3 + c2*(a1+a3) + c3*a1] / (2 c2 + c1 + c3) = (-2 + 0 + 1) / 6
    assert linearized_middle_amplitude(GRADED_C, 1.0, -1.0) == pytest.approx(-1.0 / 6.0)


def test_middle_amplitude_swap_asymmetry():
    a2 = linearized_middle_amplitude(GRADED_C, 1.0, -1.0)
    a2_swapped = linearized_middle_amplitude(GRADED_C, -1.0, 1.0)
    assert a2 != pytest.approx(a2_swapped)
    symmetric = (1.0, 1.5, 1.0)
    assert linearized_middle_amplitude(symmetric, 1.0, -1.0) == pytest.approx(
        linearized_middle_amplitude(symmetric, -1.0, 1.0)
    )


def test_conductivity_gap_zero_cases():
    setup = LinearizedSetup(1.0, (1.0, 0.0, -1.0), 0.01)
    assert conductivity_gap(setup, GRADED_C, 0.0) == 0.0
    assert conductivity_gap(setup, (1.5, 2.0, 1.5), 1.0) == 0.0


def test_conductivity_gap_reference_value():
    # alpha=1, T=1, eps=0.01: 0.01 * (c1-c3)(a1-a3)(c1+c3)/(2c2+c1+c3) = 0.01*1*2*0.5
    setup = LinearizedSetup(1.0, (1.0, 0.0, -1.0), 0.01)
    assert conductivity_gap(setup, GRADED_C, 1.0) == pytest.approx(0.01)


def test_linearized_profile_error_is_quadratic_in_eps():
    a2 = linearized_middle_amplitude(GRADED_C, 1.0, -1.0)
    errors = []
    for eps in (1e-3, 5e-4):
        setup = LinearizedSetup(1.0, (1.0, a2, -1.0), eps)
        spec = ClassicalChainSpec(GRADED_C, 1.0, 1.0 + eps, 1.0 - eps)
        temps = steady_temps(spec)
        errors.append(max(abs(np.array(temps) - np.array(setup.temperatures()))))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_measured_gap_matches_closed_form():
    for eps, envelope in ((1e-3, 1e-2), (5e-4, 5e-3)):
        setup = LinearizedSetup(1.0, (1.0, 0.0, -1.0), eps)
        temps = setup.temperatures()
        spec = ClassicalChainSpec(GRADED_C, 1.0, temps[0], temps[2])
        report = rectification_experiment(spec)
        predicted = conductivity_gap(setup, GRADED_C, 1.0)
        assert abs(report.inv_kappa_gap / predicted - 1) < envelope


def test_alpha_zero_never_rectifies_even_at_large_gradient():
    for t_left, t_right in ((2.0, 1.0), (5.0, 1.0), (1.0, 9.0)):
        spec = ClassicalChainSpec(GRADED_C, 0.0, t_left, t_right)
        report = rectification_experiment(spec)
        assert abs(abs(report.flux_forward) - abs(report.flux_reverse)) < 1e-12


def test_alpha_zero_five_sites_no_rectification():
    spec = ClassicalChainSpec((3.0, 2.0, 1.5, 1.0, 0.5), 0.0, 4.0, 1.0)
    report = rectification_experiment(spec)
    assert abs(abs(report.flux_forward) - abs(report.flux_reverse)) < 1e-12


def test_alpha_zero_long_graded_chain_uses_exact_profile():
    # a Newton profile of this chain leaves a flux asymmetry just over the
    # 1e-12 self-check; the series-resistance profile is exact
    c0, c_last = 2.254425148586673, 1.1015687421221836
    c = tuple(c0 + j * (c_last - c0) / 42 for j in range(43))
    spec = ClassicalChainSpec(c, 0.0, 1.8055914539739462, 0.8791970535565019)
    report = rectification_experiment(spec)
    assert abs(abs(report.flux_forward) - abs(report.flux_reverse)) < 1e-15
    fluxes = [bond_flux(spec, j, report.profile_forward) for j in range(1, 43)]
    assert max(fluxes) - min(fluxes) < 1e-15
    series = sum(a + b for a, b in zip(c, c[1:]))
    assert report.flux_forward == pytest.approx((spec.t_left - spec.t_right) / series,
                                                rel=1e-13)


def test_inverted_profile_differs_from_reversed_profile():
    spec = ClassicalChainSpec(GRADED_C, 0.0, 2.0, 1.0)
    report = rectification_experiment(spec)
    assert report.profile_reversal_mismatch > 1e-3
    # edges of the reversed bias still match the swapped edge temperatures
    assert report.profile_reverse[0] == pytest.approx(1.0)
    assert report.profile_reverse[-1] == pytest.approx(2.0)


def test_alpha_one_rectifies_with_sign_matching_the_closed_form():
    eps = 0.05
    setup = LinearizedSetup(1.0, (1.0, 0.0, -1.0), eps)
    temps = setup.temperatures()
    spec = ClassicalChainSpec(GRADED_C, 1.0, temps[0], temps[2])
    report = rectification_experiment(spec)
    assert abs(report.flux_forward) != pytest.approx(abs(report.flux_reverse), abs=1e-9)
    predicted = conductivity_gap(setup, GRADED_C, 1.0)
    assert np.sign(report.inv_kappa_gap) == np.sign(predicted)


def test_symmetric_chain_never_rectifies():
    for alpha_exp in (0.0, 1.0, 2.0):
        spec = ClassicalChainSpec((1.0, 1.5, 1.0), alpha_exp, 2.0, 1.0)
        report = rectification_experiment(spec)
        assert abs(report.flux_forward) == pytest.approx(abs(report.flux_reverse), abs=1e-12)


def _bond_residuals(spec, interior):
    # flux-balance residuals F_j - F_{j+1} from per-bond bond_flux calls
    temps = (spec.t_left, *interior, spec.t_right)
    fluxes = np.array([bond_flux(spec, j, temps) for j in range(1, spec.n_sites)])
    return fluxes[:-1] - fluxes[1:]


@pytest.mark.parametrize("alpha_exp", [0.3, 1.0, 2.5])
def test_analytic_jacobian_matches_central_differences(alpha_exp):
    rng = np.random.default_rng(5)
    spec = ClassicalChainSpec(tuple(rng.uniform(0.5, 3.0, 8)), alpha_exp, 2.0, 0.7)
    for _ in range(5):
        interior = rng.uniform(0.3, 3.0, spec.n_sites - 2)
        temps = np.array((spec.t_left, *interior, spec.t_right))
        trial = classical._evaluate(np.array(spec.c), alpha_exp, temps)
        residuals = trial.residuals
        sub, main, sup = classical._tridiagonal(alpha_exp, trial)
        jacobian = np.diag(main) + np.diag(sup, 1) + np.diag(sub, -1)
        expected = np.empty_like(jacobian)
        for idx in range(len(interior)):
            step = 1e-6 * interior[idx]
            up, down = interior.copy(), interior.copy()
            up[idx] += step
            down[idx] -= step
            expected[:, idx] = (_bond_residuals(spec, up) - _bond_residuals(spec, down)) / (
                2 * step)
        assert np.allclose(residuals, _bond_residuals(spec, interior), rtol=1e-12, atol=0)
        assert np.allclose(jacobian, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("alpha_exp, t_left, t_right", [(0.7, 2.0, 0.5), (2.5, 0.8, 1.6)])
def test_three_site_profile_matches_an_independent_root(alpha_exp, t_left, t_right):
    spec = ClassicalChainSpec(GRADED_C, alpha_exp, t_left, t_right)

    def imbalance(t2):
        temps = (t_left, t2, t_right)
        return bond_flux(spec, 1, temps) - bond_flux(spec, 2, temps)

    root = brentq(imbalance, *sorted((t_left, t_right)), xtol=1e-15)
    assert abs(steady_temps(spec)[1] - root) <= 1e-12


def test_steady_temps_makes_no_bond_flux_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return bond_flux(*args)

    monkeypatch.setattr(classical, "bond_flux", counting)
    spec = ClassicalChainSpec(tuple(1.0 + 0.05 * j for j in range(50)), 1.3, 2.0, 0.5)
    temps = steady_temps(spec)
    assert calls == []
    fluxes = [bond_flux(spec, j, temps) for j in range(1, 50)]
    assert max(fluxes) - min(fluxes) < 1e-12


def test_steady_temps_evaluates_each_trial_profile_once(monkeypatch):
    # one dgtsv solve per Newton step; each trial profile, accepted or damped
    # away, is evaluated once, and the next Jacobian reuses that evaluation
    evaluated, solves = [], []
    evaluate, dgtsv = classical._evaluate, scipy.linalg.lapack.dgtsv

    def counting_evaluate(c, a, temps):
        evaluated.append(temps.copy())
        return evaluate(c, a, temps)

    def counting_dgtsv(*args):
        solves.append(args)
        return dgtsv(*args)

    monkeypatch.setattr(classical, "_evaluate", counting_evaluate)
    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counting_dgtsv)
    spec = ClassicalChainSpec(tuple(1.0 + 0.05 * j for j in range(50)), 1.3, 2.0, 0.5)
    temps = steady_temps(spec)
    assert len(solves) == 4
    assert len(evaluated) == len(solves) + 1
    assert len({profile.tobytes() for profile in evaluated}) == len(evaluated)
    assert tuple(evaluated[-1]) == temps


def test_runaway_newton_profile_is_refused():
    # from the linear start Newton runs off to T_2 ~ 1.5e12, where both bond
    # fluxes are ~3e-13 and the residual test alone would accept it
    spec = ClassicalChainSpec((1.0, 2.0, 3.0), 2.0, 8.0, 0.25)
    with pytest.raises(NoConvergenceError, match="non-monotone profile"):
        steady_temps(spec)


def test_steady_temps_refuses_edges_outside_the_floating_point_range():
    with pytest.raises(DomainError, match="floating-point range"):
        steady_temps(ClassicalChainSpec(GRADED_C, 2.0, 1e200, 1.0))
