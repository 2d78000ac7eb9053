"""Classical graded oscillator chains obeying a local Fourier law.

Contrast model for the spin results: the heat flux across bond j is

    F = -(T_{j+1} - T_j) / (c_j T_j^a + c_{j+1} T_{j+1}^a)

with local parameters c_j and conductivity exponent a >= 0. A graded chain
(monotone c) has an asymmetric structure, yet rectifies only when a != 0;
the solvers and closed forms here make that statement checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DomainError, NoConvergenceError, NumericalError, SpecError

_NEWTON_TOL = 1e-12  # sup-norm of the flux-balance residuals accepted as steady
_NEWTON_MAX_ITER = 200
_NEWTON_DAMPING = 0.5
_NEWTON_MAX_DAMPINGS = 40


@dataclass(frozen=True)
class ClassicalChainSpec:
    """Oscillator chain: local parameters, conductivity exponent, edge temperatures."""

    c: tuple[float, ...]
    alpha_exp: float
    t_left: float
    t_right: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if len(self.c) < 2:
            raise SpecError(f"need at least 2 sites, got {len(self.c)}")
        if any(v <= 0 for v in self.c):
            raise SpecError("all local parameters c_j must be positive")
        if self.alpha_exp < 0:
            raise SpecError(f"alpha_exp must be >= 0, got {self.alpha_exp}")
        if self.t_left <= 0 or self.t_right <= 0:
            raise SpecError("edge temperatures must be positive")

    @property
    def n_sites(self) -> int:
        return len(self.c)

    def graded(self) -> bool:
        pairs = list(zip(self.c, self.c[1:]))
        return all(a < b for a, b in pairs) or all(a > b for a, b in pairs)

    def swapped(self) -> "ClassicalChainSpec":
        """Same chain with the two bath temperatures exchanged."""
        return ClassicalChainSpec(self.c, self.alpha_exp, self.t_right, self.t_left)


@dataclass(frozen=True)
class LinearizedSetup:
    """Small-gradient profile T_j = base_t + amplitudes[j] * eps."""

    base_t: float
    amplitudes: tuple[float, ...]
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        if self.base_t <= 0:
            raise SpecError(f"base temperature must be positive, got {self.base_t}")
        if self.eps < 0:
            raise SpecError(f"eps must be >= 0, got {self.eps}")

    def temperatures(self) -> tuple[float, ...]:
        return tuple(self.base_t + a * self.eps for a in self.amplitudes)


def bond_flux(spec: ClassicalChainSpec, bond: int, temps) -> float:
    """Heat flux from site ``bond`` to ``bond + 1`` given a temperature profile."""
    n = spec.n_sites
    if not 1 <= bond <= n - 1:
        raise IndexError(f"bond {bond} outside 1..{n - 1}")
    temps = tuple(float(t) for t in temps)
    if len(temps) != n:
        raise SpecError(f"need {n} temperatures, got {len(temps)}")
    t_a, t_b = temps[bond - 1], temps[bond]
    if t_a <= 0 or t_b <= 0:
        raise DomainError(f"temperatures must be positive, got {t_a}, {t_b}")
    a = spec.alpha_exp
    denominator = spec.c[bond - 1] * t_a**a + spec.c[bond] * t_b**a
    return -(t_b - t_a) / denominator


class _Trial(NamedTuple):
    """A full profile evaluated once: the sup-norm of its flux-balance
    residuals r_i = F_i - F_{i+1}, and the parts the Jacobian reuses."""

    norm: float
    temps: np.ndarray | None = None
    steps: np.ndarray | None = None  # T_{j+1} - T_j
    weights: np.ndarray | None = None  # w_j = c_j T_j^a
    denominators: np.ndarray | None = None  # D_j = w_j + w_{j+1}
    residuals: np.ndarray | None = None


def _evaluate(c: np.ndarray, a: float, temps: np.ndarray) -> _Trial:
    """Evaluate a full profile, whose bond fluxes are F_j = -steps_j / D_j. Off the
    domain (a non-positive temperature, or an overflowing or underflowing weight)
    the norm is inf; call under ``np.errstate`` ignoring over, divide and invalid."""
    weights = c * temps**a
    denominators = weights[:-1] + weights[1:]
    if (temps <= 0).any() or not (np.isfinite(weights).all() and (denominators > 0).all()):
        return _Trial(np.inf)
    steps = temps[1:] - temps[:-1]
    fluxes = -steps / denominators
    residuals = fluxes[:-1] - fluxes[1:]
    return _Trial(float(np.abs(residuals).max()), temps, steps, weights, denominators,
                  residuals)


def _tridiagonal(a: float, trial: _Trial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Jacobian of the residuals in the interior temperatures, as its
    sub-, main and super-diagonal: the ``dl, d, du`` of LAPACK ``gtsv``."""
    # dF_j/dT_j and dF_j/dT_{j+1} of F_j = -(T_{j+1} - T_j) / D_j
    growth = a * trial.steps / trial.denominators
    d_left = (1 + growth * trial.weights[:-1] / trial.temps[:-1]) / trial.denominators
    d_right = (-1 + growth * trial.weights[1:] / trial.temps[1:]) / trial.denominators
    return d_left[1:-1], d_right[:-1] - d_left[1:], -d_right[1:-1]


def steady_temps(spec: ClassicalChainSpec) -> tuple[float, ...]:
    """Interior temperatures making every bond carry the same flux.

    For alpha_exp = 0 the bonds are fixed resistances r_j = c_j + c_{j+1} in
    series, so the profile is exact: flux = (T_L - T_R) / sum_j r_j and
    T_{j+1} = T_j - flux * r_j. Otherwise damped Newton iteration on the N-2
    flux-balance residuals r_i = F_i - F_{i+1}, starting from the linear
    interpolation between the edge temperatures. Each r_i depends only on
    T_i, T_{i+1} and T_{i+2}, so the exact Jacobian is tridiagonal. Each trial
    profile is evaluated once and each step is one ``dgtsv`` solve (N=50: ~0.2 ms).

    A steady profile carries one flux through every bond, so it is monotone
    and lies between the edge temperatures. A Newton limit that is not (a
    spurious zero-flux "solution at infinity", reachable for large alpha_exp
    and bias) raises NoConvergenceError.
    """
    n = spec.n_sites
    if n < 3:
        raise SpecError(f"steady_temps needs at least 3 sites, got {n}")
    if spec.alpha_exp == 0.0:
        resistances = [a + b for a, b in zip(spec.c, spec.c[1:])]
        flux = (spec.t_left - spec.t_right) / sum(resistances)
        temps = [spec.t_left]
        for r in resistances[:-1]:
            temps.append(temps[-1] - flux * r)
        return (*temps, spec.t_right)

    c = np.array(spec.c)
    a = spec.alpha_exp
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        trial = _evaluate(c, a, np.linspace(spec.t_left, spec.t_right, n))
        if trial.norm == np.inf:
            raise DomainError(
                f"the flux law leaves the floating-point range at edge temperatures "
                f"{spec.t_left} and {spec.t_right} with alpha_exp = {a}"
            )
        for _ in range(_NEWTON_MAX_ITER):
            if trial.norm <= _NEWTON_TOL:
                break
            dl, d, du = _tridiagonal(a, trial)
            step = np.zeros(n)  # the edge temperatures stay fixed
            if n == 3:  # gtsv takes no empty off-diagonals
                step[1:-1] = -trial.residuals / d
            else:
                _, _, _, step[1:-1], info = scipy.linalg.lapack.dgtsv(
                    dl, d, du, -trial.residuals, 1, 1, 1, 1)
                if info > 0:
                    raise NoConvergenceError(
                        "singular Jacobian in Newton iteration: singular matrix")
            # damp the step until the residual actually decreases
            scale = 1.0
            for _ in range(_NEWTON_MAX_DAMPINGS):
                candidate = _evaluate(c, a, trial.temps + scale * step)
                if candidate.norm < trial.norm:
                    break
                scale *= _NEWTON_DAMPING
            else:
                raise NoConvergenceError(
                    f"Newton step failed to reduce the residual below {trial.norm:.3e}"
                )
            trial = candidate
    if trial.norm > _NEWTON_TOL:
        raise NoConvergenceError(
            f"no steady profile within {_NEWTON_MAX_ITER} iterations (residual {trial.norm:.3e})"
        )
    interior = trial.temps[1:-1]
    if not ((trial.steps >= 0).all() or (trial.steps <= 0).all()):
        raise NoConvergenceError(
            "Newton reached a non-monotone profile (interior temperatures "
            f"{interior.min():.3e} to {interior.max():.3e}, edges {spec.t_left} and "
            f"{spec.t_right}); it is not a steady state"
        )
    return tuple(trial.temps.tolist())


def linearized_middle_amplitude(c, a_left: float, a_right: float) -> float:
    """Middle perturbation amplitude of the linearized 3-site steady profile.

    Exact to first order in the gradient:
    [c1*a3 + c2*(a1 + a3) + c3*a1] / (2 c2 + c1 + c3).
    Note the cross pairing: the left parameter weighs the right amplitude.
    """
    c1, c2, c3 = (float(v) for v in c)
    if min(c1, c2, c3) <= 0:
        raise SpecError("all local parameters must be positive")
    return (c1 * a_right + c2 * (a_left + a_right) + c3 * a_left) / (2 * c2 + c1 + c3)


def conductivity_gap(setup: LinearizedSetup, c, alpha_exp: float) -> float:
    """Closed-form 1/kappa - 1/kappa' of the linearized 3-site chain.

    The gap vanishes identically for alpha_exp = 0 (temperature-independent
    conductivity) and for a symmetric chain (c1 = c3); only the edge
    amplitudes of the setup enter.
    """
    c1, c2, c3 = (float(v) for v in c)
    if min(c1, c2, c3) <= 0:
        raise SpecError("all local parameters must be positive")
    if len(setup.amplitudes) != 3:
        raise SpecError(f"need 3 amplitudes, got {len(setup.amplitudes)}")
    if alpha_exp < 0:
        raise SpecError(f"alpha_exp must be >= 0, got {alpha_exp}")
    a1, _, a3 = setup.amplitudes
    prefactor = alpha_exp * setup.eps * setup.base_t ** (alpha_exp - 1)
    return prefactor * (c1 - c3) * (a1 - a3) * (c1 + c3) / (2 * c2 + c1 + c3)


@dataclass(frozen=True)
class RectificationReport:
    """Steady fluxes and profiles of a chain under both bias directions.

    ``inv_kappa_gap`` is the measured 1/kappa - 1/kappa', with kappa defined
    through flux = -kappa * (T_last - T_first) for each bias.
    ``profile_reversal_mismatch`` is the sup distance between the reverse-bias
    profile and the site-reversed forward profile; for a graded chain it is
    nonzero even without rectification.
    """

    flux_forward: float
    flux_reverse: float
    profile_forward: tuple[float, ...]
    profile_reverse: tuple[float, ...]
    kappa_forward: float
    kappa_reverse: float
    inv_kappa_gap: float
    profile_reversal_mismatch: float


def rectification_experiment(spec: ClassicalChainSpec) -> RectificationReport:
    """Solve the chain under (T_left, T_right) and the swapped bias.

    For alpha_exp = 0 the flux magnitudes are verified to coincide to 1e-12
    (the system is linear in the temperatures, so asymmetry alone cannot
    rectify); a violation indicates a solver defect and raises.
    """
    swapped = spec.swapped()
    profile_fwd = steady_temps(spec)
    profile_rev = steady_temps(swapped)
    flux_fwd = bond_flux(spec, 1, profile_fwd)
    flux_rev = bond_flux(swapped, 1, profile_rev)
    if spec.alpha_exp == 0.0:
        gap = abs(abs(flux_fwd) - abs(flux_rev))
        if gap > 1e-12:
            raise NumericalError(
                f"alpha_exp = 0 chain shows flux asymmetry {gap:.3e}; the "
                "linear system must not rectify"
            )
    bias = spec.t_right - spec.t_left
    kappa_fwd = -flux_fwd / bias if bias != 0 else float("nan")
    kappa_rev = -flux_rev / (-bias) if bias != 0 else float("nan")
    inv_gap = 1.0 / kappa_fwd - 1.0 / kappa_rev  # nan without bias
    mismatch = max(
        abs(rev - fwd) for rev, fwd in zip(profile_rev, profile_fwd[::-1])
    )
    return RectificationReport(
        flux_forward=flux_fwd,
        flux_reverse=flux_rev,
        profile_forward=profile_fwd,
        profile_reverse=profile_rev,
        kappa_forward=kappa_fwd,
        kappa_reverse=kappa_rev,
        inv_kappa_gap=inv_gap,
        profile_reversal_mismatch=mismatch,
    )
