"""Chain Hamiltonians and current observables from a declarative spec.

The model is an XXZ chain with per-bond z-coupling profile, per-site field,
and a common XY coupling. Sites are numbered 1..N, bonds 1..N-1 (bond j
couples sites j and j+1). Positive current means flow from site 1 toward
site N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpecError
from .pauli import embed, kron_chain, pauli


def finite(value) -> bool:
    """Whether a number is a finite float; an integer beyond the float range
    (which ``math.isfinite`` cannot convert) is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _float(value, name: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise SpecError(f"{name} must be finite") from None


@dataclass(frozen=True)
class ChainSpec:
    """Full parameterization of the XXZ spin chain: one XY coupling ``alpha``
    for both the XX and YY terms, per-bond z-couplings and per-site fields."""

    n_sites: int
    alpha: float
    delta: tuple[float, ...]
    b_field: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _float(self.alpha, "alpha"))
        object.__setattr__(self, "delta", tuple(_float(d, "delta") for d in self.delta))
        object.__setattr__(self, "b_field", tuple(_float(b, "b_field") for b in self.b_field))
        if self.n_sites < 1:
            raise SpecError(f"n_sites must be >= 1, got {self.n_sites}")
        for name, values in (("alpha", (self.alpha,)), ("delta", self.delta),
                             ("b_field", self.b_field)):
            if not all(map(math.isfinite, values)):
                raise SpecError(f"{name} must be finite")
        if len(self.delta) != self.n_sites - 1:
            raise SpecError(
                f"delta profile needs {self.n_sites - 1} bond values, got {len(self.delta)}"
            )
        if len(self.b_field) != self.n_sites:
            raise SpecError(
                f"b_field needs {self.n_sites} site values, got {len(self.b_field)}"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def homogeneous(self) -> bool:
        """True iff all bond couplings are equal and all fields are equal."""
        return all(d == self.delta[0] for d in self.delta[1:]) and all(
            b == self.b_field[0] for b in self.b_field[1:]
        )

    def graded(self) -> bool:
        """True iff the z-coupling profile is strictly monotone."""
        if len(self.delta) < 2:
            return False
        pairs = list(zip(self.delta, self.delta[1:]))
        return all(a < b for a, b in pairs) or all(a > b for a, b in pairs)


@dataclass(frozen=True)
class GradedProfile:
    """Linear z-coupling gradient: bond values run from mean-step to mean+step."""

    delta_mean: float
    delta_step: float


def expand_graded(
    profile: GradedProfile,
    n_sites: int,
    *,
    alpha: float = 1.0,
    b_field: float = 0.0,
) -> ChainSpec:
    """Expand a graded profile into a full ChainSpec with uniform field.

    The N-1 bond couplings interpolate linearly between delta_mean-delta_step
    and delta_mean+delta_step, which is strictly monotone whenever the step is
    nonzero and reduces to the two-bond values (mean-step, mean+step) at N=3.
    """
    if n_sites < 3:
        raise SpecError(f"a graded profile needs at least 3 sites, got {n_sites}")
    lo = profile.delta_mean - profile.delta_step
    hi = profile.delta_mean + profile.delta_step
    deltas = tuple(np.linspace(lo, hi, n_sites - 1))
    return ChainSpec(
        n_sites=n_sites,
        alpha=alpha,
        delta=deltas,
        b_field=(float(b_field),) * n_sites,
    )


@lru_cache(maxsize=None)
def _string(axes: str) -> np.ndarray:
    """Local Pauli string on consecutive sites, e.g. ``_string("xzy")`` is 8x8.

    Built once per process and shared, so the returned array is read-only.
    """
    string = kron_chain([pauli(axis) for axis in axes])
    string.flags.writeable = False
    return string


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Sum of XX/YY/ZZ bond terms plus the local z-field terms."""
    n = spec.n_sites
    xx_yy, zz = _string("xx") + _string("yy"), _string("zz")
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for j, delta in enumerate(spec.delta, start=1):
        h += embed(spec.alpha * xx_yy + delta * zz, j, n)
    for j, b in enumerate(spec.b_field, start=1):
        if b != 0.0:
            h += b * embed(pauli("z"), j, n)
    return h


def spin_current_op(spec: ChainSpec, bond: int) -> np.ndarray:
    """Magnetization current through ``bond``: 2*alpha*(x_j y_{j+1} - y_j x_{j+1})."""
    n = spec.n_sites
    if not 1 <= bond <= n - 1:
        raise IndexError(f"bond {bond} outside 1..{n - 1}")
    return embed(2.0 * spec.alpha * (_string("xy") - _string("yx")), bond, n)


def energy_current_xxz_op(spec: ChainSpec, site: int) -> np.ndarray:
    """Exchange part of the energy current through interior ``site``.

    Three-site operator on (site-1, site, site+1) with weights alpha and the
    two adjacent bond couplings; defined for 2 <= site <= N-1.
    """
    n = spec.n_sites
    if not 2 <= site <= n - 1:
        raise IndexError(f"site {site} outside 2..{n - 1}")
    alpha = spec.alpha
    d_left = spec.delta[site - 2]
    d_right = spec.delta[site - 1]
    op = alpha * (_string("yzx") - _string("xzy"))
    op += d_left * (_string("zxy") - _string("zyx"))
    op += d_right * (_string("xyz") - _string("yxz"))
    return embed(2.0 * alpha * op, site - 1, n)


def energy_current_field_op(spec: ChainSpec, site: int) -> np.ndarray:
    """Field part of the energy current: (B_site/2) * (J_{site-1} + J_site)."""
    n = spec.n_sites
    if not 2 <= site <= n - 1:
        raise IndexError(f"site {site} outside 2..{n - 1}")
    b = spec.b_field[site - 1]
    if b == 0.0:
        return np.zeros((spec.dim, spec.dim), dtype=complex)
    return 0.5 * b * (spin_current_op(spec, site - 1) + spin_current_op(spec, site))
