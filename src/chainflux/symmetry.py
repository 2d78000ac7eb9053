"""Global transformations and parity certification.

Two unitaries connect a boundary-driven chain to its bath-inverted partner:
an x-flip on every site for the target-polarization family, and a per-site
rotation exchanging x and y (while flipping z) for the twisted-XY family.
Each bath spec carries its own inversion, conjugation axis and antisymmetry
rule. Conjugating the steady state with the matching unitary must reproduce
the steady state of the inverted-bath system; the reports here measure how
well that holds and what it implies for the currents.

When the unitary carries the generator exactly onto its inverted partner's,
the two share one spectrum, so the partner keeps the forward solve's
uniqueness certificate and gets its own state from one bordered LU solve of
its own generator; it is never derived from the forward state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, _string
from .errors import SpecError
from .lindblad import (
    SOLVER,
    DissipatorSpec,
    SteadyState,
    TargetZ,
    central,
    chain_steady_state,
    currents_profile,
    jump_factors,
)
from .pauli import kron_chain, pauli


def _require_zero_field(spec: ChainSpec, what: str) -> None:
    if any(b != 0.0 for b in spec.b_field):
        raise SpecError(
            f"{what} requires a vanishing magnetic field; the Hamiltonian is "
            "only invariant under the transformation for B = 0"
        )


def conjugation_unitary(diss: DissipatorSpec, n_sites: int) -> np.ndarray:
    """The product unitary whose conjugation implements bath inversion for this family."""
    if n_sites < 1:
        raise SpecError(f"n_sites must be >= 1, got {n_sites}")
    return kron_chain([pauli(diss.conjugation_axis)] * n_sites)


def _conjugation(u: np.ndarray):
    """X -> u X u^dag for a monomial u (one nonzero per column): a gather of
    entries times unit phases, exact where a matrix product would round."""
    rows = np.argmax(u != 0, axis=0)  # the row of each column's one nonzero
    source = np.argsort(rows)  # the column whose nonzero sits in each row
    phases = u[np.arange(u.shape[0]), source]
    weights = np.multiply.outer(phases, phases.conj())
    return lambda op: weights * op[source[:, None], source]


def _phase_class(op: np.ndarray) -> bytes:
    """The same bytes for exactly the operators c * op, c in {1, -1, i, -i},
    of a nonzero op: op turned so that its first nonzero entry has a positive
    real and a nonnegative imaginary part, with signed zeros cleared."""
    pivot, turn = op.flat[np.argmax(op != 0)], 1
    while not ((turn * pivot).real > 0 and (turn * pivot).imag >= 0):
        turn *= -1j  # exact on every entry: it swaps and negates parts
    return (turn * op + 0j).tobytes()


def inversion_map_holds(spec: ChainSpec, diss: DissipatorSpec) -> bool:
    """Whether the family's unitary u carries the generator exactly onto its
    bath-inverted partner's: u H u^dag == H, and the nonzero u L_s u^dag match
    the nonzero inverted-bath jumps one to one, each up to a factor +-1 or
    +-i, which leaves its dissipator unchanged.

    u is the same 2x2 unitary p on every site, so this is checked per local
    term, bitwise: p (x) p leaves both bond strings XX+YY and ZZ unchanged
    (then u H u^dag == H for any alpha and delta), p leaves Z unchanged if
    any field is nonzero, and the jumps' 2x2 factors match site by site. No
    2^N x 2^N operator is built. u's entries are unit phases, so each
    conjugation is exact."""
    p = pauli(diss.conjugation_axis)
    if spec.delta:  # a chain of two or more sites has bond terms
        conjugate_bond = _conjugation(kron_chain([p, p]))
        if not all(np.array_equal(conjugate_bond(string), string)
                   for string in (_string("xx") + _string("yy"), _string("zz"))):
            return False
    conjugate = _conjugation(p)
    z = pauli("z")
    if any(b != 0.0 for b in spec.b_field) and not np.array_equal(conjugate(z), z):
        return False
    images = Counter((site, _phase_class(conjugate(factor)))
                     for site, factor in jump_factors(diss, spec.n_sites) if factor.any())
    targets = Counter((site, _phase_class(factor))
                      for site, factor in jump_factors(diss.inverted(), spec.n_sites)
                      if factor.any())
    return images == targets


# The map verdicts of recent pairs, so that a certification checks each
# distinct pair once: a default target_z one asks 5 times for 3 pairs (the
# conjugation and parity rows at the bath's drive, and the scan's 3 drives).
_map_holds = lru_cache(maxsize=8)(inversion_map_holds)


def _steady_pair(spec: ChainSpec, diss: DissipatorSpec) -> tuple[SteadyState, SteadyState]:
    """Steady states of a chain and of its bath-inverted partner. The partner
    keeps the forward certificate when the inversion map holds exactly, and
    runs its own otherwise."""
    forward = chain_steady_state(spec, diss)
    certificate = forward.certificate if _map_holds(spec, diss) else None
    return forward, chain_steady_state(spec, diss.inverted(), certificate)


@dataclass(frozen=True)
class ConjugationReport:
    max_error: float
    passed: bool
    transformation: str  # "x-flip" | "xy-rotation"


def check_conjugation_identity(spec: ChainSpec, diss: DissipatorSpec) -> ConjugationReport:
    """Certify that the transported steady state solves the inverted-bath system.

    Solves both systems, conjugates the original steady state with the
    family's unitary, and reports the max entrywise deviation from the
    inverted-bath steady state.
    """
    _require_zero_field(spec, "the conjugation identity")
    diss.require_antisymmetric()
    forward, inverted = _steady_pair(spec, diss)
    transported = _conjugation(conjugation_unitary(diss, spec.n_sites))(forward.rho)
    max_error = float(np.abs(transported - inverted.rho).max())
    return ConjugationReport(
        max_error=max_error,
        passed=max_error <= SOLVER.conjugation_tol,
        transformation=diss.transformation,
    )


@dataclass(frozen=True)
class ParityReport:
    """Current expectations of a system and its bath-inverted partner.

    ``f_even_error`` vanishes when the exchange energy current is even under
    bath inversion; ``j_odd_error`` vanishes when the spin current is odd.
    ``f_total_asymmetry`` is the rectification signal of the total energy
    current (nonzero only with a magnetic field). Energy entries are NaN for
    chains shorter than 3 sites.
    """

    f_xxz_forward: float
    f_xxz_inverted: float
    spin_forward: float
    spin_inverted: float
    f_total_forward: float
    f_total_inverted: float
    f_even_error: float
    j_odd_error: float
    f_total_asymmetry: float


def parity_report(spec: ChainSpec, diss: DissipatorSpec) -> ParityReport:
    diss.require_antisymmetric()
    forward, inverted = (currents_profile(solved.rho, spec) for solved in _steady_pair(spec, diss))
    j_fwd, j_inv = central(forward.spin), central(inverted.spin)
    fx_fwd, fx_inv = central(forward.energy_xxz), central(inverted.energy_xxz)
    ft_fwd, ft_inv = central(forward.energy_total), central(inverted.energy_total)
    return ParityReport(
        f_xxz_forward=fx_fwd,
        f_xxz_inverted=fx_inv,
        spin_forward=j_fwd,
        spin_inverted=j_inv,
        f_total_forward=ft_fwd,
        f_total_inverted=ft_inv,
        f_even_error=abs(fx_fwd - fx_inv),
        j_odd_error=abs(j_fwd + j_inv),
        f_total_asymmetry=ft_fwd - ft_inv,
    )


def _sign(value: float, floor: float) -> int:
    if abs(value) <= floor:
        return 0
    return 1 if value > 0 else -1


@dataclass(frozen=True)
class DirectionScanRow:
    drive: float
    forward_value: float
    inverted_value: float
    sign_forward: int
    sign_inverted: int
    consistent: bool


@dataclass(frozen=True)
class DirectionScan:
    rows: tuple[DirectionScanRow, ...]
    consistent: bool
    common_sign: int  # 0 when every magnitude sits below the sign floor


def energy_current_direction_scan(
    spec: ChainSpec,
    drive_grid,
    *,
    bath: DissipatorSpec = TargetZ(0.0, 0.0),
) -> DirectionScan:
    """Scan the exchange energy current over a driving grid and its inversion.

    Each drive value d is applied to ``bath`` as its antisymmetric setting
    (``bath.with_drive(d)``, keeping the bath's family and rate). The current
    is evaluated with the baths as given and with the baths inverted; the
    scan is consistent when the sign never changes (magnitudes below the sign
    floor count as zero).
    """
    _require_zero_field(spec, "the direction scan")
    if spec.n_sites < 3:
        raise SpecError("the energy current needs at least 3 sites")
    rows = []
    signs = set()
    for drive in drive_grid:
        report = parity_report(spec, bath.with_drive(float(drive)))
        s_fwd = _sign(report.f_xxz_forward, SOLVER.sign_floor)
        s_inv = _sign(report.f_xxz_inverted, SOLVER.sign_floor)
        rows.append(
            DirectionScanRow(
                drive=float(drive),
                forward_value=report.f_xxz_forward,
                inverted_value=report.f_xxz_inverted,
                sign_forward=s_fwd,
                sign_inverted=s_inv,
                consistent=s_fwd == s_inv,
            )
        )
        signs.update({s_fwd, s_inv})
    nonzero = signs - {0}
    consistent = all(r.consistent for r in rows) and len(nonzero) <= 1
    common = nonzero.pop() if len(nonzero) == 1 else 0
    return DirectionScan(rows=tuple(rows), consistent=consistent, common_sign=common)
