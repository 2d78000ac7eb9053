"""Lindblad generator assembly, steady-state solving, and observables.

The master equation used throughout is

    drho/dt = i[rho, H] + sum_s ( L_s rho L_s^dag - (1/2){L_s^dag L_s, rho} )

Vectorization is column-stacking, so with the effective non-Hermitian
Hamiltonian K = -iH - (1/2) sum_s L_s^dag L_s the superoperator matrix reads

    I (x) K + conj(K) (x) I + sum_s conj(L_s) (x) L_s

which is verified against the direct matrix formula by the test suite.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import ClassVar, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .chain import (
    ChainSpec,
    build_hamiltonian,
    energy_current_field_op,
    energy_current_xxz_op,
    finite,
    spin_current_op,
)
from .errors import (
    NoConvergenceError,
    NonUniqueSteadyStateError,
    NumericalError,
    ShapeError,
    SpecError,
)
from .pauli import embed, pauli

# The name of the one steady-state solver, which every SteadyState reports.
# It is historical: the solver is neither dense nor a null-space solve.
METHOD = "dense_null"

# ARPACK start vector seed: a fixed random start keeps the gap eigensolve
# reproducible and has a component along every eigenvector.
_CERTIFICATE_SEED = 20170315
# Cap on the gap eigensolve's ARPACK restarts (maxiter). A near-degenerate
# kernel makes the bordered factor nearly singular, so its inverse's largest
# eigenvalue dominates and converges at once; the cap bounds what is left.
_CERTIFICATE_MAX_RESTARTS = 50
# Largest block (q=0 block or whole generator) whose forward solve is first
# certified by the bound 1 / ||B^-1||_1 from the exact inverse of its bordered
# factor, rather than by the gap eigensolve. On small blocks ARPACK's own
# bookkeeping outweighs the m solves of B X = I; on large ones the m solves
# cost more (graded chains, one BLAS thread, shared 2-core x86_64: m=70 3.0
# against 0.3 ms, but m=252 4.3 against 7.4 ms). The blocks at N <= 7 have
# dimension 2, 4, 6, 16, 20, 64, 70, 252, 256, 924, 1024, 3432, 4096 or
# 16384, so this selects N <= 3 and the N=4 q=0 block.
_NORM_BOUND_MAX_DIM = 128
# SuperLU options for the one factor of each solve, of the bordered block B.
# B is assembled already in the minimum-degree order of B^T + B
# (``_fill_reducing_order``), so the factor keeps it (NATURAL) and prefers
# diagonal pivots down to 0.01 of their column. On the N=6 generators this
# cuts the fill of SuperLU's default (COLAMD ordering, full partial pivoting)
# from 5.3M to 2.9M nonzeros in L + U for twisted_xy and from 0.74M to 0.36M
# for the full target_z matrix, of which only the q=0 block (924 of 4096) is
# factorised: 96K. At a threshold of 0.1 the N=6 target_z block at drive 0.8
# filled 130K.
_FACTOR_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.01,
                   "options": {"SymmetricMode": True}}


@dataclass(frozen=True)
class SolverConfig:
    """Every tolerance and size limit the engine uses, in one place.

    The values are fixed: they are the contract the certificates and the
    test suite rest on. The engine reads the one instance ``SOLVER``;
    nothing overrides them per call or per config file.
    """

    residual_tol: float = 1e-9        # sup-norm of the generator applied to rho_ss
    unique_tol: float = 1e-10         # eigenvalue magnitude counted as a zero mode
    trace_tol: float = 1e-10
    trace_floor: float = 1e-8         # a candidate steady state with smaller |trace| is refused
    hermiticity_tol: float = 1e-10
    positivity_tol: float = 1e-9      # min eigenvalue >= -positivity_tol
    imag_tol: float = 1e-9            # allowed imaginary part of an expectation value
    conjugation_tol: float = 1e-8     # entrywise tolerance for transported steady states
    antisymmetry_tol: float = 1e-12   # |f_left + f_right| or |k + k_prime| counted as antisymmetric
    sign_floor: float = 1e-9          # current magnitudes below this count as zero
    max_sites: int = 7                # the solver refuses a longer chain


SOLVER = SolverConfig()


def _require_finite(bath) -> None:
    for name, value in vars(bath).items():
        if not finite(value):
            # an oversize integer may have more digits than str() converts
            shown = value if isinstance(value, float) else "an integer beyond the float range"
            raise SpecError(f"{name} must be finite, got {shown}")


@dataclass(frozen=True)
class TargetZ:
    """Edge baths pumping the boundary spins toward z-polarizations f_left, f_right.

    Jump amplitudes are sqrt(gamma/2 * (1 +- f)) on the raising/lowering
    operators of the respective edge site, so |f| <= 1 keeps all rates
    nonnegative and f = +1 pins the spin fully up. Bath inversion swaps the
    two drivings; the x flip on every site carries an antisymmetric setting
    onto its inverted partner.
    """

    family: ClassVar[str] = "target_z"
    conjugation_axis: ClassVar[str] = "x"
    transformation: ClassVar[str] = "x-flip"

    f_left: float
    f_right: float
    gamma: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if abs(self.f_left) > 1 or abs(self.f_right) > 1:
            raise SpecError(
                f"drivings must satisfy |f| <= 1, got f_left={self.f_left}, f_right={self.f_right}"
            )
        if self.gamma <= 0:
            raise SpecError(f"gamma must be positive, got {self.gamma}")

    @property
    def drive(self) -> float:
        return self.f_left

    @property
    def scan_grid(self) -> tuple[float, ...]:
        """Default drives of the direction scan: three antisymmetric settings."""
        return (0.2, 0.5, 0.8)

    def with_drive(self, drive: float) -> "TargetZ":
        """The antisymmetric setting f_left = drive = -f_right, other fields kept."""
        return dataclasses.replace(self, f_left=drive, f_right=-drive)

    def inverted(self) -> "TargetZ":
        """The bath-inverted partner: the two drivings trade places."""
        return dataclasses.replace(self, f_left=self.f_right, f_right=self.f_left)

    def require_antisymmetric(self) -> None:
        if abs(self.f_left + self.f_right) > SOLVER.antisymmetry_tol:
            raise SpecError("antisymmetric driving f_left = -f_right is required; for other "
                            "drivings conjugation flips both signs instead of swapping the baths")


@dataclass(frozen=True)
class TwistedXY:
    """Edge baths polarizing the two boundary spins along different axes.

    Site 1 carries the (z, x)-plane pair with parameter k, site N the
    (y, z)-plane pair with parameter k_prime. ``swapped`` exchanges the two
    placements, which is how bath inversion is represented for this family;
    the x/y-exchanging rotation on every site carries the k_prime = -k
    setting onto its inverted partner. ``rate`` is an overall multiplier on
    all four operators; the parity results do not depend on it.
    """

    family: ClassVar[str] = "twisted_xy"
    conjugation_axis: ClassVar[str] = "r"
    transformation: ClassVar[str] = "xy-rotation"

    k: float
    k_prime: float
    rate: float = 1.0
    swapped: bool = False

    def __post_init__(self):
        _require_finite(self)
        if abs(self.k) > 1 or abs(self.k_prime) > 1:
            raise SpecError(f"|k| <= 1 required, got k={self.k}, k_prime={self.k_prime}")
        if self.rate <= 0:
            raise SpecError(f"rate must be positive, got {self.rate}")

    @property
    def drive(self) -> float:
        return self.k

    @property
    def scan_grid(self) -> tuple[float, ...]:
        """Default drives of the direction scan: the bath's own drive."""
        return (self.k,)

    def with_drive(self, drive: float) -> "TwistedXY":
        """The antisymmetric setting k = drive = -k_prime, other fields kept."""
        return dataclasses.replace(self, k=drive, k_prime=-drive)

    def inverted(self) -> "TwistedXY":
        """The bath-inverted partner: the two operator pairs trade sites."""
        return dataclasses.replace(self, swapped=not self.swapped)

    def require_antisymmetric(self) -> None:
        if abs(self.k + self.k_prime) > SOLVER.antisymmetry_tol:
            raise SpecError("k_prime = -k is required for the rotation to map the jump set "
                            "onto the inverted-bath jump set")


DissipatorSpec = TargetZ | TwistedXY


def jump_factors(spec: DissipatorSpec, n_sites: int) -> list[tuple[int, np.ndarray]]:
    """The jump operators of a bath spec on an n_sites chain, each as its site
    and its 2x2 factor there: ``jump_operators`` embeds them."""
    if n_sites < 1:
        raise SpecError(f"n_sites must be >= 1, got {n_sites}")
    if isinstance(spec, TargetZ):
        sp, sm = pauli("plus"), pauli("minus")
        half = 0.5 * spec.gamma
        return [
            (1, math.sqrt(half * (1 + spec.f_left)) * sp),
            (1, math.sqrt(half * (1 - spec.f_left)) * sm),
            (n_sites, math.sqrt(half * (1 + spec.f_right)) * sp),
            (n_sites, math.sqrt(half * (1 - spec.f_right)) * sm),
        ]
    if isinstance(spec, TwistedXY):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        w1 = math.sqrt((1 - spec.k) / 2) * (sz + 1j * sx)
        w2 = math.sqrt((1 + spec.k) / 2) * (sz - 1j * sx)
        v1 = math.sqrt((1 + spec.k_prime) / 2) * (sy + 1j * sz)
        v2 = math.sqrt((1 - spec.k_prime) / 2) * (sy - 1j * sz)
        w_site, v_site = (n_sites, 1) if spec.swapped else (1, n_sites)
        scale = math.sqrt(spec.rate)
        return [(w_site, scale * w1), (w_site, scale * w2),
                (v_site, scale * v1), (v_site, scale * v2)]
    raise SpecError(f"unknown dissipator spec {type(spec).__name__}")


def jump_operators(spec: DissipatorSpec, n_sites: int) -> list[np.ndarray]:
    """Build the jump-operator list for a bath spec on an n_sites chain."""
    return [embed(factor, site, n_sites) for site, factor in jump_factors(spec, n_sites)]


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array that is shared between calls (cached) read-only."""
    array.flags.writeable = False
    return array


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(vec: np.ndarray) -> np.ndarray:
    n = math.isqrt(vec.size)
    if n * n != vec.size:
        raise ShapeError(f"vector of length {vec.size} is not a stacked square matrix")
    return np.asarray(vec, dtype=complex).reshape((n, n), order="F")


class Liouvillian:
    """Generator of the master equation for one Hamiltonian and jump set.

    ``apply`` evaluates the action matrix-free; ``matrix`` assembles the
    column-stacked superoperator as a sparse CSC matrix.
    """

    def __init__(self, hamiltonian: np.ndarray, jumps: Sequence[np.ndarray]):
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.jumps = tuple(np.asarray(j, dtype=complex) for j in jumps)
        self.dim = self.hamiltonian.shape[0]
        # L^dag L appears twice per application; precompute it
        self._pairs = [(L, L.conj().T @ L) for L in self.jumps]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side i[rho, H] + dissipator(rho), evaluated directly."""
        h = self.hamiltonian
        out = 1j * (rho @ h - h @ rho)
        for L, ldl in self._pairs:
            out += L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    @cached_property
    def matrix(self) -> scipy.sparse.csc_matrix:
        """Sparse column-stacked superoperator of shape (dim^2, dim^2)."""
        return self._assemble()[0]

    @cached_property
    def _nonzeros(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The row-major flat positions and the values of the nonzeros of
        K_eff = -iH - (1/2) sum_s L_s^dag L_s and of each jump, in that order."""
        k_eff = -1j * self.hamiltonian
        for _, ldl in self._pairs:
            k_eff = k_eff - 0.5 * ldl
        return [(flat, op.ravel()[flat])
                for op in (k_eff, *self.jumps) for flat in (np.flatnonzero(op),)]

    def _assemble(self, q0: bool = False, border: bool = False):
        """CSC matrix of I (x) K + conj(K) (x) I + sum_s conj(L_s) (x) L_s,
        and the column-stacked index of each of its rows (and columns): the
        q=0 ones if ``q0`` and no entry couples two sectors of
        q = S^z(ket) - S^z(bra). With ``border`` the trace row vec(I) / d is
        added to the row of rho[0, 0] (index 0), and the rows and columns are
        laid out in the fill-reducing order of that bordered block
        (``_fill_reducing_order``); otherwise in index order.

        One COO assembly from the nonzeros of the dense factors. Where each
        term goes is ``_pattern``'s, shared by every generator with the same
        nonzero positions. Entries at one position are summed in term order,
        the border last, and entries that cancel to exact zero are dropped,
        as sparse ``kron`` sums would; only then is the q=0 restriction
        decided, and the order found. That layout is cached with the pattern,
        under which of its entries are kept.
        """
        d = self.dim
        (_, k_val), *jumps = self._nonzeros
        values = [np.tile(k_val, d), np.repeat(k_val.conj(), d)]
        values += [np.multiply.outer(val.conj(), val).ravel() for _, val in jumps]
        if border:
            values.append(np.full(d, 1.0 / d, dtype=complex))
        flats = tuple(flat.tobytes() for flat, _ in self._nonzeros)
        terms, position, entries, layout = _pattern(d, flats[0], flats[1:], border, q0)
        values = np.concatenate(values)
        if terms is not None:  # only these terms land in the q=0 block
            values = values[terms]
        # bincount adds in term order, one by one, as np.add.at would
        total = np.empty(entries, dtype=complex)
        total.real = np.bincount(position, values.real, entries)
        total.imag = np.bincount(position, values.imag, entries)
        keep = total != 0
        take, indices, indptr, index = layout(None if keep.all() else keep.tobytes())
        return scipy.sparse.csc_matrix((total[take], indices, indptr),
                                       shape=(index.size,) * 2), index


# Bound of the assembly-pattern cache. A solve needs one pattern per chain
# shape and family (its bordered block); one holds 0.1 MB at N=6 and 0.45 MB
# at N=7 for target_z (the q=0 block's terms only), 0.7 MB and 2.9 MB for
# twisted_xy, plus its layouts. Each pattern keeps the layouts of its last
# two kept masks: a family's entries cancel in the same places at every
# drive (twisted_xy's, at N=4, 512 of 2573), so one mask is the common case,
# and the second keeps values that happen to cancel more entries on the same
# positions from evicting it.
_PATTERN_CACHE_SIZE = 8
_LAYOUTS_PER_PATTERN = 2


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern(d: int, k_flat: bytes, jump_flats: tuple[bytes, ...], border: bool, q0: bool):
    """Where each term of a dim-d generator goes, given the row-major flat
    positions (intp bytes) of the nonzeros of its K_eff and of each jump:
    the terms that land in the matrix (None for all of them), the entry each
    such term is summed into, the number of entries, and the matrix's
    ``_layout`` as a function of the kept mask (its bytes, or None when
    every entry is kept), cached per mask. When no entry couples two sectors
    of q, none does once exact zeros are dropped either, so that q=0
    restriction is decided here and the other sectors' terms are left out.
    It depends on those positions and the two flags only, never on the
    values; its arrays are shared, so read-only."""
    size = d * d
    ident = np.arange(d)  # the identity's nonzeros sit at (i, i)

    def kron_key(row_a, col_a, row_b, col_b):
        # position of (A (x) B)[(a b), (a' b')] as column-major key col * size + row
        return ((d * col_a[:, None] + col_b) * size + d * row_a[:, None] + row_b).ravel()

    k_row, k_col = np.divmod(np.frombuffer(k_flat, dtype=np.intp), d)
    keys = [kron_key(ident, ident, k_row, k_col), kron_key(k_row, k_col, ident, ident)]
    for flat in jump_flats:
        row, col = np.divmod(np.frombuffer(flat, dtype=np.intp), d)
        keys.append(kron_key(row, col, row, col))
    if border:
        keys.append(ident * (d + 1) * size)  # (row 0, column of rho[i, i])
    key, position = np.unique(np.concatenate(keys), return_inverse=True)
    terms, inside = None, _q0_entries(key % size, key // size, _charges(d), q0)
    if inside is not None:  # restricted: keep the terms of the q=0 entries
        entry = np.full(key.size, -1)
        entry[inside] = np.arange(inside.size)
        terms = _read_only(np.flatnonzero(entry[position] >= 0).astype(np.int32))
        key, position = key[inside], entry[position[terms]]
    layout = lru_cache(maxsize=_LAYOUTS_PER_PATTERN)(
        partial(_layout, _read_only(key), d, q0, border))
    return terms, _read_only(position.astype(np.int32)), key.size, layout


def _charges(d: int) -> np.ndarray:
    """q of each column-stacked index of a dim-d state: the flipped spins of
    its ket minus those of its bra, which is q up to its sign."""
    ident = np.arange(d)
    ones = sum((ident >> bit) & 1 for bit in range(d.bit_length()))
    return np.tile(ones, d) - np.repeat(ones, d)


def _q0_entries(row: np.ndarray, col: np.ndarray, charges: np.ndarray, q0: bool):
    """Which of the entries at (row, col) lie in the q=0 block, if ``q0`` and
    none couples two sectors of q; else None."""
    if not (q0 and np.array_equal(charges[row], charges[col])):
        return None
    # a weak U(1) symmetry (target_z, with or without a field): the steady
    # state lies in q=0, and the kernel is one-dimensional exactly when the
    # q=0 block's kernel is, since the U(1) action maps the stationary states
    # onto themselves (Albert & Jiang, PRA 89, 022118 (2014))
    return np.flatnonzero(charges[col] == 0)


def _layout(key: np.ndarray, d: int, q0: bool, border: bool, kept: bytes | None):
    """The CSC layout of the matrix whose entries are those at the sorted
    column-major positions ``key`` of d^2 x d^2 that the bool mask ``kept``
    marks (all if None), restricted to q=0 as ``_q0_entries`` decides: which
    entry of ``key`` each stored entry is, the row indices, the column
    pointers and the column-stacked index of each row. With ``border`` the
    rows and columns are in ``_fill_reducing_order``, but the rows of each
    column stay in index order: SuperLU visits them in the order stored, so
    among equal pivot candidates it picks the ones it picks when it orders
    the block in index order itself, and fills as much. Otherwise all is in
    index order. Its
    arrays are shared, so read-only, and int32 where scipy would pick it, so
    a csc_matrix takes them without a copy."""
    size, charges = d * d, _charges(d)
    take = np.arange(key.size) if kept is None else np.flatnonzero(np.frombuffer(kept, bool))
    row, col, index = key[take] % size, key[take] // size, np.arange(size)
    inside = _q0_entries(row, col, charges, q0)
    if inside is not None:
        rank = np.cumsum(charges == 0) - 1  # block position of each q=0 index
        take, row, col = take[inside], rank[row[inside]], rank[col[inside]]
        index = np.flatnonzero(charges == 0)
    if border:
        order = _fill_reducing_order(row, col, index.size)
        rank = np.argsort(order)  # position of each row and column in that order
        entry = np.lexsort((row, rank[col]))
        take, row, col, index = take[entry], rank[row[entry]], rank[col[entry]], index[order]
    indptr = np.searchsorted(col, np.arange(index.size + 1))
    return (_read_only(take.astype(np.int32)), _read_only(row.astype(np.int32)),
            _read_only(indptr.astype(np.int32)), _read_only(index))


def _fill_reducing_order(row: np.ndarray, col: np.ndarray, m: int) -> np.ndarray:
    """SuperLU's minimum-degree order of B^T + B for an m x m matrix B with
    entries at (row, col): the rows and columns of B in the order in which
    ``splu(B, permc_spec="MMD_AT_PLUS_A")`` in symmetric mode would take its
    columns. Like that order, it depends on the positions only. It is read
    off an incomplete factor that drops every entry it may, of unit entries
    under a diagonal of m, which no pivot choice can make singular; the
    ordering is most of that factor's cost."""
    unit = scipy.sparse.csc_matrix((np.ones(row.size), (row, col)), shape=(m, m))
    dominant = unit + m * scipy.sparse.identity(m, format="csc")
    factor = scipy.sparse.linalg.spilu(dominant, drop_tol=np.inf, fill_factor=1,
                                       permc_spec="MMD_AT_PLUS_A",
                                       options={"SymmetricMode": True})
    return np.argsort(factor.perm_c)


def build_liouvillian(hamiltonian: np.ndarray, jumps: Sequence[np.ndarray]) -> Liouvillian:
    """Validate dimensions and wrap the generator."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"Hamiltonian must be square, got shape {h.shape}")
    for idx, jump in enumerate(jumps):
        j = np.asarray(jump)
        if j.shape != h.shape:
            raise ShapeError(
                f"jump operator {idx} has shape {j.shape}, expected {h.shape}"
            )
    return Liouvillian(h, jumps)


def liouvillian_residual(liouv: Liouvillian, rho: np.ndarray) -> float:
    """Sup-norm of the generator applied to a candidate steady state."""
    return float(np.abs(liouv.apply(rho)).max())


@dataclass(frozen=True)
class StateDiagnostics:
    trace_error: float
    hermiticity_error: float
    min_eigenvalue: float


def state_diagnostics(rho: np.ndarray) -> StateDiagnostics:
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.abs(rho - rho.conj().T).max())
    tr_err = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return StateDiagnostics(tr_err, herm, min_eig)


def validate_state(rho: np.ndarray) -> StateDiagnostics:
    """Check trace, Hermiticity and positivity; raise NumericalError on violation."""
    diag = state_diagnostics(rho)
    if diag.trace_error > SOLVER.trace_tol:
        raise NumericalError(f"trace deviates from 1 by {diag.trace_error:.3e}")
    if diag.hermiticity_error > SOLVER.hermiticity_tol:
        raise NumericalError(f"state is non-Hermitian by {diag.hermiticity_error:.3e}")
    if diag.min_eigenvalue < -SOLVER.positivity_tol:
        raise NumericalError(f"state has negative eigenvalue {diag.min_eigenvalue:.3e}")
    return diag


def require_max_sites(n_sites: int) -> None:
    """Refuse a chain longer than ``SOLVER.max_sites`` sites, by site count."""
    if n_sites > SOLVER.max_sites:
        raise SpecError(
            f"a chain of {n_sites} sites exceeds the solver limit of {SOLVER.max_sites} sites"
        )


@dataclass(frozen=True)
class Certificate:
    """Why a steady state is unique.

    ``route`` is ``"norm_bound"`` when the exact inverse of the state's
    bordered factor B bounded the gap from below, ``"eigensolve"`` when an
    eigensolve of that inverse gave the gap, or ``"bath_inversion"`` when an
    exact product-unitary map carries the generator onto one certified either
    way, whose certificate it then keeps. ``magnitudes`` are the two
    eigenvalue magnitudes nearest zero, smallest first: 0.0, the exact zero
    eigenvalue every trace-preserving generator has (no route computes it),
    then the gap |lambda_2| on ``"eigensolve"`` or the lower bound
    1 / ||B^-1||_1 on it on ``"norm_bound"``. ``q0`` tells whether they are
    those of the q=0 block.
    """

    route: str
    magnitudes: tuple[float, float]
    q0: bool


@dataclass(frozen=True)
class SteadyState:
    """A certified steady state and what its solve did.

    ``method`` names the solver (always ``METHOD``), ``residual`` is the
    sup-norm of the generator applied to ``rho``, ``wall_ms`` the wall time
    of the solve through its validation, ``certificate`` the evidence that
    the kernel is one-dimensional, and ``fill`` the entries SuperLU stores
    for the LU factor of the bordered block (its ``nnz``).
    """

    rho: np.ndarray
    method: str
    residual: float
    wall_ms: float
    certificate: Certificate
    fill: int


def steady_state(liouv: Liouvillian, certificate: Certificate | None = None) -> SteadyState:
    """Solve for the unique trace-one fixed point of the generator.

    Every generator A preserves the trace, so w^T A = 0 for w = vec(I). The
    bordered B = A + e_0 w^T / d, the trace row over d added to the row e_0
    of rho[0, 0] (where ``index`` is 0), has by Brauer's theorem the
    spectrum of A with one zero replaced by w_0 / d = 1/d. So B is
    nonsingular exactly when the kernel is one-dimensional, and B x = e_0 / d
    gives A x = 0 with tr x = 1. The 1/d keeps the border from outweighing
    the diagonal in the pivot choice (N=7 target_z at drive 0.8: fill 1.67M,
    against 1.70M with unit weights). B is assembled in the minimum-degree
    order of its structure, which is cached with it, and one LU factor of it
    in that order gives x, refined by one correction against the residual
    e_0 / d - B x summed in extended precision (clongdouble). The small
    pivots put the plain solve up to 1e-13 from an extended-precision one;
    a residual summed in double left the corrected x within about 2e-15, in
    an amount that hung on the order the entries were summed in, while this
    one leaves it within rounding (6e-17 on 600 random chains of N <= 4). A
    generator that conserves magnetization weakly (target_z) is solved inside
    its q = S^z(ket) - S^z(bra) = 0 block, which holds the steady state; the
    gap its certificate reports is then that sector's.

    Unless ``certificate`` is given, the same factor certifies the gap
    (``_gap``); a gap below ``SOLVER.unique_tol``, or an exactly singular
    factor, is refused as non-unique. A block of at most
    ``_NORM_BOUND_MAX_DIM`` rows first tries the bound 1 / ||B^-1||_1 <=
    |lambda_2| of its exact inverse, since every eigenvalue of B is at least
    that large in magnitude.

    ``certificate`` is that of a generator which an exact product-unitary
    map carries onto this one, checked by the caller (``symmetry`` passes the
    bath-inverted partner's). Both then share one spectrum, so this kernel is
    one-dimensional too, and the record keeps that certificate.

    The zero mode is trace-normalized, Hermitized and checked for its
    residual and validity. A generator on more than ``SOLVER.max_sites``
    qubits is refused before any work.
    """
    if not liouv.jumps:
        raise SpecError(
            "steady_state needs at least one jump operator; a closed system has "
            "no unique fixed point"
        )
    require_max_sites((liouv.dim - 1).bit_length())  # the qubits a dim x dim state needs
    start = time.perf_counter()
    bordered, index = liouv._assemble(q0=True, border=True)
    try:
        factor = _factor(bordered)
    except RuntimeError:  # SuperLU's "Factor is exactly singular": a gap of zero
        raise _non_unique(0.0)
    q0 = index.size < liouv.dim**2
    if certificate is not None:
        certificate = dataclasses.replace(certificate, route="bath_inversion")
    else:
        bound = 0.0
        if index.size <= _NORM_BOUND_MAX_DIM:
            inverse = factor.solve(np.eye(index.size, dtype=complex))
            bound = 1.0 / np.abs(inverse).sum(axis=0).max()
        if bound >= SOLVER.unique_tol:
            certificate = Certificate("norm_bound", (0.0, float(bound)), q0)
        else:
            gap = _gap(factor, index, liouv.dim)
            if not gap >= SOLVER.unique_tol:  # a NaN gap is refused too
                raise _non_unique(gap)
            certificate = Certificate("eigensolve", (0.0, gap), q0)
    rhs = np.zeros(index.size, dtype=complex)
    rhs[index == 0] = 1.0 / liouv.dim  # e_0 / d
    zero_mode = factor.solve(rhs)
    # e_0 / d - B x, each product and sum in extended precision
    products = bordered.data.astype(np.clongdouble) * np.repeat(zero_mode,
                                                                np.diff(bordered.indptr))
    misfit = rhs.astype(np.clongdouble)
    np.subtract.at(misfit, bordered.indices, products)
    zero_mode += factor.solve(misfit.astype(complex))
    vector = np.zeros(liouv.dim**2, dtype=complex)
    vector[index] = zero_mode
    rho = unvectorize(vector)
    tr = np.trace(rho)
    if abs(tr) < SOLVER.trace_floor:
        raise NumericalError(f"candidate steady state has near-zero trace {abs(tr):.3e}")
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    residual = liouvillian_residual(liouv, rho)
    if not residual <= SOLVER.residual_tol:  # a NaN residual is refused too
        raise NumericalError(
            f"steady-state residual {residual:.3e} exceeds {SOLVER.residual_tol:.1e}")
    validate_state(rho)
    wall_ms = round((time.perf_counter() - start) * 1e3, 3)
    return SteadyState(rho, METHOD, residual, wall_ms, certificate, factor.nnz)


def _factor(bordered: scipy.sparse.csc_matrix):
    """The LU factor of a bordered block from ``_assemble``, which visits the
    rows of each column in the order they are stored (``_layout``). splu
    sorts them first unless the matrix is flagged as canonical (sorted, no
    duplicates); the block has no duplicates, and its rows are in the order
    wanted, so a view of it flagged so is factorised."""
    as_stored = scipy.sparse.csc_matrix((bordered.data, bordered.indices, bordered.indptr),
                                        shape=bordered.shape)
    as_stored.has_canonical_format = True
    return scipy.sparse.linalg.splu(as_stored, **_FACTOR_OPTIONS)


def _non_unique(gap: float) -> NonUniqueSteadyStateError:
    return NonUniqueSteadyStateError(
        f"the two eigenvalues nearest zero have magnitudes {0.0:.3e} and {gap:.3e}, "
        f"both below {SOLVER.unique_tol:.1e}; the steady state is not unique")


def _gap(factor, index: np.ndarray, d: int) -> float:
    """The gap |lambda_2| of the generator block whose bordered factor is
    ``factor`` (rows ``index`` of a dim-d generator).

    w^T B = w^T / d, so B and B^-1 map trace-zero vectors to trace-zero
    vectors, and there B acts as A. With P x = x - e_0 (w^T x), e_0 the
    border row (where ``index`` is 0), which projects onto them (w_0 = 1),
    the eigenvalues of P B^-1 P are 0 and 1 / lambda for every other
    eigenvalue lambda of A: the largest magnitude is 1 / |lambda_2|. It
    comes from a standard-mode ARPACK eigensolve of that operator, or a
    dense eig of the inverse for a block too small for ARPACK (a one-qubit
    block). An eigensolve that does not converge within
    ``_CERTIFICATE_MAX_RESTARTS`` restarts raises NoConvergenceError.
    """
    m = index.size
    trace = np.flatnonzero(index % (d + 1) == 0)  # the rows of the diagonal of rho
    border, = np.flatnonzero(index == 0)

    def project(x):
        x = np.array(x, dtype=complex)
        x[border] -= x[trace].sum(axis=0)
        return x

    if m <= 3:  # ARPACK needs k < m - 1
        projector = project(np.eye(m))
        values = np.linalg.eigvals(projector @ factor.solve(projector))
    else:
        rng = np.random.default_rng(_CERTIFICATE_SEED)
        v0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        op = scipy.sparse.linalg.LinearOperator(
            (m, m), lambda x: project(factor.solve(project(x))), dtype=complex)
        try:
            values = scipy.sparse.linalg.eigs(op, k=1, v0=v0, maxiter=_CERTIFICATE_MAX_RESTARTS,
                                              return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NoConvergenceError(
                f"the gap eigensolve did not converge in {_CERTIFICATE_MAX_RESTARTS} restarts; "
                "uniqueness is not certified") from exc
    return float(1.0 / np.abs(values).max())


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Real expectation value tr(rho * obs) of a Hermitian observable."""
    rho = np.asarray(rho, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if rho.shape != obs.shape:
        raise ShapeError(f"state shape {rho.shape} vs observable shape {obs.shape}")
    value = complex(np.einsum("ij,ji->", rho, obs))
    if abs(value.imag) > SOLVER.imag_tol:
        raise NumericalError(
            f"expectation value has imaginary part {value.imag:.3e}; "
            "check that the observable is Hermitian and the state is physical"
        )
    return value.real


def _spread(values: tuple[float, ...]) -> float:
    return max(values) - min(values) if values else 0.0


def central(values: tuple[float, ...]) -> float:
    """Middle entry (left of two) of a uniform steady-state current profile; NaN if empty."""
    return values[(len(values) - 1) // 2] if values else math.nan


@dataclass(frozen=True)
class CurrentsProfile:
    """Per-bond spin currents and per-interior-site energy currents.

    Energy lists are empty for chains shorter than 3 sites; the spreads
    (max - min) diagnose steady-state uniformity.
    """

    spin: tuple[float, ...]
    energy_xxz: tuple[float, ...]
    energy_total: tuple[float, ...]
    spin_spread: float
    energy_xxz_spread: float
    energy_total_spread: float


def currents_profile(rho: np.ndarray, spec: ChainSpec) -> CurrentsProfile:
    spin_ops, energy_xxz_ops, energy_field_ops = _chain_operators(spec).currents
    spin = tuple(expectation(rho, op) for op in spin_ops)
    energy_xxz = tuple(expectation(rho, op) for op in energy_xxz_ops)
    # a site without field carries no field current; adding 0.0 there keeps a
    # zero total +0.0, as the expectation value of the zero operator was
    energy_total = tuple(
        exchange + (expectation(rho, op) if op is not None else 0.0)
        for op, exchange in zip(energy_field_ops, energy_xxz)
    )
    return CurrentsProfile(
        spin=spin,
        energy_xxz=energy_xxz,
        energy_total=energy_total,
        spin_spread=_spread(spin),
        energy_xxz_spread=_spread(energy_xxz),
        energy_total_spread=_spread(energy_total),
    )


# Bound of the chain-operator cache. A symmetry certification reads one chain;
# a sweep over a chain parameter reads each chain twice (solve, then
# currents), at most ``workers`` at a time. At N=7 one entry holds up to
# 4.5 MB (the Hamiltonian and 16 current operators of 256 KB each).
_CHAIN_CACHE_SIZE = 2


class _ChainOperators:
    """A chain's Hamiltonian and, once asked for, its current operators, each
    built once. They are shared between calls, so read-only."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.hamiltonian = _read_only(build_hamiltonian(spec))

    @cached_property
    def currents(self) -> tuple[tuple, tuple, tuple]:
        """spin_current_op on bonds 1..N-1; energy_current_xxz_op and
        energy_current_field_op on sites 2..N-1, the latter None where the
        field is zero."""
        spec, n = self.spec, self.spec.n_sites
        spin = tuple(_read_only(spin_current_op(spec, j)) for j in range(1, n))
        energy_xxz = tuple(_read_only(energy_current_xxz_op(spec, j)) for j in range(2, n))
        energy_field = tuple(_read_only(energy_current_field_op(spec, j))
                             if spec.b_field[j - 1] else None for j in range(2, n))
        return spin, energy_xxz, energy_field


@lru_cache(maxsize=_CHAIN_CACHE_SIZE)
def _chain_operators(spec: ChainSpec) -> _ChainOperators:
    return _ChainOperators(spec)


# Bound of the steady-state cache. A symmetry certification on the default
# three-point drive grid needs 6 distinct records (a forward/inverted pair per
# grid point, the bath's own drive among them), so 8 holds a whole one.
_STEADY_CACHE_SIZE = 8


def chain_steady_state(spec: ChainSpec, diss: DissipatorSpec,
                       certificate: Certificate | None = None) -> SteadyState:
    """Hamiltonian + jumps + steady-state solve, memoised per (spec, bath,
    certificate).

    ``certificate`` is passed on to ``steady_state``: the certificate of a
    generator that an exact map carries onto this one. It is part of the
    cache key, so ``chain_steady_state(spec, diss)`` always returns the
    record of the state's own certificate. The
    returned record is shared between calls, so its ``rho`` is read-only.
    """
    require_max_sites(spec.n_sites)  # before any operator is built
    return _cached_chain_steady_state(spec, diss, certificate)


@lru_cache(maxsize=_STEADY_CACHE_SIZE)
def _cached_chain_steady_state(spec: ChainSpec, diss: DissipatorSpec,
                               certificate: Certificate | None) -> SteadyState:
    liouv = build_liouvillian(_chain_operators(spec).hamiltonian,
                              jump_operators(diss, spec.n_sites))
    solved = steady_state(liouv, certificate=certificate)
    _read_only(solved.rho)
    return solved
