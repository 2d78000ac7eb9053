import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import chainflux.lindblad as lindblad
from chainflux.chain import ChainSpec, GradedProfile, build_hamiltonian, expand_graded
from chainflux.cli import main
from chainflux.config import STEADY_METHODS, load_config
from chainflux.errors import (
    NoConvergenceError,
    NonUniqueSteadyStateError,
    NumericalError,
    ShapeError,
    SpecError,
)
from chainflux.lindblad import (
    SolverConfig,
    TargetZ,
    TwistedXY,
    build_liouvillian,
    chain_steady_state,
    currents_profile,
    expectation,
    jump_operators,
    liouvillian_residual,
    require_max_sites,
    state_diagnostics,
    steady_state,
    unvectorize,
    validate_state,
    vectorize,
)
from chainflux.lindblad import _cached_chain_steady_state
from chainflux.pauli import embed, pauli


def _rhs_oracle(h, jumps, rho):
    """Direct matrix-form master equation, written independently of the engine."""
    out = 1j * (rho @ h - h @ rho)
    for L in jumps:
        ld = L.conj().T
        out += L @ rho @ ld - 0.5 * (ld @ L @ rho + rho @ ld @ L)
    return out


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


# --- jump operators ---------------------------------------------------------


def test_target_z_full_polarization_edge():
    jumps = jump_operators(TargetZ(f_left=1.0, f_right=0.0, gamma=1.0), 2)
    raising, lowering = jumps[0], jumps[1]
    assert np.allclose(raising, embed(pauli("plus"), 1, 2))  # amplitude sqrt(gamma)
    assert np.abs(lowering).max() == 0.0


def test_target_z_symmetric_rates():
    gamma = 1.8
    jumps = jump_operators(TargetZ(0.0, 0.0, gamma=gamma), 2)
    for jump in jumps:
        assert np.isclose(np.abs(jump).max(), math.sqrt(gamma / 2))


def test_target_z_placement():
    jumps = jump_operators(TargetZ(0.5, -0.5), 2)
    assert np.allclose(jumps[0], math.sqrt(0.75) * np.kron(pauli("plus"), np.eye(2)))
    assert np.allclose(jumps[2], math.sqrt(0.25) * np.kron(np.eye(2), pauli("plus")))


def test_twisted_rotation_maps_first_pair_to_second():
    # single-site content: conjugating the first-pair operator by the rotation
    # gives i times the second-pair operator once k_prime = -k
    k = 0.4
    jumps = jump_operators(TwistedXY(k=k, k_prime=-k), 1)
    w1, w2, v1, v2 = jumps
    sr = pauli("r")
    assert np.allclose(sr @ w1 @ sr.conj().T, 1j * v1, atol=1e-14)
    assert np.allclose(sr @ w2 @ sr.conj().T, -1j * v2, atol=1e-14)
    assert np.allclose(sr @ v1 @ sr.conj().T, -1j * w1, atol=1e-14)
    assert np.allclose(sr @ v2 @ sr.conj().T, 1j * w2, atol=1e-14)


def test_twisted_placement_and_swap():
    spec = TwistedXY(k=0.3, k_prime=-0.3)
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    w1 = math.sqrt((1 - 0.3) / 2) * (sz + 1j * sx)
    v1 = math.sqrt((1 - 0.3) / 2) * (sy + 1j * sz)
    jumps = jump_operators(spec, 2)
    assert np.allclose(jumps[0], np.kron(w1, np.eye(2)))
    assert np.allclose(jumps[2], np.kron(np.eye(2), v1))
    swapped = jump_operators(TwistedXY(k=0.3, k_prime=-0.3, swapped=True), 2)
    assert np.allclose(swapped[0], np.kron(np.eye(2), w1))
    assert np.allclose(swapped[2], np.kron(v1, np.eye(2)))


def test_dissipator_validation():
    with pytest.raises(SpecError):
        TargetZ(f_left=1.2, f_right=0.0)
    with pytest.raises(SpecError):
        TargetZ(0.0, 0.0, gamma=0.0)
    with pytest.raises(SpecError):
        TwistedXY(k=1.5, k_prime=0.0)
    with pytest.raises(SpecError):
        TwistedXY(k=0.5, k_prime=0.5, rate=-1.0)


_NON_FINITE_SPECS = {
    "f_left": (TargetZ, (math.nan, -0.5), {}),
    "f_right": (TargetZ, (0.5, -math.inf), {}),
    "gamma": (TargetZ, (0.5, -0.5), {"gamma": math.inf}),
    "k": (TwistedXY, (math.nan, -0.3), {}),
    "k_prime": (TwistedXY, (0.3, math.inf), {}),
    "rate": (TwistedXY, (0.3, -0.3), {"rate": math.nan}),
    "alpha": (ChainSpec, (3, math.nan, (1.0, 1.0), (0.0,) * 3), {}),
    "delta": (ChainSpec, (3, 1.0, (1.0, math.inf), (0.0,) * 3), {}),
    "b_field": (ChainSpec, (3, 1.0, (1.0, 1.0), (0.0, math.nan, 0.0)), {}),
}


@pytest.mark.parametrize("field", _NON_FINITE_SPECS)
def test_specs_refuse_non_finite_fields(field):
    kind, args, kwargs = _NON_FINITE_SPECS[field]
    # NaN passes every range comparison, and inf gamma or rate is positive;
    # either would reach the factorisation as a singular matrix
    with pytest.raises(SpecError, match=f"^{field} must be finite"):
        kind(*args, **kwargs)


# An integer too large for a float: float() and math.isfinite raise
# OverflowError on it, so it must be refused before either runs.
_OVERSIZE_SPECS = {
    "alpha": (ChainSpec, (2, 10**400, (1.0,), (0.0, 0.0)), {}),
    "delta": (ChainSpec, (2, 1.0, (-10**400,), (0.0, 0.0)), {}),
    "b_field": (ChainSpec, (2, 1.0, (1.0,), (0.0, 10**400)), {}),
    "f_left": (TargetZ, (10**400, -0.5), {}),
    "gamma": (TargetZ, (0.5, -0.5), {"gamma": 10**400}),
    "k_prime": (TwistedXY, (0.5, -10**400), {}),
    "rate": (TwistedXY, (0.5, -0.5), {"rate": 10**5000}),  # more digits than str() converts
}


@pytest.mark.parametrize("field", _OVERSIZE_SPECS)
def test_specs_refuse_oversize_integers(field):
    kind, args, kwargs = _OVERSIZE_SPECS[field]
    with pytest.raises(SpecError, match=f"^{field} must be finite"):
        kind(*args, **kwargs)


# --- generator assembly ------------------------------------------------------


def test_identity_is_fixed_point_of_closed_system():
    liouv = build_liouvillian(pauli("z"), [])
    assert np.abs(liouv.matrix @ vectorize(np.eye(2) / 2)).max() < 1e-15


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        build_liouvillian(pauli("z"), [np.eye(4)])
    with pytest.raises(ShapeError):
        build_liouvillian(np.ones(3), [])


def test_single_site_damping_superoperator_by_hand():
    # H = 0, one lowering jump; in column-stacked order (r00, r10, r01, r11):
    # d r00 = -r00, d r10 = -r10/2, d r01 = -r01/2, d r11 = +r00
    liouv = build_liouvillian(np.zeros((2, 2)), [pauli("minus")])
    expected = np.array(
        [
            [-1.0, 0, 0, 0],
            [0, -0.5, 0, 0],
            [0, 0, -0.5, 0],
            [1.0, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(liouv.matrix.toarray(), expected, atol=1e-15)
    rho = steady_state(liouv).rho
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)
    assert expectation(rho, pauli("z")) == pytest.approx(-1.0, abs=1e-12)


def _kron_sum_oracle(liouv):
    """I (x) K + conj(K) (x) I + sum_s conj(L_s) (x) L_s as a chain of sparse
    ``kron`` sums, added in that order (a CSR sum drops entries that cancel)."""
    k_eff = -1j * liouv.hamiltonian
    for L in liouv.jumps:
        k_eff = k_eff - 0.5 * (L.conj().T @ L)
    k_sp = scipy.sparse.csr_matrix(k_eff)
    ident = scipy.sparse.identity(liouv.dim, dtype=complex, format="csr")
    total = (scipy.sparse.kron(ident, k_sp, format="csr")
             + scipy.sparse.kron(k_sp.conj(), ident, format="csr"))
    for L in liouv.jumps:
        l_sp = scipy.sparse.csr_matrix(L)
        total = total + scipy.sparse.kron(l_sp.conj(), l_sp, format="csr")
    return total.tocsc()


@pytest.mark.parametrize("n_sites", range(1, 6))
@pytest.mark.parametrize("diss", [TargetZ(0.4, -0.7, gamma=1.3),
                                  TwistedXY(0.6, -0.2, rate=0.8, swapped=True)])
def test_matrix_equals_sparse_kron_sum_entrywise(n_sites, diss):
    spec = ChainSpec(n_sites, alpha=0.9, delta=tuple(np.linspace(0.6, 1.4, n_sites - 1)),
                     b_field=tuple(0.3 + 0.1 * j for j in range(n_sites)))
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    assembled, oracle = liouv.matrix, _kron_sum_oracle(liouv)
    assert scipy.sparse.issparse(assembled) and assembled.format == "csc"
    assert assembled.shape == oracle.shape == (4**n_sites, 4**n_sites)
    assert assembled.nnz == oracle.nnz
    assert (assembled != oracle).nnz == 0
    # entries that cancel are dropped: a plain COO sum of the N=4 twisted_xy
    # terms stores 2560 entries, 512 of them exact zeros
    assert np.count_nonzero(assembled.data) == assembled.nnz


def test_zero_mode_factorises_once_per_solve(monkeypatch):
    # every solve, forward or bath-inverted partner, assembles one bordered
    # block and factorises it once with the one set of options; only the
    # forward solve above the cap (N=4 twisted_xy, 256 rows) runs an eigensolve
    assemblies, factorisations, eigensolves = [], [], []
    assemble = lindblad.Liouvillian._assemble
    splu, eigs = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigs
    monkeypatch.setattr(lindblad.Liouvillian, "_assemble",
                        lambda self, *args, **kwargs: assemblies.append((args, kwargs))
                        or assemble(self, *args, **kwargs))
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda matrix, **kwargs: factorisations.append(kwargs)
                        or splu(matrix, **kwargs))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                        lambda *args, **kwargs: eigensolves.append(args) or eigs(*args, **kwargs))
    for solves, family in enumerate(["target_z", "twisted_xy"], start=1):
        forward, inverted = _graded_pair(4, family)
        steady_state(inverted, certificate=steady_state(forward).certificate)
        assert len(factorisations) == 2 * solves
    assert assemblies == [((), {"q0": True, "border": True})] * 4
    assert factorisations == [lindblad._FACTOR_OPTIONS] * 4
    assert factorisations[0]["permc_spec"] == "MMD_AT_PLUS_A"
    assert len(eigensolves) == 1


@pytest.mark.parametrize("n_sites", [3, 4, 5])
@pytest.mark.parametrize("diss", [TargetZ(0.5, -0.5), TwistedXY(0.5, -0.5)])
def test_zero_mode_factorises_the_q0_block_of_a_magnetization_conserving_generator(
        monkeypatch, n_sites, diss):
    shapes = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(matrix, **kwargs):
        shapes.append(matrix.shape)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, b_field=0.2)
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    steady_state(liouv)
    # target_z conserves magnetization weakly: only the C(2N, N) indices with
    # S^z(ket) = S^z(bra) are factorised; twisted_xy factorises all 4^N
    dim = math.comb(2 * n_sites, n_sites) if isinstance(diss, TargetZ) else 4**n_sites
    assert shapes == [(dim, dim)]


def _sliced_solve_block(matrix, border):
    """The solve block by slicing the full matrix: its q=0 rows and columns when
    no stored entry couples two sectors of q = S^z(ket) - S^z(bra), else all of
    it, with the trace row over d added to row 0 if ``border``."""
    d = math.isqrt(matrix.shape[0])
    ones = np.array([bin(i).count("1") for i in range(d)])
    charge = np.add.outer(-ones, ones).ravel()  # index row + d*col has q = ones[row] - ones[col]
    coo = matrix.tocoo()
    index = np.arange(d * d)
    if np.array_equal(charge[coo.row], charge[coo.col]):
        index = np.flatnonzero(charge == 0)
    block = matrix[index[:, None], index]
    trace = np.flatnonzero(index % (d + 1) == 0)  # the rows of the diagonal of rho
    trace_row = scipy.sparse.csc_matrix((np.full(trace.size, border / d, dtype=complex),
                                         (np.zeros(trace.size, dtype=int), trace)),
                                        shape=block.shape)
    return (block + trace_row).tocsc(), index


@pytest.mark.parametrize("n_sites", range(1, 7))
@pytest.mark.parametrize("diss", [TargetZ(1.0, -1.0), TargetZ(-1.0, 1.0), TargetZ(0.0, 0.0),
                                  TwistedXY(1.0, -1.0), TwistedXY(-1.0, 1.0), TwistedXY(0.0, 0.0)],
                         ids=lambda diss: f"{diss.family}-{diss.drive:g}")
def test_solve_block_is_the_q0_slice_of_the_matrix(n_sites, diss):
    spec = ChainSpec(n_sites, alpha=0.9, delta=tuple(np.linspace(0.6, 1.4, n_sites - 1)),
                     b_field=tuple(0.3 + 0.1 * j for j in range(n_sites)))
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    for border in (False, True):
        block, index = liouv._assemble(q0=True, border=border)
        assert "matrix" not in vars(liouv)  # the solve block is assembled on its own
        reference, reference_index = _sliced_solve_block(liouv.matrix, border)
        assert np.array_equal(index, reference_index)
        assert block.format == "csc" and block.shape == reference.shape
        assert np.array_equal(block.indptr, reference.indptr)
        assert np.array_equal(block.indices, reference.indices)
        assert block.data.tobytes() == reference.data.tobytes()
        del liouv.matrix
    # target_z conserves magnetization weakly; twisted_xy couples the sectors,
    # except on one site at k = k_prime = 0, where the couplings of its two
    # operator pairs cancel exactly
    restricted = isinstance(diss, TargetZ) or (n_sites == 1 and diss.k == 0)
    assert index.size == (math.comb(2 * n_sites, n_sites) if restricted else 4**n_sites)


def _reference_assembly(liouv, q0, border):
    """The generator's solve block by one COO sum with no pattern cache: every
    term's column-major key, np.unique, np.add.at in term order, exact zeros
    dropped, then the q=0 rows and columns when no entry couples two sectors."""
    d, size = liouv.dim, liouv.dim**2
    k_eff = -1j * liouv.hamiltonian
    for L in liouv.jumps:
        k_eff = k_eff - 0.5 * (L.conj().T @ L)
    ident = np.arange(d)

    def term(a, b):  # the key and value of each nonzero of A (x) B, as np.kron orders them
        (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
        keys = (d * ca[:, None] + cb) * size + d * ra[:, None] + rb
        return keys.ravel(), np.multiply.outer(a[ra, ca], b[rb, cb]).ravel()

    terms = [term(np.eye(d), k_eff), term(k_eff.conj(), np.eye(d))]
    terms += [term(L.conj(), L) for L in liouv.jumps]
    if border:
        terms.append((ident * (d + 1) * size, np.full(d, 1.0 / d, dtype=complex)))
    key, position = np.unique(np.concatenate([k for k, _ in terms]), return_inverse=True)
    total = np.zeros(key.size, dtype=complex)
    np.add.at(total, position, np.concatenate([v for _, v in terms]))
    key, total = key[total != 0], total[total != 0]
    row, col, index = key % size, key // size, np.arange(size)
    ones = np.array([bin(i).count("1") for i in range(d)])
    charge = np.add.outer(-ones, ones).ravel()  # index row + d*col has q = ones[row] - ones[col]
    if q0 and np.array_equal(charge[row], charge[col]):
        index = np.flatnonzero(charge == 0)
        inside = charge[col] == 0
        rank = np.cumsum(charge == 0) - 1
        row, col, total = rank[row[inside]], rank[col[inside]], total[inside]
    block = scipy.sparse.coo_matrix((total, (row, col)), shape=(index.size,) * 2).tocsc()
    return block, index


def test_reused_assembly_pattern_is_bitwise():
    # 96 generators (N = 1..6, both families, drives +1, -1, 0 and 0.5, field 0
    # and 0.3) under every flag combination, in a shuffled order through the
    # bounded pattern cache, so hits on other generators' patterns and misses mix
    generators = []
    for n_sites in range(1, 7):
        for b in (0.0, 0.3):
            spec = ChainSpec(n_sites, alpha=0.9, delta=tuple(np.linspace(0.6, 1.4, n_sites - 1)),
                             b_field=(b,) * n_sites)
            for drive in (1.0, -1.0, 0.0, 0.5):
                for diss in (TargetZ(drive, -drive, gamma=1.3), TwistedXY(drive, -drive, rate=0.8)):
                    generators.append(build_liouvillian(build_hamiltonian(spec),
                                                        jump_operators(diss, n_sites)))
    flags = [(q0, border) for q0 in (False, True) for border in (False, True)]
    cases = [(liouv, flag) for liouv in generators for flag in flags
             if liouv.dim <= 32 or flag == (True, True)]  # N=6: the solve block only
    order = np.random.default_rng(18).permutation(len(cases))
    lindblad._pattern.cache_clear()
    for position in order:
        liouv, (q0, border) = cases[position]
        block, index = liouv._assemble(q0=q0, border=border)
        reference, reference_index = _reference_assembly(liouv, q0, border)
        assert np.array_equal(index, reference_index)
        assert block.format == "csc" and block.shape == reference.shape
        assert block.indptr.tobytes() == reference.indptr.astype(block.indptr.dtype).tobytes()
        assert block.indices.tobytes() == reference.indices.astype(block.indices.dtype).tobytes()
        assert block.data.tobytes() == reference.data.tobytes()
    info = lindblad._pattern.cache_info()
    assert info.hits > 0 and info.misses > 0
    # on one site at k = 0 the couplings of the two twisted_xy pairs cancel
    # exactly; the pattern keeps them, the assembly drops them and then
    # restricts to q=0
    cancelling = build_liouvillian(build_hamiltonian(ChainSpec(1, 0.9, (), (0.0,))),
                                   jump_operators(TwistedXY(0.0, 0.0), 1))
    for _ in range(2):  # a miss, then a hit
        block, index = cancelling._assemble(q0=True, border=True)
        assert index.tolist() == [0, 3]
        assert block.data.tobytes() == _reference_assembly(
            cancelling, True, True)[0].data.tobytes()
    # on one site at f = 0 and gamma 0.5 the rho[0, 0] diagonal entry is -1/2,
    # which the border's 1/d = 1/2 cancels inside the q=0 block
    liouv = build_liouvillian(build_hamiltonian(ChainSpec(1, 0.9, (), (0.3,))),
                              jump_operators(TargetZ(0.0, 0.0, gamma=0.5), 1))
    assert liouv.matrix[0, 0] == -0.5
    for _ in range(2):
        block, index = liouv._assemble(q0=True, border=True)
        reference, _ = _reference_assembly(liouv, True, True)
        assert block[0, 0] == 0 and block.nnz == reference.nnz
        assert block.indptr.tobytes() == reference.indptr.astype(np.int32).tobytes()
        assert block.indices.tobytes() == reference.indices.astype(np.int32).tobytes()
        assert block.data.tobytes() == reference.data.tobytes()


def test_assembly_pattern_is_shared_and_read_only():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3)
    first, second = (build_liouvillian(build_hamiltonian(spec), jump_operators(diss, 3))
                     for diss in (TargetZ(0.5, -0.5), TargetZ(0.2, -0.2, gamma=1.7)))
    lindblad._pattern.cache_clear()
    a, index_a = first._assemble(q0=True, border=True)
    b, index_b = second._assemble(q0=True, border=True)
    # the same nonzero positions: one pattern, different values
    assert lindblad._pattern.cache_info().misses == 1
    assert index_b is index_a  # and the matrices view the pattern's arrays, uncopied
    assert np.shares_memory(b.indices, a.indices) and np.shares_memory(b.indptr, a.indptr)
    assert not np.array_equal(a.data, b.data)
    for array in (a.indices, a.indptr, index_a):
        assert not array.flags.writeable
    # f = +1 zeroes two jumps: their positions, and so the pattern, differ
    third = build_liouvillian(build_hamiltonian(spec), jump_operators(TargetZ(1.0, -1.0), 3))
    third._assemble(q0=True, border=True)
    assert lindblad._pattern.cache_info().misses == 2


def test_steady_state_does_not_assemble_the_full_matrix():
    spec = expand_graded(GradedProfile(1.0, 0.5), 4, b_field=0.3)
    for diss in (TargetZ(0.5, -0.5), TwistedXY(0.5, -0.5)):
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, 4))
        steady_state(liouv)
        assert "matrix" not in vars(liouv)


# A borderline-style chain that can stall an eigensolve: graded 1 +- 0.5,
# field 0.3, alpha 1e-4, gamma 1e-12. A dense eig gives |lambda_2| ~ 2e-13 at
# N=4, so a refusal is the right answer. A shift-invert eigensolve of
# A - 1e-6 I ran thousands of restarts on it; on the nearly singular bordered
# factor 1/lambda_2 dominates the inverse's spectrum and converges at once.
def _stalling_chain(n_sites, gamma=1e-12):
    spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, alpha=1e-4, b_field=0.3)
    return build_liouvillian(build_hamiltonian(spec),
                             jump_operators(TargetZ(0.5, -0.5, gamma=gamma), n_sites))


def _refusal_message(liouv):
    with pytest.raises(NonUniqueSteadyStateError) as info:
        steady_state(liouv)
    return str(info.value)


def test_unconverged_certificate_is_a_no_convergence_error(monkeypatch):
    # the chain of configs/steady_n4_unconverged.json, and the gamma 1e-11
    # chain that was refused with two exception types at random: each is
    # refused the same way on every run
    for gamma in (1e-12, 1e-11):
        messages = {_refusal_message(_stalling_chain(4, gamma)) for _ in range(10)}
        assert len(messages) == 1
        gap = re.fullmatch(r"the two eigenvalues nearest zero have magnitudes 0\.000e\+00 and "
                           r"(\S+), both below 1\.0e-10; the steady state is not unique",
                           messages.pop()).group(1)
        assert 0.1 * gamma < float(gap) < 0.4 * gamma  # 1.970e-13 and 1.970e-12 here
    # an eigensolve that does not converge within the cap is still a solver error
    restarts = []

    def unconverged(*args, maxiter, **kwargs):
        restarts.append(maxiter)
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]),
                                                      np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", unconverged)
    with pytest.raises(NoConvergenceError, match=r"^the gap eigensolve did not converge in 50 "
                                                  r"restarts; uniqueness is not certified$"):
        steady_state(_stalling_chain(4))
    assert restarts == [50]


def test_unconverged_certificate_is_refused_promptly_at_six_sites():
    liouv = _stalling_chain(6)
    start = time.perf_counter()
    assert _refusal_message(liouv).endswith("the steady state is not unique")
    assert time.perf_counter() - start < 5.0  # about 0.05 s; over a minute without a cap


def test_vectorized_action_matches_direct_formula():
    rng = np.random.default_rng(21)
    spec = ChainSpec(2, alpha=1.0, delta=(0.8,), b_field=(0.2, -0.4))
    h = build_hamiltonian(spec)
    jumps = jump_operators(TargetZ(0.6, -0.3, gamma=1.4), 2)
    liouv = build_liouvillian(h, jumps)
    for _ in range(5):
        rho = _random_hermitian(rng, 4)
        via_matrix = unvectorize(liouv.matrix @ vectorize(rho))
        direct = _rhs_oracle(h, jumps, rho)
        assert np.abs(via_matrix - direct).max() < 1e-12
        assert np.abs(liouv.apply(rho) - direct).max() < 1e-12


def test_trace_preservation_left_null_vector():
    rng = np.random.default_rng(22)
    for n_sites, diss in (
        (1, TargetZ(0.3, -0.3)),
        (2, TargetZ(0.9, 0.1, gamma=0.7)),
        (3, TwistedXY(0.5, -0.2)),
    ):
        deltas = tuple(rng.uniform(0.2, 1.5, n_sites - 1))
        b = tuple(rng.uniform(-1, 1, n_sites))
        spec = ChainSpec(n_sites, alpha=1.0, delta=deltas, b_field=b)
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
        left = vectorize(np.eye(liouv.dim)) @ liouv.matrix.toarray()
        assert np.abs(left).max() < 1e-10


def test_hermiticity_preservation():
    rng = np.random.default_rng(23)
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.1, 0.3))
    liouv = build_liouvillian(
        build_hamiltonian(spec), jump_operators(TwistedXY(0.4, -0.4), 2)
    )
    for _ in range(5):
        out = liouv.apply(_random_hermitian(rng, 4))
        assert np.abs(out - out.conj().T).max() < 1e-12


# --- steady states ------------------------------------------------------------


def test_steady_state_requires_jumps():
    with pytest.raises(SpecError):
        steady_state(build_liouvillian(pauli("z"), []))


def test_two_site_method_cross_validation():
    # fully polarized edges (two zero jumps) against the independent full-eig oracle
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0))
    diss = TargetZ(1.0, -1.0, gamma=1.0)
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, 2))
    oracle, _ = _full_eig_oracle(liouv)
    rho = chain_steady_state(spec, diss).rho
    assert np.abs(rho - oracle).max() < 1e-12
    for site in (1, 2):
        sz = embed(pauli("z"), site, 2)
        assert abs(expectation(rho, sz) - expectation(oracle, sz)) < 1e-12


def test_chain_steady_state_is_memoised_and_read_only(monkeypatch):
    _cached_chain_steady_state.cache_clear()
    solves = []

    def counting(liouv, **kwargs):
        solves.append(liouv)
        return steady_state(liouv, **kwargs)

    monkeypatch.setattr(lindblad, "steady_state", counting)
    spec = expand_graded(GradedProfile(1.0, 0.5), 3)
    diss = TargetZ(0.5, -0.5)
    first = chain_steady_state(spec, diss)
    # the cache keys on (spec, bath): equal arguments are the same entry
    assert chain_steady_state(expand_graded(GradedProfile(1.0, 0.5), 3),
                              TargetZ(0.5, -0.5)) is first
    assert len(solves) == 1
    assert first.method == "dense_null"
    assert not first.rho.flags.writeable
    with pytest.raises(ValueError):
        first.rho[0, 0] = 0.0


@pytest.mark.parametrize("method", ["auto", "dense_null", "evolve"],
                         ids=["n8_auto", "n8_dense_null", "n8_evolve"])
def test_chain_steady_state_refuses_an_oversize_run_before_building(monkeypatch, tmp_path,
                                                                    capsys, method):
    def refuse(spec):
        raise AssertionError("the Hamiltonian of a refused run was built")

    monkeypatch.setattr(lindblad, "build_hamiltonian", refuse)
    spec = expand_graded(GradedProfile(1.0, 0.5), 8)
    with pytest.raises(SpecError, match="a chain of 8 sites exceeds the solver limit of 7 sites"):
        chain_steady_state(spec, TargetZ(0.5, -0.5))
    # through the CLI the model is refused first, whatever the method flag says
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "model": {"n_sites": 8, "alpha": 1.0, "delta_mean": 1.0, "delta_step": 0.5},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    }))
    assert main(["steady", "--config", str(config), "--method", method]) == 2
    assert ("config error: a chain of 8 sites exceeds the solver limit of 7 sites"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


def test_solver_thresholds_are_the_fixed_contract():
    assert lindblad.SOLVER == SolverConfig()
    assert dataclasses.asdict(lindblad.SOLVER) == {
        "residual_tol": 1e-9,
        "unique_tol": 1e-10,
        "trace_tol": 1e-10,
        "trace_floor": 1e-8,
        "hermiticity_tol": 1e-10,
        "positivity_tol": 1e-9,
        "imag_tol": 1e-9,
        "conjugation_tol": 1e-8,
        "antisymmetry_tol": 1e-12,
        "sign_floor": 1e-9,
        "max_sites": 7,
    }


@pytest.mark.parametrize("b_field, field_ops", [((0.0,) * 4, 0), ((0.0, 0.3, 0.0, 0.0), 1)])
def test_currents_profile_builds_field_currents_only_where_the_field_is(monkeypatch, b_field,
                                                                       field_ops):
    spec = ChainSpec(4, alpha=1.0, delta=(0.5, 1.0, 1.5), b_field=b_field)
    rho = chain_steady_state(spec, TargetZ(0.5, -0.5)).rho
    built = []
    original = lindblad.energy_current_field_op

    def counting(spec, site):
        built.append(site)
        return original(spec, site)

    monkeypatch.setattr(lindblad, "energy_current_field_op", counting)
    profile = currents_profile(rho, spec)
    assert len(built) == field_ops
    field = [expectation(rho, original(spec, j)) for j in (2, 3)]
    assert profile.energy_total == tuple(
        x + f for x, f in zip(profile.energy_xxz, field))


def test_steady_state_record_reports_the_solve():
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0))
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(TargetZ(0.5, -0.5), 2))
    solved = steady_state(liouv)
    assert solved.method == "dense_null"
    assert solved.residual == liouvillian_residual(liouv, solved.rho)
    assert solved.wall_ms >= 0.0


def _graded_pair(n_sites, family, b=0.0):
    """The forward and the bath-inverted generator of a graded chain."""
    spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, b_field=b)
    diss = TargetZ(0.5, -0.5) if family == "target_z" else TwistedXY(0.5, -0.5)
    return tuple(build_liouvillian(build_hamiltonian(spec), jump_operators(bath, n_sites))
                 for bath in (diss, diss.inverted()))


def _eigensolved_gap(liouv):
    """The gap eigensolve run on the bordered factor of a generator's solve
    block, whichever route its solve takes."""
    bordered, index = liouv._assemble(q0=True, border=True)
    factor = scipy.sparse.linalg.splu(bordered, **lindblad._FACTOR_OPTIONS)
    return lindblad._gap(factor, index, liouv.dim)


@pytest.mark.parametrize("family, q0", [("target_z", True), ("twisted_xy", False)])
def test_eigensolve_certificate_is_recorded(family, q0):
    # N=5: blocks of 252 (q=0) and 1024, above the norm bound's cap
    liouv, _ = _graded_pair(5, family)
    certificate = steady_state(liouv).certificate
    assert certificate == steady_state(liouv).certificate
    assert certificate.route == "eigensolve"
    assert certificate.q0 is q0
    low, gap = certificate.magnitudes
    assert type(low) is type(gap) is float
    # the exact zero eigenvalue of a trace-preserving generator, and |lambda_2|
    assert low == 0.0 < SolverConfig().unique_tol < gap
    assert gap == _eigensolved_gap(liouv)
    if q0:  # against a dense eig of the 252-row q=0 block
        block = liouv._assemble(q0=True)[0].toarray()
        assert gap == pytest.approx(np.sort(np.abs(scipy.linalg.eigvals(block)))[1], rel=1e-8)


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_bath_inversion_partner_keeps_the_forward_certificate(monkeypatch, family):
    forward, inverted = _graded_pair(4, family)
    certificate = steady_state(forward).certificate
    eigensolves = []
    monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                        lambda *args, **kwargs: eigensolves.append(args) or pytest.fail("eigs"))
    partner = steady_state(inverted, certificate=certificate)
    assert not eigensolves
    assert partner.certificate == dataclasses.replace(certificate, route="bath_inversion")
    assert partner.residual == liouvillian_residual(inverted, partner.rho)
    assert partner.residual <= SolverConfig().residual_tol
    validate_state(partner.rho)


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_bordered_assembly_adds_the_trace_row_to_row_zero(family):
    liouv, _ = _graded_pair(3, family)
    for q0 in (False, True):
        plain, index = liouv._assemble(q0=q0)
        bordered, bordered_index = liouv._assemble(q0=q0, border=True)
        assert np.array_equal(index, bordered_index)
        trace_row = np.zeros(index.size)
        trace_row[np.isin(index, np.arange(liouv.dim) * (liouv.dim + 1))] = 1.0
        expected = plain.toarray()
        expected[0] += trace_row / liouv.dim  # row 0 is rho[0, 0], in the q=0 block too
        assert np.array_equal(bordered.toarray(), expected)
        # the trace row is a left null vector, so the bordered solve has trace one
        assert np.abs(trace_row @ plain.toarray()).max() < 1e-14


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_a_singular_factor_is_a_non_unique_refusal(monkeypatch, family):
    # N=4: the norm bound (target_z) or the eigensolve (twisted_xy), and the
    # partner; the refusal comes from the one factor, with no other route
    forward, inverted = _graded_pair(4, family)
    cases = [(forward, None), (inverted, steady_state(forward).certificate)]
    factors = []

    def singular(matrix, **kwargs):
        factors.append(kwargs)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", lambda *args, **kwargs: pytest.fail("eigs"))
    for liouv, certificate in cases:
        with pytest.raises(NonUniqueSteadyStateError,
                           match=r"^the two eigenvalues nearest zero have magnitudes 0\.000e\+00 "
                                 r"and 0\.000e\+00, both below 1\.0e-10; the steady state is not "
                                 r"unique$"):
            steady_state(liouv, certificate=certificate)
    assert factors == [lindblad._FACTOR_OPTIONS] * 2


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_a_failed_residual_is_refused_without_a_second_route(monkeypatch, family):
    forward, inverted = _graded_pair(4, family)
    cases = [(forward, None), (inverted, steady_state(forward).certificate)]
    residuals = []
    monkeypatch.setattr(lindblad, "liouvillian_residual",
                        lambda liouv, rho: residuals.append(rho) or 1.0)
    for liouv, certificate in cases:
        with pytest.raises(NumericalError, match=r"^steady-state residual 1\.000e\+00 exceeds"):
            steady_state(liouv, certificate=certificate)
    assert len(residuals) == 2


def test_standalone_solve_returns_its_own_record():
    _cached_chain_steady_state.cache_clear()
    spec = expand_graded(GradedProfile(1.0, 0.5), 5)  # eigensolved: q=0 block of 252
    forward = chain_steady_state(spec, TargetZ(0.5, -0.5))
    partner = chain_steady_state(spec, TargetZ(-0.5, 0.5), forward.certificate)
    assert partner.certificate.route == "bath_inversion"
    standalone = chain_steady_state(spec, TargetZ(-0.5, 0.5))
    assert standalone is not partner
    assert standalone.certificate.route == "eigensolve"
    assert chain_steady_state(spec, TargetZ(-0.5, 0.5), forward.certificate) is partner


@pytest.mark.parametrize("n_sites, family, q0", [(4, "target_z", True), (3, "twisted_xy", False)])
def test_norm_bound_certificate_is_recorded(n_sites, family, q0):
    liouv, _ = _graded_pair(n_sites, family)  # blocks of 70 and 64
    certificate = steady_state(liouv).certificate
    assert certificate.route == "norm_bound"
    assert certificate.q0 is q0
    low, bound = certificate.magnitudes
    assert type(low) is type(bound) is float
    # the exact zero eigenvalue of a trace-preserving generator, and 1/||B^-1||_1
    assert low == 0.0
    inverse = np.linalg.inv(liouv._assemble(q0=True, border=True)[0].toarray())
    assert bound == pytest.approx(1.0 / np.abs(inverse).sum(axis=0).max(), rel=1e-10)
    gap = np.sort(np.abs(scipy.linalg.eigvals(liouv._assemble(q0=True)[0].toarray())))[1]
    assert SolverConfig().unique_tol <= bound <= gap


def _random_small_generator(rng, family):
    """A generator with a field, random couplings and asymmetric drives whose
    solve block is at most _NORM_BOUND_MAX_DIM: N <= 4 target_z, N <= 3
    twisted_xy."""
    n_sites = int(rng.integers(1, 5 if family == "target_z" else 4))
    spec = ChainSpec(n_sites, alpha=rng.uniform(0.2, 1.5),
                     delta=tuple(rng.uniform(0.0, 2.0, n_sites - 1)),
                     b_field=tuple(rng.uniform(-1.0, 1.0, n_sites)))
    drives = rng.uniform(-0.95, 0.95, 2)
    rate = rng.uniform(0.1, 2.0)
    diss = TargetZ(*drives, gamma=rate) if family == "target_z" else TwistedXY(*drives, rate=rate)
    return build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_norm_bound_never_exceeds_the_second_magnitude(family):
    # Brauer: spec(B) is spec(A) with one zero replaced by 1/d, and no
    # eigenvalue of B is smaller in magnitude than 1/||B^-1||_1
    rng = np.random.default_rng(22)
    certified = 0
    for _ in range(40):
        liouv = _random_small_generator(rng, family)
        block = liouv._assemble(q0=True)[0].toarray()
        assert block.shape[0] <= lindblad._NORM_BOUND_MAX_DIM
        magnitudes = np.sort(np.abs(scipy.linalg.eigvals(block)))
        certificate = steady_state(liouv).certificate
        if certificate.route == "norm_bound":
            bound = certificate.magnitudes[1]
            assert SolverConfig().unique_tol <= bound <= magnitudes[1]
            # 1/d, the border's eigenvalue, can be the smallest (a one-site
            # block): then the bound meets it up to rounding
            assert bound <= (1.0 + 1e-12) / liouv.dim
            certified += 1
    assert certified >= 30


def _trace_one_state(liouv, vector, index):
    """A block vector as a full-length state, trace-normalized and Hermitized
    as a solve does."""
    full = np.zeros(liouv.dim**2, dtype=complex)
    full[index] = vector
    rho = unvectorize(full)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def _refined_solve(matrix, rhs):
    """A dense solve refined three times against residuals summed in extended
    precision (clongdouble): the reference the zero modes are measured by."""
    dense = matrix.toarray()
    wide = dense.astype(np.clongdouble)
    vector = np.linalg.solve(dense, rhs)
    for _ in range(3):
        residual = rhs.astype(np.clongdouble) - wide @ vector.astype(np.clongdouble)
        vector = vector + np.linalg.solve(dense, residual.astype(complex))
    return vector


@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
def test_norm_bound_zero_mode_is_corrected_by_its_residual(family):
    # the 0.01-pivot factor alone puts these states up to 9.1e-15 (target_z)
    # and 4.4e-15 (twisted_xy) from the refined solve; one residual
    # correction brings them within 6.7e-16 and 1.2e-16. A solve given a
    # certificate, which computes no gap (each chain again with its own: the
    # identity is an exact map too), bath-inverted partners and the N=4
    # twisted_xy block of 256 rows, above the cap, get the same correction.
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(300):
        liouv = _random_small_generator(rng, family)
        cases += [(liouv, None), (liouv, steady_state(liouv).certificate)]
    for n_sites in (3, 4):
        forward, inverted = _graded_pair(n_sites, family)
        cases += [(forward, None), (inverted, steady_state(forward).certificate)]
    for liouv, certificate in cases:
        bordered, index = liouv._assemble(q0=True, border=True)
        rhs = np.zeros(index.size, dtype=complex)
        rhs[0] = 1.0 / liouv.dim
        reference = _trace_one_state(liouv, _refined_solve(bordered, rhs), index)
        rho = steady_state(liouv, certificate=certificate).rho
        assert np.abs(rho - reference).max() <= 1e-15


@pytest.mark.parametrize("name", ["steady_n3.json", "symmetry_n3.json", "symmetry_n4.json"])
def test_norm_bound_state_matches_the_eigensolve_on_the_config_chains(name):
    # the configs whose blocks are under the cap (the others are N >= 4
    # twisted_xy or N >= 5), with every bath a symmetry run solves, against
    # the null vector of a dense eig of the solve block
    config = load_config(Path(__file__).parent / "configs" / name)
    spec, bath = config.model.chain, config.bath
    baths = {bath}
    if name.startswith("symmetry"):
        baths |= {bath.inverted()} | {each for drive in bath.scan_grid
                                      for each in (bath.with_drive(drive),
                                                   bath.with_drive(drive).inverted())}
    for diss in baths:
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, spec.n_sites))
        solved = steady_state(liouv)
        assert solved.certificate.route == "norm_bound"
        block, index = liouv._assemble(q0=True)
        values, vectors = scipy.linalg.eig(block.toarray())
        eigensolved = _trace_one_state(liouv, vectors[:, np.argmin(np.abs(values))], index)
        assert np.abs(solved.rho - eigensolved).max() <= 1e-15, diss


@pytest.mark.parametrize("n_sites, family", [(5, "target_z"), (5, "twisted_xy"),
                                             (4, "twisted_xy")])
def test_a_block_above_the_cap_is_only_eigensolved(monkeypatch, n_sites, family):
    # blocks of 252, 1024 and 256: one bordered assembly, one factor and one
    # eigensolve, and no solve with a matrix right-hand side
    assemblies, factors, right_hand_sides, eigensolves = [], [], [], []
    assemble = lindblad.Liouvillian._assemble

    def recording_assemble(self, *args, **kwargs):
        assemblies.append((args, kwargs))
        return assemble(self, *args, **kwargs)

    class RecordingFactor:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs):
            right_hand_sides.append(np.shape(rhs))
            return self.factor.solve(rhs)

    splu, eigs = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigs
    monkeypatch.setattr(lindblad.Liouvillian, "_assemble", recording_assemble)
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda matrix, **kwargs: factors.append(kwargs)
                        or RecordingFactor(splu(matrix, **kwargs)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                        lambda *args, **kwargs: eigensolves.append(args) or eigs(*args, **kwargs))
    liouv, _ = _graded_pair(n_sites, family)
    assert steady_state(liouv).certificate.route == "eigensolve"
    assert assemblies == [((), {"q0": True, "border": True})]
    assert factors == [lindblad._FACTOR_OPTIONS]
    assert len(eigensolves) == 1
    assert right_hand_sides and all(len(shape) == 1 for shape in right_hand_sides)


def test_a_one_qubit_block_is_eigensolved_densely(monkeypatch):
    # ARPACK needs more than 3 rows: a one-site q=0 block (2 rows) whose norm
    # bound gamma falls below the tolerance gets its gap 2 gamma from a dense
    # eig, and is accepted or refused on it
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", lambda *args, **kwargs: pytest.fail("eigs"))
    spec = ChainSpec(1, alpha=1.0, delta=(), b_field=(0.3,))
    liouv, refused = (build_liouvillian(build_hamiltonian(spec),
                                        jump_operators(TargetZ(0.5, -0.5, gamma=gamma), 1))
                      for gamma in (6e-11, 1e-12))
    certificate = steady_state(liouv).certificate
    assert (certificate.route, certificate.q0) == ("eigensolve", True)
    assert certificate.magnitudes[1] == pytest.approx(1.2e-10, rel=1e-8)
    assert _refusal_message(refused) == ("the two eigenvalues nearest zero have magnitudes "
                                         "0.000e+00 and 2.000e-12, both below 1.0e-10; the "
                                         "steady state is not unique")


def test_bath_family_facts():
    assert (TargetZ.family, TwistedXY.family) == ("target_z", "twisted_xy")
    assert "family" not in dataclasses.asdict(TargetZ(0.3, -0.3))
    assert TargetZ(0.1, 0.2, gamma=1.3).with_drive(0.4) == TargetZ(0.4, -0.4, gamma=1.3)
    assert TwistedXY(0.1, 0.2, rate=0.7, swapped=True).with_drive(0.4) == TwistedXY(
        0.4, -0.4, rate=0.7, swapped=True)
    assert (TargetZ(0.3, -0.1).drive, TwistedXY(0.6, 0.2).drive) == (0.3, 0.6)
    # the default direction-scan drives: a fixed grid for target_z, the own k for twisted_xy
    assert TargetZ(0.3, -0.3, gamma=1.3).scan_grid == (0.2, 0.5, 0.8)
    assert TwistedXY(0.6, -0.6, rate=0.7).scan_grid == (0.6,)


def test_three_site_graded_residual_and_validity():
    spec = expand_graded(GradedProfile(1.0, 0.5), 3)
    liouv = build_liouvillian(
        build_hamiltonian(spec), jump_operators(TargetZ(0.5, -0.5), 3)
    )
    rho = steady_state(liouv).rho
    assert liouvillian_residual(liouv, rho) < 1e-9
    diag = validate_state(rho)
    assert diag.trace_error < 1e-10
    assert diag.hermiticity_error < 1e-10
    assert diag.min_eigenvalue > -1e-9


def test_steady_state_unique_for_randomized_parameters():
    rng = np.random.default_rng(24)
    cfg = SolverConfig()
    for _ in range(8):
        n_sites = int(rng.integers(2, 5))
        deltas = tuple(rng.uniform(0.2, 1.5, n_sites - 1))
        b = tuple(rng.uniform(-0.5, 0.5, n_sites))
        spec = ChainSpec(n_sites, alpha=1.0, delta=deltas, b_field=b)
        if rng.random() < 0.5:
            diss = TargetZ(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                           gamma=rng.uniform(0.5, 2.0))
        else:
            diss = TwistedXY(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                             rate=rng.uniform(0.5, 2.0))
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
        values = np.linalg.eigvals(liouv.matrix.toarray())
        assert np.count_nonzero(np.abs(values) < cfg.unique_tol) == 1
        steady_state(liouv)  # must not raise


def test_pure_dephasing_detected_as_non_unique():
    # a lone z jump preserves every diagonal state
    liouv = build_liouvillian(np.zeros((2, 2)), [pauli("z")])
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(liouv)


def _full_eig_oracle(liouv):
    """Trace-one null vector and second eigenvalue magnitude of a full dense eig."""
    values, vectors = scipy.linalg.eig(liouv.matrix.toarray())
    order = np.argsort(np.abs(values))
    oracle = unvectorize(vectors[:, order[0]])
    return oracle / np.trace(oracle), abs(values[order[1]])


def _assert_certified_gap(liouv, certificate, gap):
    """The certificate's magnitudes against the oracle's |lambda_2|: the gap
    itself on ``"eigensolve"``, a lower bound on ``"norm_bound"``, whose block
    the eigensolve must then match too."""
    low, certified = certificate.magnitudes
    assert low == 0.0 < SolverConfig().unique_tol
    if certificate.route == "norm_bound":
        assert certified <= gap
        certified = _eigensolved_gap(liouv)
    assert certified == pytest.approx(gap, rel=1e-8)


def test_dense_null_matches_full_eig_oracle():
    # independent oracle: null vector of a full dense eigendecomposition
    rng = np.random.default_rng(25)
    for trial in range(8):
        n_sites = int(rng.integers(3, 5))
        profile = GradedProfile(rng.uniform(0.8, 1.4), rng.uniform(0.1, 0.5))
        spec = expand_graded(profile, n_sites, b_field=rng.uniform(0.2, 1.0))
        if trial % 2 == 0:
            diss = TargetZ(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                           gamma=rng.uniform(0.5, 2.0))
        else:
            diss = TwistedXY(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                             rate=rng.uniform(0.5, 2.0))
        liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
        oracle, gap = _full_eig_oracle(liouv)
        solved = steady_state(liouv)
        assert np.abs(solved.rho - oracle).max() < 1e-12, (trial, diss)
        _assert_certified_gap(liouv, solved.certificate, gap)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
@pytest.mark.parametrize("b", [0.0, 0.3])
def test_target_z_block_solve_matches_full_eig_oracle(n_sites, b):
    # independent oracle: null vector and second magnitude of a full-space eig
    spec = ChainSpec(n_sites, alpha=1.0, delta=tuple(np.linspace(0.5, 1.5, n_sites - 1)),
                     b_field=(b,) * n_sites)
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(TargetZ(0.5, -0.5), n_sites))
    oracle, gap = _full_eig_oracle(liouv)
    solved = steady_state(liouv)
    assert solved.rho.shape == (2**n_sites, 2**n_sites)
    assert np.abs(solved.rho - oracle).max() < 1e-12
    assert solved.certificate.q0
    # on these chains the full spectrum's second magnitude lies in the q=0 sector
    _assert_certified_gap(liouv, solved.certificate, gap)


@st.composite
def _magnetization_conserving_generators(draw):
    """A random generator on 1-3 qubits with a weak U(1) symmetry: H couples
    only basis states of equal magnetization, and the jumps are site
    sigma+/sigma-/sigma_z with rates from a discrete set that includes 0."""
    n_qubits = draw(st.integers(1, 3))
    dim = 2**n_qubits
    ones = [bin(i).count("1") for i in range(dim)]
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(i, dim):
            if ones[i] == ones[j]:
                value = draw(st.integers(-1, 1)) + (1j * draw(st.integers(-1, 1)) if j > i else 0)
                h[i, j], h[j, i] = value, np.conj(value)
    jumps = [math.sqrt(draw(st.sampled_from((0.0, 0.5, 2.0)))) * embed(pauli(name), site, n_qubits)
             for site in range(1, n_qubits + 1) for name in ("plus", "minus", "z")]
    return build_liouvillian(h, jumps)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(liouv=_magnetization_conserving_generators())
def test_q0_block_refuses_exactly_when_the_full_kernel_is_degenerate(liouv):
    magnitudes = np.abs(scipy.linalg.eigvals(liouv.matrix.toarray()))
    if np.count_nonzero(magnitudes < SolverConfig().unique_tol) >= 2:
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(liouv)
    else:
        steady_state(liouv)  # must not raise


# The borderline set: graded chain 1 +- 0.5, field 0.3, drive 0.5; alpha small
# at rate 1, rate (gamma or rate) small at alpha 1, and both small together.
_BORDERLINE_SETTINGS = ([(10.0**-e, 1.0) for e in range(3, 10)]
                        + [(1.0, 10.0**-e) for e in range(4, 11)]
                        + [(1e-3, 1e-4), (1e-6, 1e-7), (1e-9, 1e-10)])
# the settings refused as non-unique, per (family, n_sites); every other one is accepted
_BORDERLINE_REFUSED = {
    ("target_z", 3): {(1e-6, 1.0), (1e-7, 1.0), (1e-8, 1.0), (1e-9, 1.0), (1.0, 1e-10),
                      (1e-6, 1e-7), (1e-9, 1e-10)},
    ("twisted_xy", 3): {(1e-6, 1.0), (1e-7, 1.0), (1e-8, 1.0), (1e-9, 1.0),
                        (1e-6, 1e-7), (1e-9, 1e-10)},
    ("target_z", 4): {(1e-5, 1.0), (1e-6, 1.0), (1e-7, 1.0), (1e-8, 1.0), (1e-9, 1.0),
                      (1.0, 1e-10), (1e-6, 1e-7), (1e-9, 1e-10)},
    ("twisted_xy", 4): {(1e-6, 1.0), (1e-7, 1.0), (1e-8, 1.0), (1e-9, 1.0), (1.0, 1e-10),
                        (1e-6, 1e-7), (1e-9, 1e-10)},
}


@pytest.mark.parametrize("n_sites", [3, 4])
@pytest.mark.parametrize("family", ["target_z", "twisted_xy"])
@pytest.mark.parametrize("alpha, rate", _BORDERLINE_SETTINGS,
                         ids=[f"alpha{a:g}-rate{r:g}" for a, r in _BORDERLINE_SETTINGS])
def test_borderline_uniqueness_outcomes_are_pinned(n_sites, family, alpha, rate):
    spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, alpha=alpha, b_field=0.3)
    diss = TargetZ(0.5, -0.5, gamma=rate) if family == "target_z" else TwistedXY(0.5, -0.5, rate=rate)
    liouv = build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    if (alpha, rate) in _BORDERLINE_REFUSED[family, n_sites]:
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(liouv)
    else:
        assert steady_state(liouv).residual <= SolverConfig().residual_tol


def _small_block_refusals():
    """Generators under the norm bound's cap that are refused: the refused
    borderline pins, decoupled (alpha = 0) chains and the stalling chain."""
    for (family, n_sites), refused in sorted(_BORDERLINE_REFUSED.items()):
        if (family, n_sites) == ("twisted_xy", 4):  # 256: above the cap
            continue
        for alpha, rate in sorted(refused):
            spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, alpha=alpha, b_field=0.3)
            diss = (TargetZ(0.5, -0.5, gamma=rate) if family == "target_z"
                    else TwistedXY(0.5, -0.5, rate=rate))
            yield build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    for n_sites, diss in [(3, TargetZ(0.5, -0.5)), (4, TargetZ(0.5, -0.5)),
                          (3, TwistedXY(0.6, -0.3))]:
        spec = expand_graded(GradedProfile(1.0, 0.5), n_sites, alpha=0.0, b_field=0.3)
        yield build_liouvillian(build_hamiltonian(spec), jump_operators(diss, n_sites))
    yield _stalling_chain(4)


def test_small_block_refusals_come_from_the_eigensolve(monkeypatch):
    # the norm bound falls short (or the factor is singular), and the gap
    # eigensolve on the same factor refuses: one factor and at most one
    # eigensolve per solve, and the same message on every run
    factors, eigensolves = [], []
    splu, eigs = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigs
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda matrix, **kwargs: factors.append(kwargs) or splu(matrix, **kwargs))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                        lambda *args, **kwargs: eigensolves.append(args) or eigs(*args, **kwargs))
    cases = 0
    for cases, liouv in enumerate(_small_block_refusals(), start=1):
        messages = {_refusal_message(liouv) for _ in range(3)}
        assert len(messages) == 1
        assert re.search(r"magnitudes \S+ and \S+", messages.pop())
    assert cases == 7 + 6 + 8 + 3 + 1
    assert len(factors) == 3 * cases
    # one eigensolve each but for the decoupled N=3 target_z block, which is
    # exactly singular and so refused at its factor
    assert len(eigensolves) == 3 * (cases - 1)


@pytest.mark.parametrize("n_sites", [3, 4])
@pytest.mark.parametrize("diss", [TargetZ(0.5, -0.5), TwistedXY(0.6, -0.3)])
@pytest.mark.parametrize("method", ["dense_null", "auto"])
def test_decoupled_chain_detected_as_non_unique(tmp_path, capsys, n_sites, diss, method):
    # alpha = 0 leaves the interior z-spins conserved: one steady state per sector
    spec = ChainSpec(
        n_sites, alpha=0.0, delta=tuple(np.linspace(0.5, 1.5, n_sites - 1)),
        b_field=(0.3,) * n_sites,
    )
    with pytest.raises(NonUniqueSteadyStateError, match=r"magnitudes \S+ and \S+"):
        chain_steady_state(spec, diss)
    # either spelling of the solver in a config file is a solver error (exit 1)
    bath = {key: value for key, value in dataclasses.asdict(diss).items() if key != "swapped"}
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "model": {"n_sites": n_sites, "alpha": 0.0, "delta": list(spec.delta),
                  "b_field": list(spec.b_field)},
        "bath": {"family": diss.family, **bath},
        "solver": {"method": method},
        "output": {"path": str(tmp_path / "out.csv")},
    }))
    assert main(["steady", "--config", str(config)]) == 1
    assert re.search(r"solver error: .*magnitudes \S+ and \S+", capsys.readouterr().err)


def test_method_resolution_and_size_guards():
    # the config spellings of the one solver; the library takes no method
    assert STEADY_METHODS == ("auto", "dense_null")
    for n_sites in (1, 6, 7):
        require_max_sites(n_sites)
    # the guard compares site counts, so a huge count gives a short message
    for n_sites in (8, 100_000):
        with pytest.raises(SpecError, match=f"^a chain of {n_sites} sites exceeds the solver "
                                            "limit of 7 sites$"):
            require_max_sites(n_sites)
    # steady_state counts the qubits of its generator: above 2^7 it needs eight
    for dim in (129, 256):
        liouv = build_liouvillian(np.zeros((dim, dim)), [np.eye(dim)])
        with pytest.raises(SpecError, match="a chain of 8 sites exceeds"):
            steady_state(liouv)
        assert "matrix" not in vars(liouv)  # refused before the generator was assembled


# --- expectations and currents --------------------------------------------------


def test_expectation_maximally_mixed():
    rho = np.eye(8) / 8
    spec = ChainSpec(3, alpha=1.0, delta=(1.0, 1.0), b_field=(0.0,) * 3)
    assert expectation(rho, embed(pauli("z"), 1, 3)) == pytest.approx(0.0, abs=1e-15)
    assert expectation(rho, np.eye(8)) == pytest.approx(1.0, abs=1e-15)


def test_expectation_guards():
    with pytest.raises(ShapeError):
        expectation(np.eye(2) / 2, np.eye(4))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        expectation(np.array([[0.5, 0.5j], [-0.5j, 0.5]]), skew)


def test_homogeneous_chain_carries_no_exchange_energy_current():
    spec = ChainSpec(3, alpha=1.0, delta=(1.0, 1.0), b_field=(0.0,) * 3)
    rho = chain_steady_state(spec, TargetZ(0.7, -0.7)).rho
    profile = currents_profile(rho, spec)
    assert max(abs(v) for v in profile.energy_xxz) < 1e-9
    assert profile.spin_spread < 1e-9


def test_graded_chain_energy_current_sign_follows_step():
    plus = expand_graded(GradedProfile(1.0, 0.5), 3)
    minus = expand_graded(GradedProfile(1.0, -0.5), 3)
    diss = TargetZ(0.5, -0.5)
    f_plus = currents_profile(chain_steady_state(plus, diss).rho, plus).energy_xxz[0]
    f_minus = currents_profile(chain_steady_state(minus, diss).rho, minus).energy_xxz[0]
    assert f_plus > 1e-6
    assert f_minus < -1e-6
    assert abs(f_plus + f_minus) < 1e-9  # mirror of the profile flips the sign


def test_four_site_current_uniformity():
    spec = expand_graded(GradedProfile(1.0, 0.5), 4)
    rho = chain_steady_state(spec, TargetZ(0.5, -0.5)).rho
    profile = currents_profile(rho, spec)
    assert profile.spin_spread < 1e-9
    assert profile.energy_xxz_spread < 1e-9
    assert profile.energy_total_spread < 1e-9


def test_two_site_profile_has_empty_energy_lists():
    spec = ChainSpec(2, alpha=1.0, delta=(1.0,), b_field=(0.0, 0.0))
    rho = chain_steady_state(spec, TargetZ(0.5, -0.5)).rho
    profile = currents_profile(rho, spec)
    assert profile.energy_xxz == ()
    assert profile.energy_total == ()
    assert profile.energy_xxz_spread == 0.0


def test_uniform_field_leaves_spin_conserving_expectations():
    diss = TargetZ(0.5, -0.5)
    base = expand_graded(GradedProfile(1.0, 0.5), 3)
    shifted = expand_graded(GradedProfile(1.0, 0.5), 3, b_field=0.7)
    p0 = currents_profile(chain_steady_state(base, diss).rho, base)
    p1 = currents_profile(chain_steady_state(shifted, diss).rho, shifted)
    assert abs(p0.spin[0] - p1.spin[0]) < 1e-8
    assert abs(p0.energy_xxz[0] - p1.energy_xxz[0]) < 1e-8


def test_state_diagnostics_reports():
    rho = np.diag([0.6, 0.4]).astype(complex)
    diag = state_diagnostics(rho)
    assert diag.trace_error < 1e-15
    assert diag.hermiticity_error == 0.0
    assert diag.min_eigenvalue == pytest.approx(0.4)
    with pytest.raises(NumericalError):
        validate_state(np.diag([0.9, 0.4]))
