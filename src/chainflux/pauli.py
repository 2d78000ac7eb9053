"""Dense spin-1/2 operator algebra for small chains.

Operators are plain complex numpy arrays. Site 1 is the leftmost tensor
factor, i.e. the most significant bit of the computational-basis index.
A k-site operator is a 2^k x 2^k matrix (built with ``kron_chain``) that
``embed`` places on k consecutive sites of the chain. Both fill their output
by index arithmetic and broadcasting instead of generic ``np.kron`` calls; the
entries equal those of the nested ``np.kron`` products.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyChainError, ShapeError

PAULI_AXES = ("x", "y", "z", "plus", "minus", "r", "identity")

_MATRICES = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
    # unitary that swaps the x and y axes while flipping z
    "r": np.array([[0, 1], [1j, 0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Return the 2x2 matrix for one of the axis tags in PAULI_AXES.

    ``plus`` and ``minus`` follow the ladder convention (x +- i y)/2, so
    ``pauli("plus")`` maps the lower z-eigenstate to the upper one.
    """
    try:
        return _MATRICES[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of {PAULI_AXES}") from None


def _as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def embed(op, site: int, n_sites: int) -> np.ndarray:
    """Place a 2^k x 2^k operator on sites ``site..site+k-1`` (1-based) of an
    ``n_sites`` chain, as kron(I_left, op, I_right)."""
    op = _as_operator(op)
    k = op.shape[0].bit_length() - 1
    if k < 1 or op.shape[0] != 2**k:
        raise ShapeError(f"embed expects a 2^k x 2^k operator (k >= 1), got shape {op.shape}")
    if not 1 <= site <= n_sites - k + 1:
        raise IndexError(f"a {k}-site operator at site {site} does not fit sites 1..{n_sites}")
    left, right, d = 2 ** (site - 1), 2 ** (n_sites - site - k + 1), op.shape[0]
    # out[(a i r), (b j s)] = delta_ab op[i, j] delta_rs: write op into the
    # (a, r) == (b, s) blocks of the zero tensor
    out = np.zeros((left, d, right, left, d, right), dtype=complex)
    a, r = np.arange(left)[:, None], np.arange(right)[None, :]
    out[a, :, r, a, :, r] = op
    return out.reshape(2**n_sites, 2**n_sites)


def kron_chain(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Ordered tensor product of 2x2 factors, first entry leftmost."""
    if len(ops) == 0:
        raise EmptyChainError("cannot build a tensor product over zero sites")
    factors = []
    for op in ops:
        op = _as_operator(op)
        if op.shape != (2, 2):
            raise ShapeError(f"kron_chain expects 2x2 factors, got shape {op.shape}")
        factors.append(op)
    out = factors[0]
    for op in factors[1:]:
        # out[(I i), (J j)] = out[I, J] * op[i, j], multiplied in np.kron's order
        d = 2 * out.shape[0]
        out = (out[:, None, :, None] * op[None, :, None, :]).reshape(d, d)
    return out

