"""Dense spin-1/2 operator algebra for small chains.

Operators are plain complex numpy arrays. Site 1 is the leftmost tensor
factor, i.e. the most significant bit of the computational-basis index.
A k-site operator is a 2^k x 2^k matrix (built with ``kron_chain``) that
``embed`` places on k consecutive sites of the chain.
"""

from __future__ import annotations

from functools import reduce
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
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n_sites - site - k + 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


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
    return reduce(np.kron, factors)

