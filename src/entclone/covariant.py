"""Covariant operator family for the two-clones-plus-input qubit triple.

A cloner that treats every local basis the same commutes with
U (x) U (x) U* applied per party to (clone 1, clone 2, input).  On one
party's eight-dimensional triple that action decomposes as
spin 3/2 (+) spin 1/2 (+) spin 1/2: two equivalent two-dimensional
invariant subspaces and a four-dimensional remainder, so its commutant
is M2 (+) C, of dimension 5.  The module holds that decomposition as
constants: the isometry BLOCK_BASIS onto the two equivalent blocks and
the M2 (+) C coordinates BLOCK_X, BLOCK_C of the five operators t1..t5
spanning the commutant (three projectors plus the Hermitian pair built
from the intertwiner between the two equivalent blocks).  It builds
t1..t5 from those coordinates once, as the read-only (5, 8, 8) array
T_OPERATORS, and assembles the full two-party operator
sum_ij a_ij ti (x) tj.

The package runs on that one operator set.  The tables channel and sdp
hold as literals (the functional, the equality rows, the cone forms)
describe it, and tests/reference.py derives each of them from t1..t5.
A t parameter is left only on the five functions the benchmark passes
one to (assemble_ptilde, channel_from_params, fidelity_coefficients,
build_problem and solve_sweep); each defaults to T_OPERATORS,
build_t_operators returns it, and check_t refuses any other object,
an equal copy included, with ValueError.

Every 64x64 operator is on the Choi order (1A,1B,2A,2B,A,B) that
channel reads: the four output qubits, then the two inputs, so Bob's
qubits sit at positions 1, 3 and 5.  assemble_ptilde and basis_stack
form products indexed (Alice row, Alice column) by (Bob row, Bob
column) and move them to that order with one gather through a
read-only 4096-entry index table, the flat form of the 12-axis qubit
transpose; partial_transpose_b gathers through a second table that
swaps the row and column index of Bob's qubits.
"""

from __future__ import annotations

import numpy as np

# A product of Alice's and Bob's 8x8 operators has 12 qubit axes:
# Alice's (1A,2A,A) rows 0-2 and columns 3-5, then Bob's (1B,2B,B) rows
# 6-8 and columns 9-11.  This transpose gives Choi-order rows, then columns.
_PARTIES_TO_CHOI = (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)
# Bob's rows (Choi positions 1, 3, 5) swapped with his columns (7, 9, 11).
_TRANSPOSE_B = (0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10, 5)


def _flat_permutation(axes: tuple[int, ...]) -> np.ndarray:
    """Read-only (64, 64) table of the flat source index each entry of a 12-qubit-axis transpose reads."""
    index = np.arange(4096).reshape((2,) * 12).transpose(axes).reshape(64, 64).copy()
    index.flags.writeable = False
    return index


# Gathering a flattened 64x64 array through one of these tables is the
# transpose above, bit for bit, in one indexing pass.
_CHOI_INDEX = _flat_permutation(_PARTIES_TO_CHOI)
_TRANSPOSE_B_INDEX = _flat_permutation(_TRANSPOSE_B)

_E = np.eye(8)
# Columns m1_0, m1_1, m2_0, m2_1: the antisymmetric pair state tensored
# with either input basis vector, then the symmetric-triple combinations
# orthogonal to it, signed so that m1_k -> m2_k commutes with the triple
# action.  Index 2b + k holds block b's vector k.  The columns are real,
# so V^dag is V.T.
BLOCK_BASIS = np.stack(
    [
        (_E[3] - _E[5]) / np.sqrt(2),
        (_E[2] - _E[4]) / np.sqrt(2),
        (2 * _E[0] + _E[3] + _E[5]) / np.sqrt(6),
        -(_E[2] + _E[4] + 2 * _E[7]) / np.sqrt(6),
    ],
    axis=1,
)
# ti = V (X_i (x) I2) V^dag + c_i (I8 - V V^dag) with V = BLOCK_BASIS:
# the two block projectors, the remainder, and the intertwiner
# t12 = sum_k |m2_k><m1_k| made Hermitian as t12 + t21 and i t12 - i t21.
BLOCK_X = np.array(
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]],
    dtype=complex,
)
BLOCK_C = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
for _table in (BLOCK_BASIS, BLOCK_X, BLOCK_C):
    _table.flags.writeable = False


def _from_blocks(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Operators V (X_i (x) I2) V^dag + c_i (I8 - V V^dag) as an (n, 8, 8) stack."""
    v = BLOCK_BASIS
    return v @ np.kron(x, np.eye(2)) @ v.T + np.asarray(c)[:, None, None] * (np.eye(8) - v @ v.T)


# The commutant generators on one party's triple, a read-only (5, 8, 8) array:
# t1, t2, t3 project onto the two equivalent blocks and the remainder, and t4,
# t5 are the intertwiner made Hermitian.  Every t parameter defaults to it and
# accepts it alone.
T_OPERATORS = _from_blocks(BLOCK_X, BLOCK_C)
T_OPERATORS.flags.writeable = False
# t1..t5 flattened: a read-only (5, 64) view of T_OPERATORS.
_STACK = T_OPERATORS.reshape(5, 64)


def build_t_operators() -> np.ndarray:
    """The commutant generators t1..t5: T_OPERATORS, built once from BLOCK_X, BLOCK_C."""
    return T_OPERATORS


def check_t(t: np.ndarray) -> None:
    """Raise ValueError unless t is T_OPERATORS, the operator set the package's literal tables describe."""
    if t is not T_OPERATORS:
        raise ValueError("t must be covariant.T_OPERATORS, the operator set build_t_operators() returns")


def _choi_order(products: np.ndarray) -> np.ndarray:
    """64x64 arrays indexed (Alice row, Alice column) by (Bob row, Bob column), on the Choi order.

    products is one such array or a stack (..., 64, 64); the leading axes are kept.
    """
    return products.reshape(*products.shape[:-2], 4096)[..., _CHOI_INDEX]


def assemble_ptilde(a: np.ndarray, t: np.ndarray = T_OPERATORS) -> np.ndarray:
    """Assemble sum_ij a_ij ti (x) tj, Alice's ti and Bob's tj, on the Choi order.

    The sum is sum_i ti (x) (sum_j a_ij tj): one product of the flattened
    ti with their a-weighted sums gives the entries indexed (Alice row,
    Alice column) by (Bob row, Bob column), then one gather puts them on
    the Choi order.  t must be T_OPERATORS (see check_t).
    """
    check_t(t)
    a = np.asarray(a, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"parameter matrix must be 5x5, got {a.shape}")
    return _choi_order(_STACK.T @ (a @ _STACK))


def basis_stack() -> np.ndarray:
    """All 25 products ti (x) tj on the Choi order as a (25, 64, 64) stack, row-major in (i, j)."""
    return _choi_order(np.einsum("ix,jy->ijxy", _STACK, _STACK).reshape(25, 64, 64))


def partial_transpose_b(ptilde: np.ndarray) -> np.ndarray:
    """Partial transpose over Bob's qubits (1B,2B,B), Choi positions 1, 3 and 5, of a 64x64 operator."""
    return np.asarray(ptilde).reshape(4096)[_TRANSPOSE_B_INDEX]
