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
t1..t5 from those coordinates and assembles the full two-party operator
sum_ij a_ij ti (x) tj.

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

import functools
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class TOperators:
    """Commutant generators on one party's triple.

    t1, t2, t3 are the orthogonal projectors onto the two equivalent
    blocks and the remainder; t4 and t5 are the Hermitian and
    anti-Hermitian-made-Hermitian combinations of the intertwiner.
    The value is immutable: construction stores read-only copies of
    t1..t5, so later edits to the caller's arrays do not reach it.
    It compares and hashes by identity, so the parts built from it
    (channel.constraint_matrices, the programs of sdp.build_problem)
    are cached per object.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t5: np.ndarray

    def __post_init__(self) -> None:
        for name in ("t1", "t2", "t3", "t4", "t5"):
            op = np.array(getattr(self, name))
            op.flags.writeable = False
            object.__setattr__(self, name, op)

    def as_list(self) -> list[np.ndarray]:
        return [self.t1, self.t2, self.t3, self.t4, self.t5]


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element from a normalized normal quaternion."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def triple_rep(u: np.ndarray) -> np.ndarray:
    """Action of a local unitary on (clone 1, clone 2, input): u (x) u (x) u*."""
    return np.kron(np.kron(u, u), u.conj())


def two_party_rep(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Joint action on the Choi order (1A,1B,2A,2B,A,B): ab (x) ab (x) ab* with ab = u_a (x) u_b."""
    ab = np.kron(u_a, u_b)
    return np.kron(np.kron(ab, ab), ab.conj())


def _from_blocks(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Operators V (X_i (x) I2) V^dag + c_i (I8 - V V^dag) as an (n, 8, 8) stack."""
    v = BLOCK_BASIS
    return v @ np.kron(x, np.eye(2)) @ v.T + np.asarray(c)[:, None, None] * (np.eye(8) - v @ v.T)


def build_t_operators() -> TOperators:
    """Build t1..t5 from their M2 (+) C coordinates BLOCK_X, BLOCK_C."""
    return TOperators(*_from_blocks(BLOCK_X, BLOCK_C))


# The one operator set every t parameter of the package defaults to.
T_OPERATORS = build_t_operators()


def _choi_order(products: np.ndarray) -> np.ndarray:
    """64x64 arrays indexed (Alice row, Alice column) by (Bob row, Bob column), on the Choi order.

    products is one such array or a stack (..., 64, 64); the leading axes are kept.
    """
    return products.reshape(*products.shape[:-2], 4096)[..., _CHOI_INDEX]


def assemble_ptilde(a: np.ndarray, t: TOperators = T_OPERATORS) -> np.ndarray:
    """Assemble sum_ij a_ij ti (x) tj, Alice's ti and Bob's tj, on the Choi order.

    The sum is sum_i ti (x) (sum_j a_ij tj): one product of the flattened
    ti with their a-weighted sums gives the entries indexed (Alice row,
    Alice column) by (Bob row, Bob column), then one gather puts them on
    the Choi order.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"parameter matrix must be 5x5, got {a.shape}")
    ts = _flat_stack(t)
    return _choi_order(ts.T @ (a @ ts))


@functools.lru_cache(maxsize=1)
def _flat_stack(t: TOperators) -> np.ndarray:
    """t1..t5 flattened to a read-only (5, 64) stack, kept for the last t object."""
    ts = np.array(t.as_list()).reshape(5, 64)
    ts.flags.writeable = False
    return ts


def commutant_blocks(t: TOperators = T_OPERATORS) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of t1..t5 in M2 (+) C: 2x2 blocks X of shape (5, 2, 2) and scalars c of shape (5,).

    Each ti is V (X_i (x) I2) V^dag + c_i (I8 - V V^dag) with V =
    BLOCK_BASIS: X_i is read off V^dag ti V and acts on (m1_k, m2_k)
    alike for k = 0, 1, and c_i is Tr[(I8 - V V^dag) ti] / 4, its trace
    on the four-dimensional complement.
    Raises RuntimeError if t departs from that structure by more than
    1e-12.
    """
    ts = np.stack(t.as_list())
    b = BLOCK_BASIS.T @ ts @ BLOCK_BASIS
    x = b[:, 0::2, 0::2]
    # Exactly Hermitian blocks keep every real combination of their
    # products exactly Hermitian, so the solver never re-symmetrizes.
    x = (x + np.conj(np.swapaxes(x, 1, 2))) / 2
    c = (np.trace(ts, axis1=1, axis2=2) - np.trace(b, axis1=1, axis2=2)).real / 4
    if np.abs(ts - _from_blocks(x, c)).max() > 1e-12:
        raise RuntimeError("t1..t5 do not split into M2 (+) C blocks in the invariant basis")
    return x, c


def basis_stack(t: TOperators = T_OPERATORS) -> np.ndarray:
    """All 25 products ti (x) tj on the Choi order as a (25, 64, 64) stack, row-major in (i, j)."""
    ts = _flat_stack(t)
    return _choi_order(np.einsum("ix,jy->ijxy", ts, ts).reshape(25, 64, 64))


def partial_transpose_b(ptilde: np.ndarray) -> np.ndarray:
    """Partial transpose over Bob's qubits (1B,2B,B), Choi positions 1, 3 and 5, of a 64x64 operator."""
    return np.asarray(ptilde).reshape(4096)[_TRANSPOSE_B_INDEX]
