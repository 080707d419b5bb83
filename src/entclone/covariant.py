"""Covariant operator family for the two-clones-plus-input qubit triple.

A cloner that treats every local basis the same commutes with
U (x) U (x) U* applied per party to (clone 1, clone 2, input).  On one
party's eight-dimensional triple that action decomposes as
spin 3/2 (+) spin 1/2 (+) spin 1/2: two equivalent two-dimensional
invariant subspaces and a four-dimensional remainder, so its commutant
is M2 (+) C, of dimension 5.  The module builds an orthonormal basis
adapted to that decomposition and, in closed form, the five operators
t1..t5 spanning the commutant: three projectors plus the Hermitian pair
built from the intertwiner between the two equivalent blocks.  It then
assembles the full two-party operator sum_ij a_ij ti (x) tj on the
(1A,2A,A,1B,2B,B) factor order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entclone.linalg import SubsystemLayout, permute_subsystems

PTILDE_LAYOUT = SubsystemLayout((("1A", 2), ("2A", 2), ("A", 2), ("1B", 2), ("2B", 2), ("B", 2)))
CHOI_LAYOUT = SubsystemLayout((("1A", 2), ("1B", 2), ("2A", 2), ("2B", 2), ("A", 2), ("B", 2)))


@dataclass(frozen=True)
class InvariantBasis:
    """Orthonormal vectors spanning the invariant subspaces of one triple.

    m1 and m2 each hold two rows (the equivalent two-dimensional blocks),
    m3 holds the four rows completing the basis.
    """

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.vstack([self.m1, self.m2, self.m3])


@dataclass(frozen=True)
class TOperators:
    """Commutant generators on one party's triple.

    t1, t2, t3 are the orthogonal projectors onto the two equivalent
    blocks and the remainder; t4 and t5 are the Hermitian and
    anti-Hermitian-made-Hermitian combinations of the intertwiner.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t5: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.t1, self.t2, self.t3, self.t4, self.t5]


def build_invariant_basis() -> InvariantBasis:
    """Construct the adapted basis with a deterministic completion.

    The first block is spanned by the antisymmetric pair state tensored
    with either input basis vector; the second by the symmetric-triple
    combinations orthogonal to it, signed so that m1_k -> m2_k commutes
    with the triple action.  The remainder is completed by Gram-Schmidt
    over the standard basis in index order.
    """
    e = np.eye(8, dtype=complex)
    m1 = np.stack([(e[3] - e[5]) / np.sqrt(2), (e[2] - e[4]) / np.sqrt(2)])
    m2 = np.stack([(2 * e[0] + e[3] + e[5]) / np.sqrt(6), -(e[2] + e[4] + 2 * e[7]) / np.sqrt(6)])
    accepted = [m1[0], m1[1], m2[0], m2[1]]
    m3: list[np.ndarray] = []
    for k in range(8):
        v = e[k].copy()
        for w in accepted + m3:
            v = v - (w.conj() @ v) * w
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            m3.append(v / nrm)
    if len(m3) != 4:
        raise RuntimeError(f"basis completion produced {len(m3)} vectors, expected 4")
    return InvariantBasis(m1=m1, m2=m2, m3=np.stack(m3))


def triple_rep(u: np.ndarray) -> np.ndarray:
    """Action of a local unitary on (clone 1, clone 2, input): u (x) u (x) u*."""
    return np.kron(np.kron(u, u), u.conj())


def two_party_rep(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Joint action on the (1A,2A,A,1B,2B,B) factor order."""
    return np.kron(triple_rep(u_a), triple_rep(u_b))


def build_t_operators() -> TOperators:
    """Build t1..t5 from the invariant basis in closed form.

    With the basis sign of build_invariant_basis the map m1_k -> m2_k
    commutes with the triple action, so the intertwiner is
    t12 = sum_k |m2_k><m1_k|; its matrix element <m2_0| t12 |m1_0> is 1.
    """
    basis = build_invariant_basis()
    t1 = basis.m1.T @ basis.m1.conj()
    t2 = basis.m2.T @ basis.m2.conj()
    t3 = np.eye(8, dtype=complex) - t1 - t2
    t12 = basis.m2.T @ basis.m1.conj()
    t21 = t12.conj().T
    return TOperators(t1=t1, t2=t2, t3=t3, t4=t12 + t21, t5=1j * t12 - 1j * t21)


def assemble_ptilde(a: np.ndarray, t: TOperators) -> np.ndarray:
    """Assemble sum_ij a_ij ti (x) tj on the (1A,2A,A,1B,2B,B) order."""
    a = np.asarray(a, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"parameter matrix must be 5x5, got {a.shape}")
    ts = t.as_list()
    out = np.zeros((64, 64), dtype=complex)
    for i in range(5):
        for j in range(5):
            if a[i, j] != 0.0:
                out += a[i, j] * np.kron(ts[i], ts[j])
    return out


def commutant_blocks(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of t1..t5 in M2 (+) C: 2x2 blocks X of shape (5, 2, 2) and scalars c of shape (5,).

    In the invariant basis (m1_0, m1_1, m2_0, m2_1, m3) each ti is
    X_i (x) I2 (+) c_i I4: X_i acts on (m1_k, m2_k) alike for k = 0, 1.
    Raises RuntimeError if t departs from that structure by more than
    1e-12.
    """
    m = build_invariant_basis().stacked()
    b = np.stack([m.conj() @ ti @ m.T for ti in t.as_list()])
    x = b[:, 0:4:2, 0:4:2]
    # Exactly Hermitian blocks keep every real combination of their
    # products exactly Hermitian, so the solver never re-symmetrizes.
    x = (x + np.conj(np.swapaxes(x, 1, 2))) / 2
    c = b[:, 4, 4].real
    expect = np.zeros_like(b)
    expect[:, :4, :4] = np.kron(x, np.eye(2))
    expect[:, 4:, 4:] = c[:, None, None] * np.eye(4)
    if np.abs(b - expect).max() > 1e-12:
        raise RuntimeError("t1..t5 do not split into M2 (+) C blocks in the invariant basis")
    return x, c


def basis_stack(t: TOperators) -> np.ndarray:
    """All 25 products ti (x) tj as a (25, 64, 64) stack, row-major in (i, j)."""
    ts = t.as_list()
    return np.stack([np.kron(ti, tj) for ti in ts for tj in ts])


def reorder_to_choi(ptilde: np.ndarray) -> np.ndarray:
    """Reorder (1A,2A,A,1B,2B,B) to the channel order (1A,1B,2A,2B,A,B)."""
    return permute_subsystems(ptilde, PTILDE_LAYOUT, CHOI_LAYOUT.labels)


def reorder_from_choi(p_e: np.ndarray) -> np.ndarray:
    """Inverse of reorder_to_choi."""
    return permute_subsystems(p_e, CHOI_LAYOUT, PTILDE_LAYOUT.labels)
