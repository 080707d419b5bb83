"""Channel action, clone fidelities, and the linear constraint system.

Channels map a two-qubit input (A, B) to a four-qubit output in the
clone order (1A, 1B, 2A, 2B): clone 1, then clone 2, so an output state
reshaped to (4, 4, 4, 4) reads (clone 1, clone 2) by (clone 1, clone 2)
and clone_reductions is one trace over either pair.  A channel is its
Choi operator, a plain 64x64 array on the Choi order
(1A, 1B, 2A, 2B, A, B), the output then the input; it is the one
64x64 layout of the package, and covariant and protocol build their
operators on it.  The convention is unnormalized,
P = sum_ij E(|i><j|) (x) |i><j|, so reshaped to (16, 4, 16, 4) the
trace-preservation condition reads trace_output(P) = I_4 and the action
recovers as E(rho) = Tr_in [P (I (x) rho^T)].  Kraus operators appear
only in the protocol module, which applies them itself.

For a covariant cloner P = sum_ij a_ij ti (x) tj every quantity the
program needs (the clone-fidelity functional, the output trace and the
clone difference) factors over the two parties into exact tables, which
the module holds as read-only literals: the functional is G0 + x G1, as
it depends on alpha only through x = alpha^2 (1 - alpha^2), read from its
one owner analytic.x_of_alpha; the closed forms are short in x too, as
F_bh = (25 - 16x)/36, and one bit helps only above x0 = 1/10 (analytic
states all three curves).  The trace row is TRACE_ROW, and the
clone-symmetry rows are SYMMETRY_ROWS.  They are the program's only copy
of them: sdp reads its objective through fidelity_coefficients and its
trace row through constraint_matrices.  tests/reference.py derives each
of them from the 64x64 operators ti (x) tj.  The 64x64 Choi operator is
formed only when a channel is actually applied.
"""

from __future__ import annotations

import numpy as np

from entclone.analytic import schmidt_state, x_of_alpha
from entclone.covariant import T_OPERATORS, assemble_ptilde, check_t

SYMMETRY_TOL = 1e-8
# fidelity_coefficients = G0 + x G1, x = alpha^2 (1 - alpha^2): entry ij is
# the symmetrized clone overlap of ti (x) tj on the representative state.
G0 = np.array(
    [
        [1 / 4, 5 / 12, 1 / 3, 0, 0],
        [5 / 12, 25 / 36, 5 / 9, 0, 0],
        [1 / 3, 5 / 9, 4 / 9, 0, 0],
        [0, 0, 0, 1 / 3, 0],
        [0, 0, 0, 0, 0],
    ]
)
G1 = np.array(
    [
        [0, -2 / 3, 2 / 3, 0, 0],
        [-2 / 3, -4 / 9, -14 / 9, 0, 0],
        [2 / 3, -14 / 9, 32 / 9, 0, 0],
        [0, 0, 0, 8 / 3, 0],
        [0, 0, 0, 0, 0],
    ]
)
# Tr_out ti (x) tj = s_i s_j I4 with s = (1, 1, 2, 0, 0), over the flat a vector.
TRACE_ROW = np.outer([1.0, 1.0, 2.0, 0.0, 0.0], [1.0, 1.0, 2.0, 0.0, 0.0]).reshape(-1)
# The clone difference of sum_ij a_ij ti (x) tj involves only a_i4 and a_4i,
# i = 1..3 (flat indices 3, 8, 13 and 15, 16, 17), and vanishes exactly on
# the orthogonal complement of these three orthonormal rows.
SYMMETRY_ROWS = np.zeros((3, 25))
SYMMETRY_ROWS[:, [3, 8, 13, 15, 16, 17]] = np.array(
    [[1, 3, 0, 1, 3, 0], [1, 1, 2, -1, -1, -2], [3, -1, 10, 3, -1, 10]]
) / np.sqrt([[20.0], [12.0], [220.0]])
for _table in (G0, G1, TRACE_ROW, SYMMETRY_ROWS):
    _table.flags.writeable = False


def apply_choi(p_e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action from a Choi operator: E(rho) = Tr_in [P (I (x) rho^T)], a 16x16 output."""
    p4 = np.asarray(p_e).reshape(16, 4, 16, 4)
    return np.einsum("aibj,ij->ab", p4, np.asarray(rho))


def trace_output(p_e: np.ndarray) -> np.ndarray:
    """Tr_out of a Choi operator: the 4x4 operator left on the input (A, B)."""
    return np.einsum("aiaj->ij", np.asarray(p_e).reshape(16, 4, 16, 4))


def channel_from_params(a: np.ndarray, t: np.ndarray = T_OPERATORS) -> np.ndarray:
    """64x64 Choi operator, on (output, input), of the covariant channel with parameter matrix a.

    It is covariant.assemble_ptilde under the channel's name, kept a
    separate function, not an alias, so a tracer that swaps functions by
    identity tells the two apart.
    """
    return assemble_ptilde(a, t)


def clone_reductions(rho_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of clone 1 (on 1A,1B) and clone 2 (on 2A,2B).

    rho_out is one 16x16 output or a stack of them, (..., 16, 16); the
    reductions keep its leading axes.
    """
    rho_out = np.asarray(rho_out)
    if rho_out.shape[-2:] != (16, 16):
        raise ValueError(f"output state must be 16x16, got {rho_out.shape}")
    clones = rho_out.reshape(*rho_out.shape[:-2], 4, 4, 4, 4)
    return np.einsum("...abcb->...ac", clones), np.einsum("...abad->...bd", clones)


def local_fidelity(p_e: np.ndarray, alpha: float) -> float:
    """Clone fidelity of the channel with Choi operator p_e on the representative input state.

    The two clones must agree within the symmetry tolerance, else (a
    non-finite output included) ValueError; their mean overlap with the
    input is returned.
    """
    phi = schmidt_state(alpha)
    rho_out = apply_choi(p_e, np.outer(phi, phi.conj()))
    r1, r2 = clone_reductions(rho_out)
    if not (np.linalg.norm(r1 - r2) <= SYMMETRY_TOL):
        raise ValueError("channel output violates clone symmetry on the representative state")
    f = phi.conj() @ ((r1 + r2) / 2.0) @ phi
    return float(np.real(f))


def fidelity_coefficients(alpha: float, t: np.ndarray = T_OPERATORS) -> np.ndarray:
    """Linear functional f_ij with F(a) = sum_ij f_ij a_ij on the representative state.

    Each coefficient is the symmetrized clone overlap produced by the
    basis operator ti (x) tj alone, so the functional stays meaningful
    even before the symmetry constraints are imposed.  It is
    G0 + x G1, x = analytic.x_of_alpha(alpha), in a new array the
    caller owns.  t must be T_OPERATORS (see covariant.check_t).
    """
    check_t(t)
    return G0 + x_of_alpha(alpha) * G1


def constraint_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Trace-preservation row and independent clone-symmetry rows.

    Returns (TRACE_ROW, SYMMETRY_ROWS) against the flattened a_ij vector
    (row-major, length 25), the same read-only arrays on every call.
    The trace constraint is trace_row . a = 1; every symmetry row r
    satisfies r . a = 0 on symmetric channels, and the rows are an
    orthonormal basis of the space those conditions span.
    """
    return TRACE_ROW, SYMMETRY_ROWS
