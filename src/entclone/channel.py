"""Channel action, clone fidelities, and the linear constraint system.

Channels map a two-qubit input (A, B) to a four-qubit output ordered
(1A, 1B, 2A, 2B).  The Choi operator convention is unnormalized,
P = sum_ij E(|i><j|) (x) |i><j| on (output, input), so trace
preservation reads Tr_out P = I_4 and the action recovers as
E(rho) = Tr_in [P (I (x) rho^T)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entclone.analytic import schmidt_state
from entclone.covariant import CHOI_LAYOUT, TOperators, basis_stack, reorder_to_choi
from entclone.linalg import SubsystemLayout, frobenius_distance, partial_trace

OUTPUT_LAYOUT = SubsystemLayout((("1A", 2), ("1B", 2), ("2A", 2), ("2B", 2)))

SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class CloningChannel:
    """A cloning channel in Choi or Kraus representation (at least one set)."""

    choi: np.ndarray | None = None
    kraus: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.choi is None and self.kraus is None:
            raise ValueError("channel needs a Choi operator or Kraus operators")

    @classmethod
    def from_choi(cls, p_e: np.ndarray) -> "CloningChannel":
        p_e = np.asarray(p_e, dtype=complex)
        if p_e.shape != (64, 64):
            raise ValueError(f"Choi operator must be 64x64, got {p_e.shape}")
        return cls(choi=p_e)

    @classmethod
    def from_kraus(cls, ops: "list[np.ndarray] | tuple[np.ndarray, ...]") -> "CloningChannel":
        ops = tuple(np.asarray(k, dtype=complex) for k in ops)
        if any(k.shape != (16, 4) for k in ops):
            raise ValueError("Kraus operators must be 16x4")
        return cls(kraus=ops)


def apply_choi(p_e: np.ndarray, rho: np.ndarray, dims: tuple[int, int] = (16, 4)) -> np.ndarray:
    """Channel action from a Choi operator: E(rho) = Tr_in [P (I (x) rho^T)]."""
    dout, din = dims
    p4 = np.asarray(p_e).reshape(dout, din, dout, din)
    return np.einsum("aibj,ij->ab", p4, np.asarray(rho))


def check_state(rho: np.ndarray) -> np.ndarray:
    """Validate a two-qubit density matrix and return it as a complex array.

    Raises ValueError unless rho is 4x4, Hermitian, positive semidefinite
    and of unit trace, each to 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"input state must be 4x4, got {rho.shape}")
    if frobenius_distance(rho, rho.conj().T) > 1e-10:
        raise ValueError("input state is not Hermitian")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10:
        raise ValueError("input state has a negative eigenvalue")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("input state does not have unit trace")
    return rho


def apply(ch: CloningChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a two-qubit density matrix, output on (1A,1B,2A,2B)."""
    rho = check_state(rho)
    if ch.kraus is not None:
        out = np.zeros((16, 16), dtype=complex)
        for k in ch.kraus:
            out += k @ rho @ k.conj().T
        return out
    return apply_choi(ch.choi, rho)


def channel_from_params(a: np.ndarray, t: TOperators) -> CloningChannel:
    """Choi-represented channel for a covariant parameter matrix."""
    from entclone.covariant import assemble_ptilde

    return CloningChannel.from_choi(reorder_to_choi(assemble_ptilde(a, t)))


def clone_reductions(rho_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of clone 1 (on 1A,1B) and clone 2 (on 2A,2B)."""
    rho_out = np.asarray(rho_out)
    if rho_out.shape != (16, 16):
        raise ValueError(f"output state must be 16x16, got {rho_out.shape}")
    r1 = partial_trace(rho_out, OUTPUT_LAYOUT, {"2A", "2B"})
    r2 = partial_trace(rho_out, OUTPUT_LAYOUT, {"1A", "1B"})
    return r1, r2


def _mean_clone_overlap(rho_out: np.ndarray, phi: np.ndarray) -> float:
    r1, r2 = clone_reductions(rho_out)
    f1 = phi.conj() @ r1 @ phi
    f2 = phi.conj() @ r2 @ phi
    return float(np.real(f1 + f2) / 2.0)


def local_fidelity(ch: CloningChannel, alpha: float) -> float:
    """Clone fidelity on the representative input state.

    The two clones must agree within the symmetry tolerance; their mean
    overlap with the input is returned.
    """
    phi = schmidt_state(alpha)
    rho_out = apply(ch, np.outer(phi, phi.conj()))
    r1, r2 = clone_reductions(rho_out)
    if frobenius_distance(r1, r2) > SYMMETRY_TOL:
        raise ValueError("channel output violates clone symmetry on the representative state")
    f = phi.conj() @ ((r1 + r2) / 2.0) @ phi
    return float(np.real(f))


def fidelity_coefficients(alpha: float, t: TOperators) -> np.ndarray:
    """Linear functional f_ij with F(a) = sum_ij f_ij a_ij on the representative state.

    Each coefficient is the symmetrized clone overlap produced by the
    basis operator ti (x) tj alone, so the functional stays meaningful
    even before the symmetry constraints are imposed.
    """
    phi = schmidt_state(alpha)
    rho = np.outer(phi, phi.conj())
    f = np.zeros((5, 5))
    for p, g in enumerate(basis_stack(t)):
        out = apply_choi(reorder_to_choi(g), rho)
        f[p // 5, p % 5] = _mean_clone_overlap(out, phi)
    return f


def constraint_matrices(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    """Trace-preservation row and independent clone-symmetry rows.

    Returns (trace_row, symmetry_rows) against the flattened a_ij vector
    (row-major, length 25).  The trace constraint is trace_row . a = 1;
    every symmetry row r satisfies r . a = 0 on symmetric channels.  The
    symmetry rows are an orthonormal basis of the row space discovered
    by a rank-revealing SVD; their count is data, not a promise.
    """
    stack = basis_stack(t)
    trace_row = np.zeros(25)
    columns = np.zeros((512, 25))
    for p, g in enumerate(stack):
        pe = reorder_to_choi(g)
        tr_out = partial_trace(pe, CHOI_LAYOUT, {"1A", "1B", "2A", "2B"})
        c = complex(np.trace(tr_out)) / 4.0
        if np.linalg.norm(tr_out - c * np.eye(4)) > 1e-12:
            raise RuntimeError("basis element traced out to a non-scalar operator")
        if abs(c.imag) > 1e-12:
            raise RuntimeError("basis element has a complex output trace")
        trace_row[p] = c.real
        r1 = partial_trace(pe, CHOI_LAYOUT, {"2A", "2B"})
        r2 = partial_trace(pe, CHOI_LAYOUT, {"1A", "1B"})
        d = (r1 - r2).reshape(-1)
        columns[:256, p] = d.real
        columns[256:, p] = d.imag
    _, sv, vh = np.linalg.svd(columns, full_matrices=False)
    keep = sv > 1e-10 * max(sv[0], 1.0)
    return trace_row, vh[keep]
