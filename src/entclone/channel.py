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
clone difference) factors over the two parties, so the SDP's objective
and equality rows are built from partial traces of the 8x8 operators
t1..t5 alone; the 64x64 Choi operator is formed only when a channel is
actually applied.  The functional depends on alpha only through
x = alpha^2 (1 - alpha^2): it is G0 + x G1, with the two 5x5 tables
computed once per t and checked at a third x.

A state passed to apply is validated on every call; local_fidelity
builds the representative input's density matrix itself from a
checked alpha, so it needs no validation.
"""

from __future__ import annotations

import functools

import numpy as np

from entclone.analytic import ALPHA_MAX, check_alpha, schmidt_state
from entclone.covariant import T_OPERATORS, TOperators, assemble_ptilde

SYMMETRY_TOL = 1e-8


def apply_choi(p_e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action from a Choi operator: E(rho) = Tr_in [P (I (x) rho^T)], a 16x16 output."""
    p4 = np.asarray(p_e).reshape(16, 4, 16, 4)
    return np.einsum("aibj,ij->ab", p4, np.asarray(rho))


def trace_output(p_e: np.ndarray) -> np.ndarray:
    """Tr_out of a Choi operator: the 4x4 operator left on the input (A, B)."""
    return np.einsum("aiaj->ij", np.asarray(p_e).reshape(16, 4, 16, 4))


def check_state(rho: np.ndarray) -> np.ndarray:
    """Validate a two-qubit density matrix and return it as a complex array.

    Raises ValueError unless rho is finite, 4x4, Hermitian, positive
    semidefinite and of unit trace, the last three to 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError("input state has non-finite entries")
    if rho.shape != (4, 4):
        raise ValueError(f"input state must be 4x4, got {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise ValueError("input state is not Hermitian")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10:
        raise ValueError("input state has a negative eigenvalue")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("input state does not have unit trace")
    return rho


def apply(p_e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply the channel with Choi operator p_e to a two-qubit density matrix, output on (1A,1B,2A,2B)."""
    return apply_choi(p_e, check_state(rho))


def channel_from_params(a: np.ndarray, t: TOperators = T_OPERATORS) -> np.ndarray:
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


@functools.lru_cache(maxsize=1)
def _party_reductions(t: TOperators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-party clone reductions of t1..t5: (R1, R2, s).

    On one party's (clone 1, clone 2, input) triple, R1_i = Tr_clone2 ti
    and R2_i = Tr_clone1 ti are 4x4 operators on (clone, input), stacked
    as (5, 4, 4); s holds the real scalars with Tr_clones ti = s_i I2.
    None of them depends on alpha, and t is immutable, so the triple is
    cached for the last t object and its arrays are read-only.
    Raises RuntimeError if some Tr_clones ti is not a real multiple of
    I2 to 1e-12.
    """
    ts = np.stack(t.as_list()).reshape(5, 2, 2, 2, 2, 2, 2)
    r1 = np.einsum("iabxcbz->iaxcz", ts).reshape(5, 4, 4)
    r2 = np.einsum("iabxadz->ibxdz", ts).reshape(5, 4, 4)
    tr_out = np.einsum("iabxabz->ixz", ts)
    s = np.trace(tr_out, axis1=1, axis2=2) / 2.0
    if np.linalg.norm(tr_out - s[:, None, None] * np.eye(2), axis=(1, 2)).max() > 1e-12:
        raise RuntimeError("basis element traced out to a non-scalar operator")
    if np.abs(s.imag).max() > 1e-12:
        raise RuntimeError("basis element has a complex output trace")
    parts = r1, r2, s.real
    for arr in parts:
        arr.flags.writeable = False
    return parts


def fidelity_coefficients(alpha: float, t: TOperators = T_OPERATORS) -> np.ndarray:
    """Linear functional f_ij with F(a) = sum_ij f_ij a_ij on the representative state.

    Each coefficient is the symmetrized clone overlap produced by the
    basis operator ti (x) tj alone, so the functional stays meaningful
    even before the symmetry constraints are imposed.  It depends on
    alpha only through x = alpha^2 (1 - alpha^2), and affinely, so it
    is returned as G0 + x G1 from the tables kept for the last t (see
    _functional_table).
    """
    a = check_alpha(alpha)
    g0, g1 = _functional_table(t)
    return g0 + (a * a * (1.0 - a * a)) * g1


def _sandwich(alpha: float, t: TOperators) -> np.ndarray:
    """The functional at alpha, from the per-party reductions.

    Clone k of ti (x) tj is Rk_i (x) Rk_j on (clone, input) per party
    (see _party_reductions), so with psi = phi (x) phi regrouped by
    party, f_ij = Re sum_k <psi| Rk_i (x) Rk_j |psi> / 2; no 64x64
    operator is formed.
    """
    phi = schmidt_state(alpha).reshape(2, 2)
    # psi as a 4x4 matrix: rows (clone A, input A), columns (clone B, input B).
    psi = np.einsum("ab,xy->axby", phi, phi).reshape(4, 4)
    f = np.zeros((5, 5))
    for r in _party_reductions(t)[:2]:
        sandwich = psi.conj().T @ r @ psi
        f += np.real(sandwich.reshape(5, 16) @ r.reshape(5, 16).T) / 2.0
    return f


@functools.lru_cache(maxsize=1)
def _functional_table(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    """The tables (G0, G1) with fidelity_coefficients = G0 + x G1, for the last t object.

    G0 is the functional at x = 0 (alpha = 0) and G1 its slope to
    x = 1/4 (alpha = ALPHA_MAX); both arrays are read-only.
    Raises RuntimeError if the functional at alpha = 1/2 (x = 3/16)
    departs from G0 + x G1 by more than 1e-12.
    """
    g0 = _sandwich(0.0, t)
    x_max = ALPHA_MAX * ALPHA_MAX * (1.0 - ALPHA_MAX * ALPHA_MAX)
    g1 = (_sandwich(ALPHA_MAX, t) - g0) / x_max
    if np.abs(_sandwich(0.5, t) - (g0 + 0.1875 * g1)).max() > 1e-12:
        raise RuntimeError("fidelity functional is not affine in x = alpha^2 (1 - alpha^2)")
    for arr in (g0, g1):
        arr.flags.writeable = False
    return g0, g1


def _clone_products(r: np.ndarray) -> np.ndarray:
    """Every Rk_i (x) Rk_j on (clone A, clone B, input A, input B), flattened to (25, 256)."""
    r = r.reshape(5, 2, 2, 2, 2)
    return np.einsum("iaxcz,jbydw->ijabxycdzw", r, r).reshape(25, 256)


def constraint_matrices(t: TOperators = T_OPERATORS) -> tuple[np.ndarray, np.ndarray]:
    """Trace-preservation row and independent clone-symmetry rows.

    Returns (trace_row, symmetry_rows) against the flattened a_ij vector
    (row-major, length 25).  The trace constraint is trace_row . a = 1;
    every symmetry row r satisfies r . a = 0 on symmetric channels.  The
    symmetry rows are an orthonormal basis of the row space discovered
    by a rank-revealing SVD; their count is data, not a promise.  Both
    come from the per-party reductions: Tr_out ti (x) tj = s_i s_j I4,
    and the clone difference of ti (x) tj is R1_i (x) R1_j - R2_i (x) R2_j.
    Neither depends on alpha, and t is immutable, so the pair is cached
    for the last t object, passed or defaulted, and its arrays are
    read-only.
    """
    return _constraint_rows(t)


@functools.lru_cache(maxsize=1)
def _constraint_rows(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    r1, r2, s = _party_reductions(t)
    d = (_clone_products(r1) - _clone_products(r2)).T
    columns = np.vstack([d.real, d.imag])
    _, sv, vh = np.linalg.svd(columns, full_matrices=False)
    keep = sv > 1e-10 * max(sv[0], 1.0)
    rows = np.outer(s, s).reshape(-1), vh[keep]
    for arr in rows:
        arr.flags.writeable = False
    return rows
