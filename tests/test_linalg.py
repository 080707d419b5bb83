"""Identities of the fixed-order helpers: the Choi reorder and Bob's partial transpose
in covariant, Tr_out and the clone reductions in channel, and random_su2."""

import numpy as np

from entclone.channel import apply_choi, clone_reductions, trace_output
from entclone.covariant import partial_transpose_b, random_su2, reorder_from_choi, reorder_to_choi

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def kron_all(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def test_partial_trace_product_state():
    """Tr_out of X (x) Y on (output, input) is Tr X times Y."""
    rng = np.random.default_rng(0)
    x = random_hermitian(16, rng)
    y = random_hermitian(4, rng)
    assert np.abs(trace_output(np.kron(x, y)) - np.trace(x) * y).max() < 1e-12


def test_partial_trace_all_factors():
    """Tr_out then the input trace is the full trace, and each clone keeps the output's trace."""
    rng = np.random.default_rng(1)
    m = random_hermitian(64, rng)
    assert abs(np.trace(trace_output(m)) - np.trace(m)) < 1e-12
    rho_out = random_hermitian(16, rng)
    for clone in clone_reductions(rho_out):
        assert abs(np.trace(clone) - np.trace(rho_out)) < 1e-12


def test_partial_traces_commute_on_disjoint_sets():
    """Tracing the output then the input equals tracing the input then the output;
    on a product of two clones each reduction is its own factor times the other's trace."""
    rng = np.random.default_rng(2)
    m = random_hermitian(64, rng)
    assert abs(np.trace(apply_choi(m, np.eye(4))) - np.trace(trace_output(m))) < 1e-12
    c1 = random_hermitian(4, rng)
    c2 = random_hermitian(4, rng)
    r1, r2 = clone_reductions(np.kron(c1, c2))
    assert np.abs(r1 - c1 * np.trace(c2)).max() < 1e-12
    assert np.abs(r2 - c2 * np.trace(c1)).max() < 1e-12


def test_partial_transpose_product_state():
    rng = np.random.default_rng(3)
    rho = random_hermitian(8, rng)
    sig = random_hermitian(8, rng)
    assert np.array_equal(partial_transpose_b(np.kron(rho, sig)), np.kron(rho, sig.T))


def test_partial_transpose_singlet():
    """A singlet on each of (1A,1B), (2A,2B), (A,B) is maximally entangled across A|B:
    its partial transpose has minimum eigenvalue -1/8."""
    proj = reorder_from_choi(kron_all([np.outer(SINGLET, SINGLET)] * 3))
    vals = np.linalg.eigvalsh(partial_transpose_b(proj))
    assert abs(vals.min() + 1.0 / 8.0) < 1e-12


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(4)
    m = random_hermitian(64, rng)
    once = partial_transpose_b(m)
    assert np.array_equal(partial_transpose_b(once), m)
    assert abs(np.trace(once) - np.trace(m)) < 1e-12
    assert abs(np.linalg.norm(once) - np.linalg.norm(m)) < 1e-12


def test_permute_identity_and_swap():
    """Six distinct factors kron'd in the party order land in the Choi order."""
    rng = np.random.default_rng(5)
    one_a, two_a, in_a, one_b, two_b, in_b = (random_hermitian(2, rng) for _ in range(6))
    party = kron_all([one_a, two_a, in_a, one_b, two_b, in_b])
    choi = kron_all([one_a, one_b, two_a, two_b, in_a, in_b])
    scale = np.abs(choi).max()
    assert np.abs(reorder_to_choi(party) - choi).max() < 1e-14 * scale
    assert np.abs(reorder_from_choi(choi) - party).max() < 1e-14 * scale


def test_permute_round_trip_and_spectrum():
    rng = np.random.default_rng(6)
    m = random_hermitian(64, rng)
    p_e = reorder_to_choi(m)
    assert np.array_equal(reorder_from_choi(p_e), m)
    assert np.abs(np.linalg.eigvalsh(m) - np.linalg.eigvalsh(p_e)).max() < 1e-10


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_su2(rng)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
