"""Identities of the fixed-order helpers on the Choi order (1A,1B,2A,2B,A,B): Bob's partial
transpose in covariant, Tr_out and the clone reductions in channel, and random_su2."""

import numpy as np

from entclone.channel import apply_choi, clone_reductions, trace_output
from entclone.covariant import partial_transpose_b, random_su2

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
    """On a product of operators on the pairs (1A,1B), (2A,2B), (A,B), each pair's B qubit is transposed."""
    rng = np.random.default_rng(3)
    pairs = [random_hermitian(4, rng) for _ in range(3)]
    flipped = [m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4) for m in pairs]
    assert np.array_equal(partial_transpose_b(kron_all(pairs)), kron_all(flipped))


def test_partial_transpose_singlet():
    """A singlet on each of the adjacent pairs (1A,1B), (2A,2B), (A,B) is maximally entangled
    across A|B: its partial transpose has minimum eigenvalue -1/8."""
    proj = kron_all([np.outer(SINGLET, SINGLET)] * 3)
    vals = np.linalg.eigvalsh(partial_transpose_b(proj))
    assert abs(vals.min() + 1.0 / 8.0) < 1e-12


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(4)
    m = random_hermitian(64, rng)
    once = partial_transpose_b(m)
    assert np.array_equal(partial_transpose_b(once), m)
    assert abs(np.trace(once) - np.trace(m)) < 1e-12
    assert abs(np.linalg.norm(once) - np.linalg.norm(m)) < 1e-12


def test_partial_transpose_acts_on_bob_positions():
    """On six distinct factors f0..f5 in the Choi order, Bob's are f1, f3 and f5, and only they are transposed."""
    rng = np.random.default_rng(5)
    f = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(6)]
    transposed = [fk.T if k % 2 else fk for k, fk in enumerate(f)]
    assert np.array_equal(partial_transpose_b(kron_all(f)), kron_all(transposed))


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_su2(rng)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
