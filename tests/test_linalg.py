import numpy as np
import pytest

from entclone.linalg import (
    SubsystemLayout,
    frobenius_distance,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    random_su2,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

TWO_QUBITS = SubsystemLayout((("A", 2), ("B", 2)))


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho = random_hermitian(2, rng)
    sig = random_hermitian(2, rng)
    reduced = partial_trace(np.kron(rho, sig), TWO_QUBITS, ("B",))
    assert np.abs(reduced - rho * np.trace(sig)).max() < 1e-12


def test_partial_trace_all_factors():
    rng = np.random.default_rng(1)
    m = random_hermitian(4, rng)
    full = partial_trace(m, TWO_QUBITS, ("A", "B"))
    assert full.shape == (1, 1)
    assert abs(full[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_unknown_label():
    with pytest.raises(Exception):
        partial_trace(np.eye(4), TWO_QUBITS, ("C",))


def test_partial_traces_commute_on_disjoint_sets():
    layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
    rng = np.random.default_rng(2)
    m = random_hermitian(8, rng)
    ab_first = partial_trace(partial_trace(m, layout, ("A",)), SubsystemLayout((("B", 2), ("C", 2))), ("C",))
    c_first = partial_trace(partial_trace(m, layout, ("C",)), SubsystemLayout((("A", 2), ("B", 2))), ("A",))
    assert np.abs(ab_first - c_first).max() < 1e-13


def test_partial_transpose_product_state():
    rng = np.random.default_rng(3)
    rho = random_hermitian(2, rng)
    sig = random_hermitian(2, rng)
    flipped = partial_transpose(np.kron(rho, sig), TWO_QUBITS, ("B",))
    assert np.abs(flipped - np.kron(rho, sig.T)).max() < 1e-14


def test_partial_transpose_singlet():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    proj = np.outer(v, v)
    flipped = partial_transpose(proj, TWO_QUBITS, ("B",))
    vals = np.linalg.eigvalsh(flipped)
    assert abs(vals.min() + 0.5) < 1e-12


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(4)
    m = random_hermitian(4, rng)
    once = partial_transpose(m, TWO_QUBITS, ("A",))
    twice = partial_transpose(once, TWO_QUBITS, ("A",))
    assert np.array_equal(twice, m)
    assert abs(np.trace(once) - np.trace(m)) < 1e-12
    assert abs(np.linalg.norm(once) - np.linalg.norm(m)) < 1e-12


def test_permute_identity_and_swap():
    rng = np.random.default_rng(5)
    rho = random_hermitian(2, rng)
    sig = random_hermitian(2, rng)
    m = np.kron(rho, sig)
    assert np.array_equal(permute_subsystems(m, TWO_QUBITS, ("A", "B")), m)
    swapped = permute_subsystems(m, TWO_QUBITS, ("B", "A"))
    assert np.abs(swapped - np.kron(sig, rho)).max() < 1e-14


def test_permute_round_trip_and_spectrum():
    layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
    rng = np.random.default_rng(6)
    m = random_hermitian(8, rng)
    cycled = permute_subsystems(m, layout, ("C", "A", "B"))
    back = permute_subsystems(cycled, SubsystemLayout((("C", 2), ("A", 2), ("B", 2))), ("A", "B", "C"))
    assert np.array_equal(back, m)
    vals_before = np.linalg.eigvalsh(m)
    vals_after = np.linalg.eigvalsh(cycled)
    assert np.abs(np.sort(vals_before) - np.sort(vals_after)).max() < 1e-10


def test_permute_rejects_bad_order():
    with pytest.raises(Exception):
        permute_subsystems(np.eye(4), TWO_QUBITS, ("A", "A"))


def test_small_helpers():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert frobenius_distance(m, m) == 0.0
    assert frobenius_distance(np.eye(2), PAULI_X) == 2.0


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_su2(rng)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
