import math

import numpy as np
import pytest

from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    alpha_critical,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
    schmidt_state,
)
from entclone.channel import (
    G0,
    G1,
    SYMMETRY_ROWS,
    TRACE_ROW,
    apply_choi,
    channel_from_params,
    clone_reductions,
    constraint_matrices,
    fidelity_coefficients,
    local_fidelity,
    trace_output,
)
from entclone.covariant import T_OPERATORS, assemble_ptilde, build_t_operators
import reference
from reference import dense_constraint_matrices, dense_fidelity_coefficients, functional_table, random_su2


def density(vec):
    return np.outer(vec, vec.conj())


def family_channel(family, alpha):
    return channel_from_params(params_for(family, alpha))


def test_identity_channel_choi_round_trip():
    """The unnormalized Choi operator P = sum_ij E(|i><j|) (x) |i><j| of the isometric
    two-to-four-qubit channel E(X) = V X V^dag acts as E and traces out to I_4."""
    rng = np.random.default_rng(21)
    v, _ = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))
    p_v = np.zeros((64, 64), dtype=complex)
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4))
            unit[i, j] = 1.0
            p_v += np.kron(v @ unit @ v.conj().T, unit)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.abs(apply_choi(p_v, m) - v @ m @ v.conj().T).max() < 1e-14
    assert np.abs(trace_output(p_v) - np.eye(4)).max() < 1e-14


def test_partial_trace_product_state():
    """Tr_out of X (x) Y on (output, input) is Tr X times Y."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((16, 16, 2)) @ [1, 1j], rng.standard_normal((4, 4, 2)) @ [1, 1j]
    assert np.abs(trace_output(np.kron(x, y)) - np.trace(x) * y).max() < 1e-12


def test_partial_trace_all_factors():
    """Tr_out then the input trace is the full trace, and each clone keeps the output's trace."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((64, 64, 2)) @ [1, 1j]
    assert abs(np.trace(trace_output(m)) - np.trace(m)) < 1e-12
    rho_out = rng.standard_normal((16, 16, 2)) @ [1, 1j]
    for clone in clone_reductions(rho_out):
        assert abs(np.trace(clone) - np.trace(rho_out)) < 1e-12


def test_partial_traces_commute_on_disjoint_sets():
    """Tracing the output then the input equals tracing the input then the output;
    on a product of two clones each reduction is its own factor times the other's trace."""
    rng = np.random.default_rng(2)
    m = rng.standard_normal((64, 64, 2)) @ [1, 1j]
    assert abs(np.trace(apply_choi(m, np.eye(4))) - np.trace(trace_output(m))) < 1e-12
    c1, c2 = rng.standard_normal((2, 4, 4, 2)) @ [1, 1j]
    r1, r2 = clone_reductions(np.kron(c1, c2))
    assert np.abs(r1 - c1 * np.trace(c2)).max() < 1e-12
    assert np.abs(r2 - c2 * np.trace(c1)).max() < 1e-12


def test_choi_is_trace_preserving():
    ch = family_channel(CloneFamily.GLOBAL_OPTIMAL, 0.4)
    assert np.abs(trace_output(ch) - np.eye(4)).max() < 1e-10


def test_bh_channel_on_product_input():
    ch = family_channel(CloneFamily.BUZEK_HILLERY_SQUARED, 0.3)
    rho_in = density(np.array([1.0, 0.0, 0.0, 0.0]))
    rho_out = apply_choi(ch, rho_in)
    assert abs(np.trace(rho_out) - 1.0) < 1e-10
    clone_1, clone_2 = clone_reductions(rho_out)
    for clone in (clone_1, clone_2):
        overlap = np.real(np.trace(clone @ rho_in))
        assert abs(overlap - 25.0 / 36.0) < 1e-10


def test_locc_channel_on_bell_input():
    ch = family_channel(CloneFamily.LOCC_OPTIMAL, ALPHA_MAX)
    bell = density(schmidt_state(ALPHA_MAX))
    clone_1, clone_2 = clone_reductions(apply_choi(ch, bell))
    for clone in (clone_1, clone_2):
        assert abs(np.real(np.trace(clone @ bell)) - 5.0 / 8.0) < 1e-10


def test_clone_reductions_of_product_operator():
    rng = np.random.default_rng(22)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    sig = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sig = sig @ sig.conj().T
    sig /= np.trace(sig)
    clone_1, clone_2 = clone_reductions(np.kron(rho, sig))
    assert np.abs(clone_1 - rho).max() < 1e-12
    assert np.abs(clone_2 - sig).max() < 1e-12


def test_local_fidelity_closed_forms():
    ch = family_channel(CloneFamily.GLOBAL_OPTIMAL, 0.0)
    assert abs(local_fidelity(ch, 0.0) - (17.0 + math.sqrt(73.0)) / 36.0) < 1e-10
    ch = family_channel(CloneFamily.BUZEK_HILLERY_SQUARED, ALPHA_MAX)
    assert abs(local_fidelity(ch, ALPHA_MAX) - 7.0 / 12.0) < 1e-10


def test_local_fidelity_matches_closed_forms_on_grid():
    cases = (
        (CloneFamily.GLOBAL_OPTIMAL, fidelity_global),
        (CloneFamily.BUZEK_HILLERY_SQUARED, fidelity_bh),
        (CloneFamily.LOCC_OPTIMAL, fidelity_locc),
    )
    for family, closed_form in cases:
        for alpha in np.linspace(0.0, ALPHA_MAX, 7):
            ch = family_channel(family, alpha)
            assert abs(local_fidelity(ch, alpha) - closed_form(alpha)) < 1e-10


def test_rotated_inputs_give_same_fidelity():
    alpha = 0.45
    ch = family_channel(CloneFamily.GLOBAL_OPTIMAL, alpha)
    base = density(schmidt_state(alpha))
    reference = local_fidelity(ch, alpha)
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = np.kron(random_su2(rng), random_su2(rng))
        rotated = u @ base @ u.conj().T
        clone_1, clone_2 = clone_reductions(apply_choi(ch, rotated))
        overlap = np.real(np.trace(clone_1 @ rotated) + np.trace(clone_2 @ rotated)) / 2.0
        assert abs(overlap - reference) < 1e-10


def test_fidelity_coefficients_against_families():
    for alpha in np.linspace(0.0, ALPHA_MAX, 21):
        f = fidelity_coefficients(alpha)
        assert abs(f[1, 1] - fidelity_bh(alpha)) < 1e-12
        a_global = params_for(CloneFamily.GLOBAL_OPTIMAL, alpha)
        assert abs(float(np.sum(f * a_global)) - fidelity_global(alpha)) < 1e-10
        a_locc = params_for(CloneFamily.LOCC_OPTIMAL, alpha)
        assert abs(float(np.sum(f * a_locc)) - fidelity_locc(alpha)) < 1e-10


def test_fidelity_coefficients_are_linear_functional():
    """f gives the mean clone overlap for any operator in the invariant span."""
    alpha = 0.37
    f = fidelity_coefficients(alpha)
    rng = np.random.default_rng(24)
    a = rng.standard_normal((5, 5))
    state = density(schmidt_state(alpha))
    p_e = assemble_ptilde(a)
    clone_1, clone_2 = clone_reductions(apply_choi(p_e, state))
    direct = np.real(np.trace(clone_1 @ state) + np.trace(clone_2 @ state)) / 2.0
    assert abs(float(np.sum(f * a)) - direct) < 1e-12


def test_constraint_trace_row():
    trace_row, sym_rows = constraint_matrices()
    pattern = np.outer([1.0, 1.0, 2.0, 0.0, 0.0], [1.0, 1.0, 2.0, 0.0, 0.0])
    assert np.abs(trace_row.reshape(5, 5) - pattern).max() < 1e-10
    assert sym_rows.shape[1] == 25
    assert sym_rows.shape[0] >= 1


def test_party_assembly_matches_dense():
    """The literal tables give the same objective and equalities as the 64x64 operators."""
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        assert np.abs(fidelity_coefficients(alpha) - dense_fidelity_coefficients(alpha)).max() < 1e-14
    trace_row, sym_rows = constraint_matrices()
    dense_trace, dense_sym = dense_constraint_matrices()
    assert np.abs(trace_row - dense_trace).max() < 1e-14
    assert sym_rows.shape == dense_sym.shape
    assert np.abs(sym_rows.T @ sym_rows - dense_sym.T @ dense_sym).max() < 1e-12


def test_constraint_rows_are_shared_and_read_only():
    """Every call returns the same two read-only literal arrays."""
    rows = constraint_matrices()
    assert rows[0] is TRACE_ROW and rows[1] is SYMMETRY_ROWS
    assert all(p is q for p, q in zip(rows, constraint_matrices()))
    for arr in rows:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_constraint_matrices_reject_non_covariant_operators():
    """channel's functions that take t refuse any operator set but T_OPERATORS; the witness refuses
    operators whose output trace is not a real multiple of the identity, on which no literal trace row
    could rest."""
    rng = np.random.default_rng(26)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for t1, message in ((h + h.conj().T, "non-scalar"), (1j * T_OPERATORS[0], "complex output trace")):
        bad = T_OPERATORS.copy()
        bad[0] = t1
        with pytest.raises(ValueError, match="T_OPERATORS"):
            fidelity_coefficients(0.4, bad)
        with pytest.raises(ValueError, match="T_OPERATORS"):
            channel_from_params(np.zeros((5, 5)), bad)
        with pytest.raises(RuntimeError, match=message):
            dense_constraint_matrices(bad)


def test_families_satisfy_constraints():
    trace_row, sym_rows = constraint_matrices()
    for family in CloneFamily:
        for alpha in (0.1, alpha_critical(), 0.55, ALPHA_MAX):
            a = params_for(family, alpha).reshape(-1)
            assert abs(trace_row @ a - 1.0) < 1e-12
            assert np.abs(sym_rows @ a).max() < 1e-12


def test_local_fidelity_rejects_asymmetric_channel():
    """A map that parks clone 2 in a fixed state is not clone symmetric, nor is a symmetric channel
    mixed with 1e-6 of it; 1e-10 of it stays inside the symmetry tolerance."""
    e0 = np.zeros((4, 1))
    e0[0, 0] = 1.0
    vec_k = np.kron(np.eye(4), e0).reshape(-1)
    parking = np.outer(vec_k, vec_k.conj())
    symmetric = family_channel(CloneFamily.LOCC_OPTIMAL, 0.4)
    for weight in (1.0, 1e-6):
        with pytest.raises(ValueError, match="clone symmetry"):
            local_fidelity((1.0 - weight) * symmetric + weight * parking, 0.4)
    assert abs(local_fidelity((1.0 - 1e-10) * symmetric + 1e-10 * parking, 0.4) - fidelity_locc(0.4)) < 1e-9
    # A nan output must not slip past the tolerance comparison.
    with pytest.raises(ValueError, match="clone symmetry"):
        local_fidelity(np.full((64, 64), np.nan), 0.5)


@pytest.mark.parametrize("fresh", [False, True], ids=["default-t", "fresh-t"])
def test_functional_table_matches_the_per_alpha_sandwich(fresh):
    """G0 + x G1 equals the dense functional at each alpha, t defaulted or passed as build_t_operators()
    (which is T_OPERATORS); measured 7.8e-16 at worst."""
    t = build_t_operators() if fresh else T_OPERATORS
    worst = 0.0
    for alpha in np.linspace(0.0, ALPHA_MAX, 501):
        got = fidelity_coefficients(alpha, t)
        worst = max(worst, np.abs(got - dense_fidelity_coefficients(alpha, t)).max())
    assert worst <= 1e-15


def test_functional_table_is_literal_and_read_only():
    """fidelity_coefficients is G0 + x G1 from the read-only literals, in a new array the caller owns."""
    for arr in (G0, G1):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    f = fidelity_coefficients(0.4, T_OPERATORS)
    assert np.array_equal(f, G0 + 0.4 * 0.4 * (1.0 - 0.4 * 0.4) * G1)
    f[0, 0] = 7.0  # the caller owns the returned array; the tables are untouched
    assert np.array_equal(fidelity_coefficients(0.4, T_OPERATORS), fidelity_coefficients(0.4))
    with pytest.raises(ValueError):
        fidelity_coefficients(0.8)
    with pytest.raises(ValueError, match="T_OPERATORS"):
        fidelity_coefficients(0.4, T_OPERATORS.copy())


def test_functional_table_rejects_a_non_affine_functional(monkeypatch):
    """The witness refuses a functional that is not affine in x, on which no literal G0, G1 could rest."""
    dense = reference.dense_fidelity_coefficients
    monkeypatch.setattr(reference, "dense_fidelity_coefficients", lambda alpha, t: dense(alpha, t) + alpha**4)
    with pytest.raises(RuntimeError, match="not affine"):
        functional_table(build_t_operators())


def test_local_fidelity_scores_apply_choi_on_the_representative_density():
    """local_fidelity scores the same bits as apply_choi does on the density of schmidt_state(alpha),
    over 402 alphas, and checks its alpha."""
    grid = [*np.linspace(0.0, ALPHA_MAX, 401), alpha_critical()]
    p_e = family_channel(CloneFamily.LOCC_OPTIMAL, 0.45)
    expected = []
    for alpha in grid:
        phi = schmidt_state(alpha)
        r1, r2 = clone_reductions(apply_choi(p_e, density(phi)))
        expected.append(float(np.real(phi.conj() @ ((r1 + r2) / 2.0) @ phi)))
    assert [local_fidelity(p_e, alpha) for alpha in grid] == expected
    assert local_fidelity(p_e, np.float64(0.45)) == local_fidelity(p_e, 0.45)
    with pytest.raises(ValueError):
        local_fidelity(p_e, 0.9)
