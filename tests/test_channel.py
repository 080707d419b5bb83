import dataclasses
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
from entclone import channel
from entclone.channel import (
    _functional_table,
    _party_reductions,
    apply,
    apply_choi,
    channel_from_params,
    check_state,
    clone_reductions,
    constraint_matrices,
    fidelity_coefficients,
    local_fidelity,
    representative_density,
    trace_output,
)
from entclone.covariant import T_OPERATORS, assemble_ptilde, basis_stack, build_t_operators, random_su2


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


def test_choi_is_trace_preserving():
    ch = family_channel(CloneFamily.GLOBAL_OPTIMAL, 0.4)
    assert np.abs(trace_output(ch) - np.eye(4)).max() < 1e-10


def test_bh_channel_on_product_input():
    ch = family_channel(CloneFamily.BUZEK_HILLERY_SQUARED, 0.3)
    rho_in = density(np.array([1.0, 0.0, 0.0, 0.0]))
    rho_out = apply(ch, rho_in)
    assert abs(np.trace(rho_out) - 1.0) < 1e-10
    clone_1, clone_2 = clone_reductions(rho_out)
    for clone in (clone_1, clone_2):
        overlap = np.real(np.trace(clone @ rho_in))
        assert abs(overlap - 25.0 / 36.0) < 1e-10


def test_locc_channel_on_bell_input():
    ch = family_channel(CloneFamily.LOCC_OPTIMAL, ALPHA_MAX)
    bell = density(schmidt_state(ALPHA_MAX))
    clone_1, clone_2 = clone_reductions(apply(ch, bell))
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
        clone_1, clone_2 = clone_reductions(apply(ch, rotated))
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


def dense_fidelity_coefficients(alpha, t_ops):
    """Reference f: each ti (x) tj as a 64x64 Choi operator applied to the representative state."""
    phi = schmidt_state(alpha)
    f = np.zeros(25)
    for p, g in enumerate(basis_stack(t_ops)):
        clone_1, clone_2 = clone_reductions(apply_choi(g, density(phi)))
        f[p] = np.real(phi.conj() @ (clone_1 + clone_2) @ phi) / 2.0
    return f.reshape(5, 5)


def dense_constraint_matrices(t_ops):
    """Reference trace row and symmetry rows from partial traces of the 64x64 Choi operators."""
    trace_row = np.zeros(25)
    columns = np.zeros((512, 25))
    for p, p_e in enumerate(basis_stack(t_ops)):
        trace_row[p] = np.real(np.trace(trace_output(p_e))) / 4.0
        # Rows and columns (clone 1, clone 2, input): trace out clone 2, then clone 1.
        p6 = p_e.reshape(4, 4, 4, 4, 4, 4)
        d = np.einsum("abixbj->aixj", p6) - np.einsum("abiayj->biyj", p6)
        columns[:256, p] = d.real.reshape(-1)
        columns[256:, p] = d.imag.reshape(-1)
    _, sv, vh = np.linalg.svd(columns, full_matrices=False)
    return trace_row, vh[sv > 1e-10 * max(sv[0], 1.0)]


def test_party_assembly_matches_dense(t_ops):
    """The per-party reductions give the same objective and equalities as the 64x64 operators."""
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        assert np.abs(fidelity_coefficients(alpha, t_ops) - dense_fidelity_coefficients(alpha, t_ops)).max() < 1e-14
    trace_row, sym_rows = constraint_matrices(t_ops)
    dense_trace, dense_sym = dense_constraint_matrices(t_ops)
    assert np.abs(trace_row - dense_trace).max() < 1e-14
    assert sym_rows.shape == dense_sym.shape
    assert np.abs(sym_rows.T @ sym_rows - dense_sym.T @ dense_sym).max() < 1e-12


def test_party_reductions_are_built_once_per_t(t_ops):
    """The same t shares its read-only reductions; any other t object builds its own, and the
    objective read through the cache equals a fresh build bit for bit."""
    parts = _party_reductions(t_ops)
    assert all(p is q for p, q in zip(parts, _party_reductions(t_ops)))
    for arr in parts:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    rebuilt = _party_reductions(build_t_operators())
    assert all(p is not q and np.array_equal(p, q) for p, q in zip(rebuilt, parts))
    swapped = _party_reductions(dataclasses.replace(t_ops, t1=t_ops.t2, t2=t_ops.t1))
    assert not np.array_equal(swapped[0], parts[0])
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        cached = fidelity_coefficients(alpha, t_ops)
        _party_reductions.cache_clear()
        _functional_table.cache_clear()
        assert np.array_equal(fidelity_coefficients(alpha, t_ops), cached)


def test_constraint_matrices_reject_non_covariant_operators(t_ops):
    rng = np.random.default_rng(26)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(RuntimeError, match="non-scalar"):
        constraint_matrices(dataclasses.replace(t_ops, t1=h + h.conj().T))
    with pytest.raises(RuntimeError, match="complex output trace"):
        constraint_matrices(dataclasses.replace(t_ops, t1=1j * t_ops.t1))


def test_families_satisfy_constraints():
    trace_row, sym_rows = constraint_matrices()
    for family in CloneFamily:
        for alpha in (0.1, alpha_critical(), 0.55, ALPHA_MAX):
            a = params_for(family, alpha).reshape(-1)
            assert abs(trace_row @ a - 1.0) < 1e-12
            assert np.abs(sym_rows @ a).max() < 1e-12


def test_apply_validates_input():
    ch = family_channel(CloneFamily.BUZEK_HILLERY_SQUARED, 0.2)
    with pytest.raises(ValueError):
        apply(ch, np.eye(4))
    with pytest.raises(ValueError):
        apply(ch, np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        apply(ch, np.eye(3) / 3.0)
    for bad in (np.diag([np.nan, 1.0, 0.0, 0.0]), np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            apply(ch, bad)


def test_local_fidelity_rejects_asymmetric_channel():
    """A map that parks clone 2 in a fixed state is not clone symmetric."""
    e0 = np.zeros((4, 1))
    e0[0, 0] = 1.0
    k = np.kron(np.eye(4), e0)
    vec_k = k.reshape(-1)
    with pytest.raises(ValueError, match="clone symmetry"):
        local_fidelity(np.outer(vec_k, vec_k.conj()), 0.4)


def sandwich_fidelity_coefficients(alpha, t_ops):
    """Reference f at one alpha: f_ij = Re sum_k <psi| Rk_i (x) Rk_j |psi> / 2 with psi = phi (x) phi by party."""
    phi = schmidt_state(alpha).reshape(2, 2)
    psi = np.einsum("ab,xy->axby", phi, phi).reshape(4, 4)
    f = np.zeros((5, 5))
    for r in _party_reductions(t_ops)[:2]:
        sandwich = psi.conj().T @ r @ psi
        f += np.real(sandwich.reshape(5, 16) @ r.reshape(5, 16).T) / 2.0
    return f


@pytest.mark.parametrize("fresh", [False, True], ids=["default-t", "fresh-t"])
def test_functional_table_matches_the_per_alpha_sandwich(fresh):
    """G0 + x G1 equals the functional computed at each alpha; measured 6.7e-16 at worst."""
    t_ops = build_t_operators() if fresh else T_OPERATORS
    worst = 0.0
    for alpha in np.linspace(0.0, ALPHA_MAX, 501):
        got = fidelity_coefficients(alpha, t_ops)
        worst = max(worst, np.abs(got - sandwich_fidelity_coefficients(alpha, t_ops)).max())
    assert worst <= 1e-15


def test_functional_table_is_built_once_per_t(t_ops):
    g0, g1 = _functional_table(t_ops)
    assert all(p is q for p, q in zip((g0, g1), _functional_table(t_ops)))
    for arr in (g0, g1):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    f = fidelity_coefficients(0.4, t_ops)
    f[0, 0] = 7.0  # the caller owns the returned array; the tables are untouched
    assert np.array_equal(fidelity_coefficients(0.4, t_ops), fidelity_coefficients(0.4))
    with pytest.raises(ValueError):
        fidelity_coefficients(0.8)


def test_functional_table_rejects_a_non_affine_functional(monkeypatch):
    sandwich = channel._sandwich
    monkeypatch.setattr(channel, "_sandwich", lambda alpha, t: sandwich(alpha, t) + alpha**4)
    with pytest.raises(RuntimeError, match="not affine"):
        fidelity_coefficients(0.3, build_t_operators())


def test_representative_density_is_validated_once_and_read_only(monkeypatch):
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        rho = representative_density(alpha)
        phi = schmidt_state(alpha)
        assert not rho.flags.writeable
        assert np.array_equal(rho, check_state(np.outer(phi, phi.conj())))
    calls = []
    monkeypatch.setattr(channel, "check_state", lambda rho: calls.append(1) or check_state(rho))
    channel._representative_density.cache_clear()
    p_e = family_channel(CloneFamily.LOCC_OPTIMAL, 0.45)
    first = local_fidelity(p_e, 0.45)
    assert local_fidelity(p_e, np.float64(0.45)) == first
    assert representative_density(0.45) is representative_density(0.45)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        representative_density(0.9)
