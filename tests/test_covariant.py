import dataclasses

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, CloneFamily, params_for
from entclone.covariant import (
    BLOCK_BASIS,
    BLOCK_C,
    BLOCK_X,
    _PARTIES_TO_CHOI,
    _TRANSPOSE_B,
    _choi_order,
    _flat_stack,
    assemble_ptilde,
    basis_stack,
    commutant_blocks,
    partial_transpose_b,
    random_su2,
    triple_rep,
    two_party_rep,
)


def choi_kron(x, y):
    """x on Alice's (1A,2A,A) tensor y on Bob's (1B,2B,B), written out on the Choi order (1A,1B,2A,2B,A,B)."""
    xs = np.reshape(x, (2,) * 6)
    ys = np.reshape(y, (2,) * 6)
    return np.einsum("pqrstu,PQRSTU->pPqQrRsStTuU", xs, ys).reshape(64, 64)


def kron_all(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def test_basis_vector_amplitudes():
    first = BLOCK_BASIS[:, 0]
    assert abs(first[3] - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(first[5] + 1.0 / np.sqrt(2.0)) < 1e-15
    assert np.abs(np.delete(first, [3, 5])).max() < 1e-15
    second = BLOCK_BASIS[:, 2]
    assert abs(second[0] - 2.0 / np.sqrt(6.0)) < 1e-15
    assert abs(second[3] - 1.0 / np.sqrt(6.0)) < 1e-15
    assert abs(second[5] - 1.0 / np.sqrt(6.0)) < 1e-15


def test_basis_is_orthonormal_and_complete(t_ops):
    v = BLOCK_BASIS
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-15
    assert np.abs(v @ v.conj().T - (t_ops.t1 + t_ops.t2)).max() < 1e-15


def test_t_operator_algebra(t_ops):
    t1, t2, t3, t4, t5 = t_ops.as_list()
    for proj, rank in ((t1, 2), (t2, 2), (t3, 4)):
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert abs(np.trace(proj).real - rank) < 1e-12
    assert np.abs(t3 - (np.eye(8) - t1 - t2)).max() < 1e-12
    assert np.abs(t4 @ t1 @ t4 - t2).max() < 1e-12
    assert np.abs(t4 @ t4 + t5 @ t5 - 2.0 * (t1 + t2)).max() < 1e-12
    for op in (t4, t5):
        assert np.abs(op - op.conj().T).max() < 1e-12
        assert abs(np.trace(op)) < 1e-12


def test_t4_commutes_with_triple_rep(t_ops):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        rep = triple_rep(random_su2(rng))
        for op in (t_ops.t4, t_ops.t5):
            worst = max(worst, np.abs(op @ rep - rep @ op).max())
    assert worst < 1e-10


def test_commutant_blocks(t_ops):
    x, c = commutant_blocks(t_ops)
    assert np.abs(x[0] - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(x[1] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(x[2]).max() < 1e-12
    assert np.abs(c - [0.0, 0.0, 1.0, 0.0, 0.0]).max() < 1e-12
    assert np.abs(x - BLOCK_X).max() < 1e-15
    assert np.abs(c - BLOCK_C).max() < 1e-15
    swapped_x, swapped_c = commutant_blocks(dataclasses.replace(t_ops, t4=t_ops.t5, t5=t_ops.t4))
    assert np.abs(swapped_x - BLOCK_X[[0, 1, 2, 4, 3]]).max() < 1e-15
    assert np.abs(swapped_c - BLOCK_C).max() < 1e-15
    stray = np.zeros((8, 8))
    stray[0, 1] = stray[1, 0] = 1e-9
    with pytest.raises(RuntimeError):
        commutant_blocks(dataclasses.replace(t_ops, t4=t_ops.t4 + stray))


def test_t_operators_span_commutant(t_ops):
    """The closed-form t1..t5 span the numerical commutant of seeded group draws."""
    rng = np.random.default_rng(720517)
    eye = np.eye(8)
    gram = np.zeros((64, 64), dtype=complex)
    for _ in range(20):
        g = triple_rep(random_su2(rng))
        # vec(g T - T g) = (g (x) I - I (x) g^T) vec(T) for row-major vec
        lhs = np.kron(g, eye) - np.kron(eye, g.T)
        gram += lhs.conj().T @ lhs
    vals, vecs = np.linalg.eigh(gram)
    null = vecs[:, vals < 1e-9 * vals[-1]]
    assert null.shape[1] == 5
    span, _ = np.linalg.qr(np.stack([ti.reshape(-1) for ti in t_ops.as_list()], axis=1))
    for ti in t_ops.as_list():
        v = ti.reshape(-1)
        assert np.linalg.norm(v - null @ (null.conj().T @ v)) < 1e-12 * np.linalg.norm(v)
    assert np.abs(null - span @ (span.conj().T @ null)).max() < 1e-12
    t12 = (t_ops.t4 - 1j * t_ops.t5) / 2
    lead = BLOCK_BASIS[:, 2].conj() @ t12 @ BLOCK_BASIS[:, 0]
    assert abs(lead.imag) < 1e-15 and lead.real > 0


def test_assemble_zero_and_projector():
    assert np.abs(assemble_ptilde(np.zeros((5, 5)))).max() == 0.0
    a = np.zeros((5, 5))
    a[1, 1] = 1.0
    vals = np.linalg.eigvalsh(assemble_ptilde(a))
    counts = np.isclose(vals, 1.0, atol=1e-10).sum(), np.isclose(vals, 0.0, atol=1e-10).sum()
    assert counts == (4, 60)


def test_assemble_is_linear_in_basis():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    direct = np.tensordot(a.reshape(-1), basis_stack(), axes=(0, 0))
    assert np.abs(assemble_ptilde(a) - direct).max() < 1e-13


def test_assemble_equals_kron_double_sum(t_ops):
    """The single contraction equals the 25-term double sum of a_ij ti (x) tj, zero terms included."""
    rng = np.random.default_rng(50)
    ts = t_ops.as_list()
    for k in range(50):
        a = rng.standard_normal((5, 5)) * (rng.uniform(size=(5, 5)) < 0.5 if k % 2 else 1.0)
        expected = sum(a[i, j] * choi_kron(ts[i], ts[j]) for i in range(5) for j in range(5))
        assert np.abs(assemble_ptilde(a) - expected).max() <= 1e-14
    for shape in ((5,), (4, 4), (5, 6), (25,)):
        with pytest.raises(ValueError, match="5x5"):
            assemble_ptilde(np.zeros(shape))


def test_flat_stack_is_built_once_per_t(t_ops):
    """assemble_ptilde reads one read-only (5, 64) stack per t object, and a fresh build gives the same bits."""
    stack = _flat_stack(t_ops)
    assert _flat_stack(t_ops) is stack
    with pytest.raises(ValueError):
        stack.flat[0] = 1.0
    assert np.array_equal(stack, np.array(t_ops.as_list()).reshape(5, 64))
    a = params_for(CloneFamily.LOCC_OPTIMAL, ALPHA_MAX)
    cached = assemble_ptilde(a, t_ops)
    _flat_stack.cache_clear()
    assert np.array_equal(assemble_ptilde(a, t_ops), cached)
    swapped = dataclasses.replace(t_ops, t1=t_ops.t2, t2=t_ops.t1)
    assert np.array_equal(_flat_stack(swapped)[0], stack[1])


def test_family_operators_are_positive():
    for family, alpha in (
        (CloneFamily.GLOBAL_OPTIMAL, ALPHA_MAX),
        (CloneFamily.BUZEK_HILLERY_SQUARED, 0.3),
        (CloneFamily.LOCC_OPTIMAL, 0.6),
    ):
        ptilde = assemble_ptilde(params_for(family, alpha))
        vals = np.linalg.eigvalsh(ptilde)
        assert vals.min() > -1e-10


def test_covariance_under_local_unitaries():
    rng = np.random.default_rng(13)
    ptilde = assemble_ptilde(params_for(CloneFamily.GLOBAL_OPTIMAL, 0.45))
    for _ in range(10):
        rep = two_party_rep(random_su2(rng), random_su2(rng))
        assert np.abs(rep @ ptilde @ rep.conj().T - ptilde).max() < 1e-10


def test_b_side_transpose_structure(t_ops):
    """Transposing every B factor maps T_i x T_j to T_i x T_j^T."""
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 5))
    flipped = partial_transpose_b(assemble_ptilde(a))
    ts = t_ops.as_list()
    direct = sum(a[i, j] * choi_kron(ts[i], ts[j].T) for i in range(5) for j in range(5))
    assert np.abs(flipped - direct).max() < 1e-12


def test_choi_kron_writes_out_the_choi_order():
    """The test-local choi_kron interleaves Alice's and Bob's factors as (1A,1B,2A,2B,A,B)."""
    rng = np.random.default_rng(5)
    f = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(6)]
    choi = kron_all(f)
    assert np.abs(choi_kron(kron_all(f[0::2]), kron_all(f[1::2])) - choi).max() < 1e-14 * np.abs(choi).max()


def test_two_party_rep_is_on_the_choi_order():
    rng = np.random.default_rng(6)
    for _ in range(5):
        u_a, u_b = random_su2(rng), random_su2(rng)
        expected = choi_kron(triple_rep(u_a), triple_rep(u_b))
        assert np.abs(two_party_rep(u_a, u_b) - expected).max() < 1e-15


def test_assemble_unit_matrices_on_the_choi_order(t_ops):
    """assemble_ptilde(e_ij) is Alice's ti tensor Bob's tj written out on the Choi order."""
    ts = t_ops.as_list()
    for i in range(5):
        for j in range(5):
            unit = np.zeros((5, 5))
            unit[i, j] = 1.0
            assert np.abs(assemble_ptilde(unit) - choi_kron(ts[i], ts[j])).max() < 1e-15


def test_index_tables_equal_the_12_axis_transposes():
    """The flat gathers equal the qubit-axis transposes they replace, bit for bit."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    axes = (2,) * 12
    assert np.array_equal(_choi_order(x), x.reshape(axes).transpose(_PARTIES_TO_CHOI).reshape(64, 64))
    assert np.array_equal(partial_transpose_b(x), x.reshape(axes).transpose(_TRANSPOSE_B).reshape(64, 64))
    stack = rng.standard_normal((3, 64, 64))
    assert np.array_equal(_choi_order(stack), np.array([_choi_order(m) for m in stack]))


def test_basis_stack_is_the_outer_products_on_the_choi_order(t_ops):
    ts = _flat_stack(t_ops)
    expected = [_choi_order(np.outer(ti, tj)) for ti in ts for tj in ts]
    assert np.array_equal(basis_stack(), np.array(expected))
