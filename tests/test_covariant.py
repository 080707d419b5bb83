import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, CloneFamily, params_for
from entclone.covariant import (
    BLOCK_BASIS,
    BLOCK_C,
    BLOCK_X,
    T_OPERATORS,
    _PARTIES_TO_CHOI,
    _TRANSPOSE_B,
    _STACK,
    _choi_order,
    assemble_ptilde,
    basis_stack,
    partial_transpose_b,
)
from reference import choi_kron, commutant_blocks, kron_all, random_su2, triple_rep


def test_basis_vector_amplitudes():
    first = BLOCK_BASIS[:, 0]
    assert abs(first[3] - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(first[5] + 1.0 / np.sqrt(2.0)) < 1e-15
    assert np.abs(np.delete(first, [3, 5])).max() < 1e-15
    second = BLOCK_BASIS[:, 2]
    assert abs(second[0] - 2.0 / np.sqrt(6.0)) < 1e-15
    assert abs(second[3] - 1.0 / np.sqrt(6.0)) < 1e-15
    assert abs(second[5] - 1.0 / np.sqrt(6.0)) < 1e-15


def test_basis_is_orthonormal_and_complete():
    v = BLOCK_BASIS
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-15
    assert np.abs(v @ v.conj().T - (T_OPERATORS[0] + T_OPERATORS[1])).max() < 1e-15


def test_t_operator_algebra():
    t1, t2, t3, t4, t5 = T_OPERATORS
    for proj, rank in ((t1, 2), (t2, 2), (t3, 4)):
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert abs(np.trace(proj).real - rank) < 1e-12
    assert np.abs(t3 - (np.eye(8) - t1 - t2)).max() < 1e-12
    assert np.abs(t4 @ t1 @ t4 - t2).max() < 1e-12
    assert np.abs(t4 @ t4 + t5 @ t5 - 2.0 * (t1 + t2)).max() < 1e-12
    for op in (t4, t5):
        assert np.abs(op - op.conj().T).max() < 1e-12
        assert abs(np.trace(op)) < 1e-12


def test_t4_commutes_with_triple_rep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        rep = triple_rep(random_su2(rng))
        for op in T_OPERATORS[3:]:
            worst = max(worst, np.abs(op @ rep - rep @ op).max())
    assert worst < 1e-10


def test_commutant_blocks():
    """The witness reads BLOCK_X, BLOCK_C back off t1..t5, follows a relabelling of them, and refuses
    operators that leave M2 (+) C."""
    x, c = commutant_blocks()
    assert np.abs(x[0] - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(x[1] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(x[2]).max() < 1e-12
    assert np.abs(c - [0.0, 0.0, 1.0, 0.0, 0.0]).max() < 1e-12
    assert np.abs(x - BLOCK_X).max() < 1e-15
    assert np.abs(c - BLOCK_C).max() < 1e-15
    swapped_x, swapped_c = commutant_blocks(T_OPERATORS[[0, 1, 2, 4, 3]])
    assert np.abs(swapped_x - BLOCK_X[[0, 1, 2, 4, 3]]).max() < 1e-15
    assert np.abs(swapped_c - BLOCK_C).max() < 1e-15
    strayed = T_OPERATORS.copy()
    strayed[3, 0, 1] += 1e-9
    strayed[3, 1, 0] += 1e-9
    with pytest.raises(RuntimeError):
        commutant_blocks(strayed)


def test_t_operators_span_commutant():
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
    span, _ = np.linalg.qr(T_OPERATORS.reshape(5, 64).T)
    for ti in T_OPERATORS:
        v = ti.reshape(-1)
        assert np.linalg.norm(v - null @ (null.conj().T @ v)) < 1e-12 * np.linalg.norm(v)
    assert np.abs(null - span @ (span.conj().T @ null)).max() < 1e-12
    t12 = (T_OPERATORS[3] - 1j * T_OPERATORS[4]) / 2
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


def test_assemble_equals_kron_double_sum():
    """The single contraction equals the 25-term double sum of a_ij ti (x) tj, zero terms included."""
    rng = np.random.default_rng(50)
    ts = T_OPERATORS
    for k in range(50):
        a = rng.standard_normal((5, 5)) * (rng.uniform(size=(5, 5)) < 0.5 if k % 2 else 1.0)
        expected = sum(a[i, j] * choi_kron(ts[i], ts[j]) for i in range(5) for j in range(5))
        assert np.abs(assemble_ptilde(a) - expected).max() <= 1e-14
    for shape in ((5,), (4, 4), (5, 6), (25,)):
        with pytest.raises(ValueError, match="5x5"):
            assemble_ptilde(np.zeros(shape))


def test_assemble_reads_one_read_only_stack():
    """assemble_ptilde and basis_stack read one read-only (5, 64) stack of t1..t5: a view of T_OPERATORS."""
    with pytest.raises(ValueError):
        _STACK.flat[0] = 1.0
    assert _STACK.base is T_OPERATORS
    assert np.array_equal(_STACK, T_OPERATORS.reshape(5, 64))
    a = params_for(CloneFamily.LOCC_OPTIMAL, ALPHA_MAX)
    assert np.array_equal(assemble_ptilde(a), assemble_ptilde(a, T_OPERATORS))
    for other in (T_OPERATORS.copy(), T_OPERATORS[[1, 0, 2, 3, 4]]):
        with pytest.raises(ValueError, match="T_OPERATORS"):
            assemble_ptilde(a, other)


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
        rep = choi_kron(triple_rep(random_su2(rng)), triple_rep(random_su2(rng)))
        assert np.abs(rep @ ptilde @ rep.conj().T - ptilde).max() < 1e-10


def test_b_side_transpose_structure():
    """Transposing every B factor maps T_i x T_j to T_i x T_j^T."""
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 5))
    flipped = partial_transpose_b(assemble_ptilde(a))
    ts = T_OPERATORS
    direct = sum(a[i, j] * choi_kron(ts[i], ts[j].T) for i in range(5) for j in range(5))
    assert np.abs(flipped - direct).max() < 1e-12


def test_choi_kron_writes_out_the_choi_order():
    """The reference choi_kron interleaves Alice's and Bob's factors as (1A,1B,2A,2B,A,B)."""
    rng = np.random.default_rng(5)
    f = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(6)]
    choi = kron_all(f)
    assert np.abs(choi_kron(kron_all(f[0::2]), kron_all(f[1::2])) - choi).max() < 1e-14 * np.abs(choi).max()


def test_assemble_unit_matrices_on_the_choi_order():
    """assemble_ptilde(e_ij) is Alice's ti tensor Bob's tj written out on the Choi order."""
    ts = T_OPERATORS
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


def test_basis_stack_is_the_outer_products_on_the_choi_order():
    ts = T_OPERATORS.reshape(5, 64)
    expected = [_choi_order(np.outer(ti, tj)) for ti in ts for tj in ts]
    assert np.array_equal(basis_stack(), np.array(expected))


def test_partial_transpose_product_state():
    """On a product of operators on the pairs (1A,1B), (2A,2B), (A,B), each pair's B qubit is transposed."""
    rng = np.random.default_rng(3)
    pairs = [rng.standard_normal((4, 4, 2)) @ [1, 1j] for _ in range(3)]
    flipped = [m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4) for m in pairs]
    assert np.array_equal(partial_transpose_b(kron_all(pairs)), kron_all(flipped))


def test_partial_transpose_singlet():
    """A singlet on each of the adjacent pairs (1A,1B), (2A,2B), (A,B) is maximally entangled
    across A|B: its partial transpose has minimum eigenvalue -1/8."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    proj = kron_all([np.outer(singlet, singlet)] * 3)
    vals = np.linalg.eigvalsh(partial_transpose_b(proj))
    assert abs(vals.min() + 1.0 / 8.0) < 1e-12


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((64, 64, 2)) @ [1, 1j]
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
