"""The literal tables the program is built from, reproduced by their derivation from t1..t5.

The program depends on alpha only through x = alpha^2 (1 - alpha^2),
and every table it is built from is exact, so channel and sdp hold them
as literals: the functional G0 + x G1, the trace row and the symmetry
rows over the flat a vector, and on the raw FIXED coordinates a11, a22,
a33, a44, a55, a12, a13, a23 the cone forms, whose entries are 0 and +-1,
and the trace row (1, 1, 4, 0, 0, 2, 4, 4).  The objective is the
functional read on those coordinates.  The PPT cone is the
plain cone with its a55 column negated.  The threshold is x0 = 1/10,
since 1 - 10 alpha^2 + 10 alpha^4 = 1 - 10x.  These tests witness that
the numerical derivation in tests/reference.py reproduces every literal.

They also check the three premises on which the PPT program is solved on
its a55 = 0 slice (see the sdp module docstring): the objective's a55
coefficient is 0 to rounding, the trace row's a55 entry is 0, and the PPT
forms are the plain ones with the a55 column negated; the premise of
the dual start, that each program's weighted Gram matrix is diagonal and
integer; the exact left inverse of the forms and the dual's free
directions; the weights mu reads; the closed form of each program's
start; that the solution's a_star holds the iterate's coordinates as
they are; that build_problem reads no table per call; and
the premise of criterion 9's feasible points, that the trace row and the
symmetry rows have disjoint supports.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from entclone import sdp
from entclone.analytic import ALPHA_MAX, alpha_critical
from entclone.channel import G0, G1, SYMMETRY_ROWS, TRACE_ROW, fidelity_coefficients
from entclone.covariant import BLOCK_C, BLOCK_X
from entclone.sdp import CONE_FORMS, FIXED, build_problem, solve
from reference import (
    FREE_ROWS,
    _dense_spectra,
    block_cone,
    dense_constraint_matrices,
    dense_fidelity_coefficients,
    functional_table,
)

A55 = 4
# The trace row on the raw coordinates: Tr_out ti (x) tj = s_i s_j I4, s = (1, 1, 2, 0, 0), with each
# off-diagonal coordinate counted at ij and ji.
TRACE = np.array([1.0, 1.0, 4.0, 0.0, 0.0, 2.0, 4.0, 4.0])
# a = s s^T / 36 on the raw coordinates: the plain program's start.
MIXED = np.array([1.0, 1.0, 4.0, 0.0, 0.0, 1.0, 2.0, 2.0]) / 36.0
# The copies of the cone's four 2x2 blocks in one 64x64 operator (see the sdp module docstring), and the
# per-copy weights of CONE_FORMS's rows they give: the 2x2 block's (p, q, r) with q counted twice, then the
# diagonals of blocks 2-4 as five scalars, block 4's two (one form, a33) as one of weight 8 x 2.
BLOCK_COPIES = (4, 4, 16, 8)
WEIGHTS = np.array([4.0, 8.0, 4.0, 4.0, 4.0, 16.0, 16.0, 16.0])


def test_functional_is_g0_plus_x_g1():
    """G0 and G1 against the witness's; G1 scaled by the x range [0, 1/4] it is read off over."""
    g0, g1 = functional_table()
    assert np.abs(g0 - G0).max() <= 1e-15
    assert np.abs(g1 - G1).max() / 4.0 <= 1e-15
    for table in (G0, G1):
        assert np.array_equal(table, table.T)


def test_objective_is_the_channel_functional():
    """Both programs' objective is fidelity_coefficients on their coordinates, bit for bit, and matches
    the dense witness on 501 alphas (measured 7.8e-16); the plain objective's a55 entry is exactly 0."""
    assert G0[A55, A55] == G1[A55, A55] == 0.0
    worst = worst_a55 = 0.0
    for alpha in np.linspace(0.0, ALPHA_MAX, 501):
        witness = dense_fidelity_coefficients(alpha)
        dense = FIXED.T @ witness.reshape(-1)
        functional = fidelity_coefficients(alpha).reshape(-1)
        for with_ppt in (False, True):
            problem = build_problem(alpha, with_ppt=with_ppt)
            assert np.array_equal(problem.objective, functional @ problem.setup.basis)
            want = np.delete(dense, A55) if with_ppt else dense
            worst = max(worst, np.abs(problem.objective - want).max())
        assert build_problem(alpha).objective[A55] == 0.0
        worst = max(worst, np.abs(functional - witness.reshape(-1)).max())
        worst_a55 = max(worst_a55, abs(dense[A55]))
    assert worst <= 1e-15
    assert worst_a55 <= 1e-15


def test_trace_row_is_literal():
    """Each problem's equality is the literal integer trace row bit for bit (the PPT one without a55), the
    dense witness's row on the FIXED coordinates to 1e-15, with e.e = 54."""
    trace_row, _ = dense_constraint_matrices()
    assert np.abs(trace_row - TRACE_ROW).max() <= 1e-15
    for alpha in (0.0, 0.3, ALPHA_MAX):
        for with_ppt in (False, True):
            (row,) = build_problem(alpha, with_ppt=with_ppt).eq_matrix
            assert np.array_equal(row, np.delete(TRACE, A55) if with_ppt else TRACE)
        (row,) = build_problem(alpha).eq_matrix
        assert np.abs(row - FIXED.T @ trace_row).max() <= 1e-15
        assert row @ row == 54.0


def test_symmetry_rows_are_literal():
    """SYMMETRY_ROWS is orthonormal and spans the witness's row space: equal projectors to 1e-15."""
    _, sym_rows = dense_constraint_matrices()
    assert SYMMETRY_ROWS.shape == sym_rows.shape == (3, 25)
    assert np.abs(SYMMETRY_ROWS @ SYMMETRY_ROWS.T - np.eye(3)).max() <= 1e-15
    assert np.abs(SYMMETRY_ROWS.T @ SYMMETRY_ROWS - sym_rows.T @ sym_rows).max() <= 1e-15


def test_cone_forms_are_literal_and_ppt_flips_a55():
    """The witness derives the four 2x2 blocks of the plain cone from the M2 (+) C blocks of t1..t5 (read off
    t1..t5 in test_covariant.test_commutant_blocks), and those of its partial transpose.  For both, with
    CONE_FORMS's a55 column negated for the partial transpose: block 1 is CONE_FORMS's (p, q, r), and the
    diagonals of blocks 2-4, each repeated by its block's copies, are CONE_FORMS's five scalars repeated by
    their weights (measured: 2.2e-17 on the forms, 8.9e-16 on the values); that blocks 2-4 are diagonal is
    test_blocks_2_to_4_are_diagonal_and_block_4_is_one_scalar.  The PPT program's one cone is the plain cone
    without its a55 column."""
    assert np.array_equal(sdp._FORM_WEIGHTS, WEIGHTS)
    assert np.array_equal(WEIGHTS[:3], np.array([1, 2, 1]) * BLOCK_COPIES[0])
    assert 2 * sum(BLOCK_COPIES) == WEIGHTS @ [1, 0, 1, 1, 1, 1, 1, 1] == 64
    rng = np.random.default_rng(4005)
    for xb, flip in ((BLOCK_X, 1.0), (np.swapaxes(BLOCK_X, 1, 2), -1.0)):
        forms = CONE_FORMS * np.where(np.arange(8) == A55, flip, 1.0)
        blocks = block_cone(BLOCK_X, xb, BLOCK_C).reshape(4, 3, -1)
        assert np.abs(blocks[0] - forms[:3]).max() <= 1e-15
        diagonals, copies = blocks[1:, [0, 2]].reshape(6, -1), np.repeat(BLOCK_COPIES[1:], 2)
        for x in rng.normal(size=(4, 8)):
            derived = np.sort(np.repeat(diagonals @ x, copies))
            assert np.abs(derived - np.sort(np.repeat(forms[3:] @ x, WEIGHTS[3:].astype(int)))).max() <= 1e-14
    assert np.isin(CONE_FORMS, (0.0, 1.0, -1.0)).all()
    assert np.abs(CONE_FORMS[:, A55]).max() > 0.5
    assert build_problem(0.3).cones is CONE_FORMS
    assert np.array_equal(build_problem(0.3, with_ppt=True).cones, np.delete(CONE_FORMS, A55, axis=1))


def test_blocks_2_to_4_are_diagonal_and_block_4_is_one_scalar():
    """The premise of CONE_FORMS's split into one 2x2 block and five scalars, derived by the witness for the
    plain cone and for its partial transpose: the q forms of blocks 2-4 are 0 and block 4's p and r are
    one form (measured: exactly 0 and equal)."""
    for xb in (BLOCK_X, np.swapaxes(BLOCK_X, 1, 2)):
        blocks = block_cone(BLOCK_X, xb, BLOCK_C).reshape(4, 3, -1)
        assert np.abs(blocks[1:, 1]).max() <= 1e-15
        assert np.abs(blocks[3, 0] - blocks[3, 2]).max() <= 1e-15
        assert np.abs(blocks[3, 0]).max() > 0.5


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_solver_cone_is_one_block_and_five_scalars(with_ppt):
    """The solver's eight forms are CONE_FORMS, without its a55 column for PPT; their weights are WEIGHTS per
    copy of the cone, one copy plain and two PPT, so nu = 64 per copy.  Each scalar repeated by its weight and
    the block's eigenvalues 4 times per copy are the spectrum of the dense operators at a = basis x (measured
    5.0e-15)."""
    problem = build_problem(0.3, with_ppt=with_ppt)
    setup, copies = problem.setup, 2 if with_ppt else 1
    assert np.array_equal(setup.forms, np.delete(CONE_FORMS, A55, axis=1) if with_ppt else CONE_FORMS)
    assert np.array_equal(setup.weights, copies * WEIGHTS)
    assert problem.nu == 64.0 * copies
    rng = np.random.default_rng(3903)
    for _ in range(4):
        x = rng.normal(size=setup.forms.shape[1])
        (p, q, r), scalars = np.split(setup.forms @ x, [3])
        per_copy = [*np.repeat(np.linalg.eigvalsh([[p, q], [q, r]]), 4), *np.repeat(scalars, WEIGHTS[3:].astype(int))]
        for spectrum in _dense_spectra((setup.basis @ x).reshape(5, 5))[:copies]:
            assert np.abs(np.sort(per_copy) - spectrum).max() <= 1e-12


def test_threshold_is_x0_one_tenth():
    a0 = alpha_critical()
    assert abs(a0 * a0 * (1.0 - a0 * a0) - 0.1) <= 1e-16


def test_weighted_gram_is_diagonal():
    """copies CONE_FORMS^T diag(WEIGHTS) CONE_FORMS, without the a55 column and with two copies for PPT, is
    exactly diagonal and integer, with entries 4, 4, 16, 16, 16, 8, 16, 16 (plain) and 8, 8, 32, 32, 16, 32,
    32 (PPT).  setup.gram_inv is its correctly rounded reciprocal diagonal; the entries are powers of two, so
    it is exact, and np.linalg.inv of the Gram matrix bit for bit."""
    for with_ppt, diagonal in ((False, [4, 4, 16, 16, 16, 8, 16, 16]), (True, [8, 8, 32, 32, 16, 32, 32])):
        setup = build_problem(0.3, with_ppt=with_ppt).setup
        forms = np.delete(CONE_FORMS, A55, axis=1) if with_ppt else CONE_FORMS
        gram = (2 if with_ppt else 1) * np.einsum("fp,f,fq->pq", forms, WEIGHTS, forms)
        assert np.array_equal(gram, np.diag(np.array(diagonal, dtype=float)))
        assert [Fraction(float(g)) for g in setup.gram_inv] == [Fraction(1, d) for d in diagonal]
        assert np.array_equal(np.linalg.inv(gram), np.diag(setup.gram_inv))


def test_left_inverts_the_forms_exactly():
    """Each program's setup.left is an exact left inverse of its forms: left @ forms is the identity bit for
    bit, and so in exact arithmetic, as every entry of left is 0, +-1/4, +-1/2 or 1.  The plain left is
    CONE_FORMS's inverse and the PPT left is it without a55's row."""
    for with_ppt in (False, True):
        setup = build_problem(0.3, with_ppt=with_ppt).setup
        m = setup.forms.shape[1]
        assert np.array_equal(setup.left @ setup.forms, np.eye(m))
        assert set(np.unique(setup.left * 4.0)) <= {-2.0, -1.0, 0.0, 1.0, 2.0, 4.0}
        product = [[sum(Fraction(float(a)) * Fraction(float(b)) for a, b in zip(row, col)) for col in setup.forms.T]
                   for row in setup.left]
        assert product == np.eye(m).tolist()


# The rows sdp._nt_direction and sdp.solve write out: D I and D c2, D = diag(weights), over 4 (plain) or 8 (PPT).
HELD_ROWS = ((1, 0, 1, 1, 1, 4, 4, 4), (0, 2, 0, -1, 1, 0, 0, 0))


def test_free_directions_span_the_dual_steps():
    """The dual equalities N^T (f + forms^T D z) = 0 (N a null basis of the trace row e, D = diag(weights))
    leave Z the null space of B^T D, B = forms N, spanned by the identity and, on the PPT slice, c2.  In
    integers, on each program's forms, weights and e: forms^T (w * c) is 4 e (plain) or 8 e (PPT) for the
    identity and 0 for c2, so D I . S / 4 or 8 is e.x and D c2 . S is 0 on S's affine set; D I and D c2 are
    the rows the solver holds times 4 (plain) or 8 (PPT), the scale that leaves the direction's bits unchanged;
    the two rows are orthogonal, which lets the step remove its parts along them one by one.  The directions
    are independent and their number is 8 - k = 8 - rank(B).  The held reciprocals D c / |D c|^2, scaled the
    same way, are the correctly rounded 1/52 and 4/52 (|D I|^2 = 52), and 1/6 and 2/6 (|D c2|^2 = 6)."""
    identity, c2 = (np.array(row, dtype=int) for row in FREE_ROWS)
    held = np.array(HELD_ROWS)
    assert (held @ held.T).tolist() == [[52, 0], [0, 6]]
    assert (sdp._I_1, sdp._I_4) == (float(Fraction(1, 52)), float(Fraction(4, 52)))
    assert (sdp._C2_1, sdp._C2_2) == (float(Fraction(1, 6)), float(Fraction(2, 6)))
    for with_ppt, scale in ((False, 4), (True, 8)):
        problem = build_problem(0.3, with_ppt=with_ppt)
        setup, (e,) = problem.setup, problem.eq_matrix
        forms, weights, e_int = (arr.astype(int) for arr in (setup.forms, setup.weights, e))
        assert np.array_equal(forms, setup.forms) and np.array_equal(weights, setup.weights)
        assert np.array_equal(e_int, e)
        directions = [identity, c2][: 1 + with_ppt]
        for c, row, multiple in zip(directions, held, (scale, 0)):
            assert np.array_equal(forms.T @ (weights * c), multiple * e_int)
            assert np.array_equal(weights * c, scale * row)
        null = np.linalg.svd(e[None, :])[2][1:].T
        b = setup.forms @ null
        assert np.abs((b.T * setup.weights) @ np.array(directions).T).max() <= 1e-13
        assert np.linalg.matrix_rank(np.array(directions)) == len(directions) == 8 - np.linalg.matrix_rank(b)


# The weights sdp.solve's mu and stop test read: the weights over 4 (plain) or 8 (PPT), q counted twice.
MU_WEIGHTS = (1, 2, 1, 1, 1, 4, 4, 4)


def test_mu_reads_the_weights_over_4_or_8():
    """solve forms mu = sum_f w_f s_f z_f / nu with the weights w over 4 (plain) or 8 (PPT) and nu over the
    same, 16.  In integers: MU_WEIGHTS times 4 is _FORM_WEIGHTS, times 8 it is the PPT weights, and 16 times 4
    and 8 are the programs' nu, so every product and partial sum of the weighted mu is 4 or 8 times the one
    solve forms, exactly, and the quotient rounds the same."""
    mu_weights = np.array(MU_WEIGHTS)
    assert int(mu_weights @ [1, 0, 1, 1, 1, 1, 1, 1]) == 16
    assert np.array_equal(4 * mu_weights, sdp._FORM_WEIGHTS)
    for with_ppt, scale in ((False, 4), (True, 8)):
        setup = build_problem(0.3, with_ppt=with_ppt).setup
        weights = setup.weights.astype(int)
        assert np.array_equal(weights, setup.weights)
        assert np.array_equal(scale * mu_weights, weights)
        assert 16 * scale == setup.nu == weights @ [1, 0, 1, 1, 1, 1, 1, 1]


def test_plain_start_is_the_min_norm_point():
    """The plain program's x0 is a = s s^T / 36, s = (1, 1, 2, 0, 0), on the raw coordinates, bit for
    bit; it lifts exactly to TRACE_ROW / 36 = TRACE_ROW / (TRACE_ROW . TRACE_ROW), the flat equality's
    minimum-norm point (on the raw coordinates that is not e / (e.e) = e / 54), meets the equality, and
    both dense operators there have the spectrum {1, 2, 4} / 36 with multiplicities 16, 32, 16, so they
    clear 0 by 1/36 = 2.8e-2."""
    problem = build_problem(0.3)
    (e,) = problem.eq_matrix
    basis, x0 = problem.setup.basis, problem.setup.x0.astype(float)
    assert np.array_equal(x0, MIXED)
    assert np.array_equal(basis @ x0, TRACE_ROW / 36.0)
    assert TRACE_ROW @ TRACE_ROW == 36.0
    assert abs(e @ x0 - 1.0) <= 1e-15
    for spectrum in _dense_spectra((basis @ x0).reshape(5, 5)):
        assert np.abs(spectrum - np.repeat([1.0, 2.0, 4.0], [16, 32, 16]) / 36.0).max() <= 1e-15


def test_ppt_start_is_the_no_communication_point_pushed_to_the_min_norm_point():
    """The PPT program's x0 = 0.9 e_22 + 0.1 s s^T / 36 lifts to 0.9 e_22 + 0.1 TRACE_ROW / 36, meets the
    equality, and both dense operators at x0 clear 0 by 1/360 = 2.8e-3."""
    problem = build_problem(0.3, with_ppt=True)
    (e,) = problem.eq_matrix
    basis, x0 = problem.setup.basis, problem.setup.x0.astype(float)
    assert np.array_equal(x0, 0.9 * basis[6] + 0.1 * np.delete(MIXED, A55))
    no_communication = np.eye(25)[6]  # a = e_22
    assert np.abs(basis @ x0 - (0.9 * no_communication + 0.1 * TRACE_ROW / 36.0)).max() <= 1e-16
    assert abs(e @ x0 - 1.0) <= 1e-15
    for spectrum in _dense_spectra((basis @ x0).reshape(5, 5)):
        assert abs(spectrum[0] - 1.0 / 360.0) <= 1e-15


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_a_star_holds_the_iterate_coordinates(monkeypatch, with_ppt):
    """a_star = FIXED x holds each coordinate of x = left S, S the final iterate, as it is: a_star[0, 1] ==
    a_star[1, 0] equals the a12 coordinate bit for bit, and likewise every other entry of the fixed subspace."""
    finals = []
    certificate = sdp._certificate

    def record(problem, s, zs, iterations):
        finals.append(problem.setup.left @ np.array(s))
        return certificate(problem, s, zs, iterations)

    monkeypatch.setattr(sdp, "_certificate", record)
    sol = solve(build_problem(0.5, with_ppt=with_ppt))
    (x,) = finals
    if with_ppt:
        x = np.insert(x, A55, 0.0)
    assert sol.a_star[0, 1] == sol.a_star[1, 0] == x[5] != 0.0
    upper = sol.a_star[[0, 1, 2, 3, 4, 0, 0, 1], [0, 1, 2, 3, 4, 1, 2, 2]]
    assert np.array_equal(upper, x)
    assert np.array_equal(sol.a_star, sol.a_star.T)


def test_trace_row_and_symmetry_rows_have_disjoint_supports():
    """No flat index carries both TRACE_ROW and a symmetry row, so e is orthogonal to the orthonormal rows S
    exactly and I - e e^T / (e.e) - S^T S, criterion 9's projector, projects onto the null space of all four
    rows: it equals the projector from np.linalg.svd's complement to 1e-15."""
    assert not np.any((TRACE_ROW != 0.0) & np.any(SYMMETRY_ROWS != 0.0, axis=0))
    assert np.array_equal(SYMMETRY_ROWS @ TRACE_ROW, np.zeros(3))
    project = np.eye(25) - np.outer(TRACE_ROW, TRACE_ROW) / (TRACE_ROW @ TRACE_ROW) - SYMMETRY_ROWS.T @ SYMMETRY_ROWS
    null = np.linalg.svd(np.vstack([TRACE_ROW, SYMMETRY_ROWS]))[2][4:].T
    assert np.abs(project - null @ null.T).max() <= 1e-15
