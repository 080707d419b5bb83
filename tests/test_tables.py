"""The literal tables the program reduces to, reproduced by its numerical derivation.

The program depends on alpha only through x = alpha^2 (1 - alpha^2),
and every table it is built from is exact.  On the FIXED coordinates
(a11..a55, then sqrt(2) a12, sqrt(2) a13, sqrt(2) a23) the objective is
F0 + 4x F2 and the trace row is TRACE_ROW; every cone form entry is 0,
+-1 or 1/sqrt(2), and the PPT cone is the plain cone with its a55
column negated.  The threshold is x0 = 1/10, since
1 - 10 alpha^2 + 10 alpha^4 = 1 - 10x.  These tests witness that today's
derivation from t1..t5 reproduces the tables.

They also check the three premises on which the PPT program is solved on
its a55 = 0 slice (see the sdp module docstring): the objective's a55
coefficient is 0 to rounding, the trace row's a55 entry is 0, and the PPT
forms are the plain ones with the a55 column negated.
"""

import math

import numpy as np

from entclone.analytic import ALPHA_MAX, alpha_critical
from entclone.covariant import commutant_blocks
from entclone.sdp import _block_cone, build_problem

SQRT2 = math.sqrt(2.0)
F0 = np.array([1 / 4, 25 / 36, 4 / 9, 1 / 3, 0.0, 5 * SQRT2 / 12, SQRT2 / 3, 5 * SQRT2 / 9])
F2 = np.array([0.0, -1 / 9, 8 / 9, 2 / 3, 0.0, -SQRT2 / 6, SQRT2 / 6, -7 * SQRT2 / 18])
TRACE_ROW = np.array([1.0, 1.0, 4.0, 0.0, 0.0, SQRT2, 2 * SQRT2, 2 * SQRT2])
FORM_ENTRIES = np.array([0.0, 1.0, -1.0, 1 / SQRT2])
A55 = 4


def test_objective_is_f0_plus_4x_f2():
    worst = worst_a55 = 0.0
    for alpha in np.linspace(0.0, ALPHA_MAX, 501):
        x = alpha * alpha * (1.0 - alpha * alpha)
        objective = build_problem(alpha).objective
        worst = max(worst, np.abs(objective - (F0 + 4.0 * x * F2)).max())
        worst_a55 = max(worst_a55, abs(objective[A55]))
    assert worst <= 1e-15
    assert worst_a55 <= 1e-15


def test_trace_row_is_literal():
    for alpha in (0.0, 0.3, ALPHA_MAX):
        row = build_problem(alpha).eq_matrix[0]
        assert np.abs(row - TRACE_ROW).max() <= 1e-15
        assert row[A55] == 0.0


def test_cone_forms_are_literal_and_ppt_flips_a55():
    """The PPT forms are derived here, from the partial transpose's blocks; the PPT program's one
    cone is the plain cone without its a55 column."""
    plain = build_problem(0.3).cones
    x, c = commutant_blocks()
    ppt = _block_cone(x, np.swapaxes(x, 1, 2), c)
    for cone in (plain, ppt):
        # Measured: 1.3e-15 at worst.
        assert np.abs(cone[..., None] - FORM_ENTRIES).min(axis=-1).max() <= 2e-15
    assert np.abs(plain[:, A55]).max() > 0.5
    assert np.array_equal(ppt[:, A55], -plain[:, A55])
    assert np.array_equal(np.delete(ppt, A55, axis=1), np.delete(plain, A55, axis=1))
    assert np.array_equal(build_problem(0.3, with_ppt=True).cones, np.delete(plain, A55, axis=1))


def test_threshold_is_x0_one_tenth():
    a0 = alpha_critical()
    assert abs(a0 * a0 * (1.0 - a0 * a0) - 0.1) <= 1e-16
