import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, alpha_critical, fidelity_bh, fidelity_global, fidelity_locc
from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone.covariant import T_OPERATORS, build_t_operators
from entclone import sdp
from entclone.sdp import (
    CONE_FORMS,
    FIXED,
    ConvergenceError,
    ThresholdDetectionError,
    build_problem,
    detect_threshold,
    solve,
    sweep_solutions,
)
from reference import _dense_spectra, barrier_decrement, block_cone, commutant_blocks, dense_nt_path

A55 = 4


@pytest.fixture(scope="module")
def bell_solutions():
    plain = solve(build_problem(ALPHA_MAX))
    ppt = solve(build_problem(ALPHA_MAX, with_ppt=True))
    return plain, ppt


def test_program_is_invariant_under_swap_and_conjugation():
    """The symmetries the fixed-subspace reduction rests on, on all 25 coordinates.

    Party swap acts as a -> a^T, complex conjugation as a_i5 -> -a_i5
    for i != 5, and the parity flip as a_i4 -> -a_i4 for i != 4; the
    objective, the equality row space and both cones' spectra must be
    invariant under each.  FIXED's columns are the 0/1 selections e_ii
    and e_ij + e_ji: symmetric, with disjoint supports of sizes 1 and 2.
    """
    assert set(np.unique(FIXED)) == {0.0, 1.0}
    assert np.array_equal(FIXED.T @ FIXED, np.diag([1.0] * 5 + [2.0] * 3))
    columns = FIXED.T.reshape(8, 5, 5)
    assert np.array_equal(columns, np.swapaxes(columns, 1, 2))
    flips = []
    for axis in (4, 3):
        flip = np.ones((5, 5))
        flip[axis, :] = flip[:, axis] = -1.0
        flip[axis, axis] = 1.0
        flips.append(flip)
    rng = np.random.default_rng(19)
    for alpha in rng.uniform(0.0, ALPHA_MAX, size=5):
        f = fidelity_coefficients(alpha)
        assert np.abs(f - f.T).max() < 1e-14
        assert np.abs(f[:4, 4]).max() < 1e-14
        assert np.abs(f[[0, 1, 2, 4], 3]).max() < 1e-14
    trace_row, sym_rows = constraint_matrices()
    _, sv, vh = np.linalg.svd(np.vstack([trace_row, sym_rows]))
    rows = vh[: int(np.sum(sv > 1e-12 * sv[0]))]
    proj = rows.T @ rows
    swap = np.eye(25).reshape(5, 5, 25).transpose(1, 0, 2).reshape(25, 25)
    for action in (swap, *(np.diag(flip.reshape(-1)) for flip in flips)):
        assert np.abs(proj @ action - action @ proj).max() < 1e-14
    for _ in range(4):
        a = rng.normal(size=(5, 5))
        spectra = _dense_spectra(a)
        for b in (a.T, *(flip * a for flip in flips)):
            assert max(np.abs(p - q).max() for p, q in zip(_dense_spectra(b), spectra)) < 1e-12


def test_symmetry_rows_vanish_on_the_fixed_subspace():
    """build_problem keeps only the trace row: every clone-symmetry row is zero on FIXED."""
    trace_row, sym_rows = constraint_matrices()
    assert np.abs(sym_rows @ FIXED).max() <= 1e-15
    problem = build_problem(0.4)
    assert np.array_equal(problem.eq_matrix, (trace_row @ FIXED)[None, :])


def _weighted_spectrum(forms, x):
    """The spectrum of one full operator whose cone is forms @ x: the 2x2 block's eigenvalues repeated by
    its weight, then each scalar by its weight, as the per-copy weights sdp._FORM_WEIGHTS give them."""
    (p, q, r), scalars = np.split(forms @ x, [3])
    weights = sdp._FORM_WEIGHTS.astype(int)
    return np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh([[p, q], [q, r]]), weights[0]),
                                   np.repeat(scalars, weights[3:])]))


def test_problem_shapes():
    """Fields, shapes, real arrays, nu and k: the plain program on the 8 FIXED coordinates with k = 7, the PPT
    program on the 7 without a55 with k = 6 and the plain cone's weights counted twice.  The plain cone's spectrum,
    and with a55 negated its partial transpose's, equal the dense operators' at a = FIXED x; on the PPT
    slice the one cone's spectrum equals both."""
    plain = build_problem(0.4)
    ppt = build_problem(0.4, with_ppt=True)
    assert [field.name for field in dataclasses.fields(plain)] == ["objective", "eq_matrix", "setup"]
    assert plain.cones is plain.setup.forms and ppt.cones is ppt.setup.forms
    assert (plain.objective.shape, plain.eq_matrix.shape, plain.cones.shape) == ((8,), (1, 8), (8, 8))
    assert (ppt.objective.shape, ppt.eq_matrix.shape, ppt.cones.shape) == ((7,), (1, 7), (8, 7))
    for problem, k in ((plain, 7), (ppt, 6)):
        sv = np.linalg.svd(problem.eq_matrix, compute_uv=False)
        assert problem.eq_matrix.shape[1] - int(np.sum(sv > 1e-12 * sv[0])) == k == problem.setup.null.shape[1]
    assert (plain.nu, ppt.nu) == (64.0, 128.0)
    assert np.array_equal(ppt.setup.weights, 2.0 * plain.setup.weights)
    assert plain.setup.basis is FIXED
    assert np.array_equal(ppt.setup.basis, np.delete(FIXED, A55, axis=1))
    assert np.array_equal(ppt.cones, np.delete(plain.cones, A55, axis=1))
    assert np.abs(ppt.objective - np.delete(plain.objective, A55)).max() <= 1e-15
    assert np.array_equal(ppt.eq_matrix, np.delete(plain.eq_matrix, A55, axis=1))
    for problem in (plain, ppt):
        arrays = [problem.objective, problem.eq_matrix, problem.cones]
        assert all(arr.dtype == np.float64 for arr in arrays)
    flip = np.where(np.arange(8) == A55, -1.0, 1.0)
    rng = np.random.default_rng(20050203)
    for _ in range(4):
        x = rng.normal(size=8)
        for forms, expected in zip((plain.cones, plain.cones * flip), _dense_spectra(FIXED @ x)):
            assert np.abs(_weighted_spectrum(forms, x) - expected).max() < 1e-12
        x = rng.normal(size=7)
        for expected in _dense_spectra(ppt.setup.basis @ x):
            assert np.abs(_weighted_spectrum(ppt.cones, x) - expected).max() < 1e-12


def test_block_split_rejects_a_t_that_breaks_parity():
    """A structurally valid t whose blocks do not split into four real symmetric 2x2 blocks is refused:
    build_problem refuses every t but T_OPERATORS, and the witness refuses to derive its cone forms."""
    breaks_parity = T_OPERATORS[[3, 1, 2, 3, 4]]
    with pytest.raises(ValueError, match="T_OPERATORS"):
        build_problem(0.4, breaks_parity)
    x, c = commutant_blocks(breaks_parity)
    with pytest.raises(RuntimeError, match="four real symmetric 2x2 blocks"):
        block_cone(x, x, c)


def test_max_step_keeps_a_double_root():
    """v + s dv with dv = -c v is singular at s = 1/c, a double root of the block's determinant.
    Rounding can make b^2 - 4ac slightly negative there; the limit must still be 1/c, not inf."""
    rng = np.random.default_rng(7450)
    for _ in range(2000):
        m = rng.normal(size=(2, 2))
        c = rng.uniform(0.1, 10.0)
        v = (m @ m.T + 0.1 * np.eye(2))[[0, 0, 1], [0, 1, 1]].tolist()
        dv = [-c * entry for entry in v]
        assert abs(2.0 / sdp._step_bound(v, dv, v[0] * v[2] - v[1] * v[1]) * c - 1.0) < 1e-6


def test_scalar_bounds_are_the_diagonal_blocks_step_bound():
    """On a diagonal block (p, 0, r) with step (dp, 0, dr), the larger of the two scalar bounds is the block's
    _step_bound, and on a33's block (p = r) the one scalar's bound is: both are max(-2 dp / p, -2 dr / r) in
    exact arithmetic.  The quadratic's discriminant (r dp - p dr)^2 cancels near its double root and keeps
    about half the digits there (measured: 1.9e-8 relative at worst on these draws), so the bound is 1e-7."""
    rng = np.random.default_rng(3904)
    for _ in range(2000):
        p, r = rng.uniform(0.1, 10.0, size=2)
        dp, dr = rng.normal(size=2)
        for v, dv in (((p, 0.0, r), (dp, 0.0, dr)), ((p, 0.0, p), (dp, 0.0, dp))):
            block = sdp._step_bound(v, dv, v[0] * v[2])
            assert abs(max(sdp._scalar_bounds(v[::2], dv[::2])) - block) <= 1e-7 * max(abs(block), 1.0)


def test_nt_scaling_maps_s_to_z():
    """On seeded random positive definite blocks, the packed map X -> W^-1 X W^-1 of W = S # Z^-1 takes S to Z."""
    rng = np.random.default_rng(3802)
    for _ in range(2000):
        s, z = ((m @ m.T + 0.01 * np.eye(2))[[0, 0, 1], [0, 1, 1]] for m in rng.normal(size=(2, 2, 2)))
        dets = [p * r - q * q for p, q, r in (s, z)]
        packed = np.array(sdp._nt_scaling(s.tolist(), z.tolist(), *dets)).reshape(3, 3)
        assert np.abs(packed @ s - z).max() <= 1e-12 * np.abs(z).max()


def test_nt_scaling_refuses_a_block_rounding_left_singular():
    """Z with eigenvalues 1e17 and 1e-17 (det 1) at 45 degrees: in double S + adj(Z) has determinant 0,
    and the scaling raises ConvergenceError rather than dividing by it or taking the root of a negative."""
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        sdp._nt_scaling([1.0, 0.0, 1.0], [5e16, 5e16, 5e16], 1.0, 1.0)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_objective_raises_convergence_error(bad, with_ppt):
    """An objective with a NaN or infinite coefficient puts a NaN in the dual start, and solve raises
    ConvergenceError, not a math domain error; numpy's invalid-value warnings on the way are expected."""
    problem = build_problem(0.4, with_ppt=with_ppt)
    objective = problem.objective.copy()
    objective[2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(dataclasses.replace(problem, objective=objective))


def test_a_nan_direction_raises_convergence_error(monkeypatch):
    """A step towards a NaN direction is refused: solve raises ConvergenceError."""
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, math.nan))
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4))


def _count_bounds(monkeypatch, block=None, scalars=None):
    """Patch solve's step bounds to record their calls: _step_bound's (the block of S, then of Z, each
    iteration) and the lists _scalar_bounds returns (S's five scalars, then Z's).  block(n, bound) and
    scalars(bounds) may replace what the n-th block call and each scalar call return."""
    inner_block, inner_scalars, calls = sdp._step_bound, sdp._scalar_bounds, {"block": 0, "scalar": []}

    def counted_block(*args):
        calls["block"] += 1
        bound = inner_block(*args)
        return bound if block is None else block(calls["block"], bound)

    def counted_scalars(v, dv):
        bounds = inner_scalars(v, dv)
        calls["scalar"].append(len(bounds))
        return bounds if scalars is None else scalars(bounds)

    monkeypatch.setattr(sdp, "_step_bound", counted_block)
    monkeypatch.setattr(sdp, "_scalar_bounds", counted_scalars)
    return calls


@pytest.mark.parametrize("with_ppt, alpha", [(False, 0.4), (True, 0.2)], ids=["plain", "ppt"])
def test_a_dual_step_past_the_boundary_raises_convergence_error(monkeypatch, with_ppt, alpha):
    """With Z's 2x2 block left out of the step bound, the first step takes Z out of the cone while S stays
    inside: the interior test must raise ConvergenceError before any square root of a negative determinant.
    The one iteration bounds 2 blocks and 10 scalars.  (Measured: the first step leaves the cone at every
    plain alpha in 0.1, 0.2, ..., 0.7, and at PPT alphas up to 0.3.)"""
    calls = _count_bounds(monkeypatch, block=lambda n, bound: bound if n % 2 else -1.0)
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(alpha, with_ppt=with_ppt))
    assert calls == {"block": 2, "scalar": [10]}


def test_a_dual_step_past_a_scalar_boundary_raises_convergence_error(monkeypatch):
    """With Z's five scalars left out of the step bound, the PPT program's first step at alpha = 0.4 takes a
    scalar of Z below 0 (measured: at every PPT alpha in 0.4, 0.5, 0.6, 0.7; on the plain program Z's scalars
    never bind), and the interior test raises ConvergenceError."""
    calls = _count_bounds(monkeypatch, scalars=lambda bounds: [*bounds[:5], *[-1.0] * 5])
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4, with_ppt=True))
    assert calls == {"block": 2, "scalar": [10]}


def test_a_nan_step_bound_is_not_skipped(monkeypatch):
    """Python's max drops a NaN that is not its first argument; a NaN bound of Z's block must stop the solve
    with ConvergenceError, not let it step by the other bounds."""
    calls = _count_bounds(monkeypatch, block=lambda n, bound: math.nan if n == 2 else bound)
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4))
    assert calls == {"block": 2, "scalar": [10]}


def test_a_nan_scalar_bound_is_not_skipped(monkeypatch):
    """Likewise a NaN bound of one scalar, the fourth of S's, in the middle of the list max reads."""
    calls = _count_bounds(monkeypatch, scalars=lambda bounds: [*bounds[:3], math.nan, *bounds[4:]])
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4))
    assert calls == {"block": 2, "scalar": [10]}


@pytest.mark.parametrize("alpha", [0.2, 0.5, ALPHA_MAX, alpha_critical()])
def test_ppt_solution_matches_dense_witness(alpha):
    """solve's blocks on the a55 = 0 slice against the unreduced program's dense operators: the same
    minimum eigenvalue of the operator and of its partial transpose, the same primal-dual iterations and
    optimum as the two-cone path over all 8 fixed-subspace coordinates, and an end point on that program's dense
    barrier central path at mu_min, certified by its Newton decrement."""
    problem = build_problem(alpha, with_ppt=True)
    sol = solve(problem)
    assert sol.a_star[A55, A55] == 0.0
    witness = [spectrum[0] for spectrum in _dense_spectra(sol.a_star)]
    assert isinstance(sol.min_eigenvalue, float) and len(witness) == 2
    assert np.abs(sol.min_eigenvalue - np.array(witness)).max() < 1e-10
    iterations, f_star = dense_nt_path(alpha)
    assert sol.iterations == iterations
    assert abs(sol.f_star - f_star) < 1e-12
    mu_min = 1e-7 / (2.0 * problem.nu)
    lam2 = barrier_decrement(alpha, sol.a_star, mu_min)
    assert lam2 / 2.0 <= 1e-3 * mu_min


@pytest.mark.parametrize("alpha", [0.2, 0.5, ALPHA_MAX, alpha_critical()])
def test_plain_solution_matches_dense_witness(alpha):
    """solve's blocks on the plain program against its dense 64x64 operator: the same minimum eigenvalue,
    and the same primal-dual iterations and optimum as the one-cone path from the min-norm start
    (measured: 7 iterations each and |df*| <= 2.2e-16)."""
    sol = solve(build_problem(alpha))
    assert isinstance(sol.min_eigenvalue, float)
    assert abs(sol.min_eigenvalue - _dense_spectra(sol.a_star)[0][0]) < 1e-10
    iterations, f_star = dense_nt_path(alpha, with_ppt=False)
    assert sol.iterations == iterations == 7
    assert abs(sol.f_star - f_star) < 1e-12


def test_setups_are_built_once_and_read_only():
    """Every build of a program, t defaulted or passed, shares the solver setup built at import, whose
    forms are its cones, read-only; only the objective is new, channel's functional on the program's coordinates.
    Both programs solve on one 2x2 block and five scalars, so their dual projector is 8x8, and the table of
    the k x k system and its right side has k k + k rows over 22 numbers.  Any other t, even an equal copy,
    is refused."""
    plain, first = sdp._PROGRAMS
    for alpha in (0.1, 0.3, 0.6):
        for with_ppt, setup in ((False, plain), (True, first)):
            for problem in (build_problem(alpha, with_ppt=with_ppt), build_problem(alpha, T_OPERATORS, with_ppt),
                            build_problem(alpha, build_t_operators(), with_ppt)):
                assert problem.setup is setup
                assert problem.cones is setup.forms
                assert np.array_equal(problem.objective, fidelity_coefficients(alpha).reshape(-1) @ setup.basis)
    assert plain.forms is CONE_FORMS
    assert plain.project.shape == first.project.shape == (8, 8)
    assert (plain.table.shape, first.table.shape) == ((56, 22), (42, 22))
    assert (plain.lift.shape, first.lift.shape) == ((16, 7), (15, 6))
    fields = {"basis", "null", "x0", "forms", "weights", "lift", "table", "project", "gram_inv"}
    assert set(first._fields) == fields
    for arr in (*constraint_matrices(), FIXED, CONE_FORMS, *first, *plain):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    for other in (T_OPERATORS.copy(), T_OPERATORS[[1, 0, 2, 3, 4]]):
        for with_ppt in (False, True):
            with pytest.raises(ValueError, match="T_OPERATORS"):
                build_problem(0.3, other, with_ppt)


def test_bell_state_optima(bell_solutions):
    plain, ppt = bell_solutions
    assert abs(plain.f_star - (5.0 + math.sqrt(13.0)) / 12.0) < 1e-6
    assert abs(ppt.f_star - 5.0 / 8.0) < 1e-6


def test_transposition_constraint_only_tightens(bell_solutions):
    plain, ppt = bell_solutions
    assert ppt.f_star <= plain.f_star + 1e-8
    assert plain.f_star <= fidelity_global(ALPHA_MAX) + 1e-6


def test_solution_is_feasible(bell_solutions):
    """The lifted a_star meets the full 25-column equality rows, and the PPT optimum's operator and
    partial transpose, equal on its a55 = 0 slice, have the same minimum eigenvalue, the solution's."""
    sol = bell_solutions[1]
    x = sol.a_star.reshape(-1)
    trace_row, sym_rows = constraint_matrices()
    residual = np.concatenate([[trace_row @ x - 1.0], sym_rows @ x])
    assert np.abs(residual).max() < 1e-9
    operator, transpose = _dense_spectra(sol.a_star)
    assert abs(operator[0] - sol.min_eigenvalue) < 1e-10 and abs(transpose[0] - sol.min_eigenvalue) < 1e-10
    assert sol.min_eigenvalue > -1e-8
    assert 0.0 < sol.upper_bound - sol.f_star < 1e-6
    assert sol.iterations <= 200


def test_ppt_below_threshold_recovers_product_family():
    alpha = 0.2
    sol = solve(build_problem(alpha, with_ppt=True))
    assert abs(sol.f_star - fidelity_bh(alpha)) < 1e-6
    a = sol.a_star
    assert abs(a[1, 1] - 1.0) < 1e-3
    mask = np.ones((5, 5), dtype=bool)
    mask[1, 1] = False
    assert np.abs(a[mask]).max() < 1e-3


def test_solver_is_deterministic():
    """Identical inputs give bit-identical output: iterations, f*, U, a_star's bytes and the dual residual."""
    problem = build_problem(0.5, with_ppt=True)
    first = solve(problem)
    second = solve(problem)
    assert first.iterations == second.iterations
    assert first.f_star.hex() == second.f_star.hex() and first.upper_bound.hex() == second.upper_bound.hex()
    assert first.a_star.tobytes() == second.a_star.tobytes()
    assert first.dual_residual.hex() == second.dual_residual.hex()
    assert abs(first.f_star - fidelity_locc(0.5)) < 1e-6


# Iterations at each alpha of verify's 50-point grid at the default tol: a faster loop must walk the
# same path.  The plain program, started at its trace row's min-norm point, takes 7 at every alpha.
PATH_ITERATIONS = {
    False: (7,) * 50,
    True: (10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 10, 9, 8, 9, 10, 10, 11,
           11, 10, 11, 11, 11, 12, 13, 14, 14, 14, 14, 14, 14, 14, 14, 13, 14, 11, 11, 10, 13, 13, 12, 13, 13),
}


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_iteration_counts_are_pinned(with_ppt):
    """Every solve on verify's grid takes the pinned number of iterations."""
    grid = np.linspace(0.0, ALPHA_MAX, 50)
    assert tuple(sol.iterations for _, sol in sweep_solutions(grid, with_ppt)) == PATH_ITERATIONS[with_ppt]


# The tolerance tests' 88 alphas: the 51-point grid on [0, 1/sqrt(2)], alpha0 and the 36-point kink grid.
FLOOR_GRID = [*np.linspace(0.0, ALPHA_MAX, 51), alpha_critical(), *np.arange(0.30, 0.37 + 1e-12, 0.002)]


@pytest.mark.parametrize("tol, iterations", [(1e-5, 6), (1e-7, 7)])
def test_plain_iterations_do_not_depend_on_alpha(tol, iterations):
    """From the min-norm start, every plain solve on the floor test's 88-point grid takes the same
    number of iterations at a given tol."""
    assert {solve(build_problem(alpha), tol=tol).iterations for alpha in FLOOR_GRID} == {iterations}


def test_solve_rejects_bad_tolerances():
    problem = build_problem(0.4)
    with pytest.raises(ValueError):
        solve(problem, tol=0.0)
    with pytest.raises(ValueError):
        solve(problem, tol=-1e-7)
    with pytest.raises(ValueError):
        solve(problem, tol=1e-30)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solve(problem, tol=tol)


def test_solve_accepts_a_zero_or_numpy_iteration_cap(monkeypatch):
    """MAX_ITERATIONS = 0 only checks the start point; a numpy integer cap solves as the default does."""
    problem = build_problem(0.4)
    default = solve(problem).f_star
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError) as info:
        solve(problem)
    assert info.value.best.iterations == 0
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", np.int64(200))
    assert solve(problem).f_star == default


def test_solve_reports_convergence_failure(monkeypatch):
    problem = build_problem(0.4)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="no convergence within 1 iterations") as info:
        solve(problem)
    assert info.value.best is not None
    assert info.value.best.dual_residual <= 1e-12
    assert math.isfinite(info.value.best.upper_bound)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
@pytest.mark.parametrize("alpha", [0.2, alpha_critical(), 0.6])
def test_every_iterate_is_certified(monkeypatch, alpha, with_ppt):
    """The iterate a ConvergenceError carries after 1..5 iterations brackets the closed form:
    f* <= F_closed <= U, with a rounding-level dual residual and a positive definite Z."""
    closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
    problem = build_problem(alpha, with_ppt=with_ppt)
    for max_iter in range(1, 6):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", max_iter)
        with pytest.raises(ConvergenceError) as info:
            solve(problem)
        best = info.value.best
        assert best.iterations == max_iter
        assert best.f_star <= closed <= best.upper_bound
        assert best.dual_residual <= 1e-12
        assert best.min_dual_eigenvalue > 0.0


@pytest.mark.parametrize("with_ppt, pinned", [(False, 8), (True, 971)], ids=["plain-double", "ppt-double"])
def test_solve_converges_at_the_tolerance_floor(with_ppt, pinned):
    """At tol = the floor 2 nu 1e-10, every solve on FLOOR_GRID returns a certified optimum:
    f* <= F_closed <= U, U - f* <= tol, a dual residual within 1e-14 and a positive definite Z.
    The residual stays below 2e-15 because each dual step is projected back onto the dual equalities;
    without that projection the PPT residual reaches 2.2e-11.  Each plain solve takes 8 iterations,
    and the PPT solves take 971 in all."""
    iterations = []
    for alpha in FLOOR_GRID:
        closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
        problem = build_problem(alpha, with_ppt=with_ppt)
        tol = problem.tol_floor
        sol = solve(problem, tol=tol)
        assert sol.f_star <= closed <= sol.upper_bound <= sol.f_star + tol
        assert sol.dual_residual <= 1e-14
        assert sol.min_dual_eigenvalue > 0.0
        iterations.append(sol.iterations)
    if with_ppt:
        assert sum(iterations) == pinned
    else:
        assert set(iterations) == {pinned}


@pytest.mark.parametrize(
    "with_ppt, at_floor",
    [(False, True), (True, True), (False, False), (True, False)],
    ids=["plain", "ppt", "plain-default", "ppt-default"],
)
def test_each_step_makes_one_float64_solve(monkeypatch, with_ppt, at_floor):
    """Every step, at the floor as at the default tol 1e-7, makes exactly one np.linalg.solve call,
    on a float64 system: solves at alpha = 0.5 make as many calls as they take iterations."""
    problem = build_problem(0.5, with_ppt=with_ppt)
    inner, solved = np.linalg.solve, []

    def counted(a, b):
        solved.append((a.dtype, b.dtype))
        return inner(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    sol = solve(problem, tol=problem.tol_floor if at_floor else 1e-7)
    assert sol.iterations == len(solved) > 0
    assert set(solved) == {(np.dtype(np.float64),) * 2}


def test_sweep_failure_names_its_point(monkeypatch):
    """A failing sweep point raises a ConvergenceError naming its index and alpha, carrying the
    failed solve's best iterate and chained to the original error."""
    best = solve(build_problem(0.4))
    original = ConvergenceError("the iterate left the cone interior", best=best)
    solved = []

    def solve_or_fail(problem, tol):
        if solved:
            raise original
        solved.append(problem)
        return best

    monkeypatch.setattr(sdp, "solve", solve_or_fail)
    message = r"^sweep point 1 \(alpha=0\.450000\) did not converge: the iterate left the cone interior$"
    with pytest.raises(ConvergenceError, match=message) as info:
        sweep_solutions([0.3, 0.45, 0.6], False)
    assert info.value.best is best
    assert info.value.__cause__ is original


def test_detect_threshold_on_closed_form_curves():
    alphas = np.arange(0.30, 0.37 + 1e-12, 0.002)
    kinked = [(a, fidelity_locc(a)) for a in alphas]
    found = detect_threshold(kinked)
    assert abs(found - alpha_critical()) < 0.005
    smooth = [(a, fidelity_bh(a)) for a in alphas]
    with pytest.raises(ThresholdDetectionError):
        detect_threshold(smooth)


def test_detect_threshold_input_validation():
    with pytest.raises(ValueError):
        detect_threshold([(0.3, 0.7), (0.31, 0.69), (0.32, 0.68)])
    alphas = [0.30, 0.302, 0.304, 0.306, 0.31, 0.312, 0.314, 0.316]
    with pytest.raises(ValueError):
        detect_threshold([(a, fidelity_bh(a)) for a in alphas])
    # A non-finite value or alpha in a 36-point closed-form sweep is refused, not read as a kink.
    grid = 0.30 + 0.002 * np.arange(36)
    # So is a grid with one step 1.4 times the others: on it a straight line has a "kink" at 0.338.
    stretched = grid + 0.0008 * (np.arange(36) > 19)
    with pytest.raises(ValueError, match="equal steps"):
        detect_threshold([(a, 0.6 + 0.1 * a) for a in stretched])
    with pytest.raises(ThresholdDetectionError):
        detect_threshold([(a, 0.6 + 0.1 * a) for a in grid])
    curve = [(a, fidelity_locc(a)) for a in grid]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            detect_threshold([*curve[:4], (curve[4][0], bad), *curve[5:]])
        with pytest.raises(ValueError, match="finite"):
            detect_threshold([*curve[:4], (bad, curve[4][1]), *curve[5:]])


def test_median_equals_numpy_median():
    """detect_threshold's median equals np.median bit for bit on both parities, ties included."""
    rng = np.random.default_rng(24)
    for n in range(1, 40):
        for values in (rng.exponential(size=n), rng.integers(0, 3, size=n).astype(float)):
            assert sdp._median(values) == float(np.median(values))


def test_detect_threshold_leaves_numpy_ma_unimported():
    """A first detect_threshold call imports nothing that np.median's NaN check would (numpy.ma, ~14 ms)."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from entclone.analytic import fidelity_locc\n"
        "from entclone.sdp import detect_threshold\n"
        "detect_threshold([(a, fidelity_locc(a)) for a in 0.30 + 0.002 * np.arange(36)])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("ratio, kinked", [(5.0, False), (20.0, True)])
def test_detect_threshold_ratio_boundary(ratio, kinked):
    """A curve whose third differences are all 1e-6 but one, ratio times larger: 5x is smooth, 20x a kink."""
    grid = 0.30 + 0.002 * np.arange(36)
    third = np.full(33, 1e-6)
    third[16] *= ratio
    values = 0.6 + 0.1 * grid + np.concatenate([[0.0, 0.0, 0.0], np.cumsum(np.cumsum(np.cumsum(third)))])
    jumps = np.abs(np.diff(values, 3))
    assert abs(jumps.max() / np.median(jumps) - ratio) < 1e-3 * ratio
    if kinked:
        assert detect_threshold(list(zip(grid, values))) in grid[17:20]
    else:
        with pytest.raises(ThresholdDetectionError):
            detect_threshold(list(zip(grid, values)))
