import dataclasses
import math

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, alpha_critical, fidelity_bh, fidelity_global, fidelity_locc
from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone import sdp
from entclone.covariant import assemble_ptilde, basis_stack, partial_transpose_b
from entclone.sdp import (
    ARMIJO_SLOPE,
    BACKTRACK,
    BLOCK_WEIGHTS,
    FIXED,
    MU_FACTOR,
    MU_INITIAL,
    ConvergenceError,
    ThresholdDetectionError,
    build_problem,
    detect_threshold,
    solve,
    sweep_solutions,
)

# Newton steps and optima of the PPT program as the dense 64x64 cones
# gave them with mu divided by 10 per stage, the schedule before
# MU_FACTOR.  They pin the dense reference below, which must reproduce
# that solver's path before it is trusted as the witness of solve's.
DENSE_PPT_PATH = {
    0.2: (51, 0.6773777309645838),
    0.5: (47, 0.6281249563076853),
    ALPHA_MAX: (48, 0.6249999563076856),
}


def dense_path(problem, t, mu_factor, tol=1e-7):
    """The barrier path of sdp.solve run on the dense 64x64 operators; returns (Newton steps, f*).

    It keeps solve's null space, start point, constants, centring and
    Armijo tests, and its floor mu_min = tol / (2 nu), and divides mu by
    mu_factor per stage.  Only the cones differ: the operator
    assemble_ptilde((FIXED @ x).reshape(5, 5), t) and, for a PPT
    problem, its partial transpose over the second party, each
    eigensolved whole.
    """
    def cones(x):
        dense = assemble_ptilde((FIXED @ x).reshape(5, 5), t)
        return [dense, partial_transpose_b(dense)][: len(problem.cones)]

    def log_det(x):
        try:
            return sum(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(c)).real)) for c in cones(x))
        except np.linalg.LinAlgError:
            return None

    f = problem.objective
    _, sv, vh = np.linalg.svd(problem.eq_matrix)
    null = vh[int(np.sum(sv > 1e-12 * sv[0])):].T
    x0 = 0.9 * FIXED[6] + 0.1 * np.linalg.lstsq(problem.eq_matrix, problem.eq_rhs, rcond=None)[0]
    dirs = [cones(null[:, h]) for h in range(null.shape[1])]
    mu, mu_min, z, steps = MU_INITIAL, max(tol / (2.0 * problem.nu), 1e-12), np.zeros(null.shape[1]), 0
    while True:
        while True:
            x = x0 + null @ z
            grad, hess, base = null.T @ f, np.zeros((len(z), len(z))), f @ x
            for n, c in enumerate(cones(x)):
                vals, vecs = np.linalg.eigh(c)
                inv = (vecs / vals) @ vecs.conj().T
                prods = np.stack([inv @ d[n] for d in dirs])
                grad += mu * np.einsum("hii->h", prods).real
                hess += mu * np.einsum("hij,gji->hg", prods, prods).real
                base += mu * np.sum(np.log(vals))
            step = np.linalg.solve(hess, grad)
            lam2 = grad @ step
            if lam2 / 2.0 <= max(1e-13, 1e-3 * mu):
                break
            steps += 1
            scale = 1.0
            while True:
                assert scale > 1e-14, "dense line search stalled"
                x_trial = x0 + null @ (z + scale * step)
                ld = log_det(x_trial)
                if ld is not None and f @ x_trial + mu * ld >= base + scale * ARMIJO_SLOPE * lam2:
                    z = z + scale * step
                    break
                scale *= BACKTRACK
        if mu <= mu_min * (1.0 + 1e-12):
            return steps, float(f @ x)
        mu = max(mu / mu_factor, mu_min)


@pytest.fixture(scope="module")
def bell_solutions(t_ops):
    plain = solve(build_problem(ALPHA_MAX, t_ops))
    ppt = solve(build_problem(ALPHA_MAX, t_ops, with_ppt=True))
    return plain, ppt


def _dense_spectra(a, stack):
    """Spectra of sum_ij a_ij ti (x) tj and of its partial transpose over the second party."""
    dense = np.tensordot(np.reshape(a, -1), stack, axes=(0, 0))
    return [
        np.linalg.eigvalsh((m + m.conj().T) / 2)
        for m in (dense, partial_transpose_b(dense))
    ]


def test_program_is_invariant_under_swap_and_conjugation(t_ops):
    """The symmetries the fixed-subspace reduction rests on, on all 25 coordinates.

    Party swap acts as a -> a^T, complex conjugation as a_i5 -> -a_i5
    for i != 5, and the parity flip as a_i4 -> -a_i4 for i != 4; the
    objective, the equality row space and both cones' spectra must be
    invariant under each, and FIXED must be orthonormal.
    """
    assert np.abs(FIXED.T @ FIXED - np.eye(8)).max() < 1e-15
    flips = []
    for axis in (4, 3):
        flip = np.ones((5, 5))
        flip[axis, :] = flip[:, axis] = -1.0
        flip[axis, axis] = 1.0
        flips.append(flip)
    rng = np.random.default_rng(19)
    for alpha in rng.uniform(0.0, ALPHA_MAX, size=5):
        f = fidelity_coefficients(alpha, t_ops)
        assert np.abs(f - f.T).max() < 1e-14
        assert np.abs(f[:4, 4]).max() < 1e-14
        assert np.abs(f[[0, 1, 2, 4], 3]).max() < 1e-14
    trace_row, sym_rows = constraint_matrices(t_ops)
    _, sv, vh = np.linalg.svd(np.vstack([trace_row, sym_rows]))
    rows = vh[: int(np.sum(sv > 1e-12 * sv[0]))]
    proj = rows.T @ rows
    swap = np.eye(25).reshape(5, 5, 25).transpose(1, 0, 2).reshape(25, 25)
    for action in (swap, *(np.diag(flip.reshape(-1)) for flip in flips)):
        assert np.abs(proj @ action - action @ proj).max() < 1e-14
    stack = basis_stack(t_ops)
    for _ in range(4):
        a = rng.normal(size=(5, 5))
        spectra = _dense_spectra(a, stack)
        for b in (a.T, *(flip * a for flip in flips)):
            assert max(np.abs(p - q).max() for p, q in zip(_dense_spectra(b, stack), spectra)) < 1e-12


def test_symmetry_rows_vanish_on_the_fixed_subspace(t_ops):
    """build_problem keeps only the trace row: every clone-symmetry row is zero on FIXED."""
    trace_row, sym_rows = constraint_matrices(t_ops)
    assert np.abs(sym_rows @ FIXED).max() <= 1e-15
    problem = build_problem(0.4, t_ops)
    assert np.array_equal(problem.eq_matrix, (trace_row @ FIXED)[None, :])
    assert np.array_equal(problem.eq_rhs, [1.0])


def test_problem_shapes(t_ops):
    """Fixed-subspace shapes, real arrays, nu, k = 7, and block spectra equal to the dense operators' at a = FIXED x."""
    plain = build_problem(0.4, t_ops)
    ppt = build_problem(0.4, t_ops, with_ppt=True)
    assert plain.objective.shape == (8,)
    assert plain.eq_matrix.shape[1] == 8
    sv = np.linalg.svd(plain.eq_matrix, compute_uv=False)
    assert 8 - int(np.sum(sv > 1e-12 * sv[0])) == 7
    assert len(plain.cones) == 1
    assert len(ppt.cones) == 2
    assert all(cone.shape == (8, 8) for cone in ppt.cones)
    assert (plain.nu, ppt.nu) == (64.0, 128.0)
    assert np.array_equal(plain.cones[0], ppt.cones[0])
    for problem in (plain, ppt):
        arrays = [problem.objective, problem.eq_matrix, problem.eq_rhs, *problem.cones]
        assert all(arr.dtype == np.float64 for arr in arrays)
    rng = np.random.default_rng(20050203)
    stack = basis_stack(t_ops)
    for _ in range(4):
        x = rng.normal(size=8)
        for cone, expected in zip(ppt.cones, _dense_spectra(FIXED @ x, stack)):
            p, q, r, *scalars = cone @ x
            weighted = np.concatenate([
                np.repeat(np.linalg.eigvalsh([[p, q], [q, r]]), BLOCK_WEIGHTS[0]),
                np.repeat(scalars, BLOCK_WEIGHTS[1:]),
            ])
            assert np.abs(np.sort(weighted) - expected).max() < 1e-12


def test_block_split_rejects_a_t_that_breaks_parity(t_ops):
    """A structurally valid t whose blocks do not split into one 2x2 block and five scalars is refused."""
    with pytest.raises(RuntimeError, match="2x2 block and five scalars"):
        build_problem(0.4, dataclasses.replace(t_ops, t1=t_ops.t4))


@pytest.mark.parametrize("alpha", sorted(DENSE_PPT_PATH))
def test_dense_reference_reproduces_the_factor_ten_path(t_ops, alpha):
    iterations, f_star = dense_path(build_problem(alpha, t_ops, with_ppt=True), t_ops, mu_factor=10.0)
    assert iterations == DENSE_PPT_PATH[alpha][0]
    assert abs(f_star - DENSE_PPT_PATH[alpha][1]) < 1e-12


@pytest.mark.parametrize("alpha", sorted(DENSE_PPT_PATH))
def test_ppt_solution_matches_dense_witness(t_ops, alpha):
    """solve's blocks against the dense operators: the same minimum eigenvalues, Newton steps and optimum."""
    problem = build_problem(alpha, t_ops, with_ppt=True)
    sol = solve(problem)
    dense = assemble_ptilde(sol.a_star, t_ops)
    witness = [
        float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        for m in (dense, partial_transpose_b(dense))
    ]
    assert np.abs(np.array(sol.min_eigenvalues) - witness).max() < 1e-10
    iterations, f_star = dense_path(problem, t_ops, mu_factor=MU_FACTOR)
    assert sol.iterations == iterations
    assert abs(sol.f_star - f_star) < 1e-12


def test_fixed_parts_are_cached_on_the_value_of_t(t_ops):
    """Equal t shares the equality rows and cone forms read-only; any other value, or an edited t, rebuilds them."""
    first = build_problem(0.3, t_ops, with_ppt=True)
    again = build_problem(0.6, dataclasses.replace(t_ops), with_ppt=True)
    assert all(p is q for p, q in zip(first.cones, again.cones))
    rows = constraint_matrices(t_ops)
    assert all(p is q for p, q in zip(rows, constraint_matrices(dataclasses.replace(t_ops))))
    for arr in (*first.cones, *rows):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    swapped = dataclasses.replace(t_ops, t1=t_ops.t2, t2=t_ops.t1)
    fresh = build_problem(0.3, swapped, with_ppt=True)
    assert not np.array_equal(fresh.cones[0], first.cones[0])
    assert not np.array_equal(constraint_matrices(swapped)[1], rows[1])
    edited = dataclasses.replace(t_ops, t1=t_ops.t1.copy(), t2=t_ops.t2.copy())
    before = build_problem(0.3, edited).cones[0]
    edited.t1[...], edited.t2[...] = t_ops.t2, t_ops.t1
    assert np.array_equal(build_problem(0.3, edited).cones[0], fresh.cones[0])
    assert not np.array_equal(before, fresh.cones[0])


def test_bell_state_optima(bell_solutions):
    plain, ppt = bell_solutions
    assert abs(plain.f_star - (5.0 + math.sqrt(13.0)) / 12.0) < 1e-6
    assert abs(ppt.f_star - 5.0 / 8.0) < 1e-6


def test_transposition_constraint_only_tightens(bell_solutions):
    plain, ppt = bell_solutions
    assert ppt.f_star <= plain.f_star + 1e-8
    assert plain.f_star <= fidelity_global(ALPHA_MAX) + 1e-6


def test_solution_is_feasible(bell_solutions, t_ops):
    """The lifted a_star meets the full 25-column equality rows."""
    sol = bell_solutions[1]
    x = sol.a_star.reshape(-1)
    trace_row, sym_rows = constraint_matrices(t_ops)
    residual = np.concatenate([[trace_row @ x - 1.0], sym_rows @ x])
    assert np.abs(residual).max() < 1e-9
    assert len(sol.min_eigenvalues) == 2
    assert min(sol.min_eigenvalues) > -1e-8
    assert 0.0 < sol.upper_bound - sol.f_star < 1e-6
    assert sol.iterations <= 200


def test_ppt_below_threshold_recovers_product_family(t_ops):
    alpha = 0.2
    sol = solve(build_problem(alpha, t_ops, with_ppt=True))
    assert abs(sol.f_star - fidelity_bh(alpha)) < 1e-6
    a = sol.a_star
    assert abs(a[1, 1] - 1.0) < 1e-3
    mask = np.ones((5, 5), dtype=bool)
    mask[1, 1] = False
    assert np.abs(a[mask]).max() < 1e-3


def test_solver_is_deterministic(t_ops):
    problem = build_problem(0.5, t_ops, with_ppt=True)
    first = solve(problem)
    second = solve(problem)
    assert first.iterations == second.iterations
    assert abs(first.f_star - second.f_star) < 1e-12
    assert abs(first.f_star - fidelity_locc(0.5)) < 1e-6


def test_solve_rejects_bad_tolerances(t_ops):
    problem = build_problem(0.4, t_ops)
    with pytest.raises(ValueError):
        solve(problem, tol=0.0)
    with pytest.raises(ValueError):
        solve(problem, tol=-1e-7)
    with pytest.raises(ValueError):
        solve(problem, tol=1e-30)


def test_solve_reports_convergence_failure(t_ops):
    problem = build_problem(0.4, t_ops)
    with pytest.raises(ConvergenceError) as info:
        solve(problem, max_iter=1)
    assert info.value.best is not None
    assert info.value.best.dual_residual <= 1e-12
    assert math.isfinite(info.value.best.upper_bound)


def test_sweep_failure_names_its_point(t_ops, monkeypatch):
    """A failing sweep point raises a ConvergenceError naming its index and alpha, carrying the
    failed solve's best iterate and chained to the original error."""
    best = solve(build_problem(0.4, t_ops))
    original = ConvergenceError("line search stalled", best=best)
    solved = []

    def solve_or_fail(problem, tol):
        if solved:
            raise original
        solved.append(problem)
        return best

    monkeypatch.setattr(sdp, "solve", solve_or_fail)
    message = r"^sweep point 1 \(alpha=0\.450000\) did not converge: line search stalled$"
    with pytest.raises(ConvergenceError, match=message) as info:
        sweep_solutions([0.3, 0.45, 0.6], False, t=t_ops)
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
