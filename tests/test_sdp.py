import dataclasses
import math

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, alpha_critical, fidelity_bh, fidelity_global, fidelity_locc
from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone import sdp
from entclone.covariant import assemble_ptilde, basis_stack, partial_transpose_b
from entclone.sdp import (
    BLOCK_WEIGHTS,
    CENTRING,
    FIXED,
    STEP_FRACTION,
    ConvergenceError,
    ThresholdDetectionError,
    build_problem,
    detect_threshold,
    solve,
    sweep_solutions,
)

# The log-barrier path solve followed before the primal-dual method:
# damped Newton steps from mu = MU_INITIAL, divided by a factor per
# stage down to mu_min, with an Armijo backtracking line search.
MU_INITIAL = 1e-1
MU_FACTOR = 1000.0
ARMIJO_SLOPE = 0.01
BACKTRACK = 0.5
# Newton steps and optima of the PPT program as the dense 64x64 cones
# gave them with mu divided by 10 per stage.  They pin the dense barrier
# reference below, which must reproduce that solver's path before its
# end point, the barrier's centred point at mu_min, is trusted as the
# witness of solve's.
DENSE_PPT_PATH = {
    0.2: (51, 0.6773777309645838),
    0.5: (47, 0.6281249563076853),
    ALPHA_MAX: (48, 0.6249999563076856),
}


def _dense_cones(problem, t):
    """x -> the dense 64x64 operator assemble_ptilde((FIXED @ x).reshape(5, 5), t) and, for a PPT
    problem, its partial transpose over the second party."""
    def cones(x):
        dense = assemble_ptilde((FIXED @ x).reshape(5, 5), t)
        return [dense, partial_transpose_b(dense)][: len(problem.cones)]

    return cones


def _psd_root(m, power):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * vals**power) @ vecs.conj().T


def _dense_step(m, dm):
    """Largest s with m + s dm positive definite, from the spectrum of m^-1/2 dm m^-1/2."""
    root = _psd_root(m, -0.5)
    low = np.linalg.eigvalsh(root @ dm @ root)[0]
    return -1.0 / low if low < 0.0 else np.inf


def dense_nt_path(problem, t, tol=1e-7):
    """solve's primal-dual iteration run on the dense 64x64 operators; returns (iterations, f*).

    It keeps solve's null space, primal start, CENTRING, STEP_FRACTION,
    floor mu_min = tol / (2 nu) and stop rule.  The dual start is the
    same basis-free y0 I / (4n) - C(h), with h from the Frobenius Gram
    matrix of the dense operators and y0 from C(h)'s largest
    eigenvalue.  The NT scaling W = S^1/2 (S^1/2 Z S^1/2)^-1/2 S^1/2,
    the complementarity spectra and the step bounds come from eigh of
    the whole operators.  Each dual step is made Hermitian, because the
    dense products leave rounding-level anti-Hermitian parts that the
    block solver cannot have, and projected onto the dual equalities in
    the Frobenius inner product.
    """
    cones = _dense_cones(problem, t)
    inner = lambda a, b: sum(np.vdot(p, q).real for p, q in zip(a, b))  # noqa: E731
    f = problem.objective
    _, sv, vh = np.linalg.svd(problem.eq_matrix)
    null = vh[int(np.sum(sv > 1e-12 * sv[0])):].T
    x = 0.9 * FIXED[6] + 0.1 * np.linalg.lstsq(problem.eq_matrix, problem.eq_rhs, rcond=None)[0]
    units = [cones(e) for e in np.eye(8)]
    ch = cones(np.linalg.solve([[inner(a, b) for b in units] for a in units], f))
    top = max(np.linalg.eigvalsh(c)[-1] for c in ch)
    zs = [2.0 * abs(top) * np.eye(64) - c for c in ch]
    dirs = [cones(n) for n in null.T]
    dir_gram = np.array([[inner(a, b) for b in dirs] for a in dirs])
    mu_min, iterations = max(tol / (2.0 * problem.nu), 1e-12), 0
    while True:
        ss = cones(x)
        roots = [_psd_root(s, 0.5) for s in ss]
        comp = np.concatenate([np.linalg.eigvalsh(r @ z @ r) for r, z in zip(roots, zs)])
        if np.abs(comp - mu_min).max() <= 1e-3 * mu_min:
            return iterations, float(f @ x)
        iterations += 1
        tau = max(CENTRING * inner(ss, zs) / problem.nu, mu_min)
        w_inv = [np.linalg.inv(r @ _psd_root(r @ z @ r, -0.5) @ r) for r, z in zip(roots, zs)]
        scaled = [[w @ d @ w for w, d in zip(w_inv, dn)] for dn in dirs]
        target = [tau * np.linalg.inv(s) - z for s, z in zip(ss, zs)]
        dz = np.linalg.solve([[inner(a, b) for b in scaled] for a in dirs], [inner(a, target) for a in dirs])
        ds = cones(null @ dz)
        dzs = [g - w @ d @ w for g, w, d in zip(target, w_inv, ds)]
        dzs = [(d + d.conj().T) / 2.0 for d in dzs]
        coef = np.linalg.solve(dir_gram, [inner(a, dzs) for a in dirs])
        dzs = [z - sum(c * dn[i] for c, dn in zip(coef, dirs)) for i, z in enumerate(dzs)]
        bound = min(_dense_step(m, dm) for m, dm in zip(ss + zs, ds + dzs))
        step = min(1.0, STEP_FRACTION * bound)
        x = x + step * (null @ dz)
        zs = [z + step * d for z, d in zip(zs, dzs)]


def dense_path(problem, t, mu_factor, tol=1e-7):
    """The log-barrier path solve followed before, run on the dense 64x64 operators; returns (Newton steps, f*).

    It starts from solve's null space and start point, uses the barrier
    constants above and the floor mu_min = tol / (2 nu), and divides mu
    by mu_factor per stage; every stage is centred until half the
    squared Newton decrement is at most 1e-3 mu.  The cones are the
    dense operators of _dense_cones, each eigensolved whole.
    """
    cones = _dense_cones(problem, t)

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
def bell_solutions():
    plain = solve(build_problem(ALPHA_MAX))
    ppt = solve(build_problem(ALPHA_MAX, with_ppt=True))
    return plain, ppt


def _dense_spectra(a, stack):
    """Spectra of sum_ij a_ij ti (x) tj and of its partial transpose over the second party."""
    dense = np.tensordot(np.reshape(a, -1), stack, axes=(0, 0))
    return [
        np.linalg.eigvalsh((m + m.conj().T) / 2)
        for m in (dense, partial_transpose_b(dense))
    ]


def test_program_is_invariant_under_swap_and_conjugation():
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
    stack = basis_stack()
    for _ in range(4):
        a = rng.normal(size=(5, 5))
        spectra = _dense_spectra(a, stack)
        for b in (a.T, *(flip * a for flip in flips)):
            assert max(np.abs(p - q).max() for p, q in zip(_dense_spectra(b, stack), spectra)) < 1e-12


def test_symmetry_rows_vanish_on_the_fixed_subspace():
    """build_problem keeps only the trace row: every clone-symmetry row is zero on FIXED."""
    trace_row, sym_rows = constraint_matrices()
    assert np.abs(sym_rows @ FIXED).max() <= 1e-15
    problem = build_problem(0.4)
    assert np.array_equal(problem.eq_matrix, (trace_row @ FIXED)[None, :])
    assert np.array_equal(problem.eq_rhs, [1.0])


def test_problem_shapes():
    """Fixed-subspace shapes, real arrays, nu, k = 7, and block spectra equal to the dense operators' at a = FIXED x."""
    plain = build_problem(0.4)
    ppt = build_problem(0.4, with_ppt=True)
    assert plain.objective.shape == (8,)
    assert plain.eq_matrix.shape[1] == 8
    sv = np.linalg.svd(plain.eq_matrix, compute_uv=False)
    assert 8 - int(np.sum(sv > 1e-12 * sv[0])) == 7
    assert len(plain.cones) == 1
    assert len(ppt.cones) == 2
    assert all(cone.shape == (12, 8) for cone in ppt.cones)
    assert (plain.nu, ppt.nu) == (64.0, 128.0)
    assert np.array_equal(plain.cones[0], ppt.cones[0])
    for problem in (plain, ppt):
        arrays = [problem.objective, problem.eq_matrix, problem.eq_rhs, *problem.cones]
        assert all(arr.dtype == np.float64 for arr in arrays)
    rng = np.random.default_rng(20050203)
    stack = basis_stack()
    for _ in range(4):
        x = rng.normal(size=8)
        for cone, expected in zip(ppt.cones, _dense_spectra(FIXED @ x, stack)):
            weighted = np.concatenate([
                np.repeat(np.linalg.eigvalsh([[p, q], [q, r]]), weight)
                for (p, q, r), weight in zip((cone @ x).reshape(-1, 3), BLOCK_WEIGHTS)
            ])
            assert np.abs(np.sort(weighted) - expected).max() < 1e-12


def test_block_split_rejects_a_t_that_breaks_parity(t_ops):
    """A structurally valid t whose blocks do not split into four real symmetric 2x2 blocks is refused."""
    with pytest.raises(RuntimeError, match="four real symmetric 2x2 blocks"):
        build_problem(0.4, dataclasses.replace(t_ops, t1=t_ops.t4))


def test_max_step_keeps_a_double_root():
    """v + s dv with dv = -c v is singular at s = 1/c, a double root of the block's determinant.
    Rounding can make b^2 - 4ac slightly negative there; the limit must still be 1/c, not inf."""
    rng = np.random.default_rng(7450)
    # One cone's S and Z blocks, all the identity and fixed but for S's first block.
    v = np.tile([1.0, 0.0, 1.0], (2, 4, 1))
    dv = np.zeros_like(v)
    for _ in range(2000):
        m = rng.normal(size=(2, 2))
        c = rng.uniform(0.1, 10.0)
        v[0, 0] = (m @ m.T + 0.1 * np.eye(2))[[0, 0, 1], [0, 1, 1]]
        dv[0, 0] = -c * v[0, 0]
        assert abs(sdp._max_step(v, dv) * c - 1.0) < 1e-6


@pytest.mark.parametrize("alpha", sorted(DENSE_PPT_PATH))
def test_dense_reference_reproduces_the_factor_ten_path(t_ops, alpha):
    iterations, f_star = dense_path(build_problem(alpha, t_ops, with_ppt=True), t_ops, mu_factor=10.0)
    assert iterations == DENSE_PPT_PATH[alpha][0]
    assert abs(f_star - DENSE_PPT_PATH[alpha][1]) < 1e-12


@pytest.mark.parametrize("alpha", [*sorted(DENSE_PPT_PATH), alpha_critical()])
def test_ppt_solution_matches_dense_witness(t_ops, alpha):
    """solve's blocks against the dense operators: the same minimum eigenvalues, the same
    primal-dual iterations and optimum, and the end point of the dense barrier path."""
    problem = build_problem(alpha, t_ops, with_ppt=True)
    sol = solve(problem)
    dense = assemble_ptilde(sol.a_star, t_ops)
    witness = [
        float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        for m in (dense, partial_transpose_b(dense))
    ]
    assert np.abs(np.array(sol.min_eigenvalues) - witness).max() < 1e-10
    iterations, f_star = dense_nt_path(problem, t_ops)
    assert sol.iterations == iterations
    assert abs(sol.f_star - f_star) < 1e-12
    _, barrier_f_star = dense_path(problem, t_ops, mu_factor=MU_FACTOR)
    assert abs(sol.f_star - barrier_f_star) < 1e-9


def test_fixed_parts_are_built_once_per_t(t_ops):
    """The same t shares the equality rows, cone forms and solver setup read-only, and keeps both
    programs across alternating builds; any other t object, even an equal one, builds its own, and
    no t changes once built."""
    first = build_problem(0.3, t_ops, with_ppt=True)
    plain = build_problem(0.3, t_ops)
    rows = constraint_matrices(t_ops)
    assert all(p is q for p, q in zip(rows, constraint_matrices(t_ops)))
    assert all(p is q for p, q in zip(rows, constraint_matrices()))
    assert build_problem(0.3, with_ppt=True).setup is first.setup
    for alpha in (0.1, 0.4, 0.6):
        for problem, shared in ((build_problem(alpha, t_ops, with_ppt=True), first), (build_problem(alpha, t_ops), plain)):
            assert problem.setup is shared.setup
            assert all(p is q for p, q in zip(problem.cones, shared.cones))
    assert plain.setup is not first.setup
    assert plain.setup.project.shape == (12, 12) and first.setup.project.shape == (24, 24)
    assert set(first.setup._fields) == {"null", "x0", "forms", "dirs", "dual_map", "gram_inv", "project"}
    for arr in (*rows, *first.cones, *first.setup, *plain.cones, *plain.setup):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    copy = build_problem(0.3, dataclasses.replace(t_ops), with_ppt=True)
    assert copy.setup is not first.setup
    assert all(np.array_equal(p, q) for p, q in zip((*copy.cones, *copy.setup), (*first.cones, *first.setup)))
    swapped = dataclasses.replace(t_ops, t1=t_ops.t2, t2=t_ops.t1)
    fresh = build_problem(0.3, swapped, with_ppt=True)
    assert not np.array_equal(fresh.cones[0], first.cones[0])
    assert not np.array_equal(constraint_matrices(swapped)[1], rows[1])
    assert not np.array_equal(fresh.setup.dirs, first.setup.dirs)
    assert not np.array_equal(fresh.setup.gram_inv, first.setup.gram_inv)
    source = t_ops.t1.copy()
    edited = dataclasses.replace(t_ops, t1=source)
    for op in edited.as_list():
        with pytest.raises(ValueError):
            op[...] = t_ops.t2
    source[...] = t_ops.t2
    assert np.array_equal(edited.t1, t_ops.t1)


def test_bell_state_optima(bell_solutions):
    plain, ppt = bell_solutions
    assert abs(plain.f_star - (5.0 + math.sqrt(13.0)) / 12.0) < 1e-6
    assert abs(ppt.f_star - 5.0 / 8.0) < 1e-6


def test_transposition_constraint_only_tightens(bell_solutions):
    plain, ppt = bell_solutions
    assert ppt.f_star <= plain.f_star + 1e-8
    assert plain.f_star <= fidelity_global(ALPHA_MAX) + 1e-6


def test_solution_is_feasible(bell_solutions):
    """The lifted a_star meets the full 25-column equality rows."""
    sol = bell_solutions[1]
    x = sol.a_star.reshape(-1)
    trace_row, sym_rows = constraint_matrices()
    residual = np.concatenate([[trace_row @ x - 1.0], sym_rows @ x])
    assert np.abs(residual).max() < 1e-9
    assert len(sol.min_eigenvalues) == 2
    assert min(sol.min_eigenvalues) > -1e-8
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
    problem = build_problem(0.5, with_ppt=True)
    first = solve(problem)
    second = solve(problem)
    assert first.iterations == second.iterations
    assert abs(first.f_star - second.f_star) < 1e-12
    assert abs(first.f_star - fidelity_locc(0.5)) < 1e-6


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


def test_solve_reports_convergence_failure():
    problem = build_problem(0.4)
    with pytest.raises(ConvergenceError) as info:
        solve(problem, max_iter=1)
    assert info.value.best is not None
    assert info.value.best.dual_residual <= 1e-12
    assert math.isfinite(info.value.best.upper_bound)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
@pytest.mark.parametrize("alpha", [0.2, alpha_critical(), 0.6])
def test_every_iterate_is_certified(alpha, with_ppt):
    """The iterate a ConvergenceError carries after 1..5 iterations brackets the closed form:
    f* <= F_closed <= U, with a rounding-level dual residual and a positive definite Z."""
    closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
    problem = build_problem(alpha, with_ppt=with_ppt)
    for max_iter in range(1, 6):
        with pytest.raises(ConvergenceError) as info:
            solve(problem, max_iter=max_iter)
        best = info.value.best
        assert best.iterations == max_iter
        assert best.f_star <= closed <= best.upper_bound
        assert best.dual_residual <= 1e-12
        assert best.min_dual_eigenvalue > 0.0


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_solve_converges_at_the_tolerance_floor(with_ppt):
    """Down to tol near its floor 2 nu 1e-12, every solve on the 51-point grid, the 36-point kink
    grid and alpha0 returns a certified optimum: f* <= F_closed <= U, U - f* <= tol, a
    rounding-level dual residual and a positive definite Z."""
    tol = 1.3e-10 if not with_ppt else 2.6e-10
    grid = [*np.linspace(0.0, ALPHA_MAX, 51), alpha_critical(), *np.arange(0.30, 0.37 + 1e-12, 0.002)]
    for alpha in grid:
        closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
        sol = solve(build_problem(alpha, with_ppt=with_ppt), tol=tol)
        assert sol.f_star <= closed <= sol.upper_bound <= sol.f_star + tol
        assert sol.dual_residual <= 1e-12
        assert sol.min_dual_eigenvalue > 0.0


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
    curve = [(a, fidelity_locc(a)) for a in grid]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            detect_threshold([*curve[:4], (curve[4][0], bad), *curve[5:]])
        with pytest.raises(ValueError, match="finite"):
            detect_threshold([*curve[:4], (bad, curve[4][1]), *curve[5:]])
