import dataclasses
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, alpha_critical, fidelity_bh, fidelity_global, fidelity_locc
from entclone.channel import TRACE_ROW, constraint_matrices, fidelity_coefficients
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
from reference import (
    FREE_ROWS,
    _dense_spectra,
    barrier_decrement,
    block_cone,
    commutant_blocks,
    decimal_nt_path,
    dense_nt_path,
    free_triples,
    kxk_direction,
    numpy_cone_min,
    table_nt_direction,
)

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
    for problem, k, free in ((plain, 7, 1), (ppt, 6, 2)):
        sv = np.linalg.svd(problem.eq_matrix, compute_uv=False)
        assert problem.eq_matrix.shape[1] - int(np.sum(sv > 1e-12 * sv[0])) == k == 8 - free
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
    Rounding can make b^2 - 4ac slightly negative there; the block's limit must still be 1/c, not inf,
    and so must each scalar's, all six of _step_bounds's bounds."""
    rng = np.random.default_rng(7450)
    for _ in range(2000):
        m = rng.normal(size=(2, 2))
        c = rng.uniform(0.1, 10.0)
        v = [*(m @ m.T + 0.1 * np.eye(2))[[0, 0, 1], [0, 1, 1]].tolist(), *rng.uniform(0.1, 10.0, size=5).tolist()]
        dv = [-c * entry for entry in v]
        bounds = sdp._step_bounds(v, dv, v[0] * v[2] - v[1] * v[1])
        assert len(bounds) == 6
        for bound in bounds:
            assert abs(2.0 / bound * c - 1.0) < 1e-6


def test_scalar_bounds_are_the_diagonal_blocks_step_bound():
    """_step_bounds on a cone whose block is diagonal, (p, 0, r) with step (dp, 0, dr), and whose five scalars
    are p, r, p, r, p with steps dp, dr, dp, dr, dp: each scalar's bound is -2 d / v bit for bit, and the block's
    is the larger of p's and r's, and on a33's block (p = r) the one scalar's: both are
    max(-2 dp / p, -2 dr / r) in exact arithmetic.  The quadratic's discriminant (r dp - p dr)^2 cancels near
    its double root and keeps about half the digits there (measured: 1.9e-8 relative at worst on these draws),
    so the bound is 1e-7."""
    rng = np.random.default_rng(3904)
    for _ in range(2000):
        p, r = rng.uniform(0.1, 10.0, size=2)
        dp, dr = rng.normal(size=2)
        for a, b, da, db in ((p, r, dp, dr), (p, p, dp, dp)):
            scalars, steps = (a, b, a, b, a), (da, db, da, db, da)
            block, *bounds = sdp._step_bounds((a, 0.0, b, *scalars), (da, 0.0, db, *steps), a * b)
            assert bounds == [-2.0 * d / s for s, d in zip(scalars, steps)]
            assert abs(max(bounds) - block) <= 1e-7 * max(abs(block), 1.0)


def test_nt_scaling_maps_s_to_z():
    """On seeded random positive definite blocks, the NT scaling W = S # Z^-1 is positive definite and
    W Z W = S, so W^-1 S W^-1 = Z."""
    rng = np.random.default_rng(3802)
    for _ in range(2000):
        s, z = (m @ m.T + 0.01 * np.eye(2) for m in rng.normal(size=(2, 2, 2)))
        p, q, r = sdp._nt_scaling(s[[0, 0, 1], [0, 1, 1]].tolist(), z[[0, 0, 1], [0, 1, 1]].tolist(),
                                  np.linalg.det(s), np.linalg.det(z))
        w = np.array([[p, q], [q, r]])
        assert p > 0.0 and p * r - q * q > 0.0
        assert np.abs(w @ z @ w - s).max() <= 1e-12 * np.abs(s).max()


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
    """A step towards a NaN direction is refused: solve raises ConvergenceError, on both programs.  A NaN
    CENTRING makes tau, and so the right side of the free directions' system and lam, NaN, while the
    system's det stays positive; the NaN reaches dZ = C lam, dS and the step bounds."""
    directions = []

    def recorded(*args):
        directions.append(inner(*args))
        return directions[-1]

    inner = sdp._nt_direction
    monkeypatch.setattr(sdp, "_nt_direction", recorded)
    monkeypatch.setattr(sdp, "CENTRING", math.nan)
    for with_ppt in (False, True):
        directions.clear()
        with pytest.raises(ConvergenceError, match="left the cone interior"):
            solve(build_problem(0.4, with_ppt=with_ppt))
        (ds, dz), = directions
        assert math.isnan(dz[0]) and all(map(math.isnan, ds))


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_a_singular_free_system_raises_convergence_error(with_ppt):
    """The 1x1 or 2x2 system of the dual's free directions must have det > 0, and a NaN det raises
    ConvergenceError, not ZeroDivisionError or a NaN step, from the direction and from the table-driven one it
    replaced (tests/reference.py) alike.  With the directions in closed form an exactly singular system cannot
    be reached from a finite interior point (g11 sums positive terms, and the 2x2 system is the Gram matrix of
    two independent directions, so its det is positive by Cauchy-Schwarz), so the system is made singular by a
    NaN in one scalar of S or of Z, each of the five in turn, which leaves the block's scaling finite."""
    problem = build_problem(0.4, with_ppt=with_ppt)
    s, z = (problem.setup.forms @ problem.setup.x0).tolist(), sdp._IDENTITY.tolist()
    dets, free = (s[0] * s[2] - s[1] * s[1], 1.0), free_triples(with_ppt)
    for direction, program in ((sdp._nt_direction, with_ppt), (table_nt_direction, free)):
        assert direction(s, z, *dets, 1e-3, program)
        for entry in range(3, 8):
            for cone in (s, z):
                bad = list(cone)
                bad[entry] = math.nan
                args = (bad, z) if cone is s else (s, bad)
                with pytest.raises(ConvergenceError, match="left the cone interior"):
                    direction(*args, *dets, 1e-3, program)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_nt_direction_matches_the_kxk_system(with_ppt):
    """At seeded interior points of each program, dS and dZ from the dual's free directions equal the
    direction of the k x k system B^T D M B dz = B^T D t (tests/reference.py) to a relative 1e-10
    (measured 3e-13), and dZ lies in the span of the free directions."""
    problem = build_problem(0.35, with_ppt=with_ppt)
    setup, directions = problem.setup, np.array(FREE_ROWS[: 1 + with_ppt])
    rng = np.random.default_rng(4201)
    checked = 0
    while checked < 50:
        s = setup.forms @ (setup.x0 + 0.05 * rng.normal(size=len(setup.x0)))
        if sdp._cone_min(s) <= 0.0:
            continue
        p, r = rng.uniform(0.2, 2.0, size=2)
        z = np.array([p, rng.uniform(-0.9, 0.9) * math.sqrt(p * r), r, *rng.uniform(0.2, 2.0, size=5)])
        tau = 10.0 ** rng.uniform(-10.0, -1.0)
        det_s, det_z = s[0] * s[2] - s[1] ** 2, z[0] * z[2] - z[1] ** 2
        ds, dz = (np.array(v) for v in sdp._nt_direction(s.tolist(), z.tolist(), det_s, det_z, tau, with_ppt))
        ref_ds, ref_dz = kxk_direction(problem, s, z, tau)
        assert np.abs(ds - ref_ds).max() <= 1e-10 * np.abs(ref_ds).max()
        assert np.abs(dz - ref_dz).max() <= 1e-10 * np.abs(ref_dz).max()
        coef = np.linalg.lstsq(directions.T, dz, rcond=None)[0]
        assert np.abs(directions.T @ coef - dz).max() <= 1e-15 * np.abs(dz).max()
        checked += 1


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_nt_direction_keeps_the_table_driven_bits(with_ppt):
    """The direction in closed form returns the bits of the table-driven one it replaced (tests/reference.py),
    every dS and dZ entry by float.hex, signed zeros included, on the program's free directions (the triples
    reference.free_triples builds from the literal rows and the weights) at 10,000 seeded (S, Z, tau): a third
    interior, a third with S's block or Z's block at det ~1e-15 to 1e-1 of p r, and a third with a scalar of S
    or Z at 1e-16 to 1e-1, tau from 1e-12 to 1e-1.  Where one raises ConvergenceError the other must too (none
    does here: every system's det is positive)."""
    free = free_triples(with_ppt)
    rng = np.random.default_rng(4501)
    kind = raised = 0
    while kind < 10_000:
        cones = []
        for near in rng.permutation([kind % 3 != 0, False]):
            p, r = 10.0 ** rng.uniform(-3.0, 1.0, size=2)
            shrink = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if near and kind % 3 == 1 else rng.uniform(0.0, 1.0)
            scalars = 10.0 ** rng.uniform(-3.0, 1.0, size=5)
            if near and kind % 3 == 2:
                scalars[rng.integers(5)] = 10.0 ** rng.uniform(-16.0, -1.0)
            q = rng.choice([-1.0, 1.0]) * shrink * math.sqrt(p * r)
            cones.append([p, q, r, *scalars.tolist()])
        s, z = cones
        dets = (s[0] * s[2] - s[1] * s[1], z[0] * z[2] - z[1] * z[1])
        if not min(dets) > 0.0:
            continue
        kind += 1
        tau = 10.0 ** rng.uniform(-12.0, -1.0)
        found = []
        for direction, program in ((sdp._nt_direction, with_ppt), (table_nt_direction, free)):
            try:
                found.append([_bits(part) for part in direction(s, z, *dets, tau, program)])
            except ConvergenceError:
                found.append("ConvergenceError")
        assert found[0] == found[1], (s, z, tau)
        raised += found[0] == "ConvergenceError"
    assert raised == 0


def test_one_free_direction_steps_along_it_exactly():
    """The plain program's one free direction forms dZ as lam c with no second direction padded in: at seeded
    interior points dZ is lam c, c the identity, entry for entry, signed zeros included (lam < 0 gives a -0.0
    in dZ's q entry at 49 of the 50 points)."""
    setup, c = sdp._program(False), FREE_ROWS[0]
    rng, negative = np.random.default_rng(4302), 0
    for _ in range(50):
        s = (setup.forms @ setup.x0 * rng.uniform(0.5, 2.0, size=8)).tolist()
        z = [1.0, rng.uniform(-0.5, 0.5), 1.0, *rng.uniform(0.2, 2.0, size=5)]
        dets = (s[0] * s[2] - s[1] * s[1], z[0] * z[2] - z[1] * z[1])
        _, dz = sdp._nt_direction(s, z, *dets, 10.0 ** rng.uniform(-8.0, -1.0), False)
        assert [v.hex() for v in dz] == [(dz[0] * v).hex() for v in c]
        negative += math.copysign(1.0, dz[1]) < 0.0
    assert negative > 0


def test_cone_min_matches_the_numpy_formula():
    """_cone_min on Python floats returns the bits of the numpy formula it replaced (tests/reference.py) on
    12,000 seeded cones: interior ones, ones whose block has det ~1e-15 to 1e-1 of p r, and ones with a scalar
    of 1e-16 to 1e-1, some of each with a negative scalar.  numpy's scalar hypot is libm's; math.hypot, which
    rounds differently on about 0.6% of pairs, would fail this."""
    rng = np.random.default_rng(4401)
    for kind in range(12_000):
        p, r = 10.0 ** rng.uniform(-3.0, 1.0, size=2)
        shrink = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if kind % 3 == 1 else rng.uniform(0.0, 1.0)
        scalars = 10.0 ** rng.uniform(-3.0, 1.0, size=5)
        if kind % 3 == 2:
            scalars[rng.integers(5)] = 10.0 ** rng.uniform(-16.0, -1.0)
        if kind % 7 == 0:
            scalars[rng.integers(5)] *= -1.0
        v = [p, rng.choice([-1.0, 1.0]) * shrink * math.sqrt(p * r), r, *scalars.tolist()]
        assert sdp._cone_min(v).hex() == numpy_cone_min(v).hex()


def test_cone_min_is_nan_when_any_entry_is():
    """A NaN in any of the cone's 8 numbers makes _cone_min NaN, though Python's min skips a NaN past its
    first argument: checked on an interior cone and on one whose a33 scalar, -1, is its minimum."""
    for cone in ([1.0, 0.5, 2.0, 0.3, 0.4, 0.5, 0.6, 0.7], [1.0, 0.5, 2.0, 0.3, 0.4, 0.5, 0.6, -1.0]):
        for entry in range(8):
            v = list(cone)
            v[entry] = math.nan
            assert math.isnan(sdp._cone_min(v))
            assert math.isnan(sdp._cone_min(tuple(v)))


def _count_bounds(monkeypatch, change):
    """Patch solve's step bounds to record the length of what each _step_bounds call returns (S's block and
    five scalars, then Z's, each iteration); change(n, bounds) replaces what the n-th call returns."""
    inner, calls = sdp._step_bounds, []

    def counted(*args):
        bounds = inner(*args)
        calls.append(len(bounds))
        return change(len(calls), bounds)

    monkeypatch.setattr(sdp, "_step_bounds", counted)
    return calls


@pytest.mark.parametrize("with_ppt, alpha", [(False, 0.4), (True, 0.2)], ids=["plain", "ppt"])
def test_a_dual_step_past_the_boundary_raises_convergence_error(monkeypatch, with_ppt, alpha):
    """With Z's 2x2 block left out of the step bound, the first step takes Z out of the cone while S stays
    inside: the interior test must raise ConvergenceError before any square root of a negative determinant.
    The one iteration bounds S's and Z's block and five scalars each.  (Measured: the first step leaves the
    cone at every plain alpha in 0.1, 0.2, ..., 0.7, and at PPT alphas up to 0.3.)"""
    calls = _count_bounds(monkeypatch, lambda n, bounds: bounds if n % 2 else (-1.0, *bounds[1:]))
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(alpha, with_ppt=with_ppt))
    assert calls == [6, 6]


def test_a_dual_step_past_a_scalar_boundary_raises_convergence_error(monkeypatch):
    """With Z's five scalars left out of the step bound, the PPT program's first step at alpha = 0.4 takes a
    scalar of Z below 0 (measured: at every PPT alpha in 0.4, 0.5, 0.6, 0.7; on the plain program Z's scalars
    never bind), and the interior test raises ConvergenceError."""
    calls = _count_bounds(monkeypatch, lambda n, bounds: bounds if n % 2 else (bounds[0], *[-1.0] * 5))
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4, with_ppt=True))
    assert calls == [6, 6]


def test_a_nan_step_bound_is_not_skipped(monkeypatch):
    """Python's max drops a NaN that is not its first argument; a NaN bound of Z's block must stop the solve
    with ConvergenceError, not let it step by the other bounds."""
    calls = _count_bounds(monkeypatch, lambda n, bounds: (math.nan, *bounds[1:]) if n == 2 else bounds)
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4))
    assert calls == [6, 6]


def test_a_nan_scalar_bound_is_not_skipped(monkeypatch):
    """Likewise a NaN bound of one scalar, the fourth of S's, in the middle of the twelve bounds max reads."""
    calls = _count_bounds(monkeypatch, lambda n, bounds: (*bounds[:4], math.nan, *bounds[5:]) if n == 1 else bounds)
    with pytest.raises(ConvergenceError, match="left the cone interior"):
        solve(build_problem(0.4))
    assert calls == [6, 6]


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


def _bits(values):
    """The exact bits of each float, signed zeros told apart."""
    return [float(v).hex() for v in values]


def test_setups_are_built_once_and_read_only():
    """Every build of a program, t defaulted or passed, shares the solver setup built on first use, whose
    forms are its cones, read-only; only the objective is new, channel's functional on the program's coordinates.
    Both programs solve on one 2x2 block and five scalars: the left inverse of the forms is m x 8, and the
    bool ppt, False (plain) or True (PPT), picks the dual's free directions.  The per-solve constants are held
    too, each bit for bit: S's start forms x0 as a tuple of floats, nu = 64 or 128 and e . e as floats.  The
    start is strictly feasible: x0 is on the equality and S's start inside the cone.  Any other t, even an
    equal copy, is refused."""
    plain, first = sdp._program(False), sdp._program(True)
    for alpha in (0.1, 0.3, 0.6):
        for with_ppt, setup in ((False, plain), (True, first)):
            for problem in (build_problem(alpha, with_ppt=with_ppt), build_problem(alpha, T_OPERATORS, with_ppt),
                            build_problem(alpha, build_t_operators(), with_ppt)):
                assert problem.setup is setup
                assert problem.cones is setup.forms
                assert np.array_equal(problem.objective, fidelity_coefficients(alpha).reshape(-1) @ setup.basis)
    assert plain.forms is CONE_FORMS
    assert (plain.left.shape, first.left.shape) == ((8, 8), (7, 8))
    assert (plain.ppt, first.ppt) == (False, True) and type(plain.ppt) is type(first.ppt) is bool
    for setup, nu in ((plain, 64.0), (first, 128.0)):
        e = constraint_matrices()[0] @ setup.basis
        assert type(setup.s0) is tuple
        assert type(setup.nu) is type(setup.ee) is float
        assert {type(v) for v in setup.s0} == {float}
        assert _bits(setup.s0) == _bits((setup.forms @ setup.x0).tolist())
        assert _bits((setup.nu, setup.ee)) == _bits((nu, e @ e)) and setup.ee == 54.0
        assert abs(e @ setup.x0 - 1.0) <= 1e-9 and sdp._cone_min(setup.s0) > 1e-8
    held = {"ppt", "s0", "nu", "ee"}
    fields = {"basis", "x0", "forms", "left", "weights", "gram_inv", *held}
    assert set(first._fields) == fields
    arrays = [getattr(setup, name) for setup in (first, plain) for name in sorted(fields - held)]
    for arr in (*constraint_matrices(), FIXED, CONE_FORMS, *arrays):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    for other in (T_OPERATORS.copy(), T_OPERATORS[[1, 0, 2, 3, 4]]):
        for with_ppt in (False, True):
            with pytest.raises(ValueError, match="T_OPERATORS"):
                build_problem(0.3, other, with_ppt)


def test_setups_are_built_on_first_use():
    """Importing the CLI builds no solver setup; in-process, two builds of a program share one setup object,
    and the two programs' setups differ."""
    code = "import entclone.cli\nfrom entclone import sdp\nprint(sdp._program.cache_info().currsize)\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"
    setups = []
    for with_ppt in (False, True):
        first, second = (build_problem(alpha, with_ppt=with_ppt) for alpha in (0.2, 0.5))
        assert first.setup is second.setup
        setups.append(first.setup)
    assert setups[0] is not setups[1]
    assert sdp._program.cache_info().currsize == 2

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
    f* <= F_closed <= U, U - f* <= tol, a dual residual within 1e-14 and a positive definite Z, and
    a_star meets the trace row to 1e-15.  Each dual step is C lam, on the dual's free directions, so it
    leaves the dual equalities' residual at rounding level (at most 1.4e-15 measured).  Each primal step
    has its parts along D C removed, and S is put back on its affine set after it, so x = left S stays on
    the trace row (within 2.2e-16 measured).  Each plain solve takes 8 iterations, and the PPT solves take
    971 in all."""
    iterations = []
    for alpha in FLOOR_GRID:
        closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
        problem = build_problem(alpha, with_ppt=with_ppt)
        tol = problem.tol_floor
        sol = solve(problem, tol=tol)
        assert sol.f_star <= closed <= sol.upper_bound <= sol.f_star + tol
        assert sol.dual_residual <= 1e-14
        assert sol.min_dual_eigenvalue > 0.0
        assert abs(TRACE_ROW @ sol.a_star.reshape(-1) - 1.0) <= 1e-15
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
    """Every step, at the floor as at the default tol 1e-7, solves one float64 system, the 1x1 or 2x2
    system of the dual's free directions, in closed form: solves at alpha = 0.5 make as many
    _nt_direction calls as they take iterations, on float64 operands, and call nothing in np.linalg."""
    problem = build_problem(0.5, with_ppt=with_ppt)
    inner, solved, called = sdp._nt_direction, [], []

    def counted(s, z, det_s, det_z, tau, ppt):
        ds, dz = inner(s, z, det_s, det_z, tau, ppt)
        solved.append({np.asarray(v).dtype for v in (*s, *z, det_s, det_z, tau, *ds, *dz)})
        return ds, dz

    monkeypatch.setattr(sdp, "_nt_direction", counted)
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, **kwargs: called.append(_name))
    sol = solve(problem, tol=problem.tol_floor if at_floor else 1e-7)
    assert sol.iterations == len(solved) > 0
    assert all(dtypes == {np.dtype(np.float64)} for dtypes in solved)
    assert called == []


def _numpy_calls(problem, tol):
    """(iterations, the numpy functions and methods one solve calls): the C calls whose function, its type
    or the object it is bound to is numpy's, and the Python calls into numpy's own files."""
    root, calls = os.path.dirname(np.__file__), []

    def numpys(obj):
        return any((getattr(o, "__module__", None) or "").startswith("numpy")
                   for o in (obj, type(obj), type(getattr(obj, "__self__", None))))

    def profile(frame, event, arg):
        if event == "c_call" and numpys(arg):
            calls.append(getattr(arg, "__qualname__", repr(arg)))
        elif event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        sol = solve(problem, tol=tol)
    finally:
        sys.setprofile(None)
    return sol.iterations, calls


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_an_iteration_makes_no_numpy_call(with_ppt):
    """S and Z are Python floats and x is read once, by the certificate, so the numpy calls of a solve do
    not grow with its iterations: at alpha = 0.5, tol 1e-5 and the floor take different numbers of
    iterations (6 and 8 plain, 13 and 14 PPT) and make the same numpy calls."""
    problem = build_problem(0.5, with_ppt=with_ppt)
    (few, coarse), (many, fine) = (_numpy_calls(problem, tol) for tol in (1e-5, problem.tol_floor))
    assert few < many and coarse and sorted(coarse) == sorted(fine)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_a_solve_makes_at_most_5_numpy_calls(with_ppt):
    """A whole solve's numpy calls, the dual start and the certificate, are at most 5 on either program
    (measured: 5; 8 when solve converted the weights on every solve and the certificate took the residual's
    maximum with ndarray.max, 30 when _cone_min also took np.min of an 8-entry list four times a solve), and
    none is min or max."""
    problem = build_problem(alpha_critical(), with_ppt=with_ppt)
    _, calls = _numpy_calls(problem, 1e-7)
    assert 0 < len(calls) <= 5 and not any("min" in call or "max" in call for call in calls)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_the_final_s_lies_on_its_affine_set(with_ppt):
    """Each step of S is put back on S's affine set, so the final S of every solve on FLOOR_GRID, at tol
    1e-7 and at the floor, is the forms of its coordinates, forms (left S) = S, its coordinates meet the trace
    row, e.x = 1, and on the PPT slice D c2 . S = 0, D = diag(weights), each within 1e-15 (measured: 5.6e-17,
    2.2e-16 and 2.4e-16)."""
    for alpha in FLOOR_GRID:
        problem = build_problem(alpha, with_ppt=with_ppt)
        setup, (e,) = problem.setup, problem.eq_matrix
        for tol in (1e-7, problem.tol_floor):
            s = solve(problem, tol=tol).s
            x = setup.left @ np.array(s)
            assert np.abs(setup.forms @ x - s).max() <= 1e-15
            assert abs(math.fsum(map(operator.mul, e, x)) - 1.0) <= 1e-15
            if with_ppt:
                assert abs(math.fsum(map(operator.mul, setup.weights * FREE_ROWS[1], s))) <= 1e-15


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
def test_a_solution_carries_its_final_iterates(monkeypatch, with_ppt):
    """SdpSolution.s and .z are the final iterates, the cone's eight numbers as tuples of floats: s is the forms
    of the solution's coordinates, forms (left s) = s within 1e-15, and a_star is basis (left s) bit for bit;
    z reproduces upper_bound and dual_residual bit for bit, as the certificate reads them, and each cone's
    smallest eigenvalue is the solution's.  Checked on converged solves and on the iterate a ConvergenceError
    carries after 2 iterations."""
    problems = [build_problem(alpha, with_ppt=with_ppt) for alpha in (0.2, 0.5, alpha_critical())]
    solved = [(problem, solve(problem)) for problem in problems]
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as info:
        solve(problems[-1])
    solved.append((problems[-1], info.value.best))
    for problem, sol in solved:
        setup, (e,) = problem.setup, problem.eq_matrix
        assert type(sol.s) is type(sol.z) is tuple and len(sol.s) == len(sol.z) == 8
        assert {type(v) for v in (*sol.s, *sol.z)} == {float}
        x = setup.left @ np.array(sol.s)
        assert np.abs(setup.forms @ x - sol.s).max() <= 1e-15
        assert sol.a_star.tobytes() == (setup.basis @ x).reshape(5, 5).tobytes()
        r = problem.objective + np.dot(setup.weights * np.array(sol.z), setup.forms)
        y = (e @ r) / setup.ee
        assert float(y).hex() == sol.upper_bound.hex()
        assert max(map(abs, (e * y - r).tolist())).hex() == sol.dual_residual.hex()
        assert (sdp._cone_min(sol.s), sdp._cone_min(sol.z)) == (sol.min_eigenvalue, sol.min_dual_eigenvalue)


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
@pytest.mark.parametrize("at_floor", [False, True], ids=["default", "floor"])
def test_solve_follows_the_40_digit_path(with_ppt, at_floor):
    """On FLOOR_GRID's 88 alphas, solve takes the same iterations as the same NT path run on the k x k
    system in 40-digit decimal arithmetic (tests/reference.py), and its f*, U and a_star are within 1e-13
    of that path's.  Measured: a_star within 1.7e-14 (PPT, floor, at alpha0; 9.2e-15 PPT at tol 1e-7 and
    3.3e-16 plain), f* and U within 2.2e-16.  Without the re-projection of S, a_star was 2.4e-13 off at
    alpha = 0.6081 (PPT, floor); the k x k system solved in double was 5.7e-9 off at alpha = 0.3394."""
    for alpha in FLOOR_GRID:
        problem = build_problem(alpha, with_ppt=with_ppt)
        tol = problem.tol_floor if at_floor else 1e-7
        sol = solve(problem, tol=tol)
        iterations, f_star, upper, a_star = decimal_nt_path(problem, tol)
        assert sol.iterations == iterations
        assert abs(sol.f_star - f_star) <= 1e-13 and abs(sol.upper_bound - upper) <= 1e-13
        assert np.abs(sol.a_star - a_star).max() <= 1e-13


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
