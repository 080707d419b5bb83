"""Primal-dual semidefinite solver for the covariant cloning program.

The program maximizes the linear clone-fidelity functional over the
25-dimensional covariant parameter space subject to the trace and
clone-symmetry equalities and positivity of the assembled two-party
operator; the PPT program adds positivity of its partial transpose over
one party, which models the one-bit-LOCC relaxation.

The input is real and symmetric under A <-> B, so the program is
invariant under a -> a^T, under conjugation (t5 -> -t5, so a_i5 -> -a_i5
for i != 5) and under a_i4 -> -a_i4 for i != 4.  The program is convex,
so averaging an optimum over the three maps gives one in their fixed
subspace, and the central path, being unique, lies there too: real
symmetric a whose only off-diagonal entries are a12, a13 and a23,
spanned by FIXED's 0/1 columns e_ii and e_ij + e_ji, whose coordinates
are those entries.  There only the trace row remains: k = 7.

No 64x64 operator is formed on the solve path: the program is built from
exact tables, held as read-only literals.  The objective is
channel.fidelity_coefficients, G0 + x G1 with x = alpha^2 (1 - alpha^2),
and the equality is channel.TRACE_ROW, both read on the FIXED
coordinates, where the trace row is e = (1, 1, 4, 0, 0, 2, 4, 4); the
cone forms are held here.  Per party the commutant is M2 (+) C, with the
coordinates covariant.BLOCK_X, BLOCK_C of t1..t5, so on the fixed
subspace sum_ij a_ij ti (x) tj is unitarily a direct sum of
sum a_ij Xi (x) Xj (4x4, four copies), sum a_ij c_j Xi (2x2, sixteen
copies) and a33 (sixteen copies).  In the real basis |00>, |11>,
(|01> +- |10>)/sqrt(2) the first is the 2x2 block
[[a11, a44 - a55], [a44 - a55, a22]] plus
diag(a12 + a44 + a55, a12 - a44 - a55); the second is diag(a13, a23),
and the third, taken in pairs, diag(a33, a33).  So the operator is four
real 2x2 blocks of weights (4, 4, 16, 8), of which only the first is a
genuine 2x2 block: the other three are diagonal, and the fourth's two
diagonal entries are one form.  The cone therefore splits into
irreducible pieces (Gatermann & Parrilo, J. Pure Appl. Algebra 192,
2004): the 2x2 block (p, q, r) = (a11, a44 - a55, a22) of weight 4 and
five nonnegative scalars, a12 + a44 + a55 and a12 - a44 - a55 of weight
4, a13 and a23 of weight 16, and a33 of weight 8 x 2 = 16.  CONE_FORMS
holds these eight linear forms over the coordinates, with entries 0 and
+-1, and _FORM_WEIGHTS their weights, q counted twice as it sits twice
in the block.  nu = sum of weight * size, the dimension of the full
operator, is 2 * 4 + 4 + 4 + 16 + 16 + 16 = 64.  tests/reference.py
derives the four blocks and every other table from t1..t5, and
tests/test_tables.py checks that they agree.

The basis covariant.BLOCK_BASIS is real, so the partial transpose over
the second party is the same construction with Xj transposed: it flips
the sign of a55 and nothing else.  The objective and the trace row do
not involve a55, so the flip swaps the PPT program's two cones and
leaves the program unchanged; by the argument above its optimum and
central path lie on a55 = 0, where the two cones are one.  So the PPT
program is solved there, on the 7 FIXED coordinates without a55
(k = 6), with the plain cone counted twice (nu = 128).  Its dual stands
for Z_plain = Z_ppt, whose a55 terms cancel in the two-cone
stationarity, leaving in that row the objective's a55 coefficient alone:
the certificate is one of the PPT program itself.  The three premises
are checked in tests/test_tables.py.

The solver follows a feasible primal-dual path (Nesterov & Todd, Math.
Oper. Res. 1997; Vandenberghe, "The CVXOPT linear and quadratic cone
program solvers", 2010).  The primal iterate x = x0 + N z stays on the
equalities through an orthonormal null-space basis N.  The dual iterate
is one 2x2 block and five scalars Z_k, standing for the same copies as
the primal's; it stays on the dual equalities
N^T (f + sum_k w_k A_k*(Z_k)) = 0, so y with A^T y = f + sum_k w_k A_k*(Z_k)
exists and U = b y = y bounds the optimum from above whenever every
Z_k > 0; Z stands for the 64x64 dual whose blocks 2-4 are diagonal,
with the scalars on their diagonals.  With
mu = sum_k w_k <Z_k, S_k> / nu = (U - f.x) / nu, the weighted central
path S_k Z_k = mu I is the log-barrier central path of
f.x + mu log det C(x), the path of the dense 64x64 program.
 - Start: x0 is alpha-independent: a = s s^T / 36, s = (1, 1, 2, 0, 0),
   for the plain program, that point pulled towards the no-communication
   point for the PPT program (see _program); the NT path depends on the
   start, not on the fixed subspace's basis.  The dual starts at
   y0 I / (4c) - C(h) for c copies of the cone: h solves the weighted
   Gram system G h = f, G diagonal and integer, and the copies' traces
   sum to 4c times the trace row, so the stationarity residual is zero;
   y0 / (4c) is twice |lambda_max(C(h))|, which puts Z inside the cone.
 - Step: each iteration solves one k x k system for the NT direction
   towards S_k Z_k = tau I, tau = max(CENTRING mu, mu_min), with the
   closed-form NT scaling W = S # Z^-1 of the block (_nt_scaling),
   whose packed 3x3 map X -> W^-1 X W^-1 is read off W^-1's entries,
   and X -> (z / s) X on each scalar, with no square root.  The system
   and its right side are one product: _program's table times the 9
   entries of that map, the 5 ratios z / s and the 8 entries of the
   target tau S^-1 - Z.  The dual step is projected onto the null space
   of the dual equalities, and both iterates move by STEP_FRACTION of
   the largest step that keeps the block positive definite and every
   scalar positive (one quadratic for each of S's and Z's block,
   _step_bound, and -2 ds / s per scalar, _scalar_bounds), capped at 1.
   There is no line search.
 - Precision: double throughout, one np.linalg.solve per step.  The
   products over the coordinates are numpy calls: S = forms x, the
   table's product, the lift [N; forms N] dz of the direction to the
   steps of x and S, and the dual projection.  The few products of the
   block and of each scalar run on Python floats, without a call's cost.
   The tol floor 2 nu 1e-10 (mu_min >= 1e-10) is where double suffices:
   the largest mu_min at which a double solve fails is 7.0e-12 (see solve).
 - Stop: once the block's complementarity S Z is within 1e-3 mu_min of
   mu_min I and every scalar's s z within 1e-3 mu_min of mu_min,
   mu_min = tol / (2 nu); on a diagonal block the two tests agree.  The
   end point is the barrier's centred point at mu_min, so f*'s error is
   a smooth function of alpha, and U - f* = nu mu_min = tol / 2.
Every iterate is interior and dual feasible, so every iterate, not only
the last, is certified: the solution's upper_bound, dual_residual and
min_dual_eigenvalue are read off the dual iterate.  The alpha-independent
parts of a solve are built once, at import, for the plain and the PPT
program, and travel as SdpProblem.setup: the null basis and the start are
closed forms in the trace row, and the one factorization is the dual
projector's np.linalg.solve, one per program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone.covariant import T_OPERATORS, check_t

# Each iteration targets CENTRING times the current mu and takes
# STEP_FRACTION of the largest step that stays interior.
CENTRING = 0.03
STEP_FRACTION = 0.99
# solve's cap on the number of iterations.
MAX_ITERATIONS = 200
# detect_threshold's bar for a curvature jump, tuned for grid steps near
# 0.002 and solver tolerances near 1e-7.
THRESHOLD_RATIO = 10.0
THRESHOLD_FLOOR = 1e-7
# The fixed subspace over the flat a vector, one column per coordinate a11, a22,
# a33, a44, a55, a12, a13, a23: e_ii, then e_ij + e_ji, so FIXED x holds each coordinate as it is.
FIXED = np.zeros((25, 8))
for _h, (_i, _j) in enumerate([(i, i) for i in range(5)] + [(0, 1), (0, 2), (1, 2)]):
    FIXED[[5 * _i + _j, 5 * _j + _i], _h] = 1.0
# The forms of the cone over the coordinates (see the module docstring): the 2x2 block's p, q, r, then the
# five scalars.
CONE_FORMS = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],  # Xi (x) Xj, upper block: p = a11
        [0, 0, 0, 1, -1, 0, 0, 0],  # q = a44 - a55
        [0, 1, 0, 0, 0, 0, 0, 0],  # r = a22
        [0, 0, 0, 1, 1, 1, 0, 0],  # Xi (x) Xj, lower diagonal: a12 + a44 + a55
        [0, 0, 0, -1, -1, 1, 0, 0],  # a12 - a44 - a55
        [0, 0, 0, 0, 0, 0, 1, 0],  # c_j Xi diagonal: a13
        [0, 0, 0, 0, 0, 0, 0, 1],  # a23
        [0, 0, 1, 0, 0, 0, 0, 0],  # c_i c_j: a33
    ],
    dtype=float,
)
_A55 = 4  # the FIXED coordinate of a55, which the PPT program's slice drops
# The weight of each form in sum over copies of <Z, S>, per copy of the 64x64 operator: the block's 4 copies
# with q counted twice, then the scalars, a33 being 8 copies x 2.  The identity's forms are _IDENTITY.
_FORM_WEIGHTS = np.array((4, 8, 4, 4, 4, 16, 16, 16), dtype=float)
_IDENTITY = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
for _table in (FIXED, CONE_FORMS, _FORM_WEIGHTS, _IDENTITY):
    _table.flags.writeable = False


class _Setup(NamedTuple):
    """The parts of solve that do not depend on alpha, built once per program by _program
    and carried as SdpProblem.setup; every array is float64, as is every step of solve."""

    basis: np.ndarray  # (25, m) the columns of FIXED the m coordinates stand for
    null: np.ndarray  # (m, k) orthonormal basis of the equalities' null space
    x0: np.ndarray  # (m,) strictly feasible primal start
    forms: np.ndarray  # (8, m) CONE_FORMS on the m coordinates
    weights: np.ndarray  # (8,) _FORM_WEIGHTS, twice them for PPT: sum_f weights_f Z_f S_f = sum over copies of <Z, S>
    lift: np.ndarray  # (m + 8, k) [null; forms @ null]: a direction dz to the steps of x and of S
    table: np.ndarray  # (k k + k, 22) the system and its right side, linear in the scaling, z / s and target
    project: np.ndarray  # (8, 8) orthogonal projector onto the null space of the dual equalities
    gram_inv: np.ndarray  # (m,) the diagonal inverse of the weighted Gram matrix forms^T diag(weights) forms


@dataclass(frozen=True)
class SdpProblem:
    """Linear objective and the equality row (its right-hand side is 1) over the program's coordinates,
    with the solver's alpha-independent setup for them (see _program)."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    setup: _Setup

    @property
    def cones(self) -> np.ndarray:
        """The (8, m) cone forms the solver runs on, setup.forms; the benchmark sizes them as sdp.cone_bytes."""
        return self.setup.forms

    @property
    def nu(self) -> float:
        """Barrier parameter: the summed dimension of the full operators the cone stands for, the weighted
        trace of the identity."""
        return float(self.setup.weights @ _IDENTITY)

    @property
    def tol_floor(self) -> float:
        """The smallest tol solve accepts, 2 nu 1e-10 (mu_min >= 1e-10): 1.28e-8 plain, 2.56e-8 PPT."""
        return 2.0 * self.nu * 1e-10


@dataclass(frozen=True)
class SdpSolution:
    """An iterate and its dual certificate: upper_bound bounds the optimum
    when min_dual_eigenvalue > 0 and dual_residual is at rounding level."""

    a_star: np.ndarray
    f_star: float
    min_eigenvalue: float
    iterations: int
    upper_bound: float
    dual_residual: float
    min_dual_eigenvalue: float


class ConvergenceError(RuntimeError):
    """Raised when a solve does not converge; carries the iterate it stopped at and its certificate, if any."""

    def __init__(self, message: str, best: SdpSolution | None = None):
        super().__init__(message)
        self.best = best


class ThresholdDetectionError(ValueError):
    """Raised when a sweep has no kink above the noise floor."""


def _cone_min(v: np.ndarray) -> float:
    """Smallest eigenvalue of the cone whose 2x2 block is v[:3] = (p, q, r) and whose scalars are v[3:];
    NaN if any entry is."""
    p, q, r = v[:3]
    return float(np.min([(p + r) / 2.0 - np.hypot((p - r) / 2.0, q), *v[3:]]))


def _nt_scaling(s: Sequence[float], z: Sequence[float], det_s: float, det_z: float) -> tuple[float, ...]:
    """Row by row, the packed 3x3 map X -> W^-1 X W^-1 of the NT scaling W = S # Z^-1 (W Z W = S) of one block.

    With M = S / sqrt(det S) + adj(Z) / sqrt(det Z) and g = sqrt(det Z / det S), W^-1 = adj(M) sqrt(g / det M)
    = V = [[a, b], [b, c]], and X -> V X V is [[a^2, 2ab, b^2], [ab, ac + b^2, bc], [b^2, 2bc, c^2]].
    det_s, det_z > 0; a det M that rounding left non-positive raises ConvergenceError.
    """
    (sp, sq, sr), (zp, zq, zr), root_s, root_z = s, z, math.sqrt(det_s), math.sqrt(det_z)
    mp, mq, mr = sp / root_s + zr / root_z, sq / root_s - zq / root_z, sr / root_s + zp / root_z
    det_m = mp * mr - mq * mq
    if not det_m > 0.0:
        raise ConvergenceError("the iterate left the cone interior")
    g = math.sqrt(root_z / root_s / det_m)
    a, b, c = mr * g, -mq * g, mp * g
    ab, bb, bc = a * b, b * b, b * c
    return (a * a, 2.0 * ab, bb, ab, a * c + bb, bc, bb, 2.0 * bc, c * c)


def _step_bound(v: Sequence[float], dv: Sequence[float], det: float) -> float:
    """Twice the reciprocal of the largest s with the block v + s dv positive definite, given det = det(v) > 0.

    det(v + s dv) = a s^2 + b s + det, b = tr(adj(v) dv), has real roots, -1 over the eigenvalues
    of v^-1/2 dv v^-1/2, so b^2 - 4 a det is clamped at 0 against rounding (at a double root, as
    when dv is a multiple of v, it is 0 in exact arithmetic).  (sqrt(b^2 - 4 a det) - b) / det is
    positive exactly when a positive root exists, and is then twice the reciprocal of the smallest
    one; it is NaN when dv is not finite.
    """
    (p, q, r), (dp, dq, dr) = v, dv
    b = r * dp - 2.0 * (q * dq) + p * dr
    return (math.sqrt(max(b * b - 4.0 * (dp * dr - dq * dq) * det, 0.0)) - b) / det


def _scalar_bounds(v: Sequence[float], dv: Sequence[float]) -> list[float]:
    """_step_bound of each scalar v_i > 0: -2 dv_i / v_i, positive exactly when v_i + s dv_i reaches 0 at some
    s > 0, and NaN when dv_i is."""
    return [-2.0 * d / s for s, d in zip(v, dv)]


def _program(with_ppt: bool) -> _Setup:
    """The solver setup of the plain or PPT program: all of it but the objective's x.

    The plain program runs on the 8 FIXED coordinates, the PPT program on
    the 7 without a55 with the plain cone counted twice.  The trace row e
    is the one equality, so its null basis is a closed form: the last
    m - 1 columns of the Householder reflection I - h h^T / h_0,
    h = e / |e| + e_1, which maps e_1 to -e / |e|.  The start x0 does not
    depend on alpha.  The plain program starts at a = s s^T / 36,
    s = (1, 1, 2, 0, 0), the maximally mixed feasible point TRACE_ROW / 36,
    whose coordinates are e over each column's entry count, over 36 (not
    e / (e.e) = e / 54); there the dense operator's spectrum is
    {1, 2, 4} / 36, so it clears the cone by 1/36, and every alpha
    measured takes the same number of iterations at a given tol, 7 at the
    default.  The PPT program starts at 0.9 times the no-communication
    point a = e_22 (basis[6], as a_22 sits at flat index 6) plus 0.1 times
    that point, which clears the cone by 1/360 but takes fewer iterations
    than the mixed point.
    The table's rows are the system dual_map^T W^-1 dirs and its right side
    dual_map^T target, dirs = forms N and dual_map = diag(weights) dirs, as
    linear maps of the step's 22 numbers.
    Every array in the setup is read-only.  Raises ConvergenceError if x0
    misses the equality or the cone's interior.
    """
    basis, forms, weights = FIXED, CONE_FORMS, _FORM_WEIGHTS
    if with_ppt:
        basis, forms = (np.delete(arr, _A55, axis=-1) for arr in (basis, forms))
        weights = 2.0 * _FORM_WEIGHTS
    e = constraint_matrices()[0] @ basis
    h = e / np.sqrt(e @ e) + np.eye(len(e))[0]
    null = (np.eye(len(e)) - np.outer(h, h) / h[0])[:, 1:]
    mixed = e / basis.sum(axis=0) / 36.0
    x0 = 0.9 * basis[6] + 0.1 * mixed if with_ppt else mixed
    if not (abs(e @ x0 - 1.0) <= 1e-9 and _cone_min(forms @ x0) > 1e-8):
        raise ConvergenceError("could not find a strictly feasible starting point")
    dirs = forms @ null
    dual_map = weights[:, None] * dirs
    k = null.shape[1]
    table = np.block([
        [np.einsum("ei,fj->ijef", dual_map[:3], dirs[:3]).reshape(k * k, 9),
         np.einsum("si,sj->ijs", dual_map[3:], dirs[3:]).reshape(k * k, 5), np.zeros((k * k, 8))],
        [np.zeros((k, 14)), dual_map.T],
    ])
    project = np.eye(len(dual_map)) - dual_map @ np.linalg.solve(dual_map.T @ dual_map, dual_map.T)
    gram_inv = 1.0 / (weights @ (forms * forms))
    setup = _Setup(basis, null, x0, forms, weights, np.vstack([null, dirs]), table, project, gram_inv)
    for arr in setup:
        arr.flags.writeable = False
    return setup


# The setups of the plain and the PPT program, indexed by with_ppt.
_PROGRAMS = (_program(False), _program(True))


def build_problem(alpha: float, t: np.ndarray = T_OPERATORS, with_ppt: bool = False) -> SdpProblem:
    """Assemble the program for one Schmidt weight on its coordinates (see _program).

    Only the objective depends on alpha: it is
    channel.fidelity_coefficients(alpha, t) read on the program's
    coordinates, which checks alpha and t (t must be T_OPERATORS, see
    covariant.check_t).  The cone forms and the solver setup are the
    program's, built once and shared read-only.  The clone-symmetry rows
    vanish on FIXED, so the trace row, read through
    channel.constraint_matrices, is the only equality.
    """
    setup = _PROGRAMS[bool(with_ppt)]
    f = fidelity_coefficients(alpha, t).reshape(-1) @ setup.basis
    eq = (constraint_matrices()[0] @ setup.basis)[None, :]
    return SdpProblem(objective=f, eq_matrix=eq, setup=setup)


def _certificate(problem: SdpProblem, x: np.ndarray, z: Sequence[float], iterations: int) -> SdpSolution:
    """The primal iterate x and the dual point z; y = e.r / e.e solves A^T y = r in least squares."""
    setup, zs = problem.setup, np.array(z)
    r = problem.objective + np.dot(setup.weights * zs, setup.forms)
    (e,) = problem.eq_matrix
    y = (e @ r) / (e @ e)
    return SdpSolution(
        a_star=(setup.basis @ x).reshape(5, 5),
        f_star=float(problem.objective @ x),
        min_eigenvalue=_cone_min(setup.forms @ x),
        iterations=iterations,
        upper_bound=float(y),
        dual_residual=float(np.abs(e * y - r).max()),
        min_dual_eigenvalue=_cone_min(zs),
    )


def solve(problem: SdpProblem, tol: float = 1e-7) -> SdpSolution:
    """Maximize the objective; returns the final iterate, diagnostics and its dual certificate.

    Feasible primal-dual path following with the Nesterov-Todd direction
    (see the module docstring) to the barrier path's centred point at
    mu_min = tol / (2 nu), with duality gap nu mu_min = tol / 2.
    MAX_ITERATIONS caps the number of iterations; the ConvergenceError
    raised past it carries the current iterate, certified like every other.
    tol must be finite, positive and at least problem.tol_floor, else ValueError.
    An iterate that rounding put on the cone boundary raises a
    ConvergenceError that carries no iterate.  Identical inputs always
    produce identical output.

    The floor keeps mu_min where double suffices.  At mu_min near 1e-12 a
    2x2 block's small eigenvalue is ~1e-12 of its entries, which double
    leaves only 4 digits of, and the system's condition reaches ~1e11, so
    steps can leave the interior or stall short of the stop test.  On a
    ladder of 52 tols from 2 nu 1e-12 to 1e-6 on the floor test's 88
    alphas, the largest mu_min at which a solve in either program fails to
    converge, loses its certificate or moves a plain iteration count is
    7.0e-12 (plain, tol 9e-10); the floor's mu_min, 1e-10, is above ten
    times that.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    nu = problem.nu
    if tol < problem.tol_floor:
        raise ValueError(f"tol must be at least the solver's floor {problem.tol_floor:.3g}, got {tol:g}")
    setup = problem.setup
    forms, lift, table, project = setup.forms, setup.lift, setup.table, setup.project
    (wp, wq, wr, *ws), m, k = setup.weights.tolist(), len(setup.x0), setup.null.shape[1]
    mu_min = tol / (2.0 * nu)
    bar = 1e-3 * mu_min
    # Z starts at y0 I / (4c) - C(h).
    ch = forms @ (setup.gram_inv * problem.objective)
    z = 2.0 * abs(_cone_min(-ch)) * _IDENTITY - ch
    if _cone_min(z) <= 0.0:
        raise ConvergenceError("could not find a strictly feasible dual start")
    # S and Z are Python floats, the block's (p, q, r) and then the scalars, so their few products
    # each run without a numpy call's cost; x stays an array, read and moved by numpy products.
    z, x, iterations = z.tolist(), setup.x0, 0
    while True:
        (sp, sq, sr, *ss), (zp, zq, zr, *zs) = np.dot(forms, x).tolist(), z
        det_s, det_z = sp * sr - sq * sq, zp * zr - zq * zq
        if not all(v > 0.0 for v in (det_s, det_z, sp, zp, *ss, *zs)):
            raise ConvergenceError("the iterate left the cone interior")
        gaps = [a * b for a, b in zip(ss, zs)]
        mu = wp * sp * zp + wq * sq * zq + wr * sr * zr
        for w, gap in zip(ws, gaps):
            mu += w * gap
        mu /= nu
        # The block's S Z has eigenvalues half +- radius, half = tr(S Z) / 2, radius^2 = half^2 - det S det Z.
        if mu <= (1.0 + 1e-3) * mu_min:
            half = (sp * zp + 2.0 * (sq * zq) + sr * zr) / 2.0
            if (abs(half - mu_min) + math.sqrt(max(half * half - det_s * det_z, 0.0)) <= bar
                    and all(abs(gap - mu_min) <= bar for gap in gaps)):
                return _certificate(problem, x, z, iterations)
        if iterations >= MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence within {MAX_ITERATIONS} iterations", best=_certificate(problem, x, z, iterations)
            )
        iterations += 1
        tau = max(CENTRING * mu, mu_min)
        # The NT direction: N^T sum_k w_k A_k*(W^-1 dS W^-1) = N^T sum_k w_k A_k*(tau S^-1 - Z)
        # for dS = C(N dz), then dZ = tau S^-1 - Z - W^-1 dS W^-1, projected
        # back onto the dual equalities so rounding cannot build up in the
        # residual.  On the block tau S^-1 = tau adj(S) / det S; on a scalar W^-1 X W^-1 = (z / s) X.
        inv = tau / det_s
        target = [inv * sr - zp, -(inv * sq) - zq, inv * sp - zr, *[tau / a - b for a, b in zip(ss, zs)]]
        scaling = _nt_scaling((sp, sq, sr), (zp, zq, zr), det_s, det_z)
        ratios = [b / a for a, b in zip(ss, zs)]
        coefficients = np.dot(table, [*scaling, *ratios, *target])
        dz = np.linalg.solve(coefficients[: k * k].reshape(k, k), coefficients[k * k:])
        lifted = np.dot(lift, dz)
        dsp, dsq, dsr, *dss = lifted[m:].tolist()
        # The dual step before its projection, target - W^-1 dS W^-1, through the packed map's rows.
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = scaling
        dual = [target[0] - (p0 * dsp + p1 * dsq + p2 * dsr), target[1] - (p3 * dsp + p4 * dsq + p5 * dsr),
                target[2] - (p6 * dsp + p7 * dsq + p8 * dsr), *[g - r * d for g, r, d in zip(target[3:], ratios, dss)]]
        dzp, dzq, dzr, *dzs = dual = np.dot(project, dual).tolist()
        bounds = [_step_bound((sp, sq, sr), (dsp, dsq, dsr), det_s),
                  _step_bound((zp, zq, zr), (dzp, dzq, dzr), det_z),
                  *_scalar_bounds([*ss, *zs], [*dss, *dzs])]
        if any(map(math.isnan, bounds)):
            raise ConvergenceError("the iterate left the cone interior")
        top = max(bounds)
        step = min(1.0, STEP_FRACTION * (2.0 / top)) if top > 0.0 else 1.0
        x = x + step * lifted[:m]
        z = [a + step * d for a, d in zip(z, dual)]


def sweep_solutions(alphas: Sequence[float], with_ppt: bool, tol: float = 1e-7) -> list[tuple[float, SdpSolution]]:
    """Solve the program at each alpha in turn; returns (alpha, solution) pairs.

    The first point that does not converge aborts the sweep with a
    ConvergenceError naming its index and alpha.
    """
    out = []
    for idx, alpha in enumerate(alphas):
        try:
            sol = solve(build_problem(alpha, with_ppt=with_ppt), tol=tol)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"sweep point {idx} (alpha={alpha:.6f}) did not converge: {err}",
                best=err.best,
            ) from err
        out.append((float(alpha), sol))
    return out


def solve_sweep(
    alphas: Sequence[float], with_ppt: bool = False, *, t: np.ndarray = T_OPERATORS, tol: float = 1e-7
) -> list[tuple[float, float]]:
    """Solve the program on a grid; returns (alpha, best fidelity) pairs.

    t must be T_OPERATORS (see covariant.check_t), even for an empty grid.
    """
    check_t(t)
    sols = sweep_solutions(alphas, with_ppt, tol=tol)
    return [(alpha, sol.f_star) for alpha, sol in sols]


def _median(values: np.ndarray) -> float:
    """np.median of a finite 1-D array, without its NaN check, which imports numpy.ma on first use."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    return float(ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2.0)


def detect_threshold(sweep: Sequence[tuple[float, float]]) -> float:
    """Locate the constraint-activation threshold of a swept fidelity curve.

    The optimal curve stays differentiable through the threshold but its
    curvature jumps there, so a bare spike test on second differences
    cannot separate the kink from smooth background curvature.  Instead
    the detector scans consecutive second differences for their largest
    change (a third difference).  That change must clear both
    THRESHOLD_RATIO times the median of the others and the absolute
    THRESHOLD_FLOOR, otherwise the curve is declared smooth and
    ThresholdDetectionError is raised.  The reported alpha is the grid
    point with the larger second-difference magnitude among the two that
    straddle the jump.  A non-finite alpha or value, fewer than seven
    points, a repeated alpha, or steps whose spread exceeds 1e-9 of the
    smallest raise ValueError.
    """
    pts = [(float(a), float(v)) for a, v in sweep]
    if not np.isfinite(pts).all():
        raise ValueError("sweep alphas and values must be finite")
    pts.sort()
    if len(pts) < 7:
        raise ValueError("threshold detection needs at least seven sweep points")
    alphas = np.array([a for a, _ in pts])
    values = np.array([v for _, v in pts])
    steps = np.diff(alphas)
    # Grids from arange or linspace spread by ~1e-14 relative; a
    # non-uniform step bends a straight line's differences like a kink.
    if steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * steps.min():
        raise ValueError("sweep alphas must increase in equal steps")
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    jumps = np.abs(np.diff(d2))
    peak = int(np.argmax(jumps))
    med = _median(np.delete(jumps, peak))
    if jumps[peak] < max(THRESHOLD_RATIO * med, THRESHOLD_FLOOR):
        raise ThresholdDetectionError("no curvature jump above the noise floor")
    pick = peak + 1 if abs(d2[peak]) >= abs(d2[peak + 1]) else peak + 2
    return float(alphas[pick])
