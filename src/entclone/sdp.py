"""Primal-dual semidefinite solver for the covariant cloning program.

The program maximizes the linear clone-fidelity functional over the
25-dimensional covariant parameter space subject to the trace and
clone-symmetry equalities and positivity of the assembled two-party
operator; an optional second cone adds positivity of its partial
transpose over one party, which models the one-bit-LOCC relaxation.

The input is real and symmetric under A <-> B, so the program is
invariant under a -> a^T, under conjugation (t5 -> -t5, so
a_i5 -> -a_i5 for i != 5) and under a_i4 -> -a_i4 for i != 4.  The
program is convex, so averaging an optimum over the three maps gives
one in their fixed subspace, and the central path, being unique, lies
there too: real symmetric a whose only off-diagonal
entries are a12, a13 and a23, spanned by the 8 orthonormal columns of
FIXED.  There the clone-symmetry rows vanish and only the trace row is
left, so k = 7 coordinates are free.

No cone is formed as a 64x64 matrix, and none is eigensolved.  Per party
the commutant is M2 (+) C, and covariant.commutant_blocks reads the
coordinates X_i, c_i of each ti there off t.  On the fixed subspace
sum_ij a_ij ti (x) tj is unitarily a direct sum of sum a_ij Xi (x) Xj
(4x4, four copies), sum a_ij c_j Xi (2x2, sixteen copies) and a33
(sixteen copies).  In the real basis PAIR_BASIS = |00>, |11>,
(|01> +- |10>)/sqrt(2) the first is the 2x2 block
[[a11, a44 - a55], [a44 - a55, a22]] plus
diag(a12 + a44 + a55, a12 - a44 - a55); the second is diag(a13, a23),
and the third, taken in pairs, diag(a33, a33).  So each cone is four
real 2x2 blocks of weights (4, 4, 16, 8), and one formula serves each
step of the solver on all of them.  The basis covariant.BLOCK_BASIS is
real, so the partial transpose over the second party is the same
construction with Xj replaced by its transpose, which flips the sign of
a55 and nothing else.  A cone is stored as the twelve linear forms
(p, q, r of each block in turn) over the coordinates, so one mat-vec
gives every block at x; nu = sum of weight * block size, the dimension
of the full operator, stays 64 per cone.

The objective and the equality rows are built per party too, from the
partial traces of the 8x8 operators t1..t5 (see
channel.fidelity_coefficients and channel.constraint_matrices), so no
64x64 operator is formed anywhere on the solve path.

The solver follows a feasible primal-dual path (Nesterov & Todd, Math.
Oper. Res. 1997; Vandenberghe, "The CVXOPT linear and quadratic cone
program solvers", 2010).  The primal iterate x = x0 + N z stays on the
equalities through an orthonormal null-space basis N.  The dual iterate
is four 2x2 blocks Z_k per cone, standing for the same copies as the
primal blocks; it stays on the dual equalities
N^T (f + sum_k w_k A_k*(Z_k)) = 0, so y with A^T y = f + sum_k w_k A_k*(Z_k)
exists and U = b^T y bounds the optimum from above whenever every
Z_k > 0.  With mu = sum_k w_k <Z_k, S_k> / nu = (U - f.x) / nu, the
weighted central path S_k Z_k = mu I is the log-barrier central path of
f.x + mu log det C(x), the path of the dense 64x64 program.
 - Start: x0 is alpha-independent (see _interior_start).  The dual
   starts at y0 I / (4n) - C(h) for n cones: h solves the weighted Gram
   system G h = f, which makes the stationarity residual zero (the
   cones' traces sum to 4n times the trace row, so the identity term
   adds y0 A^T), and y0 / (4n) is twice the absolute value of C(h)'s
   largest eigenvalue, which puts Z inside the cone.
 - Step: each iteration solves one k x k system for the NT direction
   towards S_k Z_k = tau I, tau = max(CENTRING mu, mu_min), with the
   closed-form NT scaling W = S # Z^-1 of every block.  The dual step
   is projected onto the null space of the dual equalities, and both
   iterates move by STEP_FRACTION of the largest step that keeps every
   block positive definite (one quadratic per block), capped at 1.
   There is no line search.
 - Stop: once every block's complementarity is within 1e-3 mu_min of
   mu_min I, mu_min = tol / (2 nu).  The end point is the barrier's
   centred point at mu_min, so f*'s error is a smooth function of
   alpha, and U - f* = nu mu_min = tol / 2.
Every iterate is interior and dual feasible, so every iterate, not only
the last, is certified: the solution's upper_bound, dual_residual and
min_dual_eigenvalue are read off the dual iterate.  Both iterates are
carried in long double, so a 2x2 block's small eigenvalue keeps its
sign down to the smallest mu_min solve accepts.  The alpha-
independent parts of a solve (the cones, N, x0, the rotated forms, the
Gram inverse and the dual projector) are built once per immutable
covariant.TOperators and cone set, plain or PPT, and travel with the
problem as SdpProblem.setup, so solve looks nothing up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone.covariant import T_OPERATORS, TOperators, commutant_blocks

# Each iteration targets CENTRING times the current mu and takes
# STEP_FRACTION of the largest step that stays interior.
CENTRING = 0.03
STEP_FRACTION = 0.99
# detect_threshold's bar for a curvature jump, tuned for grid steps near
# 0.002 and solver tolerances near 1e-7.
THRESHOLD_RATIO = 10.0
THRESHOLD_FLOOR = 1e-7
# The fixed subspace as orthonormal columns over the flat a vector:
# e_ii for i = 1..5, then (e_ij + e_ji)/sqrt(2) for (1,2), (1,3), (2,3).
FIXED = np.zeros((25, 8))
for _h, (_i, _j) in enumerate([(i, i) for i in range(5)] + [(0, 1), (0, 2), (1, 2)]):
    FIXED[[5 * _i + _j, 5 * _j + _i], _h] = 1.0 if _i == _j else 1.0 / np.sqrt(2.0)
# Columns |00>, |11>, (|01> + |10>)/sqrt(2), (|01> - |10>)/sqrt(2) of M2 (x) M2.
PAIR_BASIS = np.array([[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [0, 1, 0, 0]]) / np.sqrt([1, 1, 2, 2])
for _table in (FIXED, PAIR_BASIS):
    _table.flags.writeable = False
# A cone is a (12, 8) array of linear forms over the FIXED coordinates:
# rows p, q, r of each of its four real 2x2 blocks [[p, q], [q, r]] in
# turn.  Its 64x64 operator at x is unitarily the direct sum of
# BLOCK_WEIGHTS[j] copies of block j.
BLOCK_WEIGHTS = (4, 4, 16, 8)
# The weight of each form in sum over copies of <Z, block>: a block holds
# q twice.  The identity's forms are _IDENTITY.
_FORM_WEIGHTS = np.outer(BLOCK_WEIGHTS, [1.0, 2.0, 1.0])
_IDENTITY = np.array([1.0, 0.0, 1.0])
# A 2x2 block (p, q, r) unpacked to [[p, q], [q, r]]; _SELECT reads
# (p, q, r) off a flattened 2x2 matrix and _DUPLICATE writes them into one.
_UNPACK = np.array([[0, 1], [1, 2]])
_SELECT = np.eye(4)[[0, 1, 3]]
_DUPLICATE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
for _table in (_FORM_WEIGHTS, _IDENTITY, _UNPACK, _SELECT, _DUPLICATE):
    _table.flags.writeable = False


class _Setup(NamedTuple):
    """The parts of solve that do not depend on alpha, built once per program by _program
    and carried as SdpProblem.setup.  All but gram_inv are long double: solve computes in it."""

    null: np.ndarray  # (8, k) orthonormal basis of the equalities' null space
    x0: np.ndarray  # (8,) strictly feasible primal start
    forms: np.ndarray  # (n, 4, 3, 8) the cones' blocks stacked
    dirs: np.ndarray  # (n, 4, 3, k) the forms along the null basis
    dual_map: np.ndarray  # (12n, k) G_w N: N^T sum_k w_k A_k*(Z) = dual_map^T Z
    gram_inv: np.ndarray  # (8, 8) inverse of the weighted Gram matrix sum forms^T diag(_FORM_WEIGHTS) forms
    project: np.ndarray  # (12n, 12n) orthogonal projector onto the null space of dual_map^T


@dataclass(frozen=True)
class SdpProblem:
    """Linear objective, equality rows, and block cones over the fixed-subspace coordinates,
    with the solver's alpha-independent setup for them."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    cones: tuple[np.ndarray, ...]
    setup: _Setup

    @property
    def nu(self) -> float:
        """Barrier parameter: the summed dimension of the cones' full operators."""
        return float(len(self.cones) * 2 * sum(BLOCK_WEIGHTS))


@dataclass(frozen=True)
class SdpSolution:
    """An iterate and its dual certificate: upper_bound bounds the optimum
    when min_dual_eigenvalue > 0 and dual_residual is at rounding level."""

    a_star: np.ndarray
    f_star: float
    min_eigenvalues: tuple[float, ...]
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


def _block_cone(xa: np.ndarray, xb: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Linear forms over the 8 FIXED coordinates of the blocks of sum_ij a_ij (Xa_i (+) c_i) (x) (Xb_j (+) c_j).

    The Xa_i (x) Xb_j block is rotated into PAIR_BASIS, where it splits
    into its upper and lower 2x2 blocks; the c_j Xa_i block is the third
    and c_i c_j times I2 the fourth.  Raises RuntimeError if the rotated
    block does not split 2 + 2, or if any block is not real and
    symmetric, by more than 1e-12: t then breaks the parity this
    splitting rests on.
    """
    products = np.einsum("iab,jcd->ijacbd", xa, xb).reshape(25, 4, 4)
    pair = PAIR_BASIS.T @ np.tensordot(FIXED, products, axes=(0, 0)) @ PAIR_BASIS
    side = np.tensordot(FIXED, (xa[:, None] * c[None, :, None, None]).reshape(25, 2, 2), axes=(0, 0))
    corner = (FIXED.T @ np.outer(c, c).reshape(-1))[:, None, None] * np.eye(2)
    blocks = np.stack([pair[:, :2, :2], pair[:, 2:, 2:], side, corner], axis=1)
    off = max(np.abs(pair[:, :2, 2:]).max(), np.abs(pair[:, 2:, :2]).max())
    if max(off, np.abs(blocks.imag).max(), np.abs(blocks - np.swapaxes(blocks, 2, 3)).max()) > 1e-12:
        raise RuntimeError("the cone does not split into four real symmetric 2x2 blocks on the fixed subspace")
    return blocks[:, :, [0, 0, 1], [0, 1, 1]].real.reshape(8, -1).T


def _block_min(v: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each cone whose blocks (p, q, r) are v[k]: the closed-form
    minimum over its 2x2 blocks [[p, q], [q, r]]."""
    return ((v[..., 0] + v[..., 2]) / 2.0 - np.hypot((v[..., 0] - v[..., 2]) / 2.0, v[..., 1])).min(axis=-1)


def _det(v: np.ndarray) -> np.ndarray:
    """Determinant of each 2x2 block (p, q, r) along the last axis of v."""
    return v[..., 0] * v[..., 2] - v[..., 1] * v[..., 1]


def _adj(v: np.ndarray) -> np.ndarray:
    """Adjugate (r, -q, p) of each 2x2 block (p, q, r) along the last axis of v."""
    return v[..., ::-1] * [1.0, -1.0, 1.0]


def _off_centre(s: np.ndarray, zs: np.ndarray, target: float) -> float:
    """Largest distance from target of an eigenvalue of some block's S_k Z_k.

    A 2x2 block's eigenvalues are half +- radius, half = tr(S Z) / 2 and
    radius^2 = half^2 - det S det Z.
    """
    half = (s[..., 0] * zs[..., 0] + 2.0 * s[..., 1] * zs[..., 1] + s[..., 2] * zs[..., 2]) / 2.0
    radius = np.sqrt(np.maximum(half * half - _det(s) * _det(zs), 0.0))
    return float((np.abs(half - target) + radius).max())


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest s with every block of v + s dv positive definite.

    It is the smallest positive root of det(block + s dblock) = a s^2 + b s + c,
    c > 0, over every block.  Both roots are real, -1 over the
    eigenvalues of B^-1/2 dB B^-1/2, so b^2 - 4ac is clamped at 0
    against rounding (a double root, as on the fourth block, is the
    common case).  The largest reciprocal is (sqrt(b^2 - 4ac) - b) / (2c);
    it is positive exactly when a positive root exists, and then it is
    the reciprocal of the smallest one.
    """
    p, q, r, dp, dq, dr = v[..., 0], v[..., 1], v[..., 2], dv[..., 0], dv[..., 1], dv[..., 2]
    b = p * dr + r * dp - 2.0 * q * dq
    c = _det(v)
    top = float(((np.sqrt(np.maximum(b * b - 4.0 * _det(dv) * c, 0.0)) - b) / c).max())
    return 2.0 / top if top > 0.0 else np.inf


def _interior_start(eq_matrix: np.ndarray, eq_rhs: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Strictly feasible start: the no-communication point pushed inward.

    It is 0.9 times the no-communication point a = e_22 (FIXED[6], as
    a_22 sits at flat index 6) plus 0.1 times the least-squares point of
    the equalities (the maximally mixed feasible point).  Neither depends
    on alpha; the mix clears both cones by 2.8e-3.
    """
    x0 = 0.9 * FIXED[6] + 0.1 * np.linalg.lstsq(eq_matrix, eq_rhs, rcond=None)[0]
    feasible = np.linalg.norm(eq_matrix @ x0 - eq_rhs) <= 1e-9
    if not feasible or _block_min(forms @ x0).min() <= 1e-8:
        raise ConvergenceError("could not find a strictly feasible starting point")
    return x0


@functools.lru_cache(maxsize=2)
def _program(t: TOperators, with_ppt: bool) -> tuple[tuple[np.ndarray, ...], _Setup]:
    """The cone forms and solver setup of the plain or PPT program for t: all of it but the objective.

    The cones are the plain cone's forms and, with_ppt, those of its
    partial transpose over the second party.  t is immutable, so both
    programs are cached per t object, and every array in them is
    read-only.  Raises ConvergenceError if the equalities leave no
    freedom or the start is not strictly feasible.
    """
    x, c = commutant_blocks(t)
    cones = (_block_cone(x, x, c), _block_cone(x, np.swapaxes(x, 1, 2), c))[: 2 if with_ppt else 1]
    eq = (constraint_matrices(t)[0] @ FIXED)[None, :]
    _, sv, vh = np.linalg.svd(eq)
    null = vh[int(np.sum(sv > 1e-12 * sv[0])):].T
    if null.shape[1] == 0:
        raise ConvergenceError("equality constraints leave no degrees of freedom")
    forms = np.stack(cones).reshape(len(cones), len(BLOCK_WEIGHTS), 3, -1)
    dirs = forms @ null
    dual_map = (dirs * _FORM_WEIGHTS[..., None]).reshape(-1, null.shape[1])
    gram = np.einsum("nbep,be,nbeq->pq", forms, _FORM_WEIGHTS, forms)
    project = np.eye(len(dual_map)) - dual_map @ np.linalg.solve(dual_map.T @ dual_map, dual_map.T)
    x0 = _interior_start(eq, np.ones(1), forms)
    setup = _Setup(
        *(a.astype(np.longdouble) for a in (null, x0, forms, dirs, dual_map)),
        np.linalg.inv(gram),
        project.astype(np.longdouble),
    )
    for arr in (*cones, *setup):
        arr.flags.writeable = False
    return cones, setup


def build_problem(alpha: float, t: TOperators = T_OPERATORS, with_ppt: bool = False) -> SdpProblem:
    """Assemble the program for one Schmidt weight on the fixed subspace.

    Only the objective depends on alpha: the cone forms and the solver
    setup come from the program cached for t (see _program) and are
    shared read-only.  The clone-symmetry rows vanish on FIXED, so the
    trace row is the only equality.  Raises ConvergenceError if the
    program has no strictly feasible start.
    """
    trace_row, _ = constraint_matrices(t)
    f = FIXED.T @ fidelity_coefficients(alpha, t).reshape(-1)
    cones, setup = _program(t, with_ppt)
    return SdpProblem(objective=f, eq_matrix=(trace_row @ FIXED)[None, :], eq_rhs=np.ones(1), cones=cones, setup=setup)


def _certificate(problem: SdpProblem, forms: np.ndarray, x: np.ndarray, zs: np.ndarray, iterations: int) -> SdpSolution:
    """The primal iterate x and the dual point whose blocks are zs."""
    r = (problem.objective + np.einsum("nbe,nbep->p", zs * _FORM_WEIGHTS, forms)).astype(float)
    y = np.linalg.lstsq(problem.eq_matrix.T, r, rcond=None)[0]
    x = x.astype(float)
    return SdpSolution(
        a_star=(FIXED @ x).reshape(5, 5),
        f_star=float(problem.objective @ x),
        min_eigenvalues=tuple(float(m) for m in _block_min(forms @ x)),
        iterations=iterations,
        upper_bound=float(problem.eq_rhs @ y),
        dual_residual=float(np.abs(problem.eq_matrix.T @ y - r).max()),
        min_dual_eigenvalue=float(_block_min(zs).min()),
    )


def solve(problem: SdpProblem, tol: float = 1e-7, max_iter: int = 200) -> SdpSolution:
    """Maximize the objective; returns the final iterate, diagnostics and its dual certificate.

    Feasible primal-dual path following with the Nesterov-Todd direction
    (see the module docstring).  Each iteration targets
    tau = max(CENTRING * mu, mu_min), mu_min = tol / (2 nu), and takes
    STEP_FRACTION of the largest step that keeps both iterates interior,
    capped at 1.  The solve ends once every block's complementarity
    S_k Z_k is within 1e-3 mu_min of mu_min I: the barrier path's
    centred point at mu_min, with duality gap nu mu_min = tol / 2.
    max_iter caps the number of iterations; the ConvergenceError raised
    past it carries the current iterate, certified like every other.
    An iterate that rounding put on the cone boundary raises a
    ConvergenceError that carries no iterate.  Identical inputs always
    produce identical output.

    Iterates and step arithmetic are long double, and the k x k system
    is factored in double and refined once against its long-double
    residual.  At mu_min near 1e-12 a 2x2 block's small eigenvalue is
    ~1e-12 of its entries, which double leaves only 4 digits of, and
    the system's condition reaches ~1e11, so steps computed in double
    can leave the interior there.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    nu = problem.nu
    if tol < 2.0 * nu * 1e-12:
        raise ValueError("tol is below the attainable barrier floor for this cone size")
    setup = problem.setup
    forms, dirs, dual_map = setup.forms, setup.dirs, setup.dual_map
    mu_min = tol / (2.0 * nu)
    # The dual start y0 I / (4n) - C(h) of the module docstring.
    ch = forms @ (setup.gram_inv @ problem.objective)
    zs = 2.0 * abs(-_block_min(-ch).min()) * _IDENTITY - ch
    if _block_min(zs).min() <= 0.0:
        raise ConvergenceError("could not find a strictly feasible dual start")
    k = dirs.shape[-1]
    x, iterations = setup.x0, 0
    while True:
        s = forms @ x
        det_s, det_z = _det(s), _det(zs)
        if not min(det_s.min(), det_z.min(), s[..., 0].min(), zs[..., 0].min()) > 0.0:
            raise ConvergenceError("the iterate left the cone interior")
        mu = float(np.sum(_FORM_WEIGHTS * s * zs)) / nu
        if mu <= (1.0 + 1e-3) * mu_min and _off_centre(s, zs, mu_min) <= 1e-3 * mu_min:
            return _certificate(problem, forms, x, zs, iterations)
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence within {max_iter} iterations", best=_certificate(problem, forms, x, zs, iterations)
            )
        iterations += 1
        tau = max(CENTRING * mu, mu_min)
        # NT scaling of each block, W = S # Z^-1 (W Z W = S), in closed form:
        # with M = S / sqrt(det S) + adj(Z) / sqrt(det Z) and
        # g = sqrt(det Z / det S), W^-1 = adj(M) sqrt(g / det M).  The
        # packed matrix of X -> W^-1 X W^-1 is _SELECT (W^-1 (x) W^-1) _DUPLICATE.
        rs, rz = np.sqrt(det_s), np.sqrt(det_z)
        m = s / rs[..., None] + _adj(zs) / rz[..., None]
        v = (_adj(m) * np.sqrt(rz / rs / _det(m))[..., None])[..., _UNPACK]
        outer = (v[..., :, None, :, None] * v[..., None, :, None, :]).reshape(*v.shape[:-2], 4, 4)
        scaling = _SELECT @ outer @ _DUPLICATE
        # The NT direction: N^T sum_k w_k A_k*(W^-1 dS W^-1) = N^T sum_k w_k A_k*(tau S^-1 - Z)
        # for dS = C(N dz), then dZ = tau S^-1 - Z - W^-1 dS W^-1, projected
        # back onto the dual equalities so rounding cannot build up in the
        # residual.
        target = tau * _adj(s) / det_s[..., None] - zs
        system = dual_map.T @ (scaling @ dirs).reshape(-1, k)
        rhs = dual_map.T @ target.reshape(-1)
        factored = system.astype(float)
        dz = np.linalg.solve(factored, rhs.astype(float)).astype(np.longdouble)
        dz += np.linalg.solve(factored, (rhs - system @ dz).astype(float))
        ds = dirs @ dz
        dzs = (setup.project @ (target - (scaling @ ds[..., None])[..., 0]).reshape(-1)).reshape(zs.shape)
        step = min(1.0, STEP_FRACTION * _max_step(np.concatenate([s, zs]), np.concatenate([ds, dzs])))
        x = x + step * (setup.null @ dz)
        zs = zs + step * dzs


def sweep_solutions(
    alphas: Sequence[float], with_ppt: bool, t: TOperators = T_OPERATORS, tol: float = 1e-7
) -> list[tuple[float, SdpSolution]]:
    """Solve the program at each alpha in turn; returns (alpha, solution) pairs.

    The first point that does not converge aborts the sweep with a
    ConvergenceError naming its index and alpha.
    """
    out = []
    for idx, alpha in enumerate(alphas):
        try:
            sol = solve(build_problem(alpha, t, with_ppt), tol=tol)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"sweep point {idx} (alpha={alpha:.6f}) did not converge: {err}",
                best=err.best,
            ) from err
        out.append((float(alpha), sol))
    return out


def solve_sweep(
    alphas: Sequence[float], with_ppt: bool = False, *, t: TOperators = T_OPERATORS, tol: float = 1e-7
) -> list[tuple[float, float]]:
    """Solve the program on a grid; returns (alpha, best fidelity) pairs."""
    sols = sweep_solutions(alphas, with_ppt, t=t, tol=tol)
    return [(alpha, sol.f_star) for alpha, sol in sols]


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
    straddle the jump.  A non-finite alpha or value raises ValueError.
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
    if steps.min() <= 0 or steps.max() > 1.5 * steps.min():
        raise ValueError("sweep grid must be uniform")
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    jumps = np.abs(np.diff(d2))
    peak = int(np.argmax(jumps))
    med = float(np.median(np.delete(jumps, peak)))
    if jumps[peak] < max(THRESHOLD_RATIO * med, THRESHOLD_FLOOR):
        raise ThresholdDetectionError("no curvature jump above the noise floor")
    pick = peak + 1 if abs(d2[peak]) >= abs(d2[peak + 1]) else peak + 2
    return float(alphas[pick])
