"""Log-barrier semidefinite solver for the covariant cloning program.

The program maximizes the linear clone-fidelity functional over the
25-dimensional covariant parameter space subject to the trace and
clone-symmetry equalities and positivity of the assembled two-party
operator; an optional second cone adds positivity of its partial
transpose over one party, which models the one-bit-LOCC relaxation.

The input is real and symmetric under A <-> B, so the program is
invariant under a -> a^T, under conjugation (t5 -> -t5, so
a_i5 -> -a_i5 for i != 5) and under a_i4 -> -a_i4 for i != 4.  The path
starts at a point all three fix and the barrier is invariant, so it
never leaves their fixed subspace: real symmetric a whose only
off-diagonal entries are a12, a13 and a23, spanned by the 8 orthonormal
columns of FIXED.  There the clone-symmetry rows vanish and only the
trace row is left, so k = 7 coordinates are free.

No cone is formed as a 64x64 matrix, and none is eigensolved.  Per party
the commutant is M2 (+) C, and covariant.commutant_blocks reads the
coordinates X_i, c_i of each ti there off t.  On the fixed subspace
sum_ij a_ij ti (x) tj is unitarily a direct sum of sum a_ij Xi (x) Xj
(4x4, four copies), sum a_ij c_j Xi (2x2, sixteen copies) and a33
(sixteen copies).  In the real basis PAIR_BASIS = |00>, |11>,
(|01> +- |10>)/sqrt(2) the first is the 2x2 block
[[a11, a44 - a55], [a44 - a55, a22]] plus the scalars
a12 +- (a44 + a55); the second is diag(a13, a23).  So each cone is one
2x2 block of weight 4 and five scalars of weights (4, 4, 16, 16, 16).
The basis covariant.BLOCK_BASIS is real, so the partial transpose over
the second party is the same construction with Xj replaced by its
transpose, which flips the sign of a55 and nothing else.  The barrier
weights each block's log det by its copy count, which makes it equal to
log det of the full operator, and the barrier parameter
nu = sum of weight * block size stays 64 per cone.  A cone is stored as
the eight linear forms (p, q, r of the 2x2 block, then the scalars) over
the coordinates, so one mat-vec gives every block at x and the barrier,
its gradient and its Hessian follow in closed form.

The objective and the equality rows are built per party too, from the
partial traces of the 8x8 operators t1..t5 (see
channel.fidelity_coefficients and channel.constraint_matrices), so no
64x64 operator is formed anywhere on the solve path.

The solver follows the classic path: equalities are eliminated through
an orthonormal null-space parametrization, then damped Newton steps
maximize  f.x + mu * sum_cones log det C(x)  while mu is divided by
MU_FACTOR (1000, a long step that halves the Newton steps against 10)
down to tol / (2 * nu), where the last stage is centred.  The path
following is deterministic.

Each centred point carries a dual certificate (Boyd & Vandenberghe,
Convex Optimization, 11.2.2 and 11.7).  From the Newton step Delta
already solved at x, each block gets
Z_k = mu (C_k^-1 - C_k^-1 dC_k C_k^-1), dC_k the block of Delta, so
r = f + sum_k w_k A_k*(Z_k) has N^T r = g - H Delta = 0: r lies in
the row space of the equalities, y solves A^T y = r in least squares,
and when every Z_k is positive semidefinite U = b^T y gives
f.x <= optimum <= U.  U only witnesses the end point: at this
MU_FACTOR stopping once U - f.x <= tol ends on the same stage as the
floor on mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from entclone.channel import constraint_matrices, fidelity_coefficients
from entclone.covariant import TOperators, cache_on_value, commutant_blocks

MU_INITIAL = 1e-1
MU_FACTOR = 1000.0
ARMIJO_SLOPE = 0.01
BACKTRACK = 0.5
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
# A cone is an (8, 8) array of linear forms over the FIXED coordinates:
# rows p, q, r of its 2x2 block [[p, q], [q, r]], then its five scalars.
# Its 64x64 operator at x is unitarily the direct sum of
# BLOCK_WEIGHTS[0] copies of the 2x2 block and BLOCK_WEIGHTS[1 + j]
# copies of scalar j.
BLOCK_WEIGHTS = (4, 4, 4, 16, 16, 16)


@dataclass(frozen=True)
class SdpProblem:
    """Linear objective, equality rows, and block cones over the fixed-subspace coordinates."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    cones: tuple[np.ndarray, ...]

    @property
    def nu(self) -> float:
        """Barrier parameter: the summed dimension of the cones' full operators."""
        return float(len(self.cones) * (2 * BLOCK_WEIGHTS[0] + sum(BLOCK_WEIGHTS[1:])))


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
    """Raised when the barrier path stalls; carries the best iterate found."""

    def __init__(self, message: str, best: SdpSolution | None = None):
        super().__init__(message)
        self.best = best


class ThresholdDetectionError(ValueError):
    """Raised when a sweep has no kink above the noise floor."""


def _block_cone(xa: np.ndarray, xb: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Linear forms over the 8 FIXED coordinates of the blocks of sum_ij a_ij (Xa_i (+) c_i) (x) (Xb_j (+) c_j).

    The Xa_i (x) Xb_j block is rotated into PAIR_BASIS; its 2x2 corner
    gives p, q, r and its last two diagonal entries the first two
    scalars.  The c_j Xa_i block gives the next two from its diagonal and
    c_i c_j the last.  Raises RuntimeError if any other entry, or any
    imaginary part, exceeds 1e-12: t then breaks the parity this
    splitting rests on.
    """
    products = np.einsum("iab,jcd->ijacbd", xa, xb).reshape(25, 4, 4)
    pair = PAIR_BASIS.T @ np.tensordot(FIXED, products, axes=(0, 0)) @ PAIR_BASIS
    side = np.tensordot(FIXED, (xa[:, None] * c[None, :, None, None]).reshape(25, 2, 2), axes=(0, 0))
    corner = FIXED.T @ np.outer(c, c).reshape(-1, 1)
    forms = np.hstack([pair[:, [0, 0, 1, 2, 3], [0, 1, 1, 2, 3]], side[:, [0, 1], [0, 1]], corner]).T.real
    split_pair = np.zeros_like(pair)
    split_pair[:, [0, 0, 1, 1, 2, 3], [0, 1, 0, 1, 2, 3]] = forms[[0, 1, 1, 2, 3, 4]].T
    split_side = np.zeros_like(side)
    split_side[:, [0, 1], [0, 1]] = forms[[5, 6]].T
    if max(np.abs(pair - split_pair).max(), np.abs(side - split_side).max()) > 1e-12:
        raise RuntimeError("the cone does not split into one 2x2 block and five scalars on the fixed subspace")
    return forms


@cache_on_value
def _cones(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    """The plain cone's forms and those of its partial transpose over the second party."""
    x, c = commutant_blocks(t)
    return _block_cone(x, x, c), _block_cone(x, np.swapaxes(x, 1, 2), c)


def build_problem(alpha: float, t: TOperators, with_ppt: bool = False) -> SdpProblem:
    """Assemble the program for one Schmidt weight on the fixed subspace.

    Only the objective depends on alpha: the trace row and the cone
    forms are cached on the value of t, and shared read-only.  The
    clone-symmetry rows vanish on FIXED, so the trace row is the only
    equality.
    """
    trace_row, _ = constraint_matrices(t)
    eq = (trace_row @ FIXED)[None, :]
    f = FIXED.T @ fidelity_coefficients(alpha, t).reshape(-1)
    return SdpProblem(objective=f, eq_matrix=eq, eq_rhs=np.ones(1), cones=_cones(t)[: 2 if with_ppt else 1])


def _pair_min(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric [[p, q], [q, r]], in closed form."""
    return (p + r) / 2.0 - np.hypot((p - r) / 2.0, q)


def _cone_min_eigenvalues(forms: np.ndarray, x: np.ndarray) -> tuple[float, ...]:
    """Smallest eigenvalue of each cone's full operator at x: the minimum over its blocks."""
    v = forms @ x
    return tuple(float(m) for m in np.minimum(_pair_min(v[:, 0], v[:, 1], v[:, 2]), v[:, 3:].min(axis=1)))


def _interior_start(problem: SdpProblem, forms: np.ndarray) -> np.ndarray:
    """Strictly feasible start: the no-communication point pushed inward.

    It is 0.9 times the no-communication point a = e_22 (FIXED[6], as
    a_22 sits at flat index 6) plus 0.1 times the least-squares point of
    the equalities (the maximally mixed feasible point).  Neither depends
    on alpha; the mix clears both cones by 2.8e-3.
    """
    x_mm = np.linalg.lstsq(problem.eq_matrix, problem.eq_rhs, rcond=None)[0]
    x0 = 0.9 * FIXED[6] + 0.1 * x_mm
    feasible = np.linalg.norm(problem.eq_matrix @ x0 - problem.eq_rhs) <= 1e-9
    if not feasible or min(_cone_min_eigenvalues(forms, x0)) <= 1e-8:
        raise ConvergenceError("could not find a strictly feasible starting point")
    return x0


def solve(problem: SdpProblem, tol: float = 1e-7, max_iter: int = 200) -> SdpSolution:
    """Maximize the objective; returns the final iterate, diagnostics and its dual certificate.

    tol bounds the objective suboptimality through the final barrier
    weight mu_min = tol / (2 nu); mu starts at MU_INITIAL and is divided
    by MU_FACTOR per stage, clipped at mu_min.  max_iter caps the total
    number of Newton steps across all barrier stages.  Identical inputs
    always produce identical output.
    The path runs on the fixed subspace (k = 7 free coordinates) in real
    arithmetic.  One mat-vec gives every cone's 2x2 block [[p, q], [q, r]]
    and five scalars s; the interior is p > 0, pr - q^2 > 0 and s > 0.
    The gradient and Hessian come from the closed-form Cholesky whitening
    L^-1 dC L^-T of each 2x2 block and ds / s of each scalar, each term
    weighted by its copy count, so the k x k Newton system is the only
    matrix factorized per step.

    Every centred point, and the iterate a ConvergenceError carries, is
    certified from the Newton step already solved for there (see the
    module docstring): upper_bound = b^T y, dual_residual =
    max |A^T y - r| and min_dual_eigenvalue = min eig over the Z_k.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    nu = problem.nu
    if tol < 2.0 * nu * 1e-12:
        raise ValueError("tol is below the attainable barrier floor for this cone size")
    f = problem.objective
    _, sv, vh = np.linalg.svd(problem.eq_matrix)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    null = vh[rank:].T
    k = null.shape[1]
    if k == 0:
        raise ConvergenceError("equality constraints leave no degrees of freedom")
    forms = np.stack(problem.cones)
    x0 = _interior_start(problem, forms)
    dirs = forms @ null
    f_null = null.T @ f
    mu_min = max(tol / (2.0 * nu), 1e-12)
    pair_w, scalar_w = BLOCK_WEIGHTS[0], np.array(BLOCK_WEIGHTS[1:], dtype=float)
    # The weight of each form in sum over copies of <Z, block>: the 2x2
    # block holds q twice.  Its whitened rows are w11, w12, w22, then
    # ds / s per scalar; the gradient, a weighted trace, skips w12.
    form_w = np.array([pair_w, 2.0 * pair_w, pair_w, *scalar_w])
    hess_w, grad_w = np.tile(form_w, len(forms)), np.tile(form_w * [1, 0, 1, 1, 1, 1, 1, 1], len(forms))

    def log_det_sum(v: np.ndarray) -> float | None:
        """Weighted log det of the cones whose blocks are v, or None outside the interior."""
        det = v[:, 0] * v[:, 2] - v[:, 1] * v[:, 1]
        if min(v[:, 0].min(), det.min(), v[:, 3:].min()) <= 0.0:
            return None
        return pair_w * float(np.sum(np.log(det))) + float(np.sum(scalar_w * np.log(v[:, 3:])))

    z = np.zeros(k)
    mu = MU_INITIAL
    iterations = 0
    best: SdpSolution | None = None

    def newton_system(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """Gradient, Newton step, weighted log det and block values of f.x + mu log det C at x."""
        v = forms @ x
        log_det = log_det_sum(v)
        if log_det is None:
            raise ConvergenceError("iterate left the cone interior", best=best)
        p, q, r = v[:, :1], v[:, 1:2], v[:, 2:3]
        det = p * r - q * q
        e = q / p
        dp, dq, dr = dirs[:, 0], dirs[:, 1], dirs[:, 2]
        pair = np.stack([dp / p, (dq - e * dp) / np.sqrt(det), (dr - 2.0 * e * dq + e * e * dp) * (p / det)], axis=1)
        white = np.concatenate([pair, dirs[:, 3:] / v[:, 3:, None]], axis=1).reshape(-1, k)
        grad = f_null + mu * (grad_w @ white)
        hess = mu * (white.T * hess_w) @ white
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            jitter = 1e-14 * max(float(np.max(np.diag(hess))), 1.0)
            step = np.linalg.solve(hess + jitter * np.eye(k), grad)
        return grad, step, log_det, v

    def snapshot(x: np.ndarray, v: np.ndarray, step: np.ndarray) -> SdpSolution:
        """The iterate x with the dual point built from its Newton step."""
        dv = dirs @ step
        det = v[:, 0] * v[:, 2] - v[:, 1] * v[:, 1]
        inv = v[:, [[2, 1], [1, 0]]] * np.array([[1.0, -1.0], [-1.0, 1.0]]) / det[:, None, None]
        z_pair = mu * (inv - inv @ dv[:, [[0, 1], [1, 2]]] @ inv)
        z_scalar = mu * (1.0 - dv[:, 3:] / v[:, 3:]) / v[:, 3:]
        min_dual = min(float(_pair_min(z_pair[:, 0, 0], z_pair[:, 0, 1], z_pair[:, 1, 1]).min()), float(z_scalar.min()))
        coef = np.concatenate([z_pair[:, [0, 0, 1], [0, 1, 1]], z_scalar], axis=1) * form_w
        r = f + np.einsum("nj,njp->p", coef, forms)
        y = np.linalg.lstsq(problem.eq_matrix.T, r, rcond=None)[0]
        return SdpSolution(
            a_star=(FIXED @ x).reshape(5, 5),
            f_star=float(f @ x),
            min_eigenvalues=_cone_min_eigenvalues(forms, x),
            iterations=iterations,
            upper_bound=float(problem.eq_rhs @ y),
            dual_residual=float(np.abs(problem.eq_matrix.T @ y - r).max()),
            min_dual_eigenvalue=min_dual,
        )

    while True:
        while True:
            x = x0 + null @ z
            grad, step, log_det, v = newton_system(x)
            lam2 = float(grad @ step)
            if lam2 / 2.0 <= max(1e-13, 1e-3 * mu):
                break
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"no convergence within {max_iter} Newton steps", best=best or snapshot(x, v, step)
                )
            iterations += 1
            base = float(f @ x) + mu * log_det
            slope = ARMIJO_SLOPE * lam2
            scale = 1.0
            while scale > 1e-14:
                trial = z + scale * step
                x_trial = x0 + null @ trial
                ld = log_det_sum(forms @ x_trial)
                if ld is not None and float(f @ x_trial) + mu * ld >= base + scale * slope:
                    z = trial
                    break
                scale *= BACKTRACK
            else:
                raise ConvergenceError("line search stalled", best=best or snapshot(x, v, step))
        best = snapshot(x, v, step)
        if mu <= mu_min * (1.0 + 1e-12):
            return best
        mu = max(mu / MU_FACTOR, mu_min)


def sweep_solutions(
    alphas: Sequence[float], with_ppt: bool, t: TOperators, tol: float = 1e-7
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
    alphas: Sequence[float], with_ppt: bool = False, *, t: TOperators, tol: float = 1e-7
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
    straddle the jump.
    """
    pts = sorted((float(a), float(v)) for a, v in sweep)
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
