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
program solvers", 2010).  The primal iterate is S = forms x, the cone's
eight numbers, on the equality: its steps lie in the range of
B = forms N, N spanning the trace row's null space.  The dual iterate is
one 2x2 block and five scalars Z_k, standing for the same copies as the
primal's; it stays on the dual equalities
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
 - Step: each iteration takes the NT direction towards S_k Z_k = tau I,
   tau = max(CENTRING mu, mu_min), on the dual's free directions
   (_nt_direction): the dual equalities leave Z only 8 - k, the columns
   of C, the identity and on the PPT slice also c2 (see _program).  So
   dZ = C lam and dS = M^-1 (t - C lam), where M^-1 is X -> W X W on the
   block, with the closed-form NT scaling W = S # Z^-1 (_nt_scaling), and
   s / z on each scalar, and M^-1 t = tau Z^-1 - S.  lam solves the 1x1
   or 2x2 system (C^T D M^-1 C) lam = C^T D M^-1 t, D = diag(weights), in
   closed form; this is the direction of the k x k system
   B^T D M B dz = B^T D t without forming it.  dS's rounding-level parts
   along the orthogonal rows of D C are removed.  Scaling D by a power of
   two scales every product and fsum exactly and cancels in lam and in
   the removed parts, so both programs take the weights over 4 (plain) or
   8 (PPT), with the same bits: D I = (1, 0, 1, 1, 1, 4, 4, 4) and
   D c2 = (0, 2, 0, -1, 1, 0, 0, 0), with 1/52, 4/52, 1/6 and 2/6 in
   D c / |D c|^2.  Both iterates move by STEP_FRACTION of the largest
   step that keeps the block positive definite and every scalar positive
   (_step_bounds, once for S and once for Z: one quadratic for the block
   and -2 ds / s per scalar), capped at 1; there is no line search.  S
   is then put back on its affine set along the same rows:
   D I . S = e.x (forms^T D I is 4 or 8 times e) to 1, and on the PPT
   slice D c2 . S (forms^T D c2 = 0) to 0.
 - Precision: double throughout, and an iteration makes no numpy call:
   S and Z are Python floats, and the products of the block, of each
   scalar and of the free directions run without a call's cost, on named
   floats with no list, zip or map over the eight numbers in the
   direction; each dot product is math.fsum over an explicit tuple,
   correctly rounded on every Python version.  The coordinates are read
   once, at the end, as x = left S, left an exact left inverse of the
   forms.  The tol floor 2 nu 1e-10 (mu_min >= 1e-10) is where double
   suffices: the largest mu_min at which a double solve fails is 4.9e-12
   (see solve).
 - Stop: once the block's complementarity S Z is within 1e-3 mu_min of
   mu_min I and every scalar's s z within 1e-3 mu_min of mu_min,
   mu_min = tol / (2 nu); on a diagonal block the two tests agree.  mu
   and the stop test read the weights over 4 or 8 too, (1, 2, 1, 1, 1, 4,
   4, 4) with nu over them 16, which gives the same bits: each product and
   partial sum scales exactly, and 4A / 64 and 8A / 128 round as A / 16.
   The end point is the barrier's centred point at mu_min, so f*'s error is
   a smooth function of alpha, and U - f* = nu mu_min = tol / 2.
Every iterate is interior and dual feasible, so every iterate, not only
the last, is certified: the solution's upper_bound, dual_residual and
min_dual_eigenvalue are read off the dual iterate, and the solution
carries both final iterates as s and z.  The alpha-independent parts of a
solve are built once per program, on its first build_problem, and travel
as SdpProblem.setup: the start x0 and S's start forms x0, the left
inverse, nu, e.e and the bool ppt, which picks the dual's free
directions.  They are closed forms, and no setup factorizes a matrix;
a solve's own numpy calls are the dual start's and the certificate's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import fsum
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
# The entries of D c / |D c|^2 for the dual's free directions (see _program), D = diag(weights) over 4 (plain) or 8
# (PPT): 1/52 and 4/52 of D I = (1, 0, 1, 1, 1, 4, 4, 4), 1/6 and 2/6 of D c2 = (0, 2, 0, -1, 1, 0, 0, 0).
_I_1, _I_4, _C2_1, _C2_2 = 1 / 52, 4 / 52, 1 / 6, 2 / 6
# The exact inverse of CONE_FORMS, forms to coordinates: a12 = (s3 + s4) / 2, a44 +- a55 = (s3 - s4) / 4 +- q / 2.
_LEFT = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],  # a11 = p
        [0, 0, 1, 0, 0, 0, 0, 0],  # a22 = r
        [0, 0, 0, 0, 0, 0, 0, 1],  # a33
        [0, 0.5, 0, 0.25, -0.25, 0, 0, 0],  # a44
        [0, -0.5, 0, 0.25, -0.25, 0, 0, 0],  # a55
        [0, 0, 0, 0.5, 0.5, 0, 0, 0],  # a12
        [0, 0, 0, 0, 0, 1, 0, 0],  # a13
        [0, 0, 0, 0, 0, 0, 1, 0],  # a23
    ]
)
for _table in (FIXED, CONE_FORMS, _FORM_WEIGHTS, _IDENTITY, _LEFT):
    _table.flags.writeable = False


class _Setup(NamedTuple):
    """The parts of solve that do not depend on alpha, built once per program by _program
    and carried as SdpProblem.setup; every array is float64 and read-only, s0 is a tuple of floats, nu and ee
    are floats, and ppt is the one bool that picks the dual's free directions."""

    basis: np.ndarray  # (25, m) the columns of FIXED the m coordinates stand for
    x0: np.ndarray  # (m,) strictly feasible primal start
    forms: np.ndarray  # (8, m) CONE_FORMS on the m coordinates
    left: np.ndarray  # (m, 8) exact left inverse of forms: the final S to its coordinates x
    weights: np.ndarray  # (8,) _FORM_WEIGHTS, twice them for PPT: sum_f weights_f Z_f S_f = sum over copies of <Z, S>
    ppt: bool  # the PPT slice, whose dual has c2 as a second free direction beside the identity
    gram_inv: np.ndarray  # (m,) the diagonal inverse of the weighted Gram matrix forms^T diag(weights) forms
    s0: tuple  # forms x0, the start of S, on its affine set e.x = D I . S = 1 and, for PPT, D c2 . S = 0
    nu: float  # weights . _IDENTITY, the barrier parameter: 64 (plain), 128 (PPT)
    ee: float  # e . e, e the trace row on the coordinates: 54 on both programs


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
        return self.setup.nu

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
    s: tuple  # the primal iterate S, the cone's 8 numbers as floats in CONE_FORMS row order
    z: tuple  # the dual iterate Z, likewise


class ConvergenceError(RuntimeError):
    """Raised when a solve does not converge; carries the iterate it stopped at and its certificate, if any."""

    def __init__(self, message: str, best: SdpSolution | None = None):
        super().__init__(message)
        self.best = best


class ThresholdDetectionError(ValueError):
    """Raised when a sweep has no kink above the noise floor."""


def _cone_min(v: Sequence[float]) -> float:
    """Smallest eigenvalue of the cone whose 2x2 block is v[:3] = (p, q, r) and whose scalars are v[3:];
    NaN if any entry is, tested first as Python's min skips a NaN that is not its first argument.  The
    block's is (p + r) / 2 - hypot((p - r) / 2, q) with numpy's scalar hypot, libm's: math.hypot rounds
    some pairs differently, which would move the dual start."""
    if any(map(math.isnan, v)):
        return math.nan
    p, q, r, *scalars = v
    return min((p + r) / 2.0 - float(np.hypot((p - r) / 2.0, q)), *scalars)


def _nt_scaling(s: Sequence[float], z: Sequence[float], det_s: float, det_z: float) -> tuple[float, float, float]:
    """The NT scaling W = S # Z^-1 of one block, the positive definite W with W Z W = S, as its (p, q, r).

    With M = S / sqrt(det S) + adj(Z) / sqrt(det Z) and g = sqrt(det Z / det S), W = M / sqrt(g det M).
    det_s, det_z > 0; a det M that rounding left non-positive raises ConvergenceError.
    """
    (sp, sq, sr), (zp, zq, zr), root_s, root_z = s, z, math.sqrt(det_s), math.sqrt(det_z)
    mp, mq, mr = sp / root_s + zr / root_z, sq / root_s - zq / root_z, sr / root_s + zp / root_z
    det_m = mp * mr - mq * mq
    if not det_m > 0.0:
        raise ConvergenceError("the iterate left the cone interior")
    h = 1.0 / math.sqrt(root_z / root_s * det_m)
    return mp * h, mq * h, mr * h


def _nt_direction(
    s: Sequence[float], z: Sequence[float], det_s: float, det_z: float, tau: float, ppt: bool
) -> tuple[list[float], list[float]]:
    """The NT direction (dS, dZ) towards S Z = tau I on the block and s z = tau on each scalar.

    s and z are the cone's 8 numbers, det_s and det_z > 0 the blocks' determinants; ppt picks the PPT slice's
    two free directions of the dual, the identity and c2, over the plain program's one, the identity.  The step
    is dZ = C lam and dS = M^-1 (t - C lam), where M^-1 is X -> W X W on the block, W = S # Z^-1 (_nt_scaling),
    and s / z on each scalar, so that M^-1 t = tau Z^-1 - S.  lam solves the 1x1 or 2x2 system
    (C^T D M^-1 C) lam = C^T D M^-1 t, D = diag(weights), which makes C^T D dS = 0: dS lies in the range of
    forms N, where N spans the trace row's null space.  Rounding leaves in dS parts along the rows D C, which
    are orthogonal; they are removed.  The system is positive definite in exact arithmetic, the Gram matrix of
    independent directions; a det that rounding or a NaN left not positive raises ConvergenceError.

    D enters as D I = (1, 0, 1, 1, 1, 4, 4, 4), D c2 = (0, 2, 0, -1, 1, 0, 0, 0) and D c / |D c|^2, the weights
    over 4 (plain) or 8 (PPT), which give the bits of D itself (see the module docstring).  Each number is a
    named float, formed term by term: the goal t, u = M^-1 I (W^2 on the block, m = s / z on each scalar),
    v = M^-1 c2 (W (0 1; 1 0) W, -m3, m4, then 0), dS as x; each dot product is one fsum.  The plain dZ's q is
    0.0 lam, -0.0 when lam < 0 as in lam c; the PPT one is l2, never -0.0 (an underflow aside) as r2's t4 is not.
    """
    sp, sq, sr, s3, s4, s5, s6, s7 = s
    zp, zq, zr, z3, z4, z5, z6, z7 = z
    a, b, c = _nt_scaling((sp, sq, sr), (zp, zq, zr), det_s, det_z)
    aa, ab, bb, bc, cc = a * a, a * b, b * b, b * c, c * c
    m3, m4, m5, m6, m7 = s3 / z3, s4 / z4, s5 / z5, s6 / z6, s7 / z7
    inv = tau / det_z
    t0, t1, t2 = inv * zr - sp, -(inv * zq) - sq, inv * zp - sr
    t3, t4, t5, t6, t7 = tau / z3 - s3, tau / z4 - s4, tau / z5 - s5, tau / z6 - s6, tau / z7 - s7
    u0, u1, u2 = aa + bb, ab + bc, bb + cc
    g11 = fsum((u0, u2, m3, m4, 4.0 * m5, 4.0 * m6, 4.0 * m7))
    r1 = fsum((t0, t2, t3, t4, 4.0 * t5, 4.0 * t6, 4.0 * t7))
    if not ppt:
        if not g11 > 0.0:
            raise ConvergenceError("the iterate left the cone interior")
        l1 = r1 / g11
        x0, x1, x2, x3, x4 = t0 - l1 * u0, t1 - l1 * u1, t2 - l1 * u2, t3 - l1 * m3, t4 - l1 * m4
        dz = [l1, 0.0 * l1, l1, l1, l1, l1, l1, l1]
    else:
        v0, v1, v2 = 2.0 * ab, a * c + bb, 2.0 * bc
        g12, g22 = fsum((v0, v2, -m3, m4)), fsum((2.0 * v1, m3, m4))
        det = g11 * g22 - g12 * g12
        if not det > 0.0:
            raise ConvergenceError("the iterate left the cone interior")
        r2 = fsum((2.0 * t1, -t3, t4))
        l1, l2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
        x0, x1, x2 = t0 - l1 * u0 - l2 * v0, t1 - l1 * u1 - l2 * v1, t2 - l1 * u2 - l2 * v2
        x3, x4 = t3 - l1 * m3 + l2 * m3, t4 - l1 * m4 - l2 * m4
        dz = [l1, l2, l1, l1 - l2, l1 + l2, l1, l1, l1]
    x5, x6, x7 = t5 - l1 * m5, t6 - l1 * m6, t7 - l1 * m7
    # dS's parts along D I, then along D c2.
    part = fsum((_I_1 * x0, _I_1 * x2, _I_1 * x3, _I_1 * x4, _I_4 * x5, _I_4 * x6, _I_4 * x7))
    x0, x2, x3, x4 = x0 - part, x2 - part, x3 - part, x4 - part
    x5, x6, x7 = x5 - 4.0 * part, x6 - 4.0 * part, x7 - 4.0 * part
    if ppt:
        part = fsum((_C2_2 * x1, -(_C2_1 * x3), _C2_1 * x4))
        x1, x3, x4 = x1 - 2.0 * part, x3 + part, x4 - part
    return [x0, x1, x2, x3, x4, x5, x6, x7], dz


def _step_bounds(v: Sequence[float], dv: Sequence[float], det: float) -> tuple[float, ...]:
    """The step bounds of the cone's 8 numbers v along dv: the block's, then each scalar's.

    Each bound is twice the reciprocal of the largest s with v + s dv inside that piece of the cone,
    when it is positive; it is positive exactly when the piece's boundary lies at some s > 0, and NaN
    when dv is not finite.  The block's takes det = det(v) > 0: det(v + s dv) = a s^2 + b s + det,
    b = tr(adj(v) dv), has real roots, -1 over the eigenvalues of v^-1/2 dv v^-1/2, so b^2 - 4 a det
    is clamped at 0 against rounding (at a double root, as when dv is a multiple of v, it is 0 in
    exact arithmetic), and (sqrt(b^2 - 4 a det) - b) / det is twice the reciprocal of the smallest
    positive root.  Each scalar v_i > 0 gives -2 dv_i / v_i.
    """
    p, q, r, v3, v4, v5, v6, v7 = v
    dp, dq, dr, d3, d4, d5, d6, d7 = dv
    b = r * dp - 2.0 * (q * dq) + p * dr
    return ((math.sqrt(max(b * b - 4.0 * (dp * dr - dq * dq) * det, 0.0)) - b) / det,
            -2.0 * d3 / v3, -2.0 * d4 / v4, -2.0 * d5 / v5, -2.0 * d6 / v6, -2.0 * d7 / v7)


@functools.cache
def _program(with_ppt: bool) -> _Setup:
    """The solver setup of the plain or PPT program: all of it but the objective's x.

    The plain program runs on the 8 FIXED coordinates, the PPT program on
    the 7 without a55 with the plain cone counted twice.  The trace row e
    is the one equality, so the primal moves in its (m - 1)-dimensional
    null space, spanned by some N, and S by B = forms N.  The dual
    equalities N^T (f + forms^T D z) = 0, D = diag(weights), leave Z the
    8 - k = 9 - m directions of the null space of B^T D, the c with
    forms^T D c in span(e): the identity, whose forms^T D c is 4 copies
    times e, and on the PPT slice also c2 = (0, 1, 0, -1, 1, 0, 0, 0), the
    block's q against the scalars a12 +- (a44 + a55), whose forms^T D c2 is
    0 once a55's column is gone.  _nt_direction and solve write both out,
    and the setup holds only the bool ppt.  solve needs no N: the final S
    is read as x = left S, left = _LEFT without a55's row, so left forms = I.
    The start x0 does not depend on alpha.  The plain program starts at
    a = s s^T / 36, s = (1, 1, 2, 0, 0), the maximally mixed feasible
    point TRACE_ROW / 36, whose coordinates are e over each column's entry
    count, over 36 (not e / (e.e) = e / 54); there the dense operator's spectrum is
    {1, 2, 4} / 36, so it clears the cone by 1/36, and every alpha
    measured takes the same number of iterations at a given tol, 7 at the
    default.  The PPT program starts at 0.9 times the no-communication
    point a = e_22 (basis[6], as a_22 sits at flat index 6) plus 0.1 times
    that point, which clears the cone by 1/360 but takes fewer iterations
    than the mixed point.
    Each program's setup is built on its first call and shared after it;
    every array in it is read-only, s0 is a tuple, and nu and e.e are
    floats.  x0 is a constant of the program, on the equality and inside
    the cone; tests/test_sdp.py checks both.
    """
    basis, forms, left, weights = FIXED, CONE_FORMS, _LEFT, _FORM_WEIGHTS
    if with_ppt:
        basis, forms = (np.delete(arr, _A55, axis=-1) for arr in (basis, forms))
        left, weights = np.delete(_LEFT, _A55, axis=0), 2.0 * _FORM_WEIGHTS
    e = constraint_matrices()[0] @ basis
    mixed = e / basis.sum(axis=0) / 36.0
    x0 = 0.9 * basis[6] + 0.1 * mixed if with_ppt else mixed
    s0 = tuple((forms @ x0).tolist())
    gram_inv = 1.0 / (weights @ (forms * forms))
    setup = _Setup(basis, x0, forms, left, weights, with_ppt, gram_inv, s0, float(weights @ _IDENTITY), float(e @ e))
    for arr in setup:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return setup


def build_problem(alpha: float, t: np.ndarray = T_OPERATORS, with_ppt: bool = False) -> SdpProblem:
    """Assemble the program for one Schmidt weight on its coordinates (see _program).

    Only the objective depends on alpha: it is
    channel.fidelity_coefficients(alpha, t) read on the program's
    coordinates, which checks alpha and t (t must be T_OPERATORS, see
    covariant.check_t).  The cone forms and the solver setup are the
    program's, built on its first build and shared read-only.  The
    clone-symmetry rows vanish on FIXED, so the trace row, read through
    channel.constraint_matrices, is the only equality.
    """
    setup = _program(bool(with_ppt))
    f = fidelity_coefficients(alpha, t).reshape(-1) @ setup.basis
    eq = (constraint_matrices()[0] @ setup.basis)[None, :]
    return SdpProblem(objective=f, eq_matrix=eq, setup=setup)


def _certificate(problem: SdpProblem, s: Sequence[float], z: Sequence[float], iterations: int) -> SdpSolution:
    """The solution at the iterates s and z, read at x = left s; y = e.r / e.e solves A^T y = r in least squares."""
    setup = problem.setup
    x = setup.left @ s
    r = problem.objective + np.dot(setup.weights * z, setup.forms)
    (e,) = problem.eq_matrix
    y = (e @ r) / setup.ee
    return SdpSolution(
        a_star=(setup.basis @ x).reshape(5, 5),
        f_star=float(problem.objective @ x),
        min_eigenvalue=_cone_min(s),
        iterations=iterations,
        upper_bound=float(y),
        dual_residual=float(max(map(abs, (e * y - r).tolist()))),
        min_dual_eigenvalue=_cone_min(z),
        s=tuple(s),
        z=tuple(z),
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
    leaves only 4 digits of, so steps can leave the interior or stall
    short of the stop test.  On a ladder of 52 tols, geometric from
    2 nu 1e-12 to 1e-6, on the floor test's 88 alphas, the largest mu_min
    at which a solve in either program fails to converge, loses its
    certificate or moves a plain iteration count is 4.9e-12 (plain, tol
    6.2e-10), as it was for the k x k system solved in double; the
    floor's mu_min, 1e-10, is above ten times that.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if tol < problem.tol_floor:
        raise ValueError(f"tol must be at least the solver's floor {problem.tol_floor:.3g}, got {tol:g}")
    setup = problem.setup
    forms, ppt, nu = setup.forms, setup.ppt, setup.nu
    mu_min = tol / (2.0 * nu)
    bar = 1e-3 * mu_min
    # Z starts at y0 I / (4c) - C(h).
    ch = forms @ (setup.gram_inv * problem.objective)
    z = (2.0 * abs(_cone_min((-ch).tolist())) * _IDENTITY - ch).tolist()
    if _cone_min(z) <= 0.0:
        raise ConvergenceError("could not find a strictly feasible dual start")
    # S and Z are Python floats, the block's (p, q, r) and then the scalars, so their few products each
    # run without a numpy call's cost; each step of S is put back on e.x = D I . S = 1 and, for PPT, D c2 . S = 0.
    s, iterations = setup.s0, 0
    while True:
        (sp, sq, sr, *ss), (zp, zq, zr, *zs) = s, z
        det_s, det_z = sp * sr - sq * sq, zp * zr - zq * zq
        if not all(v > 0.0 for v in (det_s, det_z, sp, zp, *ss, *zs)):
            raise ConvergenceError("the iterate left the cone interior")
        g3, g4, g5, g6, g7 = gaps = [a * b for a, b in zip(ss, zs)]
        # mu on the weights over 4 (plain) or 8 (PPT), (1, 2, 1, 1, 1, 4, 4, 4), and nu over them, 16.
        trace = sp * zp + 2.0 * (sq * zq) + sr * zr
        mu = (trace + g3 + g4 + 4.0 * g5 + 4.0 * g6 + 4.0 * g7) / 16.0
        # The block's S Z has eigenvalues half +- radius, half = tr(S Z) / 2, radius^2 = half^2 - det S det Z.
        if mu <= (1.0 + 1e-3) * mu_min:
            half = trace / 2.0
            if (abs(half - mu_min) + math.sqrt(max(half * half - det_s * det_z, 0.0)) <= bar
                    and all(abs(gap - mu_min) <= bar for gap in gaps)):
                return _certificate(problem, s, z, iterations)
        if iterations >= MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence within {MAX_ITERATIONS} iterations", best=_certificate(problem, s, z, iterations)
            )
        iterations += 1
        tau = max(CENTRING * mu, mu_min)
        ds, dual = _nt_direction(s, z, det_s, det_z, tau, ppt)
        bounds = (*_step_bounds(s, ds, det_s), *_step_bounds(z, dual, det_z))
        if any(map(math.isnan, bounds)):
            raise ConvergenceError("the iterate left the cone interior")
        top = max(bounds)
        step = min(1.0, STEP_FRACTION * (2.0 / top)) if top > 0.0 else 1.0
        s0, s1, s2, s3, s4, s5, s6, s7 = (a + step * d for a, d in zip(s, ds))
        part = fsum((s0, s2, s3, s4, 4.0 * s5, 4.0 * s6, 4.0 * s7)) - 1.0
        s0, s2, s3, s4 = s0 - part * _I_1, s2 - part * _I_1, s3 - part * _I_1, s4 - part * _I_1
        s5, s6, s7 = s5 - part * _I_4, s6 - part * _I_4, s7 - part * _I_4
        if ppt:
            part = fsum((2.0 * s1, -s3, s4))
            s1, s3, s4 = s1 - part * _C2_2, s3 + part * _C2_1, s4 - part * _C2_1
        s = [s0, s1, s2, s3, s4, s5, s6, s7]
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
