"""Dense references for the tests, one per layer; pytest does not collect this module.

- Products: kron_all, choi_kron and triple_rep, written out, and random_su2 to draw their unitaries.
- Objective and constraints: each ti (x) tj as a 64x64 Choi operator.
  These are the witness for channel's literal tables: functional_table
  derives G0, G1 and dense_constraint_matrices the trace and symmetry
  rows, each refusing (RuntimeError) operators without the structure
  the tables rest on.
- Cone: commutant_blocks reads the M2 (+) C coordinates of t1..t5, and
  block_cone derives from them the forms of the cone's four 2x2 blocks,
  refusing blocks that do not split; sdp.CONE_FORMS is the first block
  and the diagonals of the other three.
- Kraus enumeration: each Kraus operator applied alone.
- Solver: solve's primal-dual iteration on the unreduced plain or PPT
  program's 64x64 operators, and the Newton decrement of the PPT
  program's dense log-barrier as a certificate of centrality.
- Solver step and path: the k x k Newton system solve's direction once
  came from, as one dense step (kxk_direction) and as solve's whole path
  in 40-digit decimal arithmetic (decimal_nt_path), the direction as the
  table-driven loops over the cone's eight numbers once formed it
  (table_nt_direction), and the cone's smallest eigenvalue as numpy once
  took it (numpy_cone_min).
"""

import functools
from decimal import Decimal, localcontext
from math import fsum
from operator import mul, truediv

import numpy as np

from entclone import protocol, sdp
from entclone.analytic import ALPHA_MAX, schmidt_state
from entclone.covariant import BLOCK_BASIS, T_OPERATORS, _from_blocks, partial_transpose_b
from entclone.sdp import CENTRING, FIXED, STEP_FRACTION

# Columns |00>, |11>, (|01> + |10>)/sqrt(2), (|01> - |10>)/sqrt(2) of M2 (x) M2.
PAIR_BASIS = np.array([[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [0, 1, 0, 0]]) / np.sqrt([1, 1, 2, 2])
# The dense witness's own coordinates on the fixed subspace: the orthonormal columns e_ii, then
# (e_ij + e_ji)/sqrt(2) for (1,2), (1,3), (2,3), so it shares neither sdp's coordinates nor its start.
ORTHONORMAL = np.zeros((25, 8))
for _h, (_i, _j) in enumerate([(i, i) for i in range(5)] + [(0, 1), (0, 2), (1, 2)]):
    ORTHONORMAL[[5 * _i + _j, 5 * _j + _i], _h] = 1.0 if _i == _j else 1.0 / np.sqrt(2.0)


def kron_all(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def choi_kron(x, y):
    """x on Alice's (1A,2A,A) tensor y on Bob's (1B,2B,B), written out on the Choi order (1A,1B,2A,2B,A,B)."""
    xs = np.reshape(x, (2,) * 6)
    ys = np.reshape(y, (2,) * 6)
    return np.einsum("pqrstu,PQRSTU->pPqQrRsStTuU", xs, ys).reshape(64, 64)


def triple_rep(u):
    """Action of a local unitary on (clone 1, clone 2, input): u (x) u (x) u*."""
    return np.kron(np.kron(u, u), u.conj())


def random_su2(rng):
    """Haar-random SU(2) element from a normalized normal quaternion."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _key(t):
    """t1..t5, a (5, 8, 8) array, as the bytes the caches below are keyed on."""
    return np.asarray(t, dtype=complex).reshape(5, 8, 8).tobytes()


@functools.lru_cache(maxsize=2)
def _dense_stack(key):
    ts = np.frombuffer(key, dtype=complex).reshape(5, 8, 8)
    stack = np.array([choi_kron(ti, tj) for ti in ts for tj in ts])
    stack.flags.writeable = False
    return stack


def dense_stack(t=T_OPERATORS):
    """The 25 products choi_kron(ti, tj) of t1..t5 as a read-only (25, 64, 64) stack, row-major in (i, j)."""
    return _dense_stack(_key(t))


@functools.lru_cache(maxsize=2)
def _dense_maps(key):
    """dense_stack as read-only linear maps on vec(rho): entry ((p, a, b), (i, j)) is <a| E_p(|i><j|) |b>."""
    maps = _dense_stack(key).reshape(25, 16, 4, 16, 4).transpose(0, 1, 3, 2, 4).reshape(-1, 16)
    maps.flags.writeable = False
    return maps


def dense_fidelity_coefficients(alpha, t=T_OPERATORS):
    """Reference f: each ti (x) tj as a 64x64 Choi operator applied to the representative state, all 25 at once."""
    phi = schmidt_state(alpha)
    clones = (_dense_maps(_key(t)) @ np.outer(phi, phi.conj()).reshape(-1)).reshape(25, 4, 4, 4, 4)
    reduced = np.einsum("pabcb->pac", clones) + np.einsum("pabad->pbd", clones)
    return (np.real(phi.conj() @ reduced @ phi) / 2.0).reshape(5, 5)


def functional_table(t=T_OPERATORS):
    """(G0, G1) with dense_fidelity_coefficients = G0 + x G1, x = alpha^2 (1 - alpha^2).

    G0 is the functional at x = 0 (alpha = 0) and G1 its slope to
    x = 1/4 (alpha = ALPHA_MAX).  Raises RuntimeError if the functional at
    alpha = 1/2 (x = 3/16) departs from G0 + x G1 by more than 1e-12.
    """
    g0 = dense_fidelity_coefficients(0.0, t)
    g1 = (dense_fidelity_coefficients(ALPHA_MAX, t) - g0) * 4.0
    if np.abs(dense_fidelity_coefficients(0.5, t) - (g0 + 0.1875 * g1)).max() > 1e-12:
        raise RuntimeError("fidelity functional is not affine in x = alpha^2 (1 - alpha^2)")
    return g0, g1


def dense_constraint_matrices(t=T_OPERATORS):
    """Reference trace row and symmetry rows from partial traces of the 64x64 Choi operators.

    Raises RuntimeError unless every Tr_out ti (x) tj is a real multiple
    of I4 to 1e-12, which is what makes trace preservation one row.
    """
    stack = dense_stack(t)
    tr_out = np.einsum("paiaj->pij", stack.reshape(25, 16, 4, 16, 4))
    trace_row = np.trace(tr_out, axis1=1, axis2=2) / 4.0
    if np.abs(tr_out - trace_row[:, None, None] * np.eye(4)).max() > 1e-12:
        raise RuntimeError("basis element traced out to a non-scalar operator")
    if np.abs(trace_row.imag).max() > 1e-12:
        raise RuntimeError("basis element has a complex output trace")
    trace_row = trace_row.real
    # Rows and columns (clone 1, clone 2, input): trace out clone 2, then clone 1.
    p7 = stack.reshape(25, 4, 4, 4, 4, 4, 4)
    d = (np.einsum("pabixbj->paixj", p7) - np.einsum("pabiayj->pbiyj", p7)).reshape(25, -1).T
    _, sv, vh = np.linalg.svd(np.vstack([d.real, d.imag]), full_matrices=False)
    return trace_row, vh[sv > 1e-10 * max(sv[0], 1.0)]


def commutant_blocks(t=T_OPERATORS):
    """Coefficients of t1..t5 in M2 (+) C: 2x2 blocks X of shape (5, 2, 2) and scalars c of shape (5,).

    Each ti is V (X_i (x) I2) V^dag + c_i (I8 - V V^dag) with V =
    BLOCK_BASIS: X_i is read off V^dag ti V and acts on (m1_k, m2_k)
    alike for k = 0, 1, and c_i is Tr[(I8 - V V^dag) ti] / 4, its trace
    on the four-dimensional complement.  Raises RuntimeError if t
    departs from that structure by more than 1e-12.
    """
    ts = np.asarray(t)
    b = BLOCK_BASIS.T @ ts @ BLOCK_BASIS
    x = b[:, 0::2, 0::2]
    x = (x + np.conj(np.swapaxes(x, 1, 2))) / 2
    c = (np.trace(ts, axis1=1, axis2=2) - np.trace(b, axis1=1, axis2=2)).real / 4
    if np.abs(ts - _from_blocks(x, c)).max() > 1e-12:
        raise RuntimeError("t1..t5 do not split into M2 (+) C blocks in the invariant basis")
    return x, c


def block_cone(xa, xb, c):
    """Linear forms over the 8 FIXED coordinates of the blocks of sum_ij a_ij (Xa_i (+) c_i) (x) (Xb_j (+) c_j).

    The Xa_i (x) Xb_j block is rotated into PAIR_BASIS, where it splits
    into its upper and lower 2x2 blocks; the c_j Xa_i block is the third
    and c_i c_j times I2 the fourth.  With Xb = Xa it derives the blocks
    sdp.CONE_FORMS splits into one 2x2 block and five scalars, with
    Xb = Xa^T those of the partial transpose.
    Raises RuntimeError if the rotated block does not split 2 + 2, or if
    any block is not real and symmetric, by more than 1e-12.
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


def _per_branch_loop(ks, rho):
    """Reference: each branch as its own K rho K^dag, giving (probability, post-state) per K."""
    out = []
    for kmat in ks.k:
        raw = kmat @ rho @ kmat.conj().T
        prob = float(np.trace(raw).real)
        if prob > protocol.PROBABILITY_FLOOR:
            out.append((prob, raw / prob))
        else:
            out.append((max(prob, 0.0), np.zeros((16, 16), dtype=complex)))
    return out


def _dense_operators(a, t=T_OPERATORS):
    """sum_ij a_ij ti (x) tj from the written-out products, and its partial transpose over the second party."""
    dense = np.tensordot(np.reshape(a, -1), dense_stack(t), axes=(0, 0))
    return [dense, partial_transpose_b(dense)]


def _dense_spectra(a, t=T_OPERATORS):
    """Spectra of sum_ij a_ij ti (x) tj and of its partial transpose over the second party."""
    return [np.linalg.eigvalsh((m + m.conj().T) / 2) for m in _dense_operators(a, t)]


def _dense_program(alpha, t=T_OPERATORS):
    """The unreduced PPT program on the 8 ORTHONORMAL coordinates, from the dense references: its objective,
    trace row, an orthonormal null basis of the trace row, and x -> both dense operators at a = ORTHONORMAL @ x."""
    f = ORTHONORMAL.T @ dense_fidelity_coefficients(alpha, t).reshape(-1)
    trace_row = ORTHONORMAL.T @ dense_constraint_matrices(t)[0]
    null = np.linalg.svd(trace_row[None, :])[2][1:].T
    return f, trace_row, null, lambda x: _dense_operators(ORTHONORMAL @ x, t)


def _psd_root(m, power):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * vals**power) @ vecs.conj().T


def _dense_step(m, dm):
    """Largest s with m + s dm positive definite, from the spectrum of m^-1/2 dm m^-1/2."""
    root = _psd_root(m, -0.5)
    low = np.linalg.eigvalsh(root @ dm @ root)[0]
    return -1.0 / low if low < 0.0 else np.inf


def dense_nt_path(alpha, t=T_OPERATORS, tol=1e-7, with_ppt=True):
    """solve's primal-dual iteration run on the unreduced program over the 8 ORTHONORMAL coordinates: the
    dense 64x64 operator and, for the PPT program, its partial transpose; returns (iterations, f*).

    It keeps solve's primal start, here the trace row's least-squares
    point, a = s s^T / 36 with s = (1, 1, 2, 0, 0) (pulled to
    0.9 e_22 + 0.1 times it for the PPT program), CENTRING,
    STEP_FRACTION, floor mu_min = tol / (2 nu), nu = 64 per operator,
    and stop rule.  The dual start is the same basis-free
    y0 I / (4c) - C(h) for c operators, with h from the Frobenius Gram
    matrix of the dense operators and y0 from C(h)'s largest
    eigenvalue.  The NT scaling W = S^1/2 (S^1/2 Z S^1/2)^-1/2 S^1/2,
    the complementarity spectra and the step bounds come from eigh of
    the whole operators.  Each dual step is made Hermitian, because the
    dense products leave rounding-level anti-Hermitian parts that the
    block solver cannot have, and projected onto the dual equalities in
    the Frobenius inner product.
    """
    f, trace_row, null, both = _dense_program(alpha, t)
    count = 2 if with_ppt else 1
    cones = lambda x: both(x)[:count]  # noqa: E731
    nu = 64.0 * count  # the dimensions of the 64x64 operators
    inner = lambda a, b: sum(np.vdot(p, q).real for p, q in zip(a, b))  # noqa: E731
    x = np.linalg.lstsq(trace_row[None, :], np.ones(1), rcond=None)[0]
    if with_ppt:
        x = 0.9 * ORTHONORMAL[6] + 0.1 * x
    units = [cones(e) for e in np.eye(8)]
    ch = cones(np.linalg.solve([[inner(a, b) for b in units] for a in units], f))
    top = max(np.linalg.eigvalsh(c)[-1] for c in ch)
    zs = [2.0 * abs(top) * np.eye(64) - c for c in ch]
    dirs = [cones(n) for n in null.T]
    dir_gram = np.array([[inner(a, b) for b in dirs] for a in dirs])
    mu_min, iterations = max(tol / (2.0 * nu), 1e-12), 0
    while True:
        ss = cones(x)
        roots = [_psd_root(s, 0.5) for s in ss]
        comp = np.concatenate([np.linalg.eigvalsh(r @ z @ r) for r, z in zip(roots, zs)])
        if np.abs(comp - mu_min).max() <= 1e-3 * mu_min:
            return iterations, float(f @ x)
        iterations += 1
        tau = max(CENTRING * inner(ss, zs) / nu, mu_min)
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


def barrier_decrement(alpha, a, mu, t=T_OPERATORS):
    """Squared Newton decrement g^T H^-1 g at the 5x5 point a of the fixed subspace, over the 8 ORTHONORMAL
    coordinates, of the unreduced PPT program's dense barrier f.x + mu sum log det C(x), with g and H its
    gradient and negated Hessian along the null basis of the trace row.  It is 0 on the central path, and
    half of it bounds how far the barrier lies below its centred value (Boyd & Vandenberghe, Convex
    Optimization, 9.5 and 11.2)."""
    f, _, null, cones = _dense_program(alpha, t)
    x = ORTHONORMAL.T @ np.reshape(a, -1)
    dirs = [cones(n) for n in null.T]
    grad, hess = null.T @ f, np.zeros((null.shape[1],) * 2)
    for n, c in enumerate(cones(x)):
        vals, vecs = np.linalg.eigh(c)
        inv = (vecs / vals) @ vecs.conj().T
        prods = np.stack([inv @ d[n] for d in dirs])
        grad += mu * np.einsum("hii->h", prods).real
        hess += mu * np.einsum("hij,gji->hg", prods, prods).real
    return float(grad @ np.linalg.solve(hess, grad))


def _packed(m):
    """A real symmetric 2x2 matrix as its (p, q, r)."""
    return np.array([m[0][0], m[0][1], m[1][1]])


def _unpacked(v):
    p, q, r = v
    return np.array([[p, q], [q, r]])


def numpy_cone_min(v):
    """The smallest eigenvalue of the cone with 2x2 block v[:3] = (p, q, r) and scalars v[3:], as sdp._cone_min
    once took it: np.min over (p + r) / 2 - np.hypot((p - r) / 2, q) and the scalars, on a float64 array."""
    v = np.asarray(v, dtype=float)
    p, q, r = v[:3]
    return float(np.min([(p + r) / 2.0 - np.hypot((p - r) / 2.0, q), *v[3:]]))


def kxk_direction(problem, s, z, tau):
    """The NT direction (dS, dZ) of one step of solve, from the k x k system the solver once solved.

    On the cone's 8 numbers s and z (the block's (p, q, r), then the five
    scalars): B = forms N for an orthonormal null basis N of the trace row
    (np.linalg.svd), D = diag(weights), M the map X -> W^-1 X W^-1 on the
    block, W = S^1/2 (S^1/2 Z S^1/2)^-1/2 S^1/2 from eigh, and z / s on each
    scalar, and t = tau S^-1 - Z.  dz solves B^T D M B dz = B^T D t, then
    dS = B dz and dZ = t - M dS, all in dense float64 numpy.
    """
    setup = problem.setup
    s, z = np.asarray(s, dtype=float), np.asarray(z, dtype=float)
    root = _psd_root(_unpacked(s[:3]), 0.5)
    w_inv = np.linalg.inv(root @ _psd_root(root @ _unpacked(z[:3]) @ root, -0.5) @ root)
    m = np.diag(np.concatenate([np.zeros(3), z[3:] / s[3:]]))
    m[:3, :3] = np.array([_packed(w_inv @ _unpacked(unit) @ w_inv) for unit in np.eye(3)]).T
    t = np.concatenate([_packed(tau * np.linalg.inv(_unpacked(s[:3])) - _unpacked(z[:3])), tau / s[3:] - z[3:]])
    null = np.linalg.svd(problem.eq_matrix)[2][1:].T
    b = setup.forms @ null
    bd = b.T * setup.weights
    ds = b @ np.linalg.solve(bd @ m @ b, bd @ t)
    return ds, t - m @ ds


# The null (c, M^-1 c) that pads one free direction to two: lam 0 adds -0.0 to dZ and takes 0.0 from dS, exactly.
_NULL_DIRECTION = ((-0.0,) * 8, (0.0,) * 8)


def table_nt_direction(s, z, det_s, det_z, tau, free):
    """sdp._nt_direction as it was formed with lists, zip and map over the cone's eight numbers, the one free
    direction padded with _NULL_DIRECTION to two: the same (dS, dZ) as lists, from the same arguments, and the
    same ConvergenceError on a system that rounding left singular."""
    (sp, sq, sr, *ss), (zp, zq, zr, *zs) = s, z
    a, b, c = sdp._nt_scaling((sp, sq, sr), (zp, zq, zr), det_s, det_z)
    aa, ab, bb, bc, cc, mid = a * a, a * b, b * b, b * c, c * c, a * c + b * b
    ratios = list(map(truediv, ss, zs))
    inv = tau / det_z
    goal = [inv * zr - sp, -(inv * zq) - sq, inv * zp - sr, *[tau / v - u for u, v in zip(ss, zs)]]
    moved = [[aa * cp + 2.0 * (ab * cq) + bb * cr, ab * cp + mid * cq + bc * cr, bb * cp + 2.0 * (bc * cq) + cc * cr,
              *map(mul, ratios, cs)] for (cp, cq, cr, *cs), _, _ in free]
    if len(free) == 1:
        ((c1, d1, _),), (u1,) = free, moved
        det = fsum(map(mul, d1, u1))
        if not det > 0.0:
            raise sdp.ConvergenceError("the iterate left the cone interior")
        l1, l2, c2, u2 = fsum(map(mul, d1, goal)) / det, 0.0, *_NULL_DIRECTION
    else:
        ((c1, d1, _), (c2, d2, _)), (u1, u2) = free, moved
        g11, g12, g22 = fsum(map(mul, d1, u1)), fsum(map(mul, d1, u2)), fsum(map(mul, d2, u2))
        det = g11 * g22 - g12 * g12
        if not det > 0.0:
            raise sdp.ConvergenceError("the iterate left the cone interior")
        r1, r2 = fsum(map(mul, d1, goal)), fsum(map(mul, d2, goal))
        l1, l2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
    ds = [g - l1 * u - l2 * v for g, u, v in zip(goal, u1, u2)]
    dz = [l1 * u + l2 * v for u, v in zip(c1, c2)]
    for _, dc, unit in free:
        part = fsum(map(mul, unit, ds))
        ds = [d - part * v for d, v in zip(ds, dc)]
    return ds, dz


def _gauss_solve(a, b):
    """a x = b by Gaussian elimination with partial pivoting, on lists of Decimals."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, n):
            factor = rows[i][col] / rows[col][col]
            rows[i] = [u - factor * v for u, v in zip(rows[i], rows[col])]
    x = [Decimal(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum((rows[i][j] * x[j] for j in range(i + 1, n)), Decimal(0))) / rows[i][i]
    return x


def decimal_nt_path(problem, tol, digits=40):
    """solve's path in decimal arithmetic of the given digits, on the k x k system it once solved: returns
    (iterations, f*, U, a_star) as floats, a_star (5, 5).

    It reads the problem's objective, trace row, forms, weights, start and
    Gram inverse exactly (each float is a dyadic rational, and the Gram
    inverse's entries are powers of two), and keeps solve's dual start,
    CENTRING, STEP_FRACTION, mu_min = tol / (2 nu), step bounds, stop test
    and MAX_ITERATIONS, each float constant read exactly.  The step is the
    NT direction of the k x k system B^T D M B dz = B^T D t, B = forms N,
    for the integer null basis N of the trace row e whose columns are
    e_j - e_j e_0 (e_0 = 1), solved by Gaussian elimination; there,
    M X = V X V on the block, V = W^-1 = adj(P) sqrt(g / det P),
    P = S / sqrt(det S) + adj(Z) / sqrt(det Z) and g = sqrt(det Z / det S),
    and z / s on each scalar; t = tau S^-1 - Z, dS = B dz, dx = N dz and
    dZ = t - M dS.  No dual projection is needed at this precision.
    Raises RuntimeError if an iterate leaves the interior or the cap is
    reached.  Uses only the standard library's decimal.
    """
    setup = problem.setup
    with localcontext() as ctx:
        ctx.prec = digits
        dec = lambda arr: [Decimal(float(v)) for v in arr]  # noqa: E731
        forms = [dec(row) for row in setup.forms]
        weights, f, (e,) = dec(setup.weights), dec(problem.objective), [dec(row) for row in problem.eq_matrix]
        identity = dec(sdp._IDENTITY)
        m, zero, one, two = len(f), Decimal(0), Decimal(1), Decimal(2)
        dot = lambda u, v: sum((a * b for a, b in zip(u, v)), zero)  # noqa: E731
        apply = lambda rows, v: [dot(row, v) for row in rows]  # noqa: E731
        if e[0] != one:
            raise RuntimeError("the integer null basis needs the trace row's first entry to be 1")
        null = [[(one if i == j else zero) - (e[j] if i == 0 else zero) for j in range(1, m)] for i in range(m)]
        b = [apply(forms, col) for col in zip(*null)]  # the columns of B = forms N
        nu = dot(weights, identity)
        mu_min = Decimal(tol) / (two * nu)
        bar = Decimal(1e-3) * mu_min

        def cone_min(v):
            p, q, r = v[:3]
            return min([(p + r) / two - (((p - r) / two) ** 2 + q * q).sqrt(), *v[3:]])

        def step_bound(v, dv, det):
            (p, q, r), (dp, dq, dr) = v, dv
            lin = r * dp - two * q * dq + p * dr
            return (max(lin * lin - 4 * (dp * dr - dq * dq) * det, zero).sqrt() - lin) / det

        ch = apply(forms, [g * c for g, c in zip(dec(setup.gram_inv), f)])
        top = abs(cone_min([-c for c in ch]))
        z = [two * top * i - c for i, c in zip(identity, ch)]
        x, iterations = dec(setup.x0), 0
        while True:
            s = apply(forms, x)
            (sp, sq, sr, *ss), (zp, zq, zr, *zs) = s, z
            det_s, det_z = sp * sr - sq * sq, zp * zr - zq * zq
            if not all(v > 0 for v in (det_s, det_z, sp, zp, *ss, *zs)):
                raise RuntimeError("the iterate left the cone interior")
            gaps = [a * c for a, c in zip(ss, zs)]
            mu = dot(weights, [a * c for a, c in zip(s, z)]) / nu
            if mu <= (one + Decimal(1e-3)) * mu_min:
                half = (sp * zp + two * sq * zq + sr * zr) / two
                if (abs(half - mu_min) + max(half * half - det_s * det_z, zero).sqrt() <= bar
                        and all(abs(gap - mu_min) <= bar for gap in gaps)):
                    break
            if iterations >= sdp.MAX_ITERATIONS:
                raise RuntimeError("no convergence within the cap")
            iterations += 1
            tau = max(Decimal(CENTRING) * mu, mu_min)
            root_s, root_z = det_s.sqrt(), det_z.sqrt()
            pp, pq, pr = sp / root_s + zr / root_z, sq / root_s - zq / root_z, sr / root_s + zp / root_z
            det_p = pp * pr - pq * pq
            scale = (root_z / root_s / det_p).sqrt()
            va, vb, vc = pr * scale, -pq * scale, pp * scale

            def apply_m(d):
                dp, dq, dr, *dsc = d
                return [va * va * dp + two * va * vb * dq + vb * vb * dr,
                        va * vb * dp + (va * vc + vb * vb) * dq + vb * vc * dr,
                        vb * vb * dp + two * vb * vc * dq + vc * vc * dr,
                        *[c / a * v for a, c, v in zip(ss, zs, dsc)]]

            target = [tau * sr / det_s - zp, -tau * sq / det_s - zq, tau * sp / det_s - zr,
                      *[tau / a - c for a, c in zip(ss, zs)]]
            weighted = [[w * v for w, v in zip(weights, col)] for col in b]
            mapped = [apply_m(col) for col in b]
            dz = _gauss_solve([[dot(row, col) for col in mapped] for row in weighted], [dot(row, target) for row in weighted])
            ds = [dot(row, dz) for row in zip(*b)]
            dual = [t - v for t, v in zip(target, apply_m(ds))]
            bounds = [step_bound(s[:3], ds[:3], det_s), step_bound(z[:3], dual[:3], det_z),
                      *[-two * d / v for v, d in zip([*ss, *zs], [*ds[3:], *dual[3:]])]]
            top = max(bounds)
            step = min(one, Decimal(STEP_FRACTION) * (two / top)) if top > 0 else one
            x = [a + step * v for a, v in zip(x, apply(null, dz))]
            z = [a + step * d for a, d in zip(z, dual)]
        r = [c + dot([w * v for w, v in zip(weights, z)], col) for c, col in zip(f, zip(*forms))]
        upper = dot(e, r) / dot(e, e)
        a_star = np.array([float(v) for v in apply([dec(row) for row in setup.basis], x)]).reshape(5, 5)
        return iterations, float(dot(f, x)), float(upper), a_star
