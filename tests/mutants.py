"""Mutation audit: every listed guard and constant has a Tier-1 test that sees it change.

Run from the repository root, outside Tier-1 (pytest does not collect this
file, as its name has no test_ prefix):

    python tests/mutants.py

Each mutant is one exact string replacement in one package file, and its
text must occur there exactly once.  It is applied to a fresh copy of
src/, tests/, bench/ and README.md (whose examples Tier-1 runs) in a
temporary directory, whose Tier-1 suite then runs with -x, one BLAS
thread and the copy's src/ first on the path.  The unmutated copy runs
first and must pass.  The mutants then run on
min(2, os.cpu_count()) workers, and their verdicts print in list order.
A mutant is killed when the suite fails under it; a surviving mutant is
reported as equivalent when the list states why no output can change, and
as a survivor otherwise.  The run exits 1 if any mutant survives without a
reason.  It uses only the standard library and pytest, and takes about
three minutes on two cores.  CI runs it after Tier-1 on one
Python version.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")
ANALYTIC = "src/entclone/analytic.py"
SDP = "src/entclone/sdp.py"
CLI = "src/entclone/cli.py"
VERIFY = "src/entclone/verify.py"
# Each child suite runs on one BLAS thread, so the parallel workers do not oversubscribe the cores.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Mutant(NamedTuple):
    name: str
    path: str  # the mutated file, relative to the repository root
    old: str
    new: str
    equivalent: str = ""  # why the mutant cannot change any output, if it cannot


MUTANTS = (
    Mutant("analytic._ALPHA_SLACK 1e-12 -> 1e-6", ANALYTIC,
           "_ALPHA_SLACK = 1e-12", "_ALPHA_SLACK = 1e-6"),
    Mutant("analytic.x_of_alpha skips check_alpha", ANALYTIC,
           "    a = check_alpha(alpha)\n    return a * a", "    a = float(alpha)\n    return a * a"),
    Mutant("analytic.c_of_alpha 640x^2 -> 64x^2", ANALYTIC, "640.0 * x * x", "64.0 * x * x"),
    Mutant("analytic global a44 (3 + 24x) -> (3 + 20x)", ANALYTIC, "24.0 * x", "20.0 * x"),
    Mutant("analytic.fidelity_locc 8x^2 -> 9x^2", ANALYTIC, "8.0 * x * x", "9.0 * x * x"),
    Mutant("analytic.fidelity_locc threshold x <= 1/10 -> x <= 0.099", ANALYTIC, "if x <= 0.1:", "if x <= 0.099:"),
    Mutant("analytic LOCC sqrt(a11) not clipped at 0 below the threshold", ANALYTIC,
           "max(10.0 * x - 1.0, 0.0)", "abs(10.0 * x - 1.0)"),
    Mutant("protocol.KRAUS_TOL 1e-10 -> 1e-1", "src/entclone/protocol.py", "KRAUS_TOL = 1e-10", "KRAUS_TOL = 1e-1"),
    Mutant("protocol._check_kraus skips the Kraus completeness check", "src/entclone/protocol.py",
           "if not (np.max(np.abs(total - np.eye(4))) <= KRAUS_TOL):", "if False:"),
    Mutant("protocol.PROBABILITY_FLOOR 1e-14 -> 1e-3", "src/entclone/protocol.py",
           "PROBABILITY_FLOOR = 1e-14", "PROBABILITY_FLOOR = 1e-3"),
    Mutant("channel.SYMMETRY_TOL 1e-8 -> 1e-1", "src/entclone/channel.py", "SYMMETRY_TOL = 1e-8", "SYMMETRY_TOL = 1e-1"),
    Mutant("sdp.THRESHOLD_RATIO 10 -> 3", SDP, "THRESHOLD_RATIO = 10.0", "THRESHOLD_RATIO = 3.0"),
    Mutant("sdp.THRESHOLD_FLOOR 1e-7 -> 1e-4", SDP, "THRESHOLD_FLOOR = 1e-7", "THRESHOLD_FLOOR = 1e-4"),
    Mutant("sdp.CENTRING 0.03 -> 0.1", SDP, "CENTRING = 0.03", "CENTRING = 0.1"),
    Mutant("sdp.STEP_FRACTION 0.99 -> 0.95", SDP, "STEP_FRACTION = 0.99", "STEP_FRACTION = 0.95"),
    Mutant("sdp.solve stop test 1e-3 mu_min -> 1e-1 mu_min", SDP, "bar = 1e-3 * mu_min", "bar = 1e-1 * mu_min"),
    Mutant("sdp.solve tr(S Z), read by mu and the stop test, counts the block's off-diagonal once", SDP,
           "sp * zp + 2.0 * (sq * zq) + sr * zr", "sp * zp + sq * zq + sr * zr"),
    Mutant("sdp.solve mu without s3 z3", SDP, "(trace + g3 + g4", "(trace + g4"),
    Mutant("sdp.solve mu with a13's weight 4.0 -> 1.0", SDP, "4.0 * g5", "g5"),
    Mutant("sdp.solve mu with a23's weight 4.0 -> 1.0", SDP, "4.0 * g6", "g6"),
    Mutant("sdp.solve mu with a33's weight 4.0 -> 1.0", SDP, "4.0 * g7", "g7"),
    Mutant("sdp.solve mu over nu / 4 or 8 = 16 -> 32", SDP, "4.0 * g7) / 16.0", "4.0 * g7) / 32.0"),
    Mutant("sdp.solve stop test's half = tr(S Z) / 2 -> tr(S Z)", SDP, "half = trace / 2.0", "half = trace"),
    Mutant("sdp.solve stop test without its scalar arm", SDP,
           "\n                    and all(abs(gap - mu_min) <= bar for gap in gaps)", ""),
    Mutant("sdp.solve interior test without Z", SDP, "(det_s, det_z, sp, zp, *ss, *zs)", "(det_s, sp, *ss)"),
    Mutant("sdp.solve interior test without the scalars", SDP,
           "(det_s, det_z, sp, zp, *ss, *zs)", "(det_s, det_z, sp, zp)"),
    Mutant("sdp._nt_scaling W = M / sqrt(g det M) -> M / sqrt(det M / g)", SDP,
           "math.sqrt(root_z / root_s * det_m)", "math.sqrt(root_s / root_z * det_m)"),
    Mutant("sdp._nt_scaling without its det M guard", SDP, "if not det_m > 0.0:", "if False:"),
    Mutant("sdp._nt_direction M^-1 I's p entry aa + bb -> aa", SDP, "u0, u1, u2 = aa + bb,", "u0, u1, u2 = aa,"),
    Mutant("sdp._nt_direction M^-1 I's q entry ab + bc -> ab", SDP, "aa + bb, ab + bc, bb", "aa + bb, ab, bb"),
    Mutant("sdp._nt_direction M^-1 I's r entry bb + cc -> cc", SDP, "ab + bc, bb + cc", "ab + bc, cc"),
    Mutant("sdp._nt_direction M^-1 c2's p entry 2ab -> ab", SDP, "v0, v1, v2 = 2.0 * ab,", "v0, v1, v2 = ab,"),
    Mutant("sdp._nt_direction M^-1 c2's r entry 2bc -> bc, on the PPT program's second direction", SDP,
           "a * c + bb, 2.0 * bc", "a * c + bb, bc"),
    Mutant("sdp._nt_direction M^-1 c2's q entry ac + b^2 -> ac", SDP, "a * c + bb, 2.0", "a * c, 2.0"),
    Mutant("sdp._nt_direction M^-1 c2's a12 + a44 + a55 entry -m3 -> m3 in g12", SDP,
           "g12, g22 = fsum((v0, v2, -m3, m4))", "g12, g22 = fsum((v0, v2, m3, m4))"),
    Mutant("sdp._nt_direction M^-1 c2's a12 + a44 + a55 entry -m3 -> m3 in dS", SDP,
           "t3 - l1 * m3 + l2 * m3", "t3 - l1 * m3 - l2 * m3"),
    Mutant("sdp._nt_direction scalar scaling s / z -> z / s", SDP,
           "m3, m4, m5, m6, m7 = s3 / z3, s4 / z4, s5 / z5, s6 / z6, s7 / z7",
           "m3, m4, m5, m6, m7 = z3 / s3, z4 / s4, z5 / s5, z6 / s6, z7 / s7"),
    Mutant("sdp._nt_direction M^-1 I's a12 - a44 - a55 entry read with the a12 + a44 + a55 ratio", SDP,
           "g11 = fsum((u0, u2, m3, m4,", "g11 = fsum((u0, u2, m3, m3,"),
    Mutant("sdp._nt_direction D I's a13 weight 4.0 -> 1.0 in g11", SDP, "m4, 4.0 * m5,", "m4, m5,"),
    Mutant("sdp._nt_direction D I's a13 weight 4.0 -> 1.0 in r1", SDP, "t4, 4.0 * t5,", "t4, t5,"),
    Mutant("sdp._nt_direction D c2's q weight 2.0 -> 1.0 in g22", SDP,
           "fsum((2.0 * v1, m3, m4))", "fsum((v1, m3, m4))"),
    Mutant("sdp._nt_direction D c2's q weight 2.0 -> 1.0 in r2", SDP, "r2 = fsum((2.0 * t1,", "r2 = fsum((t1,"),
    Mutant("sdp._nt_direction scalar goal tau / z - s -> tau / s - z", SDP,
           "tau / z3 - s3, tau / z4 - s4, tau / z5 - s5, tau / z6 - s6, tau / z7 - s7",
           "tau / s3 - z3, tau / s4 - z4, tau / s5 - z5, tau / s6 - z6, tau / s7 - z7"),
    Mutant("sdp._nt_direction block goal's q entry -tau adj(Z)_q / det Z -> +", SDP,
           "-(inv * zq) - sq", "inv * zq - sq"),
    Mutant("sdp._nt_direction g12 read with D c2 in place of D I", SDP,
           "g12, g22 = fsum((v0, v2, -m3, m4))", "g12, g22 = fsum((2.0 * v1, m3, m4))"),
    Mutant("sdp._nt_direction r2 read with D I in place of D c2", SDP,
           "r2 = fsum((2.0 * t1, -t3, t4))", "r2 = fsum((t0, t2, t3, t4, 4.0 * t5, 4.0 * t6, 4.0 * t7))"),
    Mutant("sdp._nt_direction 2x2 system without its off-diagonal term in lam", SDP,
           "l1, l2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det",
           "l1, l2 = g22 * r1 / det, g11 * r2 / det"),
    Mutant("sdp._nt_direction one direction's dZ q entry 0.0, not 0.0 lam, which is -0.0 when lam < 0", SDP,
           "dz = [l1, 0.0 * l1, l1,", "dz = [l1, 0.0, l1,"),
    Mutant("sdp._nt_direction two directions' dZ q entry l2 -> -l2", SDP, "dz = [l1, l2, l1,", "dz = [l1, -l2, l1,"),
    Mutant("sdp._nt_direction dZ without its second direction's term", SDP,
           "dz = [l1, l2, l1, l1 - l2, l1 + l2, l1, l1, l1]", "dz = [l1, 0.0 * l1, l1, l1, l1, l1, l1, l1]"),
    Mutant("sdp._nt_direction dZ with c2's scalars' signs swapped", SDP, "l1 - l2, l1 + l2", "l1 + l2, l1 - l2"),
    Mutant("sdp._nt_direction 2x2 det without its off-diagonal term", SDP,
           "det = g11 * g22 - g12 * g12", "det = g11 * g22"),
    Mutant("sdp._nt_direction without the 1x1 det guard", SDP, "if not g11 > 0.0:", "if False:"),
    Mutant("sdp._nt_direction without the 2x2 det guard", SDP,
           "det = g11 * g22 - g12 * g12\n        if not det > 0.0:", "det = g11 * g22 - g12 * g12\n        if False:"),
    Mutant("sdp._nt_direction keeps dS's parts along D C", SDP,
           "    part = fsum((_I_1 * x0, _I_1 * x2, _I_1 * x3, _I_1 * x4, _I_4 * x5, _I_4 * x6, _I_4 * x7))\n"
           "    x0, x2, x3, x4 = x0 - part, x2 - part, x3 - part, x4 - part\n"
           "    x5, x6, x7 = x5 - 4.0 * part, x6 - 4.0 * part, x7 - 4.0 * part\n"
           "    if ppt:\n"
           "        part = fsum((_C2_2 * x1, -(_C2_1 * x3), _C2_1 * x4))\n"
           "        x1, x3, x4 = x1 - 2.0 * part, x3 + part, x4 - part\n", ""),
    Mutant("sdp._nt_direction removal along D I drops its a12 + a44 + a55 entry", SDP,
           "x3 - part, x4 - part", "x3, x4 - part"),
    Mutant("sdp._nt_direction removal along D I with its a13 weight 4.0 -> 1.0", SDP,
           "x5 - 4.0 * part,", "x5 - part,"),
    Mutant("sdp._nt_direction removal along D c2 drops its q entry", SDP, "x1 - 2.0 * part", "x1"),
    Mutant("sdp._nt_direction removal along D c2 with its q weight 2.0 -> 1.0", SDP, "x1 - 2.0 * part", "x1 - part"),
    Mutant("sdp.solve leaves S off its affine set (no re-projection)", SDP,
           "        part = fsum((s0, s2, s3, s4, 4.0 * s5, 4.0 * s6, 4.0 * s7)) - 1.0\n"
           "        s0, s2, s3, s4 = s0 - part * _I_1, s2 - part * _I_1, s3 - part * _I_1, s4 - part * _I_1\n"
           "        s5, s6, s7 = s5 - part * _I_4, s6 - part * _I_4, s7 - part * _I_4\n"
           "        if ppt:\n"
           "            part = fsum((2.0 * s1, -s3, s4))\n"
           "            s1, s3, s4 = s1 - part * _C2_2, s3 + part * _C2_1, s4 - part * _C2_1\n", ""),
    Mutant("sdp.solve re-projection's affine level e.x = 1 read as 0", SDP,
           "4.0 * s7)) - 1.0\n", "4.0 * s7))\n"),
    Mutant("sdp.solve re-projection with D I's a13 weight 4.0 -> 1.0", SDP, "s4, 4.0 * s5,", "s4, s5,"),
    Mutant("sdp.solve re-projection with D c2's q weight 2.0 -> 1.0", SDP,
           "part = fsum((2.0 * s1, -s3, s4))", "part = fsum((s1, -s3, s4))"),
    Mutant("sdp._program S0 from the mixed point, not the PPT program's x0", SDP,
           "s0 = tuple((forms @ x0).tolist())", "s0 = tuple((forms @ mixed).tolist())"),
    Mutant("sdp._program nu without the PPT program's copies", SDP,
           "float(weights @ _IDENTITY)", "float(_FORM_WEIGHTS @ _IDENTITY)"),
    Mutant("sdp._program e.e -> the sum of e", SDP, "float(e @ e)", "float(e.sum())"),
    Mutant("sdp._cone_min without its NaN return", SDP,
           "    if any(map(math.isnan, v)):\n        return math.nan\n", ""),
    Mutant("sdp D I / |D I|^2's entry 1/52 -> 1/51", SDP, "= 1 / 52,", "= 1 / 51,"),
    Mutant("sdp D I / |D I|^2's entry 4/52 -> 4/51", SDP, "4 / 52,", "4 / 51,"),
    Mutant("sdp D c2 / |D c2|^2's entry 1/6 -> 1/5", SDP, "1 / 6, 2 / 6", "1 / 5, 2 / 6"),
    Mutant("sdp D c2 / |D c2|^2's entry 2/6 -> 2/5", SDP, "1 / 6, 2 / 6", "1 / 6, 2 / 5"),
    Mutant("sdp PPT program without c2, the identity its one free direction", SDP,
           "weights, with_ppt, gram_inv", "weights, False, gram_inv"),
    Mutant("sdp._certificate returns the final S and Z swapped", SDP,
           "s=tuple(s),\n        z=tuple(z),", "s=tuple(z),\n        z=tuple(s),"),
    Mutant("sdp._LEFT a44 = (s3 - s4) / 4 + q / 2 -> q, right on the PPT slice only", SDP,
           "[0, 0.5, 0, 0.25, -0.25, 0, 0, 0],  # a44", "[0, 1, 0, 0, 0, 0, 0, 0],  # a44"),
    Mutant("sdp._step_bounds block's b = tr(adj(v) dv) with q dq counted once", SDP,
           "r * dp - 2.0 * (q * dq) + p * dr", "r * dp - q * dq + p * dr"),
    Mutant("sdp._step_bounds a12 + a44 + a55's -2 dv / v -> -dv / v", SDP, "-2.0 * d3 / v3", "-d3 / v3"),
    Mutant("sdp._step_bounds a12 - a44 - a55's -2 dv / v -> -dv / v", SDP, "-2.0 * d4 / v4", "-d4 / v4"),
    Mutant("sdp._step_bounds a13's -2 dv / v -> -dv / v", SDP, "-2.0 * d5 / v5", "-d5 / v5"),
    Mutant("sdp._step_bounds a23's -2 dv / v -> -dv / v", SDP, "-2.0 * d6 / v6", "-d6 / v6"),
    Mutant("sdp._step_bounds a33's -2 dv / v -> -dv / v", SDP, "-2.0 * d7 / v7", "-d7 / v7"),
    Mutant("sdp.solve steps past a NaN bound", SDP, "if any(map(math.isnan, bounds)):", "if False:"),
    Mutant("sdp.solve accepts a dual start on the cone's boundary", SDP,
           "if _cone_min(z) <= 0.0:", "if _cone_min(z) < 0.0:"),
    Mutant("sdp PPT copy weight 2 -> 1", SDP,
           "axis=0), 2.0 * _FORM_WEIGHTS\n", "axis=0), 1.0 * _FORM_WEIGHTS\n"),
    Mutant("sdp PPT slice drops a44, not a55", SDP, "_A55 = 4", "_A55 = 3"),
    Mutant("sdp PPT Gram without its copies factor", SDP,
           "gram_inv = 1.0 / (weights @ (forms * forms))", "gram_inv = 1.0 / (_FORM_WEIGHTS @ (forms * forms))"),
    Mutant("sdp scalar weight of a33 8 x 2 -> 8", SDP,
           "(4, 8, 4, 4, 4, 16, 16, 16)", "(4, 8, 4, 4, 4, 16, 16, 8)"),
    Mutant("sdp scalar weights permuted, nu kept", SDP,
           "(4, 8, 4, 4, 4, 16, 16, 16)", "(4, 8, 4, 16, 16, 4, 4, 16)"),
    Mutant("sdp block weight q counted once", SDP,
           "(4, 8, 4, 4, 4, 16, 16, 16)", "(4, 4, 4, 4, 4, 16, 16, 16)"),
    Mutant("sdp.CONE_FORMS scalar a13 -> a23", SDP,
           "[0, 0, 0, 0, 0, 0, 1, 0],  # c_j Xi diagonal: a13", "[0, 0, 0, 0, 0, 0, 0, 1],  # c_j Xi diagonal: a13"),
    Mutant("sdp.CONE_FORMS scalar a33 -> 2 a33", SDP,
           "[0, 0, 1, 0, 0, 0, 0, 0],  # c_i c_j: a33", "[0, 0, 2, 0, 0, 0, 0, 0],  # c_i c_j: a33"),
    Mutant("sdp.CONE_FORMS q = a44 - a55 -> a44 + a55 (the partial transpose's form)", SDP,
           "[0, 0, 0, 1, -1, 0, 0, 0],  # q = a44 - a55", "[0, 0, 0, 1, 1, 0, 0, 0],  # q = a44 - a55"),
    Mutant("sdp.CONE_FORMS scalar a12 - a44 - a55 -> -a12 - a44 - a55", SDP,
           "[0, 0, 0, -1, -1, 1, 0, 0]", "[0, 0, 0, -1, -1, -1, 0, 0]"),
    Mutant("sdp.MAX_ITERATIONS 200 -> 100", SDP, "MAX_ITERATIONS = 200", "MAX_ITERATIONS = 100"),
    Mutant("sdp.solve stops one iteration past its cap", SDP,
           "if iterations >= MAX_ITERATIONS:", "if iterations > MAX_ITERATIONS:"),
    Mutant("channel.G1 a32 entry -14/9 -> -10/9", "src/entclone/channel.py",
           "[2 / 3, -14 / 9, 32 / 9, 0, 0]", "[2 / 3, -10 / 9, 32 / 9, 0, 0]"),
    Mutant("channel.G1 a44 entry 8/3 -> 7/3", "src/entclone/channel.py", "[0, 0, 0, 8 / 3, 0]", "[0, 0, 0, 7 / 3, 0]"),
    Mutant("covariant.BLOCK_X t4 block [[0, 1], [1, 0]] -> [[0, 2], [2, 0]]", "src/entclone/covariant.py",
           "[[0, 1], [1, 0]]", "[[0, 2], [2, 0]]"),
    Mutant("sdp.FIXED off-diagonal selection 1 -> 1/sqrt(2), the orthonormal column", SDP,
           "    FIXED[[5 * _i + _j, 5 * _j + _i], _h] = 1.0\n",
           "    FIXED[[5 * _i + _j, 5 * _j + _i], _h] = 1.0 if _i == _j else 1.0 / np.sqrt(2.0)\n"),
    Mutant("sdp start s s^T / 36 -> e / (e.e) = e / 54 on the raw coordinates", SDP,
           "mixed = e / basis.sum(axis=0) / 36.0", "mixed = e / (e @ e)"),
    Mutant("sdp plain start back at 0.9 e_22 + 0.1 s s^T / 36", SDP,
           "0.1 * mixed if with_ppt else mixed", "0.1 * mixed"),
    Mutant("sdp._program builds a new setup at each build_problem", SDP, "@functools.cache\n", ""),
    Mutant("sdp.SdpProblem.tol_floor 2 nu 1e-10 -> nu 1e-10", SDP,
           "return 2.0 * self.setup.nu * 1e-10", "return self.setup.nu * 1e-10"),
    Mutant("sdp.SdpProblem.tol_floor 2 nu 1e-10 -> 2 nu 1e-11, ten times closer to where double solves stall", SDP,
           "return 2.0 * self.setup.nu * 1e-10", "return 2.0 * self.setup.nu * 1e-11"),
    Mutant("verify criterion 9 projector without its S^T S term", VERIFY, " - sym_rows.T @ sym_rows", ""),
    Mutant("verify criterion 9 generators act as U on the input, not U*", VERIFY,
           "np.kron(np.eye(4), s.conj())", "np.kron(np.eye(4), s)"),
    Mutant("verify criterion 9 feasibility read at e / (e.e) alone", VERIFY,
           "np.vstack([np.zeros(len(eq)), project])", "np.zeros((1, len(eq)))"),
    Mutant("verify tol check flipped to >=", VERIFY, '"tol": operator.le', '"tol": operator.ge'),
    Mutant("verify cap check flipped to >=", VERIFY, '"cap": operator.le', '"cap": operator.ge'),
    Mutant("verify need check flipped to <=", VERIFY, '"need": operator.ge', '"need": operator.le'),
    Mutant("verify floor check flipped to <", VERIFY, '"floor": operator.gt', '"floor": operator.lt'),
    Mutant("verify floor check not strict", VERIFY, '"floor": operator.gt', '"floor": operator.ge'),
    Mutant("verify criterion 10 dual residual bound 1e-12 -> 1e-16", VERIFY,
           '("max dual residual", max(s.dual_residual for s, _ in solved), "tol", "1e-12")',
           '("max dual residual", max(s.dual_residual for s, _ in solved), "tol", "1e-16")'),
    Mutant("verify shared sweeps solved at each read", VERIFY, "    @functools.cache\n", ""),
    Mutant("covariant.check_t accepts any t", "src/entclone/covariant.py",
           "if t is not T_OPERATORS:", "if False:"),
    Mutant("sdp.detect_threshold takes np.median again", SDP,
           "med = statistics.median(np.delete(jumps, peak).tolist())",
           "med = float(np.median(np.delete(jumps, peak)))"),
    Mutant("protocol._M_W M1's (1, 1) entry 0.5 -> 0.25", "src/entclone/protocol.py",
           "_M_W = np.array(\n    [\n        [[1, 0], [0, 0.5],", "_M_W = np.array(\n    [\n        [[1, 0], [0, 0.25],"),
    Mutant("protocol._M_V M1 signs flipped", "src/entclone/protocol.py",
           "[[0, 0], [0, -1], [0, 1], [0, 0]],", "[[0, 0], [0, 1], [0, -1], [0, 0]],"),
    Mutant("protocol._BRANCHES K2 = (1, 3) -> (1, 2)", "src/entclone/protocol.py",
           "_BRANCHES = ((1, 1), (1, 3),", "_BRANCHES = ((1, 1), (1, 2),"),
    Mutant("cli._parse_tol accepts 0", CLI, "and tol > 0.0)", "and tol >= 0.0)"),
    Mutant("cli._int_at_least off by one", CLI, "if value < minimum:", "if value < minimum - 1:"),
    Mutant("cli --seed accepts -1", CLI,
           "type=_int_at_least(0), default=DEFAULT_SEED", "type=_int_at_least(-1), default=DEFAULT_SEED"),
    Mutant("cli metadata drops the tol", CLI, 'for key in ("seed", "tol")', 'for key in ("seed",)'),
    Mutant("cli._parse_modes keeps the given order", CLI,
           "return [mode for mode in _SWEEP_MODES if mode in modes]", "return modes"),
    Mutant("cli tol floor: sdp-ppt read as the plain program", CLI,
           '_SOLVED = {"sdp": False, "sdp-ppt": True}', '_SOLVED = {"sdp": False, "sdp-ppt": False}'),
    Mutant("verify solves at 1e-7 -> 1e-6", VERIFY, "SOLVE_TOL = 1e-7", "SOLVE_TOL = 1e-6"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write mutant into the copy at root; raises ValueError unless its text occurs exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def tier1(root: Path) -> tuple[bool, str]:
    """Run the Tier-1 suite of the copy at root with -x: (passed, the first failure's summary line)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(BLAS_THREADS, "1")}
    where = subprocess.run([sys.executable, "-c", "import entclone; print(entclone.__file__)"],
                           cwd=root, env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(root.resolve()):
        raise RuntimeError(f"the copy imports entclone from {where}, not from its own src/")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                          cwd=root, env=env, capture_output=True, text=True)
    failures = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failures or [f"exit code {proc.returncode}"])[0]


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """Tier-1 on a fresh copy of the repository, with mutant applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="entclone-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
            else:
                shutil.copy2(source, root / name)
        if mutant is not None:
            apply(mutant, root)
        return tier1(root)


def main() -> int:
    passed, detail = run(None)
    if not passed:
        raise SystemExit(f"the unmutated copy fails Tier-1: {detail}")
    survivors = 0
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for mutant, (passed, detail) in zip(MUTANTS, pool.map(run, MUTANTS)):
            if not passed:
                verdict = f"killed by {detail}"
            elif mutant.equivalent:
                verdict = f"equivalent: {mutant.equivalent}"
            else:
                verdict, survivors = "SURVIVED", survivors + 1
            print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        raise SystemExit("usage: python tests/mutants.py")
    sys.exit(main())
