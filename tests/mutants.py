"""Mutation audit: every listed guard and constant has a Tier-1 test that sees it change.

Run from the repository root, outside Tier-1 (pytest does not collect this
file, as its name has no test_ prefix):

    python tests/mutants.py

Each mutant is one exact string replacement in one package file, and its
text must occur there exactly once.  It is applied to a fresh copy of
src/, tests/ and bench/ in a temporary directory, whose Tier-1 suite then
runs with -x, one BLAS thread and the copy's src/ first on the path.  The
unmutated copy runs first and must pass.  The mutants then run on
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
COPIED = ("src", "tests", "bench", "pyproject.toml")
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
    Mutant("protocol.PROBABILITY_FLOOR 1e-14 -> 1e-3", "src/entclone/protocol.py",
           "PROBABILITY_FLOOR = 1e-14", "PROBABILITY_FLOOR = 1e-3"),
    Mutant("channel.SYMMETRY_TOL 1e-8 -> 1e-1", "src/entclone/channel.py", "SYMMETRY_TOL = 1e-8", "SYMMETRY_TOL = 1e-1"),
    Mutant("sdp.THRESHOLD_RATIO 10 -> 3", SDP, "THRESHOLD_RATIO = 10.0", "THRESHOLD_RATIO = 3.0"),
    Mutant("sdp.THRESHOLD_FLOOR 1e-7 -> 1e-4", SDP, "THRESHOLD_FLOOR = 1e-7", "THRESHOLD_FLOOR = 1e-4"),
    Mutant("sdp.CENTRING 0.03 -> 0.1", SDP, "CENTRING = 0.03", "CENTRING = 0.1"),
    Mutant("sdp.STEP_FRACTION 0.99 -> 0.95", SDP, "STEP_FRACTION = 0.99", "STEP_FRACTION = 0.95"),
    Mutant("sdp.solve stop test 1e-3 mu_min -> 1e-1 mu_min", SDP, "bar = 1e-3 * mu_min", "bar = 1e-1 * mu_min"),
    Mutant("sdp.solve stop test counts the block's off-diagonal of tr(S Z) once", SDP,
           "sp * zp + 2.0 * (sq * zq) + sr * zr", "sp * zp + sq * zq + sr * zr"),
    Mutant("sdp.solve stop test without its scalar arm", SDP,
           "\n                    and all(abs(gap - mu_min) <= bar for gap in gaps)", ""),
    Mutant("sdp.solve interior test without Z", SDP, "(det_s, det_z, sp, zp, *ss, *zs)", "(det_s, sp, *ss)"),
    Mutant("sdp.solve interior test without the scalars", SDP,
           "(det_s, det_z, sp, zp, *ss, *zs)", "(det_s, det_z, sp, zp)"),
    Mutant("sdp._nt_scaling W = M / sqrt(g det M) -> M / sqrt(det M / g)", SDP,
           "math.sqrt(root_z / root_s * det_m)", "math.sqrt(root_s / root_z * det_m)"),
    Mutant("sdp._nt_scaling without its det M guard", SDP, "if not det_m > 0.0:", "if False:"),
    Mutant("sdp._nt_direction W C W off-diagonal 2ab -> ab", SDP,
           "aa * c0 + 2.0 * (ab * c1) + bb * c2", "aa * c0 + ab * c1 + bb * c2"),
    Mutant("sdp._nt_direction W K W off-diagonal 2bc -> bc, on the PPT program's second direction", SDP,
           "bb * k0 + 2.0 * (bc * k1) + cc * k2", "bb * k0 + bc * k1 + cc * k2"),
    Mutant("sdp._nt_direction W C W middle entry ac + b^2 -> ac", SDP, "c * c, a * c + b * b", "c * c, a * c"),
    Mutant("sdp._nt_direction scalar scaling s / z -> z / s", SDP,
           "m3, m4, m5, m6, m7 = s3 / z3, s4 / z4, s5 / z5, s6 / z6, s7 / z7",
           "m3, m4, m5, m6, m7 = z3 / s3, z4 / s4, z5 / s5, z6 / s6, z7 / s7"),
    Mutant("sdp._nt_direction M^-1 c's a12 - a44 - a55 entry read with the a12 + a44 + a55 ratio", SDP,
           "u3, u4, u5, u6, u7 = m3 * c3, m4 * c4,", "u3, u4, u5, u6, u7 = m3 * c3, m3 * c4,"),
    Mutant("sdp._nt_direction scalar goal tau / z - s -> tau / s - z", SDP,
           "tau / z3 - s3, tau / z4 - s4, tau / z5 - s5, tau / z6 - s6, tau / z7 - s7",
           "tau / s3 - z3, tau / s4 - z4, tau / s5 - z5, tau / s6 - z6, tau / s7 - z7"),
    Mutant("sdp._nt_direction block goal's q entry -tau adj(Z)_q / det Z -> +", SDP,
           "-(inv * zq) - sq", "inv * zq - sq"),
    Mutant("sdp._nt_direction g12 read with D c2 in place of D c1", SDP,
           "g12 = fsum((d0 * v0, d1 * v1, d2 * v2, d3 * v3, d4 * v4, d5 * v5, d6 * v6, d7 * v7))",
           "g12 = fsum((f0 * v0, f1 * v1, f2 * v2, f3 * v3, f4 * v4, f5 * v5, f6 * v6, f7 * v7))"),
    Mutant("sdp._nt_direction r2 read with D c1 in place of D c2", SDP,
           "r2 = fsum((f0 * t0, f1 * t1, f2 * t2, f3 * t3, f4 * t4, f5 * t5, f6 * t6, f7 * t7))",
           "r2 = fsum((d0 * t0, d1 * t1, d2 * t2, d3 * t3, d4 * t4, d5 * t5, d6 * t6, d7 * t7))"),
    Mutant("sdp._nt_direction 2x2 system without its off-diagonal term in lam", SDP,
           "l1, l2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det",
           "l1, l2 = g22 * r1 / det, g11 * r2 / det"),
    Mutant("sdp._nt_direction one direction's dZ q entry 0.0, not lam 0.0, which is -0.0 when lam < 0", SDP,
           "dz = [l1 * c0, l1 * c1, l1 * c2,", "dz = [l1 * c0, 0.0, l1 * c2,"),
    Mutant("sdp._nt_direction dZ without its second direction's term", SDP,
           "dz = [l1 * c0 + l2 * k0, l1 * c1 + l2 * k1, l1 * c2 + l2 * k2, l1 * c3 + l2 * k3,\n"
           "              l1 * c4 + l2 * k4, l1 * c5 + l2 * k5, l1 * c6 + l2 * k6, l1 * c7 + l2 * k7]",
           "dz = [l1 * c0, l1 * c1, l1 * c2, l1 * c3, l1 * c4, l1 * c5, l1 * c6, l1 * c7]"),
    Mutant("sdp._nt_direction 2x2 det without its off-diagonal term", SDP,
           "det = g11 * g22 - g12 * g12", "det = g11 * g22"),
    Mutant("sdp._nt_direction without the 1x1 det guard", SDP, "if not g11 > 0.0:", "if False:"),
    Mutant("sdp._nt_direction without the 2x2 det guard", SDP,
           "det = g11 * g22 - g12 * g12\n        if not det > 0.0:", "det = g11 * g22 - g12 * g12\n        if False:"),
    Mutant("sdp._nt_direction keeps dS's parts along D C", SDP,
           "    part = fsum((n0 * x0, n1 * x1, n2 * x2, n3 * x3, n4 * x4, n5 * x5, n6 * x6, n7 * x7))\n"
           "    x0, x1, x2, x3 = x0 - part * d0, x1 - part * d1, x2 - part * d2, x3 - part * d3\n"
           "    x4, x5, x6, x7 = x4 - part * d4, x5 - part * d5, x6 - part * d6, x7 - part * d7\n"
           "    if len(free) == 2:\n"
           "        part = fsum((h0 * x0, h1 * x1, h2 * x2, h3 * x3, h4 * x4, h5 * x5, h6 * x6, h7 * x7))\n"
           "        x0, x1, x2, x3 = x0 - part * f0, x1 - part * f1, x2 - part * f2, x3 - part * f3\n"
           "        x4, x5, x6, x7 = x4 - part * f4, x5 - part * f5, x6 - part * f6, x7 - part * f7\n", ""),
    Mutant("sdp._nt_direction removal along D c drops its a12 + a44 + a55 entry", SDP,
           "x3 - part * d3", "x3"),
    Mutant("sdp._nt_direction removal along D c2 drops its q entry", SDP, "x1 - part * f1", "x1"),
    Mutant("sdp.solve leaves S off its affine set (no re-projection)", SDP,
           "        for (_, dc, unit), start in zip(free, starts):\n"
           "            part = fsum(map(mul, dc, s)) - start\n"
           "            s = [a - part * u for a, u in zip(s, unit)]\n", ""),
    Mutant("sdp._program re-projection targets read as 0", SDP,
           "starts = tuple(fsum(map(mul, dc, s0)) for _, dc, _ in triples)", "starts = tuple(0.0 for _ in triples)"),
    Mutant("sdp._program S0 from the mixed point, not the PPT program's x0", SDP,
           "s0 = tuple((forms @ x0).tolist())", "s0 = tuple((forms @ mixed).tolist())"),
    Mutant("sdp._program nu without the PPT program's copies", SDP,
           "float(weights @ _IDENTITY)", "float(_FORM_WEIGHTS @ _IDENTITY)"),
    Mutant("sdp._program e.e -> the sum of e", SDP, "float(e @ e)", "float(e.sum())"),
    Mutant("sdp._cone_min without its NaN return", SDP,
           "    if any(map(math.isnan, v)):\n        return math.nan\n", ""),
    Mutant("sdp._program triples' D c / |D c|^2 with the norm unsquared", SDP,
           "along / (along * along).sum(axis=1)[:, None]", "along / np.sqrt((along * along).sum(axis=1))[:, None]"),
    Mutant("sdp._FREE c2 with its scalars' signs swapped", SDP,
           "[0.0, 1.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0]", "[0.0, 1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0]"),
    Mutant("sdp PPT program without c2, the identity its one free direction", SDP,
           "2.0 * _FORM_WEIGHTS, _FREE\n", "2.0 * _FORM_WEIGHTS, _FREE[:1]\n"),
    Mutant("sdp._LEFT a44 = (s3 - s4) / 4 + q / 2 -> q, right on the PPT slice only", SDP,
           "[0, 0.5, 0, 0.25, -0.25, 0, 0, 0],  # a44", "[0, 1, 0, 0, 0, 0, 0, 0],  # a44"),
    Mutant("sdp._step_bound b = tr(adj(v) dv) with q dq counted once", SDP,
           "r * dp - 2.0 * (q * dq) + p * dr", "r * dp - q * dq + p * dr"),
    Mutant("sdp._scalar_bounds -2 dv / v -> -dv / v", SDP,
           "return [-2.0 * d / s for s, d in zip(v, dv)]", "return [-d / s for s, d in zip(v, dv)]"),
    Mutant("sdp.solve steps past a NaN bound", SDP, "if any(map(math.isnan, bounds)):", "if False:"),
    Mutant("sdp PPT copy weight 2 -> 1", SDP,
           "axis=0), 2.0 * _FORM_WEIGHTS,", "axis=0), 1.0 * _FORM_WEIGHTS,"),
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
           "return 2.0 * self.nu * 1e-10", "return self.nu * 1e-10"),
    Mutant("sdp.SdpProblem.tol_floor 2 nu 1e-10 -> 2 nu 1e-11, ten times closer to where double solves stall", SDP,
           "return 2.0 * self.nu * 1e-10", "return 2.0 * self.nu * 1e-11"),
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
           "med = _median(np.delete(jumps, peak))", "med = float(np.median(np.delete(jumps, peak)))"),
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
    Mutant("cli tol floor: verify checked against the plain program only", CLI,
           "        solved = [False, True]\n", "        solved = [False]\n"),
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
