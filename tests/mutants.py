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
two and a half minutes on two cores.  CI runs it after Tier-1 on one
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
    Mutant("sdp._nt_scaling off-diagonal 2ab -> ab", SDP, "(a * a, 2.0 * ab, bb,", "(a * a, ab, bb,"),
    Mutant("sdp._nt_scaling middle entry ac + b^2 -> ac", SDP, "a * c + bb, bc", "a * c, bc"),
    Mutant("sdp._nt_scaling without its det M guard", SDP, "if not det_m > 0.0:", "if False:"),
    Mutant("sdp.solve scalar scaling z / s -> s / z", SDP,
           "ratios = [b / a for a, b in zip(ss, zs)]", "ratios = [a / b for a, b in zip(ss, zs)]"),
    Mutant("sdp.solve scalar target tau / s - z -> tau / z - s", SDP,
           "*[tau / a - b for a, b in zip(ss, zs)]", "*[tau / b - a for a, b in zip(ss, zs)]"),
    Mutant("sdp._step_bound b = tr(adj(v) dv) with q dq counted once", SDP,
           "r * dp - 2.0 * (q * dq) + p * dr", "r * dp - q * dq + p * dr"),
    Mutant("sdp._scalar_bounds -2 dv / v -> -dv / v", SDP,
           "return [-2.0 * d / s for s, d in zip(v, dv)]", "return [-d / s for s, d in zip(v, dv)]"),
    Mutant("sdp.solve steps past a NaN bound", SDP, "if any(map(math.isnan, bounds)):", "if False:"),
    Mutant("sdp.solve without the dual projection", SDP,
           "np.dot(project, dual).tolist()", "dual"),
    Mutant("sdp PPT copy weight 2 -> 1", SDP,
           "        weights = 2.0 * _FORM_WEIGHTS\n", "        weights = 1.0 * _FORM_WEIGHTS\n"),
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
    Mutant("sdp null-basis reflection without its + e_1", SDP,
           "h = e / np.sqrt(e @ e) + np.eye(len(e))[0]", "h = e / np.sqrt(e @ e)"),
    Mutant("sdp null-basis reflection I - h h^T / h_0 -> I - h h^T / (h.h)", SDP,
           "np.outer(h, h) / h[0]", "np.outer(h, h) / (h @ h)"),
    Mutant("sdp start s s^T / 36 -> e / (e.e) = e / 54 on the raw coordinates", SDP,
           "mixed = e / basis.sum(axis=0) / 36.0", "mixed = e / (e @ e)"),
    Mutant("sdp plain start back at 0.9 e_22 + 0.1 s s^T / 36", SDP,
           "0.1 * mixed if with_ppt else mixed", "0.1 * mixed"),
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
