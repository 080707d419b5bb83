"""Same-bits check: a SHA-256 of every solver output on fixed grids, and the list of what moved between two trees.

Run from the repository root, outside Tier-1 (pytest does not collect this
file, as its name has no test_ prefix):

    python tests/fingerprint.py               # one SHA-256 per (program, tol, grid), this tree
    python tests/fingerprint.py --against TREE

It solves both programs at tol 1e-7, 1e-5 and the program's floor
(SdpProblem.tol_floor) on three grids: verify's 50 alphas, the tolerance
tests' 88 (test_sdp.FLOOR_GRID) and the 36-point kink grid of
`entclone sweep --alpha-min 0.30 --alpha-max 0.37 --steps 36`.  For each
solve it records the iteration count, f*, U, the dual residual, both
minimum eigenvalues, the bytes of a_star and the final iterates s and z
(the cone's eight numbers each), or the error a failed solve raised.  The
bits depend on the numpy and BLAS build, so no hash is kept in the
repository: the check compares two trees on one machine.

--against TREE solves this tree and TREE (a checkout with its own src/),
each in a fresh interpreter with one BLAS thread.  It prints this tree's
hashes, each followed by TREE's where the two differ, then every value
that moved from TREE to this tree with its |delta|, every iteration count
or outcome that moved, and, per program and field, how many values moved
and the largest |delta|.  It exits 1 if anything moved.
The grids are built here, with numpy and the tree's own ALPHA_MAX and
alpha_critical, so each tree solves the alphas it would itself produce.
It uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLS = ("1e-07", "1e-05", "floor")
FLOATS = ("f_star", "upper_bound", "dual_residual", "min_eigenvalue", "min_dual_eigenvalue")
ITERATES = ("s", "z")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def grids() -> dict[str, list[float]]:
    """The three grids, from the imported tree's ALPHA_MAX and alpha_critical."""
    from entclone.analytic import ALPHA_MAX, alpha_critical

    return {
        "verify-50": np.linspace(0.0, ALPHA_MAX, 50).tolist(),
        "floor-88": [*np.linspace(0.0, ALPHA_MAX, 51).tolist(), alpha_critical(),
                     *np.arange(0.30, 0.37 + 1e-12, 0.002).tolist()],
        "kink-36": np.linspace(0.30, 0.37, 36).tolist(),
    }


def record(alpha: float, with_ppt: bool, tol: float) -> dict:
    """One solve as exact text: floats by float.hex, a_star by its bytes, s and z by float.hex per entry, or the
    error it raised."""
    from entclone.sdp import ConvergenceError, build_problem, solve

    out = {"alpha": alpha.hex()}
    try:
        sol = solve(build_problem(alpha, with_ppt=with_ppt), tol=tol)
    except (ConvergenceError, ValueError) as err:
        return {**out, "error": f"{type(err).__name__}: {err}"}
    out["iterations"] = sol.iterations
    out.update((name, float(getattr(sol, name)).hex()) for name in FLOATS)
    out["a_star"] = np.ascontiguousarray(sol.a_star, dtype=np.float64).tobytes().hex()
    out.update((name, [float(v).hex() for v in getattr(sol, name)]) for name in ITERATES)
    return out


def fingerprint(grid_set: dict[str, list[float]] | None = None) -> dict[str, dict]:
    """Every solve, keyed "program tol=... grid", each with its tol's bits and its records."""
    from entclone.sdp import build_problem

    groups, grid_set = {}, grid_set or grids()
    for program, with_ppt in (("plain", False), ("ppt", True)):
        floor = build_problem(0.0, with_ppt=with_ppt).tol_floor
        for label in TOLS:
            tol = floor if label == "floor" else float(label)
            for name, alphas in grid_set.items():
                groups[f"{program} tol={label} {name}"] = {
                    "tol": tol.hex(), "points": [record(float(a), with_ppt, tol) for a in alphas]}
    return groups


def digest(group: dict) -> str:
    return hashlib.sha256(json.dumps(group, sort_keys=True).encode()).hexdigest()


def _delta(ours: str, theirs: str) -> float:
    return abs(float.fromhex(ours) - float.fromhex(theirs))


def _diff(ours: dict[str, dict], theirs: dict[str, dict]) -> tuple[list[tuple[str, str, float, str]], list[str]]:
    """(each moved value as (program, field, |delta|, line), each moved count or outcome as a line), theirs to ours."""
    values, counts = [], []
    for key in sorted(ours.keys() | theirs.keys()):
        if key not in ours or key not in theirs:
            counts.append(f"{key}: only in {'this tree' if key in ours else 'the other tree'}")
            continue
        mine, other, program = ours[key], theirs[key], key.split()[0]
        if mine["tol"] != other["tol"]:
            delta = _delta(mine["tol"], other["tol"])
            values.append((program, "tol", delta, f"{key}: tol |delta| = {delta:.3g}"))
        if len(mine["points"]) != len(other["points"]):
            counts.append(f"{key}: {len(other['points'])} -> {len(mine['points'])} points")
        for a, b in zip(mine["points"], other["points"]):
            at = f"{key} alpha={float.fromhex(a['alpha']):.6f}"
            if a["alpha"] != b["alpha"]:
                delta = _delta(a["alpha"], b["alpha"])
                values.append((program, "alpha", delta, f"{at}: alpha |delta| = {delta:.3g}"))
            if "error" in a or "error" in b:
                if a.get("error") != b.get("error"):
                    counts.append(f"{at}: outcome {b.get('error', 'solved')!r} -> {a.get('error', 'solved')!r}")
                continue
            if a["iterations"] != b["iterations"]:
                counts.append(f"{at}: iterations {b['iterations']} -> {a['iterations']}")
            for name in FLOATS:
                if a[name] != b[name]:
                    delta = _delta(a[name], b[name])
                    values.append((program, name, delta, f"{at}: {name} |delta| = {delta:.3g}"))
            if a["a_star"] != b["a_star"]:
                mine_a, other_a = (np.frombuffer(bytes.fromhex(x["a_star"]), dtype=np.float64) for x in (a, b))
                changed = mine_a.view(np.uint64) != other_a.view(np.uint64)
                delta = float(np.abs(mine_a - other_a).max())
                values.append((program, "a_star", delta,
                               f"{at}: a_star {int(changed.sum())} entries, max |delta| = {delta:.3g}"))
            for name in ITERATES:
                if a[name] != b[name]:
                    moved = [_delta(x, y) for x, y in zip(a[name], b[name]) if x != y]
                    delta = max(moved, default=0.0)
                    values.append((program, name, delta,
                                   f"{at}: {name} {len(moved)} entries, max |delta| = {delta:.3g}"))
    return values, counts


def moves(ours: dict[str, dict], theirs: dict[str, dict]) -> tuple[list[str], list[str]]:
    """(moved values with their |delta|, moved counts and outcomes) from theirs to ours, one line each."""
    values, counts = _diff(ours, theirs)
    return [line for *_, line in values], counts


def summary(ours: dict[str, dict], theirs: dict[str, dict]) -> list[str]:
    """Per program and field, how many of this tree's solves moved that value from theirs and the largest |delta|."""
    values, _ = _diff(ours, theirs)
    lines = []
    for program in dict.fromkeys(key.split()[0] for key in ours):
        solves = sum("error" not in point for key, group in ours.items() if key.split()[0] == program
                     for point in group["points"])
        moved = (name for prog, name, _, _ in values if prog == program)
        for field in dict.fromkeys([*FLOATS, "a_star", *ITERATES, *moved]):
            deltas = [delta for prog, name, delta, _ in values if (prog, name) == (program, field)]
            lines.append(f"{program} {field}: {len(deltas)} of {solves} moved, "
                         f"max |delta| = {max(deltas, default=0.0):.3g}")
    return lines


def _tree_fingerprint(tree: Path) -> dict[str, dict]:
    """The fingerprint of tree, solved in a fresh interpreter that imports entclone from tree/src alone."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(BLAS_THREADS, "1")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--records", str(tree)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"fingerprint of {tree} failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _print_hashes(groups: dict[str, dict], others: dict[str, dict] | None = None) -> None:
    """One line per group of groups; with others, each hash of theirs that differs on the line after."""
    for key, group in groups.items():
        ours = digest(group)
        print(f"{ours}  {key} ({len(group['points'])} solves)")
        if others is not None:
            theirs = digest(others[key]) if key in others else "missing"
            if theirs != ours:
                print(f"{theirs:>64}  the other tree's")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another checkout to compare this tree with")
    parser.add_argument("--records", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.records is not None:
        import entclone

        if not Path(entclone.__file__).resolve().is_relative_to(args.records.resolve()):
            raise SystemExit(f"imported entclone from {entclone.__file__}, not from {args.records}")
        json.dump(fingerprint(), sys.stdout)
        return 0
    if args.against is None:
        sys.path.insert(0, str(ROOT / "src"))
        _print_hashes(fingerprint())
        return 0
    ours, theirs = _tree_fingerprint(ROOT), _tree_fingerprint(args.against.resolve())
    _print_hashes(ours, theirs)
    values, counts = moves(ours, theirs)
    for line in values + counts + summary(ours, theirs):
        print(line)
    print(f"{len(values)} values and {len(counts)} counts or outcomes moved")
    return 1 if values or counts else 0


if __name__ == "__main__":
    sys.exit(main())
