"""Command-line interface: sweeps, family parameters, verification, protocol runs.

Commands write machine-readable CSV or JSON to stdout or a file; any
human-oriented notes (such as the curvature-jump report of a PPT sweep)
go to stderr so the data stream stays clean.  Outputs are byte-identical
across runs with identical flags and seed.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from entclone import __version__
from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
    schmidt_state,
)
from entclone.protocol import (
    branch_scores,
    run_protocol_exact,
    run_protocol_sampled,
    weighted_fidelity,
)
from entclone.sdp import (
    ConvergenceError,
    ThresholdDetectionError,
    build_problem,
    detect_threshold,
    solve,
)
from entclone.verify import format_report, run_all

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-7
_SWEEP_MODES = ("global", "bh", "locc", "sdp", "sdp-ppt")
_MODE_FIELDS = {
    "global": "f_global",
    "bh": "f_bh",
    "locc": "f_locc",
    "sdp": "f_sdp",
    "sdp-ppt": "f_sdp_ppt",
}


def _parse_alpha(text: str) -> float:
    """Decimal Schmidt weight; the token "max" maps to the exact endpoint."""
    if text.strip().lower() == "max":
        return ALPHA_MAX
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid alpha value: {text!r}") from exc


def _parse_tol(text: str) -> float:
    """Solver tolerance: a finite, positive float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {text!r}")
    return tol


def _resolve_seed(value: int | None) -> int:
    """The --seed value, else CLONER_SEED, else DEFAULT_SEED; a seed must be a non-negative integer."""
    if value is None:
        env = os.environ.get("CLONER_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"CLONER_SEED must be an integer, got {env!r}") from exc
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return value


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(records: list[dict], columns: Sequence[str], fmt: str, metadata: dict) -> str:
    if fmt == "json":
        return json.dumps({"metadata": metadata, "records": records}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_fmt_value(rec.get(col)) for col in columns])
    return buf.getvalue()


def _write(text: str, out_path: str | None) -> int:
    """Write text to stdout or out_path; returns the exit code, 2 if the file cannot be written."""
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _metadata(seed: int, tol: float) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "tol": tol,
        "sign_convention": "t12",
    }


def _check_range(alpha_min: float, alpha_max: float, steps: int) -> str | None:
    slack = 1e-12
    if not (-slack <= alpha_min <= alpha_max <= ALPHA_MAX + slack):
        return (
            f"alpha range must satisfy 0 <= min <= max <= {ALPHA_MAX:.6f}, "
            f"got [{alpha_min}, {alpha_max}]"
        )
    if steps < 1:
        return f"steps must be at least 1, got {steps}"
    return None


def _grid(args: argparse.Namespace) -> np.ndarray:
    """The alpha grid, its endpoints clamped to [0, ALPHA_MAX] so that no row prints an alpha in _check_range's slack."""
    return np.linspace(max(args.alpha_min, 0.0), min(args.alpha_max, ALPHA_MAX), args.steps)


def cmd_sweep(args: argparse.Namespace) -> int:
    problem = _check_range(args.alpha_min, args.alpha_max, args.steps)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    modes = []
    for raw in args.modes.split(","):
        mode = raw.strip()
        if mode not in _SWEEP_MODES:
            print(
                f"error: unknown mode {mode!r}; choose from {','.join(_SWEEP_MODES)}",
                file=sys.stderr,
            )
            return 2
        if mode not in modes:
            modes.append(mode)
    modes.sort(key=_SWEEP_MODES.index)

    columns = ["alpha"] + [_MODE_FIELDS[m] for m in modes] + ["error"]
    analytic = {"global": fidelity_global, "bh": fidelity_bh, "locc": fidelity_locc}
    needs_solver = [m for m in modes if m in ("sdp", "sdp-ppt")]

    records: list[dict] = []
    failure: str | None = None
    for alpha in _grid(args):
        rec: dict = {"alpha": float(alpha)}
        for mode in modes:
            if mode in analytic:
                rec[_MODE_FIELDS[mode]] = analytic[mode](float(alpha))
        try:
            for mode in needs_solver:
                sol = solve(build_problem(float(alpha), with_ppt=(mode == "sdp-ppt")), tol=args.tol)
                rec[_MODE_FIELDS[mode]] = sol.f_star
        except (ConvergenceError, ValueError) as exc:
            rec["error"] = f"solver failure: {exc}"
            failure = str(exc)
        records.append(rec)
        if failure:
            break

    status = _write(_render(records, columns, args.format, _metadata(args.seed, args.tol)), args.out)
    if status:
        return status
    if failure:
        print(f"error: sweep aborted: {failure}", file=sys.stderr)
        return 3
    if "sdp-ppt" in modes:
        pairs = [(rec["alpha"], rec["f_sdp_ppt"]) for rec in records]
        try:
            kink = detect_threshold(pairs)
            print(f"kink detected at alpha={kink:.4f}", file=sys.stderr)
        except ThresholdDetectionError:
            print("no kink detected", file=sys.stderr)
        except ValueError as exc:
            print(f"kink detection skipped: {exc}", file=sys.stderr)
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    problem = _check_range(args.alpha_min, args.alpha_max, args.steps)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    labels = (("a11", 0, 0), ("a12", 0, 1), ("a21", 1, 0), ("a22", 1, 1), ("a44", 3, 3))
    records = []
    for alpha in _grid(args):
        a = params_for(CloneFamily.LOCC_OPTIMAL, float(alpha))
        rec: dict = {"alpha": float(alpha)}
        for name, i, j in labels:
            if abs(a[i, j]) > 0.0:
                rec[name] = float(a[i, j])
        records.append(rec)
    columns = ["alpha"] + [name for name, _, _ in labels]
    return _write(_render(records, columns, args.format, _metadata(args.seed, DEFAULT_TOL)), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(tol=args.tol, seed=args.seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_protocol(args: argparse.Namespace) -> int:
    if args.trials < 0:
        print(f"error: trials must be nonnegative, got {args.trials}", file=sys.stderr)
        return 2
    try:
        transcripts = run_protocol_exact(args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scores = branch_scores(transcripts, schmidt_state(args.alpha))
    records: list[dict] = [
        {
            "kind": "branch",
            "alice_outcome": tr.alice_outcome,
            "classical_bit": tr.classical_bit,
            "bob_outcome": tr.bob_outcome,
            "probability": tr.joint_probability,
            "branch_fidelity": float(score),
        }
        for tr, score in zip(transcripts, scores)
    ]
    records.append({"kind": "exact", "fidelity": weighted_fidelity(transcripts, scores)})
    if args.trials >= 1:
        estimate, stderr = run_protocol_sampled(args.alpha, trials=args.trials, seed=args.seed)
        records.append({"kind": "sampled", "fidelity": estimate, "stderr": stderr})
    columns = [
        "kind",
        "alice_outcome",
        "classical_bit",
        "bob_outcome",
        "probability",
        "branch_fidelity",
        "fidelity",
        "stderr",
    ]
    return _write(_render(records, columns, args.format, _metadata(args.seed, DEFAULT_TOL)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entclone",
        description="Optimal cloning of entangled qubit pairs: sweeps, parameters, "
        "verification, and the one-bit protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate fidelity curves over a Schmidt-weight grid")
    sweep.add_argument("--alpha-min", type=_parse_alpha, default="0")
    sweep.add_argument("--alpha-max", type=_parse_alpha, default="max")
    sweep.add_argument("--steps", type=int, default=50)
    sweep.add_argument(
        "--modes",
        default="global,bh,locc",
        help=f"comma-separated subset of {{{','.join(_SWEEP_MODES)}}}",
    )
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.set_defaults(func=cmd_sweep)

    params = sub.add_parser("params", help="tabulate the optimal one-bit family parameters")
    params.add_argument("--alpha-min", type=_parse_alpha, default="0")
    params.add_argument("--alpha-max", type=_parse_alpha, default="max")
    params.add_argument("--steps", type=int, default=50)
    params.add_argument("--format", choices=("csv", "json"), default="csv")
    params.add_argument("--out", default=None)
    params.add_argument("--seed", type=int, default=None)
    params.set_defaults(func=cmd_params)

    verify = sub.add_parser("verify", help="run the acceptance criteria and report pass/fail")
    verify.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    verify.add_argument("--seed", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    protocol = sub.add_parser("protocol", help="run the one-bit protocol exactly and sampled")
    protocol.add_argument("--alpha", type=_parse_alpha, default="max")
    protocol.add_argument("--trials", type=int, default=0)
    protocol.add_argument("--seed", type=int, default=None)
    protocol.add_argument("--format", choices=("csv", "json"), default="csv")
    protocol.add_argument("--out", default=None)
    protocol.set_defaults(func=cmd_protocol)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
