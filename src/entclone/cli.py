"""Command-line interface: sweeps, family parameters, verification, protocol runs.

Commands write machine-readable CSV or JSON to stdout or a file; any
human-oriented notes (such as the curvature-jump report of a PPT sweep)
go to stderr so the data stream stays clean.  Outputs are byte-identical
across runs with identical arguments.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from entclone import __version__
from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    check_alpha,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
)
from entclone.protocol import run_protocol_exact, run_protocol_sampled
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


# Every sweep mode in its canonical column order: its output column and
# its value at (alpha, tol), a closed form or the optimum over one cone.
_SWEEP_MODES = {
    "global": ("f_global", lambda alpha, tol: fidelity_global(alpha)),
    "bh": ("f_bh", lambda alpha, tol: fidelity_bh(alpha)),
    "locc": ("f_locc", lambda alpha, tol: fidelity_locc(alpha)),
    "sdp": ("f_sdp", lambda alpha, tol: solve(build_problem(alpha), tol=tol).f_star),
    "sdp-ppt": ("f_sdp_ppt", lambda alpha, tol: solve(build_problem(alpha, with_ppt=True), tol=tol).f_star),
}
# The program, as build_problem's with_ppt, that each solving mode solves.
_SOLVED = {"sdp": False, "sdp-ppt": True}


def _parse_alpha(text: str) -> float:
    """Schmidt weight, "max" for the exact endpoint, validated and clamped by analytic.check_alpha."""
    try:
        alpha = ALPHA_MAX if text.strip().lower() == "max" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid alpha value: {text!r}") from None
    try:
        return check_alpha(alpha)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_tol(text: str) -> float:
    """Solver tolerance: a finite, positive float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {text!r}")
    return tol


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _parse_modes(text: str) -> list[str]:
    """Comma-separated sweep modes, each once, in canonical order."""
    modes = [mode.strip() for mode in text.split(",")]
    for mode in modes:
        if mode not in _SWEEP_MODES:
            raise argparse.ArgumentTypeError(f"unknown mode {mode!r}; choose from {','.join(_SWEEP_MODES)}")
    return [mode for mode in _SWEEP_MODES if mode in modes]


def _check_tol_floor(args: argparse.Namespace) -> None:
    """Refuse a --tol below the solver's floor for the programs the command solves: verify solves both,
    a sweep those of its solving modes.  Raises ValueError."""
    if args.command == "verify":
        solved = [False, True]
    else:
        solved = [_SOLVED[mode] for mode in getattr(args, "modes", ()) if mode in _SOLVED]
    if not solved:
        return
    floor = max(build_problem(0.0, with_ppt=with_ppt).tol_floor for with_ppt in solved)
    if args.tol < floor:
        raise ValueError(f"tol must be at least the solver's floor {floor:.3g}, got {args.tol:g}")


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


def _metadata(args: argparse.Namespace) -> dict:
    """What produced the output: the version, the seed and tol when the command takes them, the sign convention."""
    used = {key: getattr(args, key) for key in ("seed", "tol") if key in args}
    return {"version": __version__, **used, "sign_convention": "t12"}


def cmd_sweep(args: argparse.Namespace) -> int:
    columns = ["alpha"] + [_SWEEP_MODES[mode][0] for mode in args.modes] + ["error"]
    records: list[dict] = []
    failure: str | None = None
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.steps):
        rec: dict = {"alpha": float(alpha)}
        try:
            for mode in args.modes:
                column, value = _SWEEP_MODES[mode]
                rec[column] = value(float(alpha), args.tol)
        except (ConvergenceError, ValueError) as exc:
            rec["error"] = f"solver failure: {exc}"
            failure = str(exc)
        records.append(rec)
        if failure:
            break

    status = _write(_render(records, columns, args.format, _metadata(args)), args.out)
    if status:
        return status
    if failure:
        print(f"error: sweep aborted: {failure}", file=sys.stderr)
        return 3
    if "sdp-ppt" in args.modes:
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
    labels = (("a11", 0, 0), ("a12", 0, 1), ("a21", 1, 0), ("a22", 1, 1), ("a44", 3, 3))
    records = []
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.steps):
        a = params_for(CloneFamily.LOCC_OPTIMAL, float(alpha))
        rec: dict = {"alpha": float(alpha)}
        for name, i, j in labels:
            if abs(a[i, j]) > 0.0:
                rec[name] = float(a[i, j])
        records.append(rec)
    columns = ["alpha"] + [name for name, _, _ in labels]
    return _write(_render(records, columns, args.format, _metadata(args)), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(tol=args.tol, seed=args.seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_protocol(args: argparse.Namespace) -> int:
    transcripts = run_protocol_exact(args.alpha)
    records: list[dict] = [
        {
            "kind": "branch",
            "alice_outcome": tr.alice_outcome,
            "classical_bit": tr.classical_bit,
            "bob_outcome": tr.bob_outcome,
            "probability": tr.joint_probability,
            "branch_fidelity": tr.fidelity,
        }
        for tr in transcripts
    ]
    exact = sum(tr.joint_probability * tr.fidelity for tr in transcripts)
    records.append({"kind": "exact", "fidelity": exact})
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
    return _write(_render(records, columns, args.format, _metadata(args)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entclone",
        description="Optimal cloning of entangled qubit pairs: sweeps, parameters, "
        "verification, and the one-bit protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options shared between subcommands, each declared once.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--alpha-min", type=_parse_alpha, default="0")
    grid.add_argument("--alpha-max", type=_parse_alpha, default="max")
    grid.add_argument("--steps", type=_int_at_least(1), default=50)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED)

    sweep = sub.add_parser(
        "sweep", parents=[grid, output, tol], help="tabulate fidelity curves over a Schmidt-weight grid"
    )
    sweep.add_argument(
        "--modes",
        type=_parse_modes,
        default="global,bh,locc",
        help=f"comma-separated subset of {{{','.join(_SWEEP_MODES)}}}",
    )
    sweep.set_defaults(func=cmd_sweep)

    params = sub.add_parser("params", parents=[grid, output], help="tabulate the optimal one-bit family parameters")
    params.set_defaults(func=cmd_params)

    verify = sub.add_parser("verify", parents=[tol, seed], help="run the acceptance criteria and report pass/fail")
    verify.set_defaults(func=cmd_verify)

    protocol = sub.add_parser("protocol", parents=[output, seed], help="run the one-bit protocol exactly and sampled")
    protocol.add_argument("--alpha", type=_parse_alpha, default="max")
    protocol.add_argument("--trials", type=_int_at_least(0), default=0)
    protocol.set_defaults(func=cmd_protocol)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "alpha_min" in args and args.alpha_min > args.alpha_max:
            raise ValueError(f"alpha range must satisfy min <= max, got [{args.alpha_min}, {args.alpha_max}]")
        _check_tol_floor(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
