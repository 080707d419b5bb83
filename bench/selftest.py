"""The benchmark's own checks: ``python3 bench/run.py --self-test``.

1. Every workload, untraced and traced, run as the real command for one
   pass (``--seconds 0``), exits 0 and prints every metric that
   BENCHMARK.json names, with the unit it declares; every end-to-end
   value is a positive finite number.
2. A closed-form reference shifted by 1e-3 trips the correctness gate on
   every workload: two points, run in process, give ``failed_frac`` > 0.
3. In a directory holding only BENCHMARK.json and bench/, the command
   exits non-zero without printing a result.

Takes about four minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("kink_scan", "global_curve", "locc_protocol")
ONE_PASS = ["--seed", "5", "--seconds", "0"]
CORRUPT_POINTS = 2


def _run(args: list[str], cwd: Path, runner: Path = BENCH_DIR / "run.py") -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(runner), *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            case = f"{workload} --trace {trace}"
            code, out = _run(["--workload", workload, "--trace", str(trace), *ONE_PASS], ROOT)
            res = _result(out)
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{case}: exit {code}, result {res}")
                continue
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            if printed != declared:
                problems.append(f"{case}: metrics/units {sorted(printed.items())} != {sorted(declared.items())}")
            for name in (*run.PRINTED, *(m["name"] for m in spec["end_to_end"])):
                if f"  {name} " not in out:
                    problems.append(f"{case}: no human-readable line for {name}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{case}: {name} = {m['value']!r}")
                elif section == "end_to_end" and m["value"] <= 0:
                    problems.append(f"{case}: {name} = {m['value']!r} is not positive")
            print(f"ok  {case}", flush=True)

    run.pin_blas()
    run.import_package()
    import workloads
    from entclone import covariant

    t = covariant.build_t_operators()
    for workload in WORKLOADS:
        case = f"{workload} with a reference shifted by 1e-3"
        tally = workloads.Tally(ref_shift=1e-3)
        workloads.make(workload, 5, str(run.OUT_DIR)).run(t, tally, 0.0, max_points=CORRUPT_POINTS)
        if tally.attempted < 1 or tally.failed / tally.attempted <= 0:
            problems.append(f"{case}: failed {tally.failed}/{tally.attempted}")
        else:
            print(f"ok  {case}: failed_frac {tally.failed}/{tally.attempted}", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out = _run(["--workload", "locc_protocol", *ONE_PASS], bare, bare / "bench" / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or _result(out) is not None:
        problems.append(f"bare directory: exit {code}, stdout {out[-200:]!r}")
    else:
        print(f"ok  bare directory exits {code} without a result", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1
