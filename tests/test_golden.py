"""Golden outputs: six CLI runs regenerated in process and checked against tests/golden/.

Each run goes through cli.main.  Its stdout is compared with the golden
file, and its stderr with the file of the same stem ending in .stderr,
or with nothing when there is none.  The comparison reads parsed
values, not bytes, because CI runs two numpy builds (Python 3.10 and
3.12) whose last bits may differ:

- closed forms (alpha, f_global, f_bh, f_locc) and the params fields
  agree to 1 ulp;
- solver, protocol and sampled floats agree to 1e-13 absolute;
- verify's verdicts and text agree exactly.  Each value printed before
  a "(tol X)", "(cap X)", "(floor X)" or "(need X)" is checked against
  that bound, and every other number agrees to 1e-13 absolute.

Rewrite the files with ``PYTHONPATH=src python tests/test_golden.py --regen``.
A rewrite moves committed values, so list every moved value in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from entclone import cli

GOLDEN = Path(__file__).with_name("golden")
RUNS = {
    "sweep.csv": ["sweep", "--steps", "50", "--modes", "global,bh,locc,sdp,sdp-ppt"],
    "sweep_kink.csv": ["sweep", "--alpha-min", "0.30", "--alpha-max", "0.37", "--steps", "36", "--modes", "sdp-ppt"],
    "params.csv": ["params"],
    "protocol_alpha0.2.csv": ["protocol", "--alpha", "0.2", "--trials", "1234567", "--seed", "9"],
    "protocol_max.json": ["protocol", "--alpha", "max", "--trials", "100000", "--format", "json"],
    "verify.txt": ["verify"],
}
ULP_FIELDS = {"alpha", "f_global", "f_bh", "f_locc", "a11", "a12", "a21", "a22", "a44"}
ABS_FIELDS = {"f_sdp", "f_sdp_ppt", "probability", "branch_fidelity", "fidelity", "stderr"}
ABS_TOL = 1e-13

_NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
# A measured value, a count "n/N" included, followed by its printed bound.
_BOUNDED = re.compile(rf"({_NUMBER})(/\d+)? \((tol|cap|floor|need) ({_NUMBER})\)")
_FREE = re.compile(rf"(?<![\w.]){_NUMBER}(?![\w.])")


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def same_field(field: str, got, want) -> bool:
    if field in ULP_FIELDS and want != "":
        return abs(float(got) - float(want)) <= np.spacing(abs(float(want)))
    if field in ABS_FIELDS and want != "":
        return abs(float(got) - float(want)) <= ABS_TOL
    return got == want


def compare_records(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert list(row) == list(ref)
        for field, value in ref.items():
            assert same_field(field, row[field], value), (field, row[field], value)


def compare_verify_line(got: str, want: str) -> None:
    bounded, ref_bounded = _BOUNDED.findall(got), _BOUNDED.findall(want)
    assert [b[1:] for b in bounded] == [b[1:] for b in ref_bounded], (got, want)
    for value, _, kind, bound in bounded:
        ok = float(value) <= float(bound) if kind in ("tol", "cap") else float(value) >= float(bound)
        assert ok, (got, value, kind, bound)
    got, want = (_BOUNDED.sub(r"#\2 (\3 \4)", line) for line in (got, want))
    free, ref_free = _FREE.findall(got), _FREE.findall(want)
    assert len(free) == len(ref_free), (got, want)
    assert all(abs(float(g) - float(w)) <= ABS_TOL for g, w in zip(free, ref_free)), (got, want)
    assert _FREE.sub("#", got) == _FREE.sub("#", want)


def compare(name: str, got: str, want: str) -> None:
    """Raise AssertionError unless the output got of run name matches its golden text want."""
    if name.endswith(".csv"):
        compare_records(list(csv.DictReader(io.StringIO(got))), list(csv.DictReader(io.StringIO(want))))
    elif name.endswith(".json"):
        payload, ref = json.loads(got), json.loads(want)
        assert payload["metadata"] == ref["metadata"]
        compare_records(payload["records"], ref["records"])
    else:
        lines, ref_lines = got.splitlines(), want.splitlines()
        assert len(lines) == len(ref_lines)
        for line, ref_line in zip(lines, ref_lines):
            compare_verify_line(line, ref_line)


def check(name: str) -> None:
    code, out, err = run(RUNS[name])
    assert code == 0
    compare(name, out, (GOLDEN / name).read_text(encoding="utf-8"))
    stderr = GOLDEN / f"{Path(name).stem}.stderr"
    assert err == (stderr.read_text(encoding="utf-8") if stderr.exists() else "")


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(monkeypatch, name):
    monkeypatch.delenv("CLONER_SEED", raising=False)
    check(name)


@pytest.mark.parametrize("shift, passes", [("ulp", True), (1e-12, False)])
def test_golden_check_passes_one_ulp_and_catches_1e_12(monkeypatch, shift, passes):
    """Moving build_problem's objective by one ulp keeps the sweep golden; moving it by 1e-12 does not."""
    build = cli.build_problem

    def shifted(*args, **kwargs):
        problem = build(*args, **kwargs)
        moved = np.nextafter(problem.objective, np.inf) if shift == "ulp" else problem.objective + shift
        return dataclasses.replace(problem, objective=moved)

    monkeypatch.delenv("CLONER_SEED", raising=False)
    monkeypatch.setattr(cli, "build_problem", shifted)
    if passes:
        check("sweep.csv")
    else:
        with pytest.raises(AssertionError):
            check("sweep.csv")


def regen() -> None:
    """Rewrite every golden file from the current code."""
    os.environ.pop("CLONER_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS.items():
        code, out, err = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: entclone {' '.join(argv)} exited {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
        stderr = GOLDEN / f"{Path(name).stem}.stderr"
        if err:
            stderr.write_text(err, encoding="utf-8")
        else:
            stderr.unlink(missing_ok=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: python tests/test_golden.py --regen")
    regen()
