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

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --regen``.
It rewrites only the files whose run no longer matches them, so a file
that still passes keeps its committed bytes, and it prints every value
that moved; list those in CHANGES.md.
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


def records(name: str, text: str) -> list[dict]:
    """The records of a CSV or JSON output."""
    return list(csv.DictReader(io.StringIO(text))) if name.endswith(".csv") else json.loads(text)["records"]


def moved_values(name: str, got: str, want: str) -> list[str]:
    """Each value of the output got of run name that moved from its golden text want by more than
    the rules above allow, or what changed shape; empty when they match."""
    if not name.endswith((".csv", ".json")):
        lines, ref_lines = got.splitlines(), want.splitlines()
        if len(lines) != len(ref_lines):
            return [f"{len(ref_lines)} lines -> {len(lines)} lines"]
        moved = []
        for line, ref_line in zip(lines, ref_lines):
            try:
                compare_verify_line(line, ref_line)
            except AssertionError:
                moved.append(f"{ref_line} -> {line}")
        return moved
    moved = []
    if name.endswith(".json") and json.loads(got)["metadata"] != json.loads(want)["metadata"]:
        moved.append(f"metadata {json.loads(want)['metadata']} -> {json.loads(got)['metadata']}")
    rows, refs = records(name, got), records(name, want)
    if [list(row) for row in rows] != [list(ref) for ref in refs]:
        return [*moved, f"{len(refs)} records -> {len(rows)} records, or their fields changed"]
    return moved + [f"row {i} {field}: {ref[field]} -> {row[field]}" for i, (row, ref) in enumerate(zip(rows, refs))
                    for field in ref if not same_field(field, row[field], ref[field])]


def stderr_file(name: str) -> Path:
    """The golden stderr of run name; when there is none, the run must print nothing there."""
    return GOLDEN / f"{Path(name).stem}.stderr"


def check(name: str) -> None:
    code, out, err = run(RUNS[name])
    assert code == 0
    moved = moved_values(name, out, (GOLDEN / name).read_text(encoding="utf-8"))
    assert not moved, moved
    stderr = stderr_file(name)
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


def test_regen_keeps_matching_files_and_rewrites_moved_ones(monkeypatch, tmp_path, capsys):
    """A golden file its run still matches keeps its bytes, even bytes a rewrite would change; a file
    with a moved value is rewritten from the run, and regen prints that value."""
    params, protocol = ((GOLDEN / name).read_text(encoding="utf-8") for name in ("params.csv", "protocol_max.json"))
    kept = params.replace("0.014430750636460153,", "1.4430750636460153e-02,")
    moved = protocol.replace('"probability": 0.125', '"probability": 0.126', 1)
    assert kept != params and moved != protocol
    (tmp_path / "params.csv").write_text(kept, encoding="utf-8")
    (tmp_path / "protocol_max.json").write_text(moved, encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    regen(["params.csv", "protocol_max.json"])
    assert (tmp_path / "params.csv").read_text(encoding="utf-8") == kept
    assert (tmp_path / "protocol_max.json").read_text(encoding="utf-8") == run(RUNS["protocol_max.json"])[1]
    assert capsys.readouterr().out == "protocol_max.json: row 0 probability: 0.126 -> 0.125\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["params.csv", "protocol_max.json"]


def regen(names=tuple(RUNS)) -> None:
    """Rewrite the golden files of each named run that no longer matches them, printing what moved.

    A file whose run still matches keeps its committed bytes, so a regen of
    an unchanged program rewrites nothing.
    """
    os.environ.pop("CLONER_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out, err = run(RUNS[name])
        if code != 0:
            raise SystemExit(f"{name}: entclone {' '.join(RUNS[name])} exited {code}")
        golden, stderr = GOLDEN / name, stderr_file(name)
        moved = moved_values(name, out, golden.read_text(encoding="utf-8")) if golden.exists() else ["new file"]
        old_err = stderr.read_text(encoding="utf-8") if stderr.exists() else ""
        if err != old_err:
            moved.append(f"stderr {old_err!r} -> {err!r}")
        if not moved:
            continue
        for line in moved:
            print(f"{name}: {line}")
        golden.write_text(out, encoding="utf-8")
        if err:
            stderr.write_text(err, encoding="utf-8")
        else:
            stderr.unlink(missing_ok=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: python tests/test_golden.py --regen")
    regen()
