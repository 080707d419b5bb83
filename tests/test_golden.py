"""Golden outputs: six CLI runs regenerated in process and checked against tests/golden/.

Each run goes through cli.main.  Its stdout is compared with the golden
file, and its stderr with the file of the same stem ending in .stderr,
or with nothing when there is none.  On the build the goldens are
written on (PINNED_BUILD: numpy 2.4.6 on CPython 3.11, OpenBLAS running
its SkylakeX kernels, and numpy's SIMD dispatch up to AVX512_SPR), the
comparison is byte for byte.  The solver runs in double throughout, so
np.longdouble is not part of the pin.  On every other build, whose last
bits may differ, it reads parsed values:

- closed forms (alpha, f_global, f_bh, f_locc) and the params fields
  agree to 1 ulp;
- solver, protocol and sampled floats agree to 1e-13 absolute;
- verify's verdicts and text agree exactly.  Each value printed before
  a "(tol X)", "(cap X)", "(floor X)" or "(need X)" is checked against
  that bound, and every other number agrees to 1e-13 absolute.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --regen``
on the pinned build.  It rewrites only the files whose run no longer
matches them, so on the pinned build any byte difference rewrites a
file, and it prints every value that moved; list those in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from entclone import cli

GOLDEN = Path(__file__).with_name("golden")


def openblas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS chose for this CPU at load time, or None where it cannot be read."""
    try:
        lib = next(Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("libscipy_openblas64_*"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


# The build the goldens are written on, on which they must match to the byte.  The
# BLAS kernel and numpy's SIMD targets can each move the last bits of a matmul or sum.
PINNED_BUILD = (
    np.__version__ == "2.4.6"
    and platform.python_implementation() == "CPython"
    and sys.version_info[:2] == (3, 11)
    and openblas_core() == "SkylakeX"
    and np.show_config(mode="dicts")["SIMD Extensions"]["found"] == ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]
)
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


def same_field(field: str, got, want, exact: bool) -> bool:
    if exact:
        return got == want
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


def moved_values(name: str, got: str, want: str, exact: bool = PINNED_BUILD) -> list[str]:
    """Each value of the output got of run name that moved from its golden text want by more than
    the rules above allow (any change when exact), or what changed shape; empty when they match."""
    moved = _moved_values(name, got, want, exact)
    return ["bytes differ"] if exact and got != want and not moved else moved


def _moved_values(name: str, got: str, want: str, exact: bool) -> list[str]:
    if not name.endswith((".csv", ".json")):
        lines, ref_lines = got.splitlines(), want.splitlines()
        if len(lines) != len(ref_lines):
            return [f"{len(ref_lines)} lines -> {len(lines)} lines"]
        moved = []
        for line, ref_line in zip(lines, ref_lines):
            try:
                assert not exact or line == ref_line
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
                    for field in ref if not same_field(field, row[field], ref[field], exact)]


def stderr_file(name: str) -> Path:
    """The golden stderr of run name; when there is none, the run must print nothing there."""
    return GOLDEN / f"{Path(name).stem}.stderr"


def check(name: str, exact: bool = PINNED_BUILD) -> None:
    code, out, err = run(RUNS[name])
    assert code == 0
    moved = moved_values(name, out, (GOLDEN / name).read_text(encoding="utf-8"), exact)
    assert not moved, moved
    stderr = stderr_file(name)
    assert err == (stderr.read_text(encoding="utf-8") if stderr.exists() else "")


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(name):
    check(name)


@pytest.mark.parametrize("shift, passes", [("ulp", True), (1e-12, False)])
def test_golden_check_passes_one_ulp_and_catches_1e_12(monkeypatch, shift, passes):
    """Off the pinned build, moving build_problem's objective by one ulp keeps the sweep golden; moving it
    by 1e-12 does not."""
    build = cli.build_problem

    def shifted(*args, **kwargs):
        problem = build(*args, **kwargs)
        moved = np.nextafter(problem.objective, np.inf) if shift == "ulp" else problem.objective + shift
        return dataclasses.replace(problem, objective=moved)

    monkeypatch.setattr(cli, "build_problem", shifted)
    if passes:
        check("sweep.csv", exact=False)
    else:
        with pytest.raises(AssertionError):
            check("sweep.csv", exact=False)


def test_exact_comparison_catches_one_ulp_and_any_byte():
    """The pinned build's comparison reports a value moved by one ulp, a verify number moved in its last
    printed digit and a byte that changes no parsed value, each of which the parsed rules let pass."""
    sweep = (GOLDEN / "sweep.csv").read_text(encoding="utf-8")
    value = next(csv.DictReader(io.StringIO(sweep)))["f_sdp"]
    nudged = sweep.replace(value, repr(float(np.nextafter(float(value), np.inf))), 1)
    verify = (GOLDEN / "verify.txt").read_text(encoding="utf-8")
    digit = re.search(r"\d(?= \((tol|cap|floor|need) )", verify)
    last = verify[: digit.start()] + str((int(digit.group()) + 1) % 10) + verify[digit.end():]
    for name, got, want in (("sweep.csv", nudged, sweep), ("verify.txt", last, verify),
                            ("sweep.csv", sweep.replace("\n", "\r\n"), sweep)):
        assert got != want
        assert moved_values(name, got, want, exact=True)
    assert not moved_values("sweep.csv", nudged, sweep, exact=False)
    assert not moved_values("sweep.csv", sweep.replace("\n", "\r\n"), sweep, exact=False)


def _regen_a_kept_and_a_moved_file(monkeypatch, tmp_path, exact: bool) -> tuple[str, str]:
    """Regen on copies of params.csv with a byte change that keeps every value and of protocol_max.json
    with a moved value, on the pinned build or off it; returns params.csv's golden and changed text."""
    params, protocol = ((GOLDEN / name).read_text(encoding="utf-8") for name in ("params.csv", "protocol_max.json"))
    kept = params.replace("0.014430750636460153,", "1.4430750636460153e-02,")
    moved = protocol.replace('"probability": 0.125', '"probability": 0.126', 1)
    assert kept != params and moved != protocol
    (tmp_path / "params.csv").write_text(kept, encoding="utf-8")
    (tmp_path / "protocol_max.json").write_text(moved, encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "PINNED_BUILD", exact)
    regen(["params.csv", "protocol_max.json"])
    assert (tmp_path / "protocol_max.json").read_text(encoding="utf-8") == run(RUNS["protocol_max.json"])[1]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["params.csv", "protocol_max.json"]
    return params, kept


def test_regen_keeps_matching_files_and_rewrites_moved_ones(monkeypatch, tmp_path, capsys):
    """Off the pinned build, a golden file its run still matches keeps its bytes, even bytes a rewrite
    would change; a file with a moved value is rewritten from the run, and regen prints that value."""
    _, kept = _regen_a_kept_and_a_moved_file(monkeypatch, tmp_path, exact=False)
    assert (tmp_path / "params.csv").read_text(encoding="utf-8") == kept
    assert capsys.readouterr().out == "protocol_max.json: row 0 probability: 0.126 -> 0.125\n"


def test_regen_on_the_pinned_build_rewrites_any_byte_difference(monkeypatch, tmp_path, capsys):
    """On the pinned build, a byte change that keeps every parsed value rewrites the file too, and regen
    prints the changed text."""
    params, _ = _regen_a_kept_and_a_moved_file(monkeypatch, tmp_path, exact=True)
    assert (tmp_path / "params.csv").read_text(encoding="utf-8") == params
    assert capsys.readouterr().out == (
        "params.csv: row 1 alpha: 1.4430750636460153e-02 -> 0.014430750636460153\n"
        "protocol_max.json: row 0 probability: 0.126 -> 0.125\n"
    )


def regen(names=tuple(RUNS)) -> None:
    """Rewrite the golden files of each named run that no longer matches them, printing what moved.

    A file whose run still matches keeps its committed bytes, so a regen of
    an unchanged program rewrites nothing; on the pinned build that means
    the same bytes.
    """
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out, err = run(RUNS[name])
        if code != 0:
            raise SystemExit(f"{name}: entclone {' '.join(RUNS[name])} exited {code}")
        golden, stderr = GOLDEN / name, stderr_file(name)
        want = golden.read_text(encoding="utf-8") if golden.exists() else None
        moved = moved_values(name, out, want, PINNED_BUILD) if want is not None else ["new file"]
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
