import csv
import io
import json
import math

import numpy as np
import pytest

from entclone.analytic import ALPHA_MAX, fidelity_bh, fidelity_global, fidelity_locc
from entclone import __version__, cli, sdp
from entclone.cli import main
from entclone.sdp import build_problem, solve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sweep_analytic_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha-min", "0", "--alpha-max", "max", "--steps", "5",
        "--modes", "global,bh,locc", "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "f_global", "f_bh", "f_locc", "error"]
    assert len(rows) == 5
    for row in rows:
        alpha = float(row[0])
        assert float(row[1]) == fidelity_global(alpha)
        assert float(row[2]) == fidelity_bh(alpha)
        assert float(row[3]) == fidelity_locc(alpha)
        assert row[4] == ""
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[-1][0]) - ALPHA_MAX) < 1e-15
    assert abs(float(rows[-1][3]) - 0.625) < 1e-15


def test_sweep_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha-min", "0", "--alpha-max", "0", "--steps", "1",
        "--modes", "bh", "--format", "csv",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0][1]) - 25.0 / 36.0) < 1e-15


@pytest.mark.parametrize("argv, metadata", [
    (("sweep", "--alpha-min", "0.1", "--alpha-max", "0.3", "--steps", "3", "--modes", "global", "--tol", "1e-6"),
     {"version": __version__, "tol": 1e-6, "sign_convention": "t12"}),
    (("params", "--alpha-min", "0.1", "--alpha-max", "0.3", "--steps", "3"),
     {"version": __version__, "sign_convention": "t12"}),
    (("protocol", "--alpha", "0.1", "--seed", "11"),
     {"version": __version__, "seed": 11, "sign_convention": "t12"}),
], ids=["sweep", "params", "protocol"])
def test_json_metadata_names_the_options_the_command_takes(capsys, argv, metadata):
    """JSON metadata holds the version, then the seed and tol only when the command takes them, then the
    sign convention."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"metadata", "records"}
    assert list(payload["metadata"].items()) == list(metadata.items())


def test_sweep_mode_order_is_canonical(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha-min", "0.2", "--alpha-max", "0.2", "--steps", "1",
        "--modes", "locc,global", "--format", "csv",
    )
    assert code == 0
    header, _ = parse_csv(out)
    assert header == ["alpha", "f_global", "f_locc", "error"]


def test_sweep_with_solver_column(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--alpha-min", "0.1", "--alpha-max", "0.5", "--steps", "2",
        "--modes", "sdp", "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "f_sdp", "error"]
    assert abs(float(rows[0][1]) - fidelity_global(0.1)) < 1e-5
    assert abs(float(rows[1][1]) - fidelity_global(0.5)) < 1e-5
    assert "kink" not in err


@pytest.mark.parametrize("alpha_min, alpha_max, steps, note", [
    ("0.31", "0.316", "4", "kink detection skipped: threshold detection needs at least seven sweep points"),
    ("0.45", "max", "36", "no kink detected"),
    ("0.3", "0.3", "7", "kink detection skipped: sweep alphas must increase in equal steps"),
], ids=["too-few-points", "smooth-curve", "repeated-alpha"])
def test_sweep_reports_missing_kink(capsys, alpha_min, alpha_max, steps, note):
    """A PPT sweep too short to judge, one wholly above the threshold, or one that repeats a single alpha
    exits 0 with one note on stderr."""
    code, _, err = run_cli(
        capsys, "sweep", "--alpha-min", alpha_min, "--alpha-max", alpha_max, "--steps", steps,
        "--modes", "sdp-ppt", "--format", "csv",
    )
    assert code == 0
    assert err == note + "\n"


def test_sweep_solver_failure_sets_error_column(capsys, monkeypatch):
    """A solve that stops at its iteration cap aborts the sweep with exit 3 and its message in the error column."""
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
    code, out, err = run_cli(
        capsys, "sweep", "--alpha-min", "0.2", "--alpha-max", "0.4", "--steps", "2",
        "--modes", "sdp", "--format", "csv",
    )
    assert code == 3
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][1] == "" and rows[0][2] == "solver failure: no convergence within 1 iterations"
    assert err == "error: sweep aborted: no convergence within 1 iterations\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-7", "tiny"])
@pytest.mark.parametrize("command", ["sweep"])
def test_tol_must_be_finite_and_positive(capsys, monkeypatch, command, tol):
    """A bad --tol is a usage error, raised before any solve."""

    def no_solver(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "solve", no_solver)
    code, out, err = run_cli(capsys, command, "--steps", "3", "--modes", "sdp", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "error:" in err and "tol must be finite and positive" in err


def test_two_solver_modes_match_single_mode_sweeps(capsys):
    """Both programs cached side by side give each mode's column byte for byte as a sweep of that mode alone."""
    grid = ("sweep", "--alpha-min", "0.30", "--alpha-max", "0.37", "--steps", "36", "--format", "csv")
    code, out, _ = run_cli(capsys, *grid, "--modes", "sdp,sdp-ppt")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "f_sdp", "f_sdp_ppt", "error"]
    for column, mode in ((1, "sdp"), (2, "sdp-ppt")):
        code, single, _ = run_cli(capsys, *grid, "--modes", mode)
        assert code == 0
        assert [row[column] for row in rows] == [row[1] for row in parse_csv(single)[1]]


def test_sweep_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha-min", "0", "--alpha-max", "max", "--steps", "20",
            "--modes", "global,bh,locc", "--format", "csv", "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_params_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "params", "--alpha-min", "0.1", "--alpha-max", "0.1", "--steps", "1", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    assert float(record["a22"]) == 1.0
    for label in ("a11", "a12", "a21", "a44"):
        assert record[label] == ""


def test_params_above_threshold(capsys):
    code, out, _ = run_cli(capsys, "params", "--alpha-min", "0.6", "--alpha-max", "0.6", "--steps", "1", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    a11 = float(record["a11"])
    a22 = float(record["a22"])
    assert a11 > 0.0
    assert abs(float(record["a12"]) - math.sqrt(a11 * a22)) < 1e-12
    assert record["a12"] == record["a21"] == record["a44"]
    total = a11 + a22 + float(record["a12"]) + float(record["a21"])
    assert abs(total - 1.0) < 1e-12


def test_protocol_command_csv(capsys):
    code, out, _ = run_cli(capsys, "protocol", "--alpha", "max", "--trials", "0", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:5] == ["kind", "alice_outcome", "classical_bit", "bob_outcome", "probability"]
    branch_rows = [r for r in rows if r[0] == "branch"]
    assert len(branch_rows) == 8
    probs = [float(r[4]) for r in branch_rows]
    assert abs(sum(probs) - 1.0) < 1e-12
    exact_rows = [r for r in rows if r[0] == "exact"]
    assert len(exact_rows) == 1
    fidelity = float(exact_rows[0][header.index("fidelity")])
    assert abs(fidelity - 0.625) < 1e-12
    assert not any(r[0] == "sampled" for r in rows)


def test_protocol_command_sampled_json(capsys):
    code, out, _ = run_cli(capsys, "protocol", "--alpha", "0.2", "--trials", "5000", "--seed", "5", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    kinds = [r["kind"] for r in records]
    assert kinds.count("branch") == 8
    assert kinds.count("exact") == 1
    assert kinds.count("sampled") == 1
    exact = next(r for r in records if r["kind"] == "exact")
    assert abs(exact["fidelity"] - fidelity_bh(0.2)) < 1e-12
    sampled = next(r for r in records if r["kind"] == "sampled")
    assert abs(sampled["fidelity"] - exact["fidelity"]) < 5.0 * sampled["stderr"]
    bits = {r["classical_bit"]: [] for r in records if r["kind"] == "branch"}
    for r in records:
        if r["kind"] == "branch":
            bits[r["classical_bit"]].append(r["probability"])
    assert np.abs(np.sort(bits[0]) - np.sort(bits[1])).max() < 1e-12


@pytest.mark.parametrize("argv", [
    ("protocol", "--alpha", "0.2", "--trials", "1000", "--seed", "9", "--format", "json"),
    ("sweep", "--modes", "bh", "--format", "json"),
], ids=["protocol", "sweep"])
def test_output_depends_on_the_arguments_alone(capsys, monkeypatch, argv):
    """Setting CLONER_SEED, to a number or to garbage, changes no byte of a run's output."""
    monkeypatch.delenv("CLONER_SEED", raising=False)
    unset = run_cli(capsys, *argv)
    assert unset[0] == 0
    for value in ("99", "pi"):
        monkeypatch.setenv("CLONER_SEED", value)
        assert run_cli(capsys, *argv) == unset


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--alpha-min", "0.5", "--alpha-max", "0.2", "--steps", "3"),
        ("sweep", "--alpha-min", "0", "--alpha-max", "0.9", "--steps", "3"),
        ("sweep", "--alpha-min", "0", "--alpha-max", "0.5", "--steps", "0"),
        ("sweep", "--modes", "bogus"),
        ("sweep", "--alpha-min", "nope"),
        ("params", "--steps", "-2"),
        ("protocol", "--alpha", "0.3", "--trials", "-1"),
        ("protocol", "--alpha", "2.0"),
        ("bogus-command",),
        ("protocol", "--seed", "-1"),
        ("verify", "--seed", "-1"),
        ("sweep", "--seed", "3"),
        ("params", "--seed", "3"),
    ],
)
def test_usage_errors_exit_2(capsys, monkeypatch, argv):
    """Every usage error exits 2 before any work: nothing is solved, tabulated, run or written."""
    for name in ("solve", "params_for", "run_protocol_exact", "run_all"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} ran"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", ["sweep", "protocol"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def test_verify_takes_no_tol(capsys, monkeypatch):
    """verify solves at one fixed tolerance, so --tol is an unknown option there, refused before any run."""
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: pytest.fail("verification ran"))
    code, out, err = run_cli(capsys, "verify", "--tol", "1e-7")
    assert code == 2
    assert out == ""
    assert err.endswith("\nentclone: error: unrecognized arguments: --tol 1e-7\n")


@pytest.mark.parametrize(
    "argv, floor",
    [
        (("sweep", "--modes", "sdp", "--tol", "1e-08"), "1.28e-08"),
        (("sweep", "--modes", "sdp-ppt", "--tol", "2e-08"), "2.56e-08"),
        (("sweep", "--modes", "sdp,bh", "--tol", "1.2e-08"), "1.28e-08"),
        (("sweep", "--modes", "sdp,sdp-ppt", "--tol", "2e-08"), "2.56e-08"),
    ],
)
def test_tol_below_the_solver_floor_is_a_usage_error(capsys, monkeypatch, argv, floor):
    """A finite, positive --tol below the floor of a program the command solves is refused with one error
    line and exit 2, before any solve, verification or output."""
    for name in ("solve", "run_all"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} ran"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: tol must be at least the solver's floor {floor}, got {argv[-1]}\n"


def test_tol_floor_is_the_solvers_own():
    """The CLI reads each program's floor from the problem, whose floor solve enforces: 2 nu 1e-10.
    solve's error names the floor and the tol in the CLI's words."""
    for with_ppt, floor in ((False, "1.28e-08"), (True, "2.56e-08")):
        problem = build_problem(0.3, with_ppt=with_ppt)
        assert math.isclose(problem.tol_floor, float(floor), rel_tol=1e-15)
        sol = solve(problem, tol=problem.tol_floor)
        assert 0.0 < sol.upper_bound - sol.f_star <= problem.tol_floor
        below = problem.tol_floor * (1.0 - 2.0**-52)
        with pytest.raises(ValueError, match=rf"^tol must be at least the solver's floor {floor}, got {below:g}$"):
            solve(problem, tol=below)
        with pytest.raises(ValueError, match=rf"^tol must be at least the solver's floor {floor}, got 1e-09$"):
            solve(problem, tol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--modes", "sdp", "--steps", "3", "--tol", "2e-8"), ("sweep", "--modes", "global", "--tol", "1e-30")],
)
def test_tol_above_the_solved_programs_floor_runs(capsys, argv):
    """The floor is that of the programs the sweep solves: 2e-8 clears the plain program's, and a sweep of
    closed forms solves nothing, so any finite, positive tol runs."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    _, rows = parse_csv(out)
    assert rows and all(row[-1] == "" for row in rows)


@pytest.mark.parametrize("command", ["sweep", "params"])
def test_grid_endpoints_in_the_slack_print_clamped(capsys, command):
    """Endpoints that the range check lets past by under 1e-12 print as 0.0 and ALPHA_MAX, the alphas computed at."""
    code, out, _ = run_cli(capsys, command, "--alpha-min=-1e-13", "--alpha-max=0.7071067811866", "--steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == ALPHA_MAX
