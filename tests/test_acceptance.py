"""End-to-end acceptance run: every shipped claim at its stated tolerance, and criterion 7's bar."""

import math
import re

import numpy as np
import pytest

from entclone import cli, verify
from entclone.analytic import ALPHA_MAX
from entclone.protocol import run_protocol_exact
from entclone.sdp import ConvergenceError
from entclone.verify import COVERAGE_BAR, FALSE_ALARM_RATE, _criterion_7, _verdict, format_report, run_all

CRITERION_IDS = [
    "1-closed-form-endpoints",
    "2-threshold-location",
    "3-solver-tracks-closed-forms",
    "4-kink-detection",
    "5-ppt-matches-product-family-below-threshold",
    "6-protocol-choi-identity",
    "7-sampled-protocol-coverage",
    "8-measurement-and-dilation-invariants",
    "9-structural-invariants",
    "10-certified-optima",
]


@pytest.fixture(scope="module")
def results():
    out = run_all()
    print()
    print(format_report(out))
    return out


@pytest.mark.parametrize("number", range(1, 11), ids=CRITERION_IDS)
def test_criterion(results, number):
    result = next(r for r in results if r.number == number)
    status = "PASS" if result.passed else "FAIL"
    line = f"[{status}] criterion {result.number}: {result.name} -- {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_7_false_alarm_rate_is_the_binomial_tail():
    """At the Bell point the eight branches have probability 1/8 and score 1/2 or 3/4, four each, so an
    estimate of n trials is 1/2 + K/(4n), K ~ Bin(n, 1/2), and misses its 3-sigma band when
    |K - n/2| > 3 sqrt(K (n - K) / (n - 1)).  Under that law a correct program fails the bar at FALSE_ALARM_RATE."""
    transcripts = run_protocol_exact(ALPHA_MAX)
    assert np.abs(np.array([tr.joint_probability for tr in transcripts]) - 1 / 8).max() < 1e-12
    assert np.abs(np.sort([tr.fidelity for tr in transcripts]) - np.repeat([0.5, 0.75], 4)).max() < 1e-12
    n, k = 100_000, np.arange(100_001)
    log_pmf = np.concatenate([[0.0], np.cumsum(np.log((n - k[1:] + 1) / k[1:]))]) - n * math.log(2.0)
    q = float(np.exp(log_pmf[np.abs(k - n / 2) > 3.0 * np.sqrt(k * (n - k) / (n - 1))]).sum())
    assert abs(q - 0.00269) < 5e-6
    rate = sum(math.comb(100, m) * q**m * (1.0 - q) ** (100 - m) for m in range(101 - COVERAGE_BAR, 101))
    assert abs(rate - FALSE_ALARM_RATE) < 0.05 * FALSE_ALARM_RATE


@pytest.mark.parametrize("seed, bias, coverage", [(316, 0.0, 98), (7, 1e-3, 66)], ids=["seed-316", "biased-sampler"])
def test_criterion_7_bar(monkeypatch, seed, bias, coverage):
    """Seed 316 draws two misses in 100, as a correct program does with probability 2.6%, and passes.
    A sampler biased by +1e-3, about 2.5 sigma, stays in its band ~68 times in 100 (66 here) and fails."""
    sampled = verify.run_protocol_sampled

    def shifted(*args, **kwargs):
        est, err = sampled(*args, **kwargs)
        return est + bias, err

    monkeypatch.setattr(verify, "run_protocol_sampled", shifted)
    passed, detail = _verdict(_criterion_7(seed))
    assert passed == (bias == 0.0) and f"coverage {coverage} (need {COVERAGE_BAR})" in detail, detail


@pytest.mark.parametrize(
    "value, kind, passes",
    [
        (1e-12, "tol", True), (2e-12, "tol", False), (1e-12, "cap", True), (2e-12, "cap", False),
        (1e-12, "need", True), (5e-13, "need", False), (1e-12, "floor", False), (2e-12, "floor", True),
    ],
)
def test_verdict_reads_each_check_off_its_printed_bound(value, kind, passes):
    """tol and cap hold at or below the bound, need at or above it, floor strictly above it; notes pass through."""
    passed, detail = _verdict(["note", ("x", value, kind, "1e-12"), ("count", 3, "cap", "3")])
    assert passed == passes
    assert detail == f"note, x {value:.3e} ({kind} 1e-12), count 3 (cap 3)"


# A shared sweep, by (points, with_ppt), made to fail; the criteria that read it; and the sweeps then called,
# in order.  _C and _P are the 50-point plain and PPT sweeps, which criteria 3 and 10 read in that order;
# _F and _S the 36-point PPT sweep and its smooth plain twin, which criterion 4 reads in that order; and
# criterion 5 solves 4 points of its own.  A criterion stops at its first failing read, and a sweep that
# raised is attempted again by its next reader.
_C, _P, _F, _S = (50, False), (50, True), (36, True), (36, False)


@pytest.mark.parametrize("failing, readers, calls", [
    (_C, (3, 10), [_C, _F, _S, (4, True), _C]),
    (_P, (3, 10), [_C, _P, _F, _S, (4, True), _P]),
    (_F, (4,), [_C, _P, _F, (4, True)]),
    (_S, (4,), [_C, _P, _F, _S, (4, True)]),
], ids=["coarse-plain", "coarse-ppt", "fine-ppt", "fine-plain"])
def test_a_failing_sweep_fails_only_its_readers(monkeypatch, capsys, failing, readers, calls):
    """A shared sweep that raises fails each criterion that reads it, and only those; every other criterion
    still runs and passes, and entclone verify exits 1.  A sweep that succeeds is solved once, when first read."""
    solve, called = verify.sweep_solutions, []

    def sweep_or_fail(alphas, with_ppt, tol):
        called.append((len(alphas), with_ppt))
        if called[-1] == failing:
            raise ConvergenceError("forced")
        return solve(alphas, with_ppt, tol=tol)

    monkeypatch.setattr(verify, "sweep_solutions", sweep_or_fail)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for number, line in enumerate(lines[:10], start=1):
        assert line.startswith(f"[{'FAIL' if number in readers else 'PASS'}] criterion {number}: "), line
        assert line.endswith(" -- exception: forced") == (number in readers), line
    assert lines[10:] == [f"{10 - len(readers)}/10 criteria passed"]
    assert called == calls


def test_a_kink_in_the_smooth_sweep_fails_criterion_4(monkeypatch):
    """Criterion 4 fails, and names the kink, when the plain sweep on the fine grid shows one."""
    solve = verify.sweep_solutions
    monkeypatch.setattr(verify, "sweep_solutions", lambda alphas, with_ppt, tol: solve(
        alphas, with_ppt or len(alphas) == 36, tol=tol))
    results = run_all()
    assert [r.number for r in results if not r.passed] == [4]
    assert results[3].detail.endswith(", smooth sweep kinks 1 (cap 0), at 0.3360"), results[3].detail


def _broken(detail):
    """The labels of the checks a criterion's detail prints broken against their own bounds."""
    checks = re.findall(r"(?:^|, )([^,]+?) (\S+) \((tol|cap|need|floor) (\S+)\)", detail)
    return [label for label, value, kind, bound in checks if not verify._HOLDS[kind](float(value), float(bound))]


def test_turned_t_operators_fail_criterion_9_on_covariance(monkeypatch):
    """t1..t5 turned by a Hadamard on the input qubit keep their algebra but no longer commute with
    U (x) U (x) U*, and criterion 9 fails on its covariance check alone."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    turn = np.kron(np.eye(4), h)
    monkeypatch.setattr(verify, "T_OPERATORS", turn @ verify.T_OPERATORS @ turn)
    results = run_all()
    assert [r.number for r in results if not r.passed] == [9]
    assert _broken(results[8].detail) == ["covariance"], results[8].detail


@pytest.mark.parametrize("dropped", range(3))
def test_a_dropped_symmetry_row_fails_criterion_9_on_feasibility(monkeypatch, dropped):
    """Without one clone-symmetry row the projected points leave the feasible set, and criterion 9's
    feasibility check, which reads every such point and every input, fails alone."""
    eq, sym_rows = verify.constraint_matrices()
    monkeypatch.setattr(verify, "constraint_matrices", lambda: (eq, np.delete(sym_rows, dropped, axis=0)))
    results = run_all()
    assert [r.number for r in results if not r.passed] == [9]
    assert _broken(results[8].detail) == ["feasibility dev"], results[8].detail


def test_only_criterion_7_reads_the_seed(results):
    """Seeds 7 and 316 give the same report on every criterion but the sampled one, which they change."""
    other = run_all(seed=316)
    assert [r for r in other if r.number != 7] == [r for r in results if r.number != 7]
    assert other[6] != results[6]
