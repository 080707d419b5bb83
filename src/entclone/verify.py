"""Acceptance checks shared by the test suite and the CLI verify command.

run_all executes ten numbered criteria covering the analytic formulas,
the SDP solver against its analytic oracles, threshold detection,
the Kraus/Choi equivalence of the one-bit protocol, protocol sampling,
measurement validity, the structural invariants of the covariant
parametrization, and the dual certificate of every swept optimum.  Each
criterion reports pass/fail plus the measured quantities; exceptions
inside a criterion mark it failed instead of aborting the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    alpha_critical,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
)
from entclone.channel import apply_choi, clone_reductions, constraint_matrices, trace_output
from entclone.covariant import T_OPERATORS, assemble_ptilde, partial_transpose_b, random_su2, two_party_rep
from entclone.protocol import (
    build_dilations,
    build_kraus,
    kraus_to_choi,
    run_protocol_exact,
    run_protocol_sampled,
)
from entclone.sdp import (
    ThresholdDetectionError,
    detect_threshold,
    sweep_solutions,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# Criterion 7's bar.  At alpha = 1/sqrt(2) every branch scores 1/2 or 3/4, so
# one 100,000-trial estimate misses its 3-sigma band with probability 0.00269
# (its exact binomial law), so a correct program falls short with probability 1.7e-4.
COVERAGE_BAR, FALSE_ALARM_RATE = 97, 1.7e-4


def _criterion_7(seed: int) -> tuple[bool, str]:
    """The exact one-bit fidelity at the Bell point and the 3-sigma coverage of 100 sampled estimates."""
    transcripts = run_protocol_exact(ALPHA_MAX)
    prob_err = abs(sum(tr.joint_probability for tr in transcripts) - 1.0)
    exact = sum(tr.joint_probability * tr.fidelity for tr in transcripts)
    f_err = abs(exact - 0.625)
    samples = [run_protocol_sampled(ALPHA_MAX, trials=100_000, seed=seed + offset) for offset in range(100)]
    covered = sum(abs(est - exact) <= 3.0 * stderr for est, stderr in samples)
    ok = f_err <= 1e-12 and prob_err <= 1e-12 and covered >= COVERAGE_BAR
    return ok, (
        f"F err {_fmt(f_err)}, prob sum err {_fmt(prob_err)} (tol 1e-12), "
        f"3-sigma coverage {covered}/100 (need {COVERAGE_BAR}), false-alarm rate {FALSE_ALARM_RATE:.1e}"
    )


def run_all(tol: float = 1e-7, seed: int = 7) -> list[CriterionResult]:
    """Run the ten acceptance criteria; returns one result per criterion.

    tol is handed to every semidefinite solve; the pass thresholds of
    the criteria themselves are fixed.  seed controls the random draws
    of the structural checks and the sampling seeds, so repeated calls
    with the same seed give identical reports.
    """
    a0 = alpha_critical()
    results: list[CriterionResult] = []

    def record(number: int, name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"exception: {exc}"
        results.append(CriterionResult(number=number, name=name, passed=passed, detail=detail))

    # The solver sweeps feed criteria 3, 4 and 10; compute them once.
    sweep_error: Exception | None = None
    coarse_plain = coarse_ppt = fine_ppt = fine_plain = None
    try:
        grid = np.linspace(0.0, ALPHA_MAX, 50)
        coarse_plain = sweep_solutions(grid, False, tol=tol)
        coarse_ppt = sweep_solutions(grid, True, tol=tol)
        fine_grid = np.arange(0.30, 0.37 + 1e-12, 0.002)
        fine_ppt = [(alpha, sol.f_star) for alpha, sol in sweep_solutions(fine_grid, True, tol=tol)]
        fine_plain = [(alpha, sol.f_star) for alpha, sol in sweep_solutions(fine_grid, False, tol=tol)]
    except Exception as exc:
        sweep_error = exc

    def criterion_1() -> tuple[bool, str]:
        checks = (
            abs(fidelity_global(ALPHA_MAX) - (5.0 + math.sqrt(13.0)) / 12.0),
            abs(fidelity_global(0.0) - (17.0 + math.sqrt(73.0)) / 36.0),
            abs(fidelity_bh(ALPHA_MAX) - 7.0 / 12.0),
            abs(fidelity_locc(ALPHA_MAX) - 5.0 / 8.0),
        )
        worst = max(checks)
        return worst <= 1e-12, f"worst endpoint error {_fmt(worst)} (tol 1e-12)"

    def criterion_2() -> tuple[bool, str]:
        dec4 = abs(a0 - 0.3357) <= 5e-5
        a11 = float(params_for(CloneFamily.LOCC_OPTIMAL, a0)[0, 0])
        h = 1e-5
        deriv = abs(fidelity_global(a0 + h) - fidelity_global(a0 - h)) / (2.0 * h)
        curves_up = (
            fidelity_global(a0 + h) >= fidelity_global(a0)
            and fidelity_global(a0 - h) >= fidelity_global(a0)
        )
        ok = dec4 and a11 <= 1e-13 and deriv <= 1e-8 and curves_up
        return ok, (
            f"alpha0={a0:.7f} a11={_fmt(a11)} |F'|={_fmt(deriv)} minimum={curves_up}"
        )

    def criterion_3() -> tuple[bool, str]:
        if sweep_error is not None:
            raise sweep_error
        sup_plain = max(abs(s.f_star - fidelity_global(a)) for a, s in coarse_plain)
        sup_ppt = max(abs(s.f_star - fidelity_locc(a)) for a, s in coarse_ppt)
        iters = max(s.iterations for _, s in coarse_plain + coarse_ppt)
        ok = sup_plain <= 1e-6 and sup_ppt <= 1e-6 and iters <= 200
        return ok, (
            f"sup err plain {_fmt(sup_plain)}, ppt {_fmt(sup_ppt)} (tol 1e-6), "
            f"max iterations {iters} (cap 200)"
        )

    def criterion_4() -> tuple[bool, str]:
        if sweep_error is not None:
            raise sweep_error
        found = detect_threshold(fine_ppt)
        err = abs(found - a0)
        try:
            ghost = detect_threshold(fine_plain)
            smooth = False
            extra = f"; smooth sweep wrongly flagged {ghost:.4f}"
        except ThresholdDetectionError:
            smooth = True
            extra = "; smooth sweep correctly clean"
        ok = err <= 0.005 and smooth
        return ok, f"kink at {found:.4f}, err {_fmt(err)} (tol 5e-3){extra}"

    def criterion_5() -> tuple[bool, str]:
        sols = sweep_solutions([0.05, 0.15, 0.25, 0.33], True, tol=tol)
        worst = max(abs(s.f_star - fidelity_bh(alpha)) for alpha, s in sols)
        return worst <= 1e-6, f"worst |ppt - no-communication| {_fmt(worst)} (tol 1e-6)"

    def criterion_6() -> tuple[bool, str]:
        worst_frob = worst_complete = 0.0
        for alpha in (0.4, 0.5, 0.6, ALPHA_MAX):
            ks = build_kraus(alpha)
            ptilde = assemble_ptilde(params_for(CloneFamily.LOCC_OPTIMAL, alpha))
            worst_frob = max(worst_frob, float(np.linalg.norm(kraus_to_choi(ks) - ptilde)))
            total = sum(k.conj().T @ k for k in ks.k)
            worst_complete = max(worst_complete, float(np.max(np.abs(total - np.eye(4)))))
        ok = worst_frob <= 1e-10 and worst_complete <= 1e-12
        return ok, (
            f"worst Choi distance {_fmt(worst_frob)} (tol 1e-10), "
            f"completeness dev {_fmt(worst_complete)} (tol 1e-12)"
        )

    def criterion_8() -> tuple[bool, str]:
        worst = 0.0
        for alpha in np.linspace(0.0, ALPHA_MAX, 15):
            ks = build_kraus(alpha)
            povm = sum(m.conj().T @ m for m in ks.m)
            worst = max(worst, float(np.max(np.abs(povm - np.eye(2)))))
            half = ks.m[0].conj().T @ ks.m[0] + ks.m[2].conj().T @ ks.m[2]
            worst = max(worst, float(np.max(np.abs(half - np.eye(2) / 2.0))))
            for u in build_dilations(ks):
                worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        return worst <= 1e-12, f"worst measurement identity dev {_fmt(worst)} (tol 1e-12)"

    def criterion_9() -> tuple[bool, str]:
        ts = T_OPERATORS
        algebra = max(
            float(np.max(np.abs(ts[i] @ ts[i] - ts[i]))) for i in range(3)
        )
        algebra = max(algebra, float(np.max(np.abs(ts[0] + ts[1] + ts[2] - np.eye(8)))))
        algebra = max(algebra, float(np.max(np.abs(ts[3] @ ts[0] @ ts[3] - ts[1]))))

        rng = np.random.default_rng(seed)
        cov = 0.0
        for _ in range(20):
            a_rand = rng.normal(size=(5, 5))
            ptilde = assemble_ptilde(a_rand)
            w = two_party_rep(random_su2(rng), random_su2(rng))
            cov = max(cov, float(np.max(np.abs(w @ ptilde @ w.conj().T - ptilde))))

        # The trace row e and the orthonormal symmetry rows S have disjoint
        # supports, so P projects onto the null space of all four rows and
        # e / (e.e) + P g is feasible for every g.
        eq, sym_rows = constraint_matrices()
        project = np.eye(len(eq)) - np.outer(eq, eq) / (eq @ eq) - sym_rows.T @ sym_rows
        feas = 0.0
        for _ in range(5):
            x = eq / (eq @ eq) + project @ (0.3 * rng.normal(size=len(eq)))
            choi = assemble_ptilde(x.reshape(5, 5))
            feas = max(feas, float(np.max(np.abs(trace_output(choi) - np.eye(4)))))
            for _ in range(2):
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                g = (g + g.conj().T) / 2.0
                r1, r2 = clone_reductions(apply_choi(choi, g))
                feas = max(feas, float(np.max(np.abs(r1 - r2))))

        ppt_eig = 0.0
        for family in (CloneFamily.BUZEK_HILLERY_SQUARED, CloneFamily.LOCC_OPTIMAL):
            for alpha in (0.0, 0.15, 0.3, a0, 0.45, 0.6, ALPHA_MAX):
                flipped = partial_transpose_b(assemble_ptilde(params_for(family, alpha)))
                low = float(np.linalg.eigvalsh((flipped + flipped.conj().T) / 2.0).min())
                ppt_eig = min(ppt_eig, low)

        ok = algebra <= 1e-12 and cov <= 1e-10 and feas <= 1e-9 and ppt_eig >= -1e-10
        return ok, (
            f"algebra dev {_fmt(algebra)} (tol 1e-12), covariance {_fmt(cov)} (tol 1e-10), "
            f"feasibility dev {_fmt(feas)} (tol 1e-9), min transposed eig {_fmt(ppt_eig)} "
            f"(floor -1e-10)"
        )

    def criterion_10() -> tuple[bool, str]:
        if sweep_error is not None:
            raise sweep_error
        solved = [(s, fidelity_global(a)) for a, s in coarse_plain]
        solved += [(s, fidelity_locc(a)) for a, s in coarse_ppt]
        below = min(closed - s.f_star for s, closed in solved)
        above = min(s.upper_bound - closed for s, closed in solved)
        gap = max(s.upper_bound - s.f_star for s, _ in solved)
        residual = max(s.dual_residual for s, _ in solved)
        dual_eig = min(s.min_dual_eigenvalue for s, _ in solved)
        ok = below >= 0.0 and above >= 0.0 and gap <= tol and residual <= 1e-12 and dual_eig > 0.0
        return ok, (
            f"min F - f* {_fmt(below)}, min U - F {_fmt(above)} (floor 0), max U - f* {_fmt(gap)} "
            f"(tol {tol:g}), max dual residual {_fmt(residual)} (tol 1e-12), min eig Z {_fmt(dual_eig)} (floor 0)"
        )

    record(1, "analytic endpoint fidelities", criterion_1)
    record(2, "critical weight and tangency", criterion_2)
    record(3, "solver matches analytic optima", criterion_3)
    record(4, "curvature-jump detection", criterion_4)
    record(5, "ppt equals no-communication below threshold", criterion_5)
    record(6, "kraus channel equals covariant family", criterion_6)
    record(7, "protocol fidelity, exact and sampled", lambda: _criterion_7(seed))
    record(8, "measurement validity and dilations", criterion_8)
    record(9, "structural invariants", criterion_9)
    record(10, "certified optima", criterion_10)
    return results


def format_report(results: list[CriterionResult]) -> str:
    """Fixed-width pass/fail table, one line per criterion."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.number}: {r.name} -- {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
