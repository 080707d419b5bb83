"""Acceptance checks shared by the test suite and the CLI verify command.

run_all executes ten numbered criteria covering the analytic formulas,
the SDP solver against its analytic oracles, threshold detection,
the Kraus/Choi equivalence of the one-bit protocol, protocol sampling,
measurement validity, the structural invariants of the covariant
parametrization, and the dual certificate of every swept optimum.  Each
criterion reports its measurements as checks, and its verdict is read
off the bounds it prints (see _verdict).  The four sweeps that criteria
3, 4 and 10 share are each solved when a criterion first reads them.
An exception inside a criterion, a failing sweep's included, marks that
criterion failed instead of aborting the run, so a failing sweep fails
only the criteria that read it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

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
from entclone.channel import clone_reductions, constraint_matrices, trace_output
from entclone.covariant import T_OPERATORS, assemble_ptilde, partial_transpose_b
from entclone.protocol import (
    build_dilations,
    build_kraus,
    kraus_to_choi,
    run_protocol_exact,
    run_protocol_sampled,
)
from entclone.sdp import (
    SdpSolution,
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


# Criterion 7's bar.  At alpha = 1/sqrt(2) every branch scores 1/2 or 3/4, so
# one 100,000-trial estimate misses its 3-sigma band with probability 0.00269
# (its exact binomial law), so a correct program falls short with probability 1.7e-4.
COVERAGE_BAR, FALSE_ALARM_RATE = 97, 1.7e-4

Check = tuple[str, float, str, str]
_HOLDS = {"tol": operator.le, "cap": operator.le, "need": operator.ge, "floor": operator.gt}
# X, Y, Z: their images under U (x) U (x) U* generate each party's symmetry group (criterion 9).
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_GRIDS = {"coarse": np.linspace(0.0, ALPHA_MAX, 50), "fine": np.arange(0.30, 0.37 + 1e-12, 0.002)}


def _verdict(parts: list[Check | str]) -> tuple[bool, str]:
    """Each check (label, value, kind, bound) printed as "label value (kind bound)" and judged against
    that bound text: a tol or cap holds when value <= bound, a need when value >= bound and a floor when
    value > bound.  Returns whether every check holds, and the checks and notes as one detail text."""
    holds, texts = [], []
    for part in parts:
        if isinstance(part, str):
            texts.append(part)
            continue
        label, value, kind, bound = part
        holds.append(_HOLDS[kind](value, float(bound)))
        shown = f"{value:.3e}" if isinstance(value, float) else str(value)
        texts.append(f"{label} {shown} ({kind} {bound})")
    return all(holds), ", ".join(texts)


def _criterion_7(seed: int) -> list[Check | str]:
    """The exact one-bit fidelity at the Bell point and the 3-sigma coverage of 100 sampled estimates."""
    transcripts = run_protocol_exact(ALPHA_MAX)
    exact = sum(tr.joint_probability * tr.fidelity for tr in transcripts)
    prob_sum = sum(tr.joint_probability for tr in transcripts)
    samples = [run_protocol_sampled(ALPHA_MAX, trials=100_000, seed=seed + offset) for offset in range(100)]
    covered = sum(abs(est - exact) <= 3.0 * stderr for est, stderr in samples)
    return [
        ("F err", abs(exact - 0.625), "tol", "1e-12"),
        ("prob sum err", abs(prob_sum - 1.0), "tol", "1e-12"),
        ("3-sigma coverage", int(covered), "need", str(COVERAGE_BAR)),
        f"false-alarm rate {FALSE_ALARM_RATE:.1e}",
    ]


def run_all(tol: float = 1e-7, seed: int = 7) -> list[CriterionResult]:
    """Run the ten acceptance criteria; returns one result per criterion.

    tol is handed to every semidefinite solve; the pass thresholds of
    the criteria themselves are fixed.  seed seeds only criterion 7's
    protocol sampler; every other criterion draws nothing, so reports
    differ across seeds on criterion 7 alone.
    """
    a0 = alpha_critical()

    @functools.cache
    def sweep(grid: str, with_ppt: bool) -> list[tuple[float, SdpSolution]]:
        return sweep_solutions(_GRIDS[grid], with_ppt, tol=tol)

    def criterion_1() -> list[Check | str]:
        errors = (
            abs(fidelity_global(ALPHA_MAX) - (5.0 + math.sqrt(13.0)) / 12.0),
            abs(fidelity_global(0.0) - (17.0 + math.sqrt(73.0)) / 36.0),
            abs(fidelity_bh(ALPHA_MAX) - 7.0 / 12.0),
            abs(fidelity_locc(ALPHA_MAX) - 5.0 / 8.0),
        )
        return [("worst endpoint error", max(errors), "tol", "1e-12")]

    def criterion_2() -> list[Check | str]:
        approx, h, f = 0.3357, 1e-5, fidelity_global
        return [
            f"alpha0={a0:.7f}",
            (f"|alpha0 - {approx}|", abs(a0 - approx), "tol", "5e-5"),
            ("a11", float(params_for(CloneFamily.LOCC_OPTIMAL, a0)[0, 0]), "tol", "1e-13"),
            ("|F'|", abs(f(a0 + h) - f(a0 - h)) / (2.0 * h), "tol", "1e-8"),
            (f"min F(alpha0 +- {h:g}) - F(alpha0)", min(f(a0 + h), f(a0 - h)) - f(a0), "need", "0"),
        ]

    def criterion_3() -> list[Check | str]:
        plain, ppt = sweep("coarse", False), sweep("coarse", True)
        return [
            ("sup err plain", max(abs(s.f_star - fidelity_global(a)) for a, s in plain), "tol", "1e-6"),
            ("ppt", max(abs(s.f_star - fidelity_locc(a)) for a, s in ppt), "tol", "1e-6"),
            ("max iterations", max(s.iterations for _, s in plain + ppt), "cap", "200"),
        ]

    def criterion_4() -> list[Check | str]:
        found = detect_threshold([(a, s.f_star) for a, s in sweep("fine", True)])
        smooth = [(a, s.f_star) for a, s in sweep("fine", False)]
        try:
            flagged = [f"at {detect_threshold(smooth):.4f}"]
        except ThresholdDetectionError:
            flagged = []
        return [
            f"kink at {found:.4f}",
            ("err", abs(found - a0), "tol", "5e-3"),
            ("smooth sweep kinks", len(flagged), "cap", "0"),
            *flagged,
        ]

    def criterion_5() -> list[Check | str]:
        sols = sweep_solutions([0.05, 0.15, 0.25, 0.33], True, tol=tol)
        worst = max(abs(s.f_star - fidelity_bh(alpha)) for alpha, s in sols)
        return [("worst |ppt - no-communication|", worst, "tol", "1e-6")]

    def criterion_6() -> list[Check | str]:
        worst_frob = worst_complete = 0.0
        for alpha in (0.4, 0.5, 0.6, ALPHA_MAX):
            ks = build_kraus(alpha)
            ptilde = assemble_ptilde(params_for(CloneFamily.LOCC_OPTIMAL, alpha))
            worst_frob = max(worst_frob, float(np.linalg.norm(kraus_to_choi(ks) - ptilde)))
            total = sum(k.conj().T @ k for k in ks.k)
            worst_complete = max(worst_complete, float(np.max(np.abs(total - np.eye(4)))))
        return [
            ("worst Choi distance", worst_frob, "tol", "1e-10"),
            ("completeness dev", worst_complete, "tol", "1e-12"),
        ]

    def criterion_8() -> list[Check | str]:
        worst = 0.0
        for alpha in np.linspace(0.0, ALPHA_MAX, 15):
            ks = build_kraus(alpha)
            povm = sum(m.conj().T @ m for m in ks.m)
            worst = max(worst, float(np.max(np.abs(povm - np.eye(2)))))
            half = ks.m[0].conj().T @ ks.m[0] + ks.m[2].conj().T @ ks.m[2]
            worst = max(worst, float(np.max(np.abs(half - np.eye(2) / 2.0))))
            for u in build_dilations(ks):
                worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        return [("worst measurement identity dev", worst, "tol", "1e-12")]

    def criterion_9() -> list[Check | str]:
        ts = T_OPERATORS
        algebra = max(float(np.max(np.abs(ts[i] @ ts[i] - ts[i]))) for i in range(3))
        algebra = max(algebra, float(np.max(np.abs(ts[0] + ts[1] + ts[2] - np.eye(8)))))
        algebra = max(algebra, float(np.max(np.abs(ts[3] @ ts[0] @ ts[3] - ts[1]))))

        # SU(2) is connected, so an operator commuting with the generators s (x) I (x) I + I (x) s (x) I
        # - I (x) I (x) s*, s = X, Y, Z, of U (x) U (x) U* on (clone 1, clone 2, input) commutes with the
        # whole group; then every sum_ij a_ij ti (x) tj commutes with both parties' actions.
        cov = 0.0
        for s in _PAULIS:
            gen = np.kron(s, np.eye(4)) + np.kron(np.kron(np.eye(2), s), np.eye(2)) - np.kron(np.eye(4), s.conj())
            cov = max(cov, float(np.max(np.abs(ts @ gen - gen @ ts))))

        # The trace row e and the orthonormal symmetry rows S have disjoint
        # supports, so P projects onto the null space of all four rows and
        # e / (e.e) + P g is feasible for every g.  Both constraints are affine, so g = 0 and
        # g = e_j, j = 1..25, cover every feasible a, and the outputs on the 16 matrix units every input.
        eq, sym_rows = constraint_matrices()
        project = np.eye(len(eq)) - np.outer(eq, eq) / (eq @ eq) - sym_rows.T @ sym_rows
        feas = 0.0
        for x in eq / (eq @ eq) + np.vstack([np.zeros(len(eq)), project]):
            choi = assemble_ptilde(x.reshape(5, 5))
            r1, r2 = clone_reductions(choi.reshape(16, 4, 16, 4).transpose(1, 3, 0, 2))
            feas = max(feas, float(np.max(np.abs(trace_output(choi) - np.eye(4)))), float(np.max(np.abs(r1 - r2))))

        ppt_eig = 0.0
        for family in (CloneFamily.BUZEK_HILLERY_SQUARED, CloneFamily.LOCC_OPTIMAL):
            for alpha in (0.0, 0.15, 0.3, a0, 0.45, 0.6, ALPHA_MAX):
                flipped = partial_transpose_b(assemble_ptilde(params_for(family, alpha)))
                ppt_eig = min(ppt_eig, float(np.linalg.eigvalsh((flipped + flipped.conj().T) / 2.0).min()))

        return [
            ("algebra dev", algebra, "tol", "1e-12"),
            ("covariance", cov, "tol", "1e-10"),
            ("feasibility dev", feas, "tol", "1e-9"),
            ("min transposed eig", ppt_eig, "need", "-1e-10"),
        ]

    def criterion_10() -> list[Check | str]:
        solved = [(s, fidelity_global(a)) for a, s in sweep("coarse", False)]
        solved += [(s, fidelity_locc(a)) for a, s in sweep("coarse", True)]
        return [
            ("min F - f*", min(closed - s.f_star for s, closed in solved), "need", "0"),
            ("min U - F", min(s.upper_bound - closed for s, closed in solved), "need", "0"),
            ("max U - f*", max(s.upper_bound - s.f_star for s, _ in solved), "tol", str(float(tol))),
            ("max dual residual", max(s.dual_residual for s, _ in solved), "tol", "1e-12"),
            ("min eig Z", min(s.min_dual_eigenvalue for s, _ in solved), "floor", "0"),
        ]

    criteria = (
        ("analytic endpoint fidelities", criterion_1),
        ("critical weight and tangency", criterion_2),
        ("solver matches analytic optima", criterion_3),
        ("curvature-jump detection", criterion_4),
        ("ppt equals no-communication below threshold", criterion_5),
        ("kraus channel equals covariant family", criterion_6),
        ("protocol fidelity, exact and sampled", lambda: _criterion_7(seed)),
        ("measurement validity and dilations", criterion_8),
        ("structural invariants", criterion_9),
        ("certified optima", criterion_10),
    )
    results = []
    for number, (name, criterion) in enumerate(criteria, start=1):
        try:
            passed, detail = _verdict(criterion())
        except Exception as exc:
            passed, detail = False, f"exception: {exc}"
        results.append(CriterionResult(number=number, name=name, passed=passed, detail=detail))
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
