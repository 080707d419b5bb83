"""The three benchmark workloads, their seeded inputs and their correctness checks.

Each workload is a closed loop: one caller, the next point starts when
the previous one is done.  Inputs come from ``numpy.random`` generators
seeded with the workload seed, so one seed always gives the same
alphas.  The package only ever sees those alphas.  Every numeric result
is compared with its closed form; a miss is counted, never raised.

Calls go through module attributes (``sdp.solve``, not an imported
``solve``) so that the wrappers installed by ``spans.tracing`` see them.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from entclone import analytic, channel, cli, covariant, protocol, sdp
from entclone.analytic import ALPHA_MAX, CloneFamily

import pace
import spans

SOLVER_TOL = 1e-7
SDP_BAR = 1e-6
KINK_BAR = 5e-3
EXACT_BAR = 1e-12
CHOI_BAR = 1e-10
COVERAGE_BAR = 0.99
SAMPLED_TRIALS = 100_000


@dataclass
class Tally:
    """Points completed, their latencies, and every check made on them."""

    ref_shift: float = 0.0
    pace: pace.Pace | None = None
    latencies_s: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    worst: dict[str, float] = field(default_factory=dict)
    misses: list[str] = field(default_factory=list)
    coverage_hits: int = 0
    coverage_runs: int = 0

    def absorb(self, other: "Tally") -> None:
        """Add another tally's checks (not its latencies or its coverage) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for name, err in other.worst.items():
            self.worst[name] = max(self.worst.get(name, 0.0), err)
        self.misses.extend(other.misses[: max(20 - len(self.misses), 0)])

    def point_done(self, seconds: float) -> None:
        """Record one point's wall time; between points this may run the pace kernel."""
        self.latencies_s.append(seconds)
        if self.pace is not None:
            self.pace.add(seconds)

    def check(self, name: str, err: float, bar: float, where: str) -> None:
        self.attempted += 1
        self.worst[name] = max(self.worst.get(name, 0.0), float(err))
        if not err <= bar:  # a NaN error is a miss too
            self._miss(f"{name} at {where}: {err:.3g} > {bar:g}")

    def fail(self, name: str, where: str, exc: Exception) -> None:
        self.attempted += 1
        self._miss(f"{name} at {where}: {type(exc).__name__}: {exc}")

    def _miss(self, text: str) -> None:
        self.failed += 1
        if len(self.misses) < 20:
            self.misses.append(text)

    def coverage_check(self) -> None:
        if self.coverage_runs:
            share = self.coverage_hits / self.coverage_runs
            shortfall = max(COVERAGE_BAR - share, 0.0)
            self.check("sampled_coverage_shortfall", shortfall, 0.0, f"{self.coverage_runs} runs")

    @property
    def max_abs_err(self) -> float:
        """Worst |numeric - closed form| over the value checks (not kink location or coverage)."""
        values = [v for k, v in self.worst.items() if k not in ("kink_vs_alpha_critical", "sampled_coverage_shortfall")]
        return max(values, default=0.0)


@dataclass(frozen=True)
class ClosedForms:
    f_global: float
    f_bh: float
    f_locc: float
    a_global: np.ndarray
    a_locc: np.ndarray


def closed_forms(alpha: float, tracer: spans.Tracer | None) -> ClosedForms:
    """The reference bundle every workload computes per point (the analytic layer's span)."""
    with _span(tracer, "analytic.closed_forms"):
        return ClosedForms(
            f_global=analytic.fidelity_global(alpha),
            f_bh=analytic.fidelity_bh(alpha),
            f_locc=analytic.fidelity_locc(alpha),
            a_global=analytic.params_for(CloneFamily.GLOBAL_OPTIMAL, alpha),
            a_locc=analytic.params_for(CloneFamily.LOCC_OPTIMAL, alpha),
        )


def _tag(tracer: spans.Tracer | None, point: str) -> None:
    if tracer is not None:
        tracer.point = point


def _span(tracer: spans.Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class KinkScan:
    """PPT-cone solves on uniform 36-point grids, each ended by ``detect_threshold``.

    Step 0.002 from 0.30; the seed shifts each grid's start by up to
    +-0.005, which always brackets alpha_critical() ~ 0.3357.
    """

    name = "kink_scan"
    POINTS = 36
    STEP = 0.002
    START = 0.30

    def __init__(self, seed: int):
        self.seed = seed

    def grids(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield self.START + rng.uniform(-0.005, 0.005) + self.STEP * np.arange(self.POINTS)

    def run(self, t, tally: Tally, budget_s: float, tracer=None, max_points: int | None = None) -> None:
        began = time.perf_counter()
        for grid in self.grids():
            curve = []
            for alpha in grid:
                done = len(tally.latencies_s)
                if max_points is not None and done >= max_points:
                    return
                if max_points is None and tally.passes >= 1 and time.perf_counter() - began >= budget_s:
                    return
                where = f"alpha={alpha:.6f}"
                _tag(tracer, f"{self.name}:{done}")
                t0 = time.perf_counter()
                with _span(tracer, "bench.point"):
                    ref = closed_forms(alpha, tracer)
                    try:
                        sol = sdp.solve(sdp.build_problem(alpha, t, with_ppt=True), tol=SOLVER_TOL)
                    except (sdp.ConvergenceError, ValueError) as exc:
                        tally.fail("sdp_ppt_vs_locc", where, exc)
                    else:
                        curve.append((alpha, sol.f_star))
                        err = abs(sol.f_star - ref.f_locc - tally.ref_shift)
                        tally.check("sdp_ppt_vs_locc", err, SDP_BAR, where)
                tally.point_done(time.perf_counter() - t0)
            tally.passes += 1
            _tag(tracer, f"{self.name}:scan{tally.passes}")
            try:
                kink = sdp.detect_threshold(curve)
            except ValueError as exc:  # ThresholdDetectionError is a ValueError
                tally.fail("kink_vs_alpha_critical", f"scan {tally.passes}", exc)
            else:
                err = abs(kink - analytic.alpha_critical())
                tally.check("kink_vs_alpha_critical", err, KINK_BAR, f"scan {tally.passes}")


class GlobalCurve:
    """Plain-cone sweeps through ``sdp.solve_sweep`` over [0, 1/sqrt(2)].

    Each sweep has the 50 points of the grid ``entclone verify`` sweeps,
    stratified: one seeded draw in each of 50 equal bins.
    ``solve_sweep`` is one call per sweep, so a point's latency is the
    time from the previous ``sdp.solve`` return (or the sweep's start)
    to this one's, stamped by a thin wrapper; the first point of a sweep
    carries the sweep's assembly.  The wrapper records the point before
    it returns and restarts the clock after, so a pace kernel run in
    between is in no point's time.  ``max_points`` cuts the last sweep
    short.
    """

    name = "global_curve"
    PER_SWEEP = 50

    def __init__(self, seed: int):
        self.seed = seed

    def sweeps(self):
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield (np.arange(self.PER_SWEEP) + rng.uniform(size=self.PER_SWEEP)) * ALPHA_MAX / self.PER_SWEEP

    def run(self, t, tally: Tally, budget_s: float, tracer=None, max_points: int | None = None) -> None:
        began = time.perf_counter()
        started = [0.0]
        inner = sdp.solve

        def stamped(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                tally.point_done(time.perf_counter() - started[0])
                started[0] = time.perf_counter()

        with spans.replaced(inner, stamped):
            for alphas in self.sweeps():
                done = len(tally.latencies_s)
                if max_points is not None:
                    if done >= max_points:
                        return
                    alphas = alphas[: max_points - done]
                elif tally.passes >= 1 and time.perf_counter() - began >= budget_s:
                    return
                where = f"sweep {tally.passes}"
                _tag(tracer, f"{self.name}:{done}")
                started[0] = time.perf_counter()
                with _span(tracer, "bench.point"):
                    try:
                        pairs = sdp.solve_sweep(alphas, with_ppt=False, t=t, tol=SOLVER_TOL)
                    except (sdp.ConvergenceError, ValueError) as exc:
                        pairs = []
                        tally.fail("sdp_vs_global", where, exc)
                    for alpha, f_star in pairs:
                        ref = closed_forms(alpha, tracer)
                        err = abs(f_star - ref.f_global - tally.ref_shift)
                        tally.check("sdp_vs_global", err, SDP_BAR, f"alpha={alpha:.6f}")
                tally.passes += 1


class LoccProtocol:
    """The one-bit protocol and the channel layer at seeded alphas; no SDP.

    Rounds of 50 alphas in seeded order: 0, alpha_critical() and
    1/sqrt(2), plus one uniform draw in each of 47 equal bins of
    [0, 1/sqrt(2)].  Points below alpha_critical() are cheaper (fewer
    nonzero parameters), so the bins keep that share the same in every
    round and for every seed.  The run ends with the sampled-coverage
    check and one in-process analytic ``cli.main`` sweep written to a
    file under ``out_dir``; a run cut short by ``max_points`` skips both.
    """

    name = "locc_protocol"
    PER_ROUND = 50

    def __init__(self, seed: int, out_dir: str):
        self.seed, self.out_dir = seed, out_dir

    def points(self):
        rng = np.random.default_rng([self.seed, 3])
        fixed = [0.0, analytic.alpha_critical(), ALPHA_MAX]
        bins = self.PER_ROUND - len(fixed)
        while True:
            draws = (np.arange(bins) + rng.uniform(size=bins)) * ALPHA_MAX / bins
            alphas = rng.permutation(np.concatenate([fixed, draws]))
            yield from zip(alphas, rng.integers(0, 2**31, self.PER_ROUND))

    def point(self, alpha: float, sample_seed: int, t, tally: Tally, tracer=None) -> None:
        where = f"alpha={alpha:.6f}"
        ref = closed_forms(alpha, tracer)
        f_locc = ref.f_locc + tally.ref_shift
        ks = protocol.build_kraus(alpha)
        transcripts = protocol.run_protocol_exact(alpha)
        exact = protocol.average_clone_fidelity(transcripts, analytic.schmidt_state(alpha))
        tally.check("exact_vs_locc", abs(exact - f_locc), EXACT_BAR, where)
        prob_sum = sum(tr.joint_probability for tr in transcripts)
        tally.check("probability_sum", abs(prob_sum - 1.0 - tally.ref_shift), EXACT_BAR, where)
        estimate, stderr = protocol.run_protocol_sampled(alpha, trials=SAMPLED_TRIALS, seed=int(sample_seed))
        tally.coverage_runs += 1
        tally.coverage_hits += abs(estimate - exact) <= 3.0 * stderr
        choi_gap = np.linalg.norm(protocol.kraus_to_choi(ks) - covariant.assemble_ptilde(ref.a_locc, t))
        tally.check("kraus_vs_choi", float(choi_gap) + tally.ref_shift, CHOI_BAR, where)
        local = channel.local_fidelity(channel.channel_from_params(ref.a_locc, t), alpha)
        tally.check("local_vs_locc", abs(local - f_locc), EXACT_BAR, where)
        functional = float(np.sum(channel.fidelity_coefficients(alpha, t) * ref.a_global))
        tally.check("functional_vs_global", abs(functional - ref.f_global - tally.ref_shift), EXACT_BAR, where)

    def cli_sweep(self, tally: Tally, steps: int) -> None:
        """One analytic ``entclone sweep`` in process, its CSV checked against the closed forms."""
        path = os.path.join(self.out_dir, f"cli-sweep-{self.seed}.csv")
        code = cli.main(["sweep", "--alpha-min", "0", "--alpha-max", "max", "--steps", str(steps),
                         "--modes", "global,bh,locc", "--out", path])
        worst = math.inf
        if code == 0:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            forms = {
                "f_global": analytic.fidelity_global,
                "f_bh": analytic.fidelity_bh,
                "f_locc": analytic.fidelity_locc,
            }
            if len(rows) == steps:
                worst = max(
                    abs(float(row[col]) - fn(float(row["alpha"])) - tally.ref_shift)
                    for row in rows
                    for col, fn in forms.items()
                )
        tally.check("cli_vs_closed_forms", worst, EXACT_BAR, f"cli sweep exit {code}")

    def run(self, t, tally: Tally, budget_s: float, tracer=None, max_points: int | None = None) -> None:
        began = time.perf_counter()
        for alpha, sample_seed in self.points():
            done = len(tally.latencies_s)
            if max_points is not None and done >= max_points:
                break
            if max_points is None and done >= self.PER_ROUND and time.perf_counter() - began >= budget_s:
                break
            _tag(tracer, f"{self.name}:{done}")
            t0 = time.perf_counter()
            with _span(tracer, "bench.point"):
                self.point(float(alpha), sample_seed, t, tally, tracer)
            tally.point_done(time.perf_counter() - t0)
        tally.passes += 1
        if max_points is None:
            tally.coverage_check()
            _tag(tracer, f"{self.name}:cli")
            self.cli_sweep(tally, steps=40 + self.seed % 21)


def make(name: str, seed: int, out_dir: str):
    if name == KinkScan.name:
        return KinkScan(seed)
    return LoccProtocol(seed, out_dir) if name == LoccProtocol.name else GlobalCurve(seed)


def probe(seed: int, t, tally: Tally, tracer: spans.Tracer, out_dir: str) -> tuple[int, int]:
    """Calls into every traced layer, so a traced run reports every layer.

    Run after the main loop; its spans are used only for functions the
    loop never called.  It
    makes one PPT solve, a two-point plain sweep, a kink detection on a
    closed-form curve, one full locc_protocol round and one CLI sweep.
    Returns the round's sampled coverage as (hits, runs); 50 runs are too
    few to judge the 99% bar, so it is reported, not checked.
    """
    rng = np.random.default_rng([seed, 4])
    alpha = float(rng.uniform(0.30, 0.37))
    _tag(tracer, "probe:ppt")
    with tracer.span("bench.point"):
        sol = sdp.solve(sdp.build_problem(alpha, t, with_ppt=True), tol=SOLVER_TOL)
        err = abs(sol.f_star - closed_forms(alpha, tracer).f_locc - tally.ref_shift)
        tally.check("sdp_ppt_vs_locc", err, SDP_BAR, f"probe alpha={alpha:.6f}")
    _tag(tracer, "probe:plain")
    with tracer.span("bench.point"):
        for a, f_star in sdp.solve_sweep([alpha, ALPHA_MAX - alpha], with_ppt=False, t=t, tol=SOLVER_TOL):
            err = abs(f_star - closed_forms(a, tracer).f_global - tally.ref_shift)
            tally.check("sdp_vs_global", err, SDP_BAR, f"probe alpha={a:.6f}")
    _tag(tracer, "probe:kink")
    with tracer.span("bench.point"):
        grid = KinkScan.START + rng.uniform(-0.005, 0.005) + KinkScan.STEP * np.arange(KinkScan.POINTS)
        kink = sdp.detect_threshold([(a, closed_forms(a, tracer).f_locc) for a in grid])
        err = abs(kink - analytic.alpha_critical())
        tally.check("kink_vs_alpha_critical", err, KINK_BAR, "probe closed-form curve")
    locc = LoccProtocol(seed, out_dir)
    round_tally = Tally(ref_shift=tally.ref_shift)
    locc.run(t, round_tally, 0.0, tracer, max_points=LoccProtocol.PER_ROUND)
    tally.absorb(round_tally)
    _tag(tracer, "probe:cli")
    locc.cli_sweep(tally, steps=40)
    return round_tally.coverage_hits, round_tally.coverage_runs
