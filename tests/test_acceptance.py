"""End-to-end acceptance run: every shipped claim at its stated tolerance, and criterion 7's bar."""

import math
import re

import numpy as np
import pytest

from entclone import verify
from entclone.analytic import ALPHA_MAX
from entclone.protocol import run_protocol_exact
from entclone.verify import COVERAGE_BAR, FALSE_ALARM_RATE, _criterion_7, format_report, run_all

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
    passed, detail = _criterion_7(seed)
    assert passed == (bias == 0.0) and f"coverage {coverage}/100" in detail, detail
