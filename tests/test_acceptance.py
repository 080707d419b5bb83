"""End-to-end acceptance run: every shipped claim at its stated tolerance."""

import pytest

from entclone.verify import format_report, run_all

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
