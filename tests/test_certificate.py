"""Property test: the dual certificate brackets the closed-form optimum at any Schmidt weight, on both cones."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from entclone.analytic import ALPHA_MAX, alpha_critical, fidelity_global, fidelity_locc  # noqa: E402
from entclone.sdp import build_problem, solve  # noqa: E402

TOL = 1e-7


@pytest.mark.parametrize("with_ppt", [False, True], ids=["plain", "ppt"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=0.0, max_value=ALPHA_MAX))
@example(alpha=0.0)
@example(alpha=alpha_critical())
@example(alpha=ALPHA_MAX)
def test_certificate_brackets_closed_form(with_ppt, alpha):
    """f* <= F_closed <= U, U - f* <= tol, a rounding-level dual residual and a positive definite Z."""
    sol = solve(build_problem(alpha, with_ppt=with_ppt), tol=TOL)
    closed = fidelity_locc(alpha) if with_ppt else fidelity_global(alpha)
    assert sol.f_star <= closed <= sol.upper_bound
    assert sol.upper_bound - sol.f_star <= TOL
    assert sol.dual_residual <= 1e-12
    assert sol.min_dual_eigenvalue > 0.0
