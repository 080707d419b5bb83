"""Property tests: covariance and feasibility under local unitaries, and the protocol's branch probabilities."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from entclone.analytic import ALPHA_MAX, alpha_critical, schmidt_state  # noqa: E402
from entclone.channel import apply_choi, clone_reductions, constraint_matrices, trace_output  # noqa: E402
from entclone.covariant import assemble_ptilde  # noqa: E402
from entclone.protocol import run_protocol_exact  # noqa: E402
from reference import choi_kron, triple_rep  # noqa: E402

unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def su2(draw) -> np.ndarray:
    """An SU(2) element from a normalized quaternion, as reference.random_su2 builds it."""
    q = np.array(draw(st.lists(unit, min_size=4, max_size=4)))
    assume(np.linalg.norm(q) > 0.1)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    entries=st.lists(unit, min_size=25, max_size=25),
    u_a=su2(),
    u_b=su2(),
    alpha=st.floats(min_value=0.0, max_value=ALPHA_MAX),
)
def test_random_parameters_are_covariant_and_stay_feasible(entries, u_a, u_b, alpha):
    """For any a, sum_ij a_ij ti (x) tj commutes with every local U (x) U (x) U*.

    Projected onto the trace and clone-symmetry equalities, a gives a
    trace-preserving channel whose clones agree on a locally rotated
    input, and rotating the input rotates both clones alike.
    """
    a = np.array(entries).reshape(5, 5)
    rep = choi_kron(triple_rep(u_a), triple_rep(u_b))
    ptilde = assemble_ptilde(a)
    assert np.abs(rep @ ptilde @ rep.conj().T - ptilde).max() < 1e-12

    trace_row, sym_rows = constraint_matrices()
    rows = np.vstack([trace_row, sym_rows])
    rhs = np.zeros(len(rows))
    rhs[0] = 1.0
    x = a.reshape(-1) - np.linalg.lstsq(rows, rows @ a.reshape(-1) - rhs, rcond=None)[0]
    choi = assemble_ptilde(x.reshape(5, 5))
    assert np.abs(trace_output(choi) - np.eye(4)).max() < 1e-10

    phi = schmidt_state(alpha)
    rho = np.outer(phi, phi.conj())
    local = np.kron(u_a, u_b)
    r1, r2 = clone_reductions(apply_choi(choi, local @ rho @ local.conj().T))
    assert np.abs(r1 - r2).max() < 1e-10
    s1, _ = clone_reductions(apply_choi(choi, rho))
    assert np.abs(local @ s1 @ local.conj().T - r1).max() < 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=0.0, max_value=ALPHA_MAX))
@example(alpha=0.0)
@example(alpha=alpha_critical())
@example(alpha=ALPHA_MAX)
def test_branch_probabilities_sum_to_one(alpha):
    """The eight branches of the exact protocol are a probability distribution at every Schmidt weight."""
    probs = [branch.joint_probability for branch in run_protocol_exact(alpha)]
    assert len(probs) == 8
    assert min(probs) >= 0.0
    assert abs(sum(probs) - 1.0) <= 1e-12
