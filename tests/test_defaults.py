"""Every t parameter defaults to covariant.T_OPERATORS, build_t_operators() returns that object, and
every function with a t parameter refuses any other t with ValueError."""

import dataclasses
import inspect

import numpy as np
import pytest

from entclone import channel, covariant, sdp
from entclone.analytic import ALPHA_MAX, CloneFamily, alpha_critical, params_for
from entclone.covariant import T_OPERATORS, build_t_operators

ALPHAS = (0.0, 0.2, alpha_critical(), ALPHA_MAX)
DEFAULTED = (
    covariant.assemble_ptilde,
    covariant.basis_stack,
    channel.channel_from_params,
    channel.fidelity_coefficients,
    channel.constraint_matrices,
    sdp.build_problem,
    sdp.sweep_solutions,
    sdp.solve_sweep,
)


# One call of each function in DEFAULTED with t passed: sweeps on an empty grid, so the check runs first.
CALLS = {
    "assemble_ptilde": lambda t: covariant.assemble_ptilde(np.zeros((5, 5)), t),
    "basis_stack": covariant.basis_stack,
    "channel_from_params": lambda t: channel.channel_from_params(np.zeros((5, 5)), t),
    "fidelity_coefficients": lambda t: channel.fidelity_coefficients(0.3, t),
    "constraint_matrices": channel.constraint_matrices,
    "build_problem": lambda t: sdp.build_problem(0.3, t, with_ppt=True),
    "sweep_solutions": lambda t: sdp.sweep_solutions([], False, t),
    "solve_sweep": lambda t: sdp.solve_sweep([], t=t),
}


@pytest.mark.parametrize("fn", DEFAULTED, ids=lambda fn: fn.__name__)
def test_t_defaults_to_the_module_operators(fn):
    assert inspect.signature(fn).parameters["t"].default is T_OPERATORS


@pytest.mark.parametrize("fn", DEFAULTED, ids=lambda fn: fn.__name__)
def test_other_t_is_refused(fn):
    """An equal copy, a relabelled set and a non-TOperators value are all refused; T_OPERATORS is not."""
    call = CALLS[fn.__name__]
    call(T_OPERATORS)
    relabelled = dataclasses.replace(T_OPERATORS, t4=T_OPERATORS.t5, t5=T_OPERATORS.t4)
    for other in (dataclasses.replace(T_OPERATORS), relabelled, None):
        with pytest.raises(ValueError, match="T_OPERATORS"):
            call(other)


def test_module_operators_are_read_only():
    for op in T_OPERATORS.as_list():
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_build_t_operators_returns_the_module_operators():
    """build_t_operators() is T_OPERATORS, so a call passing it equals the default call bit for bit."""
    assert build_t_operators() is T_OPERATORS
    t = build_t_operators()
    for alpha in ALPHAS:
        a = params_for(CloneFamily.LOCC_OPTIMAL, alpha)
        assert np.array_equal(covariant.assemble_ptilde(a), covariant.assemble_ptilde(a, t))
        assert np.array_equal(channel.fidelity_coefficients(alpha), channel.fidelity_coefficients(alpha, t))
        for with_ppt in (False, True):
            got, want = sdp.build_problem(alpha, with_ppt=with_ppt), sdp.build_problem(alpha, t, with_ppt)
            assert_same_arrays((got.objective, got.eq_matrix, got.eq_rhs), (want.objective, want.eq_matrix, want.eq_rhs))
            assert got.cones is want.cones and got.setup is want.setup


@pytest.mark.parametrize("with_ppt", [False, True])
def test_default_sweeps_equal_a_fresh_build(with_ppt):
    fresh = build_t_operators()
    got, want = sdp.sweep_solutions(ALPHAS, with_ppt), sdp.sweep_solutions(ALPHAS, with_ppt, fresh)
    assert [alpha for alpha, _ in got] == [alpha for alpha, _ in want]
    for (_, sol), (_, ref) in zip(got, want):
        assert sol.f_star == ref.f_star and sol.iterations == ref.iterations
        assert np.array_equal(sol.a_star, ref.a_star)
    assert sdp.solve_sweep(ALPHAS, with_ppt) == sdp.solve_sweep(ALPHAS, with_ppt, t=fresh)
