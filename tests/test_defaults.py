"""Every t parameter defaults to covariant.T_OPERATORS, and a call that leaves t out equals,
bit for bit, one that passes a fresh build_t_operators()."""

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
    covariant.commutant_blocks,
    channel.channel_from_params,
    channel.fidelity_coefficients,
    channel.constraint_matrices,
    sdp.build_problem,
    sdp.sweep_solutions,
    sdp.solve_sweep,
)


@pytest.mark.parametrize("fn", DEFAULTED, ids=lambda fn: fn.__name__)
def test_t_defaults_to_the_module_operators(fn):
    assert inspect.signature(fn).parameters["t"].default is T_OPERATORS


def test_module_operators_are_read_only():
    for op in T_OPERATORS.as_list():
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_default_calls_equal_a_fresh_build():
    fresh = build_t_operators()
    assert fresh is not T_OPERATORS
    for alpha in ALPHAS:
        a = params_for(CloneFamily.LOCC_OPTIMAL, alpha)
        assert np.array_equal(covariant.assemble_ptilde(a), covariant.assemble_ptilde(a, fresh))
        assert np.array_equal(channel.channel_from_params(a), channel.channel_from_params(a, fresh))
        assert np.array_equal(channel.fidelity_coefficients(alpha), channel.fidelity_coefficients(alpha, fresh))
        for with_ppt in (False, True):
            got, want = sdp.build_problem(alpha, with_ppt=with_ppt), sdp.build_problem(alpha, fresh, with_ppt)
            assert_same_arrays((got.objective, got.eq_matrix, got.eq_rhs), (want.objective, want.eq_matrix, want.eq_rhs))
            assert_same_arrays(got.cones, want.cones)
            assert_same_arrays(got.setup, want.setup)
    assert np.array_equal(covariant.basis_stack(), covariant.basis_stack(fresh))
    assert_same_arrays(covariant.commutant_blocks(), covariant.commutant_blocks(fresh))
    assert_same_arrays(channel.constraint_matrices(), channel.constraint_matrices(fresh))


@pytest.mark.parametrize("with_ppt", [False, True])
def test_default_sweeps_equal_a_fresh_build(with_ppt):
    fresh = build_t_operators()
    got, want = sdp.sweep_solutions(ALPHAS, with_ppt), sdp.sweep_solutions(ALPHAS, with_ppt, fresh)
    assert [alpha for alpha, _ in got] == [alpha for alpha, _ in want]
    for (_, sol), (_, ref) in zip(got, want):
        assert sol.f_star == ref.f_star and sol.iterations == ref.iterations
        assert np.array_equal(sol.a_star, ref.a_star)
    assert sdp.solve_sweep(ALPHAS, with_ppt) == sdp.solve_sweep(ALPHAS, with_ppt, t=fresh)
