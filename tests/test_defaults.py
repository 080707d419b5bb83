"""A t parameter is left only on the five functions the benchmark passes one to.  Each defaults to
covariant.T_OPERATORS, build_t_operators() returns that array, and each refuses any other t with
ValueError."""

import inspect

import numpy as np
import pytest

from entclone import channel, covariant, sdp
from entclone.analytic import ALPHA_MAX, CloneFamily, alpha_critical, params_for
from entclone.covariant import T_OPERATORS, build_t_operators

ALPHAS = (0.0, 0.2, alpha_critical(), ALPHA_MAX)
DEFAULTED = (
    covariant.assemble_ptilde,
    channel.channel_from_params,
    channel.fidelity_coefficients,
    sdp.build_problem,
    sdp.solve_sweep,
)


# One call of each function in DEFAULTED with t passed: the sweep runs on an empty grid, so the check runs first.
CALLS = {
    "assemble_ptilde": lambda t: covariant.assemble_ptilde(np.zeros((5, 5)), t),
    "channel_from_params": lambda t: channel.channel_from_params(np.zeros((5, 5)), t),
    "fidelity_coefficients": lambda t: channel.fidelity_coefficients(0.3, t),
    "build_problem": lambda t: sdp.build_problem(0.3, t, with_ppt=True),
    "solve_sweep": lambda t: sdp.solve_sweep([], t=t),
}


def test_only_the_bench_held_functions_take_t():
    """The public functions of covariant, channel and sdp with a t parameter are exactly DEFAULTED and
    check_t, the check they share: the t parameters left to remove once the benchmark stops passing t."""
    with_t = {
        f"{module.__name__}.{name}"
        for module in (covariant, channel, sdp)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_") and "t" in inspect.signature(fn).parameters
    }
    assert with_t == {f"{fn.__module__}.{fn.__name__}" for fn in (*DEFAULTED, covariant.check_t)}


@pytest.mark.parametrize("fn", DEFAULTED, ids=lambda fn: fn.__name__)
def test_t_defaults_to_the_module_operators(fn):
    assert inspect.signature(fn).parameters["t"].default is T_OPERATORS


@pytest.mark.parametrize("fn", DEFAULTED, ids=lambda fn: fn.__name__)
def test_other_t_is_refused(fn):
    """An equal copy, a relabelled array and None are all refused; T_OPERATORS is not."""
    call = CALLS[fn.__name__]
    call(T_OPERATORS)
    for other in (T_OPERATORS.copy(), T_OPERATORS[[0, 1, 2, 4, 3]], None):
        with pytest.raises(ValueError, match="T_OPERATORS"):
            call(other)


def test_module_operators_are_read_only():
    assert isinstance(T_OPERATORS, np.ndarray) and T_OPERATORS.shape == (5, 8, 8)
    assert not T_OPERATORS.flags.writeable
    for op in T_OPERATORS:
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
        assert np.array_equal(channel.channel_from_params(a), channel.channel_from_params(a, t))
        assert np.array_equal(channel.fidelity_coefficients(alpha), channel.fidelity_coefficients(alpha, t))
        for with_ppt in (False, True):
            got, want = sdp.build_problem(alpha, with_ppt=with_ppt), sdp.build_problem(alpha, t, with_ppt)
            assert_same_arrays((got.objective, got.eq_matrix), (want.objective, want.eq_matrix))
            assert got.cones is want.cones and got.setup is want.setup


@pytest.mark.parametrize("with_ppt", [False, True])
def test_default_sweeps_equal_a_fresh_build(with_ppt):
    """solve_sweep passed build_t_operators() equals the default sweep and sweep_solutions' f* bit for bit."""
    fresh = build_t_operators()
    got = sdp.solve_sweep(ALPHAS, with_ppt, t=fresh)
    assert got == sdp.solve_sweep(ALPHAS, with_ppt)
    assert got == [(alpha, sol.f_star) for alpha, sol in sdp.sweep_solutions(ALPHAS, with_ppt)]
