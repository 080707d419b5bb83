import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    alpha_critical,
    c_of_alpha,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
    schmidt_state,
    x_of_alpha,
)


def test_c_endpoints():
    assert abs(c_of_alpha(0.0) - math.sqrt(73.0)) < 1e-14
    assert abs(c_of_alpha(ALPHA_MAX) - math.sqrt(117.0)) < 1e-13


def test_global_fidelity_endpoints():
    assert abs(fidelity_global(0.0) - (17.0 + math.sqrt(73.0)) / 36.0) < 1e-14
    assert abs(fidelity_global(ALPHA_MAX) - (5.0 + math.sqrt(13.0)) / 12.0) < 1e-14


def test_bh_fidelity_values():
    assert abs(fidelity_bh(0.0) - 25.0 / 36.0) < 1e-15
    assert abs(fidelity_bh(ALPHA_MAX) - 7.0 / 12.0) < 1e-15
    a0 = alpha_critical()
    assert abs(fidelity_bh(a0) - fidelity_locc(a0)) < 1e-14


def test_alpha_critical_properties():
    a0 = alpha_critical()
    assert abs(a0 - 0.3357) < 5e-5
    assert abs(1.0 - 10.0 * a0**2 + 10.0 * a0**4) < 1e-14
    h = 1e-5
    slope = (fidelity_global(a0 + h) - fidelity_global(a0 - h)) / (2.0 * h)
    assert abs(slope) < 1e-8
    assert fidelity_global(a0) < fidelity_global(0.0)
    assert fidelity_global(a0) < fidelity_global(ALPHA_MAX)


def test_locc_fidelity_values():
    assert abs(fidelity_locc(ALPHA_MAX) - 5.0 / 8.0) < 1e-15
    alpha = 0.5
    expected = (3.0 + 8.0 * alpha**2 * (1.0 - alpha**2) * (2.0 + alpha**2 - alpha**4)) / (
        4.0 * (1.0 + 8.0 * alpha**2 - 8.0 * alpha**4)
    )
    assert abs(fidelity_locc(alpha) - expected) < 1e-15


def ulp_neighbours(alpha: float, count: int) -> list[float]:
    """alpha and the count floats on each side of it."""
    below, above, out = alpha, alpha, [alpha]
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_locc_matches_bh_below_threshold():
    a0 = alpha_critical()
    for alpha in (0.0, 0.1, 0.2, 0.3, a0):
        assert fidelity_locc(alpha) == fidelity_bh(alpha)
    assert abs(fidelity_locc(a0 + 1e-9) - fidelity_bh(a0)) < 1e-8
    # The closed forms branch on x <= 1/10; it must pick the same side as alpha <= alpha_critical().
    assert x_of_alpha(a0) <= 0.1
    bh_point = params_for(CloneFamily.BUZEK_HILLERY_SQUARED, 0.0)
    for alpha in ulp_neighbours(a0, 50):
        below = alpha <= a0
        assert (x_of_alpha(alpha) <= 0.1) == below, alpha
        assert np.array_equal(params_for(CloneFamily.LOCC_OPTIMAL, alpha), bh_point) == below, alpha
        assert not below or fidelity_locc(alpha) == fidelity_bh(alpha), alpha
    grid = np.linspace(0.0, ALPHA_MAX, 200_001)
    assert [x_of_alpha(alpha) <= 0.1 for alpha in grid] == list(grid <= a0)


def exact_alpha_forms(alpha: float) -> dict:
    """x, c, the three curves and the GLOBAL and LOCC parameter matrices in their alpha^2, alpha^4 forms,
    evaluated exactly at the float alpha: rational parts as Fractions, and c and the global a44 =
    sqrt(a11 a22)/2 as Decimals to 50 digits.  The LOCC branch is taken on the exact sign of
    1 - 10 a^2 + 10 a^4."""

    def dec(q: Fraction) -> Decimal:
        return Decimal(q.numerator) / Decimal(q.denominator)

    with localcontext() as ctx:
        ctx.prec = 50
        a2 = Fraction(alpha) ** 2
        a4 = a2 * a2
        c = dec(73 + 16 * a2 * (1 - a2) * (1 + 40 * a2 - 40 * a4)).sqrt()
        f_bh = dec((25 - 16 * a2 + 16 * a4) / 36)
        gap = 1 - 10 * a2 + 10 * a4
        den = 1 + 8 * a2 - 8 * a4
        f_locc = dec((3 + 8 * a2 * (1 - a2) * (2 + a2 - a4)) / (4 * den)) if gap < 0 else f_bh
        a11 = Decimal(1) / 2 - 4 * dec(1 - a2 + a4) / c
        a44 = (a11 * (1 - a11)).sqrt() / 2
        glob = [[Decimal(0)] * 5 for _ in range(5)]
        glob[0][0], glob[1][1], glob[3][3], glob[4][4] = a11, 1 - a11, a44, -a44
        s = -gap / (2 * den) if gap < 0 else Fraction(0)
        locc = [[Decimal(0)] * 5 for _ in range(5)]
        locc[0][0], locc[1][1] = dec(s * s), dec((1 - s) ** 2)
        locc[0][1] = locc[1][0] = locc[3][3] = dec(s * (1 - s))
        return {
            "x": dec(a2 * (1 - a2)),
            "c": c,
            "f_global": (dec(16 + (1 - 4 * a2) ** 2 - 8 * a4) + c) / 36,
            "f_bh": f_bh,
            "f_locc": f_locc,
            "global": glob,
            "locc": locc,
        }


def test_closed_forms_match_the_exact_alpha_forms():
    """Every closed form lies within 2^-51 of its alpha^2, alpha^4 form evaluated exactly.

    The bound is absolute on [-1, 1], where every quantity but c lies; c >= sqrt(73) carries half
    an ulp of 8.9e-16 from its final rounding alone, so its bound is 2^-51 c, about 2.5 ulp.
    Absolute, not in ulps: near alpha_critical() the LOCC a11 -> 0 through the cancellation in
    1 - 10x, so its relative error is large in any float form.
    """
    bound = Decimal(2) ** -51
    grid = [*np.linspace(0.0, ALPHA_MAX, 50), alpha_critical(), *np.linspace(0.0, ALPHA_MAX, 401)]
    for alpha in map(float, grid):
        want = exact_alpha_forms(alpha)
        got = {
            "x": x_of_alpha(alpha),
            "c": c_of_alpha(alpha),
            "f_global": fidelity_global(alpha),
            "f_bh": fidelity_bh(alpha),
            "f_locc": fidelity_locc(alpha),
        }
        for name, value in got.items():
            assert abs(Decimal(value) - want[name]) <= bound * max(1, abs(want[name])), (name, alpha)
        for name, family in (("global", CloneFamily.GLOBAL_OPTIMAL), ("locc", CloneFamily.LOCC_OPTIMAL)):
            a = params_for(family, alpha)
            for i in range(5):
                for j in range(5):
                    assert abs(Decimal(a[i, j]) - want[name][i][j]) <= bound, (name, i, j, alpha)


def test_fidelity_ordering_on_grid():
    alphas = np.linspace(0.0, ALPHA_MAX, 201)
    for alpha in alphas:
        fg = fidelity_global(alpha)
        fl = fidelity_locc(alpha)
        fb = fidelity_bh(alpha)
        assert fg >= fl - 1e-12
        assert fl >= fb - 1e-12


def test_params_bh_is_pure_a22():
    a = params_for(CloneFamily.BUZEK_HILLERY_SQUARED, 0.4)
    expected = np.zeros((5, 5))
    expected[1, 1] = 1.0
    assert np.array_equal(a, expected)


def test_params_locc_at_threshold():
    a = params_for(CloneFamily.LOCC_OPTIMAL, alpha_critical())
    assert abs(a[0, 0]) < 1e-13
    assert abs(a[1, 1] - 1.0) < 1e-13


def test_params_locc_structure_above_threshold():
    a = params_for(CloneFamily.LOCC_OPTIMAL, 0.6)
    root = math.sqrt(a[0, 0])
    assert abs(a[1, 1] - (1.0 - root) ** 2) < 1e-13
    gm = math.sqrt(a[0, 0] * a[1, 1])
    for idx in ((0, 1), (1, 0), (3, 3)):
        assert abs(a[idx] - gm) < 1e-13


def test_params_locc_at_max():
    a = params_for(CloneFamily.LOCC_OPTIMAL, ALPHA_MAX)
    assert abs(a[0, 0] - 1.0 / 16.0) < 1e-14


def test_params_global_at_max():
    a = params_for(CloneFamily.GLOBAL_OPTIMAL, ALPHA_MAX)
    assert abs(a[0, 0] - (0.5 - 1.0 / math.sqrt(13.0))) < 1e-14
    assert abs(a[1, 1] - (1.0 - a[0, 0])) < 1e-14
    gm = math.sqrt(a[0, 0] * a[1, 1]) / 2.0
    assert abs(a[3, 3] - gm) < 1e-14
    assert abs(a[4, 4] + gm) < 1e-14


def test_params_trace_normalization():
    trace_weights = np.array([1.0, 1.0, 2.0, 0.0, 0.0])
    for family in CloneFamily:
        for alpha in np.linspace(0.0, ALPHA_MAX, 15):
            a = params_for(family, alpha)
            total = trace_weights @ a @ trace_weights
            assert abs(total - 1.0) < 1e-12


def test_domain_validation():
    for fn in (x_of_alpha, c_of_alpha, fidelity_global, fidelity_bh, fidelity_locc):
        with pytest.raises(ValueError):
            fn(-0.01)
        with pytest.raises(ValueError):
            fn(ALPHA_MAX + 1e-6)
    with pytest.raises(ValueError):
        params_for(CloneFamily.GLOBAL_OPTIMAL, 0.9)


def test_schmidt_state():
    v = schmidt_state(0.6)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    assert v[0] == 0.6
    assert abs(v[3] - math.sqrt(1.0 - 0.36)) < 1e-15
    assert v[1] == 0.0 and v[2] == 0.0
    bell = schmidt_state(ALPHA_MAX)
    assert abs(bell[0] - bell[3]) < 1e-15
