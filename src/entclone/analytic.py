"""Closed-form fidelity curves and optimal parameter families.

Input states are a|00> + sqrt(1-a^2)|11> with the Schmidt weight alpha
running over [0, 1/sqrt(2)]; alpha = 0 is a product state and
alpha = 1/sqrt(2) is maximally entangled.  Three families of covariant
cloners are provided: the unconstrained optimum, the tensor square of
the optimal single-qubit cloner (no communication between the parties),
and the one-bit LOCC optimum, which coincides with the no-communication
family below the critical weight returned by alpha_critical().
"""

from __future__ import annotations

import enum
import math

import numpy as np

ALPHA_MAX = 1.0 / math.sqrt(2.0)

_ALPHA_SLACK = 1e-12


class CloneFamily(enum.Enum):
    GLOBAL_OPTIMAL = "global"
    BUZEK_HILLERY_SQUARED = "bh"
    LOCC_OPTIMAL = "locc"


def check_alpha(alpha: float) -> float:
    """The Schmidt weight as a float in [0, 1/sqrt(2)].

    A value outside the range by at most 1e-12 is clamped to the nearer
    end; any other value, nan included, raises ValueError.
    """
    alpha = float(alpha)
    if not (-_ALPHA_SLACK <= alpha <= ALPHA_MAX + _ALPHA_SLACK):
        raise ValueError(f"alpha must lie in [0, 1/sqrt(2)], got {alpha!r}")
    return min(max(alpha, 0.0), ALPHA_MAX)


def schmidt_state(alpha: float) -> np.ndarray:
    """Representative input a|00> + sqrt(1-a^2)|11> as a 4-vector on (A, B)."""
    alpha = check_alpha(alpha)
    v = np.zeros(4, dtype=complex)
    v[0] = alpha
    v[3] = math.sqrt(1.0 - alpha * alpha)
    return v


def c_of_alpha(alpha: float) -> float:
    """Discriminant entering the unconstrained optimum."""
    alpha = check_alpha(alpha)
    a2 = alpha * alpha
    return math.sqrt(73.0 + 16.0 * a2 * (1.0 - a2) * (1.0 + 40.0 * a2 - 40.0 * a2 * a2))


def fidelity_global(alpha: float) -> float:
    """Best clone fidelity over all joint operations."""
    alpha = check_alpha(alpha)
    a2 = alpha * alpha
    return (16.0 + (1.0 - 4.0 * a2) ** 2 - 8.0 * a2 * a2 + c_of_alpha(alpha)) / 36.0


def fidelity_bh(alpha: float) -> float:
    """Clone fidelity of two independent optimal local cloners."""
    alpha = check_alpha(alpha)
    a2 = alpha * alpha
    return (25.0 - 16.0 * a2 + 16.0 * a2 * a2) / 36.0


def alpha_critical() -> float:
    """Schmidt weight below which one bit of communication stops helping."""
    return math.sqrt(0.5 - math.sqrt(15.0) / 10.0)


def _locc_sqrt_a11(alpha: float) -> float:
    # Above the critical weight 1 - 10 a^2 + 10 a^4 is negative.
    a2 = alpha * alpha
    return abs(1.0 - 10.0 * a2 + 10.0 * a2 * a2) / (2.0 * (1.0 + 8.0 * a2 - 8.0 * a2 * a2))


def fidelity_locc(alpha: float) -> float:
    """Best clone fidelity for local operations plus one classical bit."""
    alpha = check_alpha(alpha)
    if alpha <= alpha_critical():
        return fidelity_bh(alpha)
    a2 = alpha * alpha
    num = 3.0 + 8.0 * a2 * (1.0 - a2) * (2.0 + a2 - a2 * a2)
    den = 4.0 * (1.0 + 8.0 * a2 - 8.0 * a2 * a2)
    return num / den


def params_for(family: CloneFamily, alpha: float) -> np.ndarray:
    """Covariant parameter matrix a_ij (5x5, real) of the requested family.

    Every returned matrix satisfies the trace-preservation equality; the
    LOCC family is piecewise and returns the no-communication point at
    and below the critical weight.
    """
    alpha = check_alpha(alpha)
    a = np.zeros((5, 5))
    if family is CloneFamily.GLOBAL_OPTIMAL:
        a2 = alpha * alpha
        a11 = 0.5 - 4.0 * (1.0 - a2 + a2 * a2) / c_of_alpha(alpha)
        a22 = 1.0 - a11
        a44 = math.sqrt(a11 * a22) / 2.0
        a[0, 0] = a11
        a[1, 1] = a22
        a[3, 3] = a44
        a[4, 4] = -a44
    elif family is CloneFamily.BUZEK_HILLERY_SQUARED:
        a[1, 1] = 1.0
    elif family is CloneFamily.LOCC_OPTIMAL:
        if alpha <= alpha_critical():
            a[1, 1] = 1.0
        else:
            s = _locc_sqrt_a11(alpha)
            t = 1.0 - s
            a[0, 0] = s * s
            a[1, 1] = t * t
            a[0, 1] = a[1, 0] = s * t
            a[3, 3] = s * t
    else:
        raise ValueError(f"unknown family {family!r}")
    return a
