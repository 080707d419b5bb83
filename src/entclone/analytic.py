"""Closed-form fidelity curves and optimal parameter families.

Input states are a|00> + sqrt(1-a^2)|11> with the Schmidt weight alpha
running over [0, 1/sqrt(2)]; alpha = 0 is a product state and
alpha = 1/sqrt(2) is maximally entangled.  Three families of covariant
cloners are provided: the unconstrained optimum, the tensor square of
the optimal single-qubit cloner (no communication between the parties),
and the one-bit LOCC optimum, which coincides with the no-communication
family below the critical weight returned by alpha_critical().

Every curve depends on alpha only through x = alpha^2 (1 - alpha^2) in
[0, 1/4], and x_of_alpha is its one owner (channel's functional reads it
too).  With c = sqrt(73 + 16x + 640x^2):

    F_bh     = (25 - 16x) / 36
    F_global = (17 - 8x + c) / 36
    F_locc   = (3 + 16x + 8x^2) / (4 (1 + 8x))  for x > 1/10, else F_bh

The threshold alpha_critical() is where x = x0 = 1/10.
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


def x_of_alpha(alpha: float) -> float:
    """x = alpha^2 (1 - alpha^2) in [0, 1/4] of a checked alpha, the one variable of every curve."""
    a = check_alpha(alpha)
    return a * a * (1.0 - a * a)


def schmidt_state(alpha: float) -> np.ndarray:
    """Representative input a|00> + sqrt(1-a^2)|11> as a 4-vector on (A, B)."""
    alpha = check_alpha(alpha)
    v = np.zeros(4, dtype=complex)
    v[0] = alpha
    v[3] = math.sqrt(1.0 - alpha * alpha)
    return v


def c_of_alpha(alpha: float) -> float:
    """Discriminant c = sqrt(73 + 16x + 640x^2) entering the unconstrained optimum."""
    x = x_of_alpha(alpha)
    return math.sqrt(73.0 + 16.0 * x + 640.0 * x * x)


def fidelity_global(alpha: float) -> float:
    """Best clone fidelity over all joint operations."""
    return (17.0 - 8.0 * x_of_alpha(alpha) + c_of_alpha(alpha)) / 36.0


def fidelity_bh(alpha: float) -> float:
    """Clone fidelity of two independent optimal local cloners."""
    return (25.0 - 16.0 * x_of_alpha(alpha)) / 36.0


def alpha_critical() -> float:
    """Schmidt weight below which one bit of communication stops helping, where x = 1/10."""
    return math.sqrt(0.5 - math.sqrt(15.0) / 10.0)


def fidelity_locc(alpha: float) -> float:
    """Best clone fidelity for local operations plus one classical bit."""
    x = x_of_alpha(alpha)
    if x <= 0.1:
        return fidelity_bh(alpha)
    return (3.0 + 16.0 * x + 8.0 * x * x) / (4.0 * (1.0 + 8.0 * x))


def params_for(family: CloneFamily, alpha: float) -> np.ndarray:
    """Covariant parameter matrix a_ij (5x5, real) of the requested family.

    Every returned matrix satisfies the trace-preservation equality.  The
    LOCC family has sqrt(a11) = max(10x - 1, 0)/(2(1 + 8x)), so it returns
    the no-communication point at and below x = 1/10.
    """
    x = x_of_alpha(alpha)
    a = np.zeros((5, 5))
    if family is CloneFamily.GLOBAL_OPTIMAL:
        c = c_of_alpha(alpha)
        a[0, 0] = 0.5 - 4.0 * (1.0 - x) / c
        a[1, 1] = 1.0 - a[0, 0]
        a[3, 3] = (3.0 + 24.0 * x) / (4.0 * c)
        a[4, 4] = -a[3, 3]
    elif family is CloneFamily.BUZEK_HILLERY_SQUARED:
        a[1, 1] = 1.0
    elif family is CloneFamily.LOCC_OPTIMAL:
        s = max(10.0 * x - 1.0, 0.0) / (2.0 * (1.0 + 8.0 * x))
        t = 1.0 - s
        a[0, 0] = s * s
        a[1, 1] = t * t
        a[0, 1] = a[1, 0] = s * t
        a[3, 3] = s * t
    else:
        raise ValueError(f"unknown family {family!r}")
    return a
