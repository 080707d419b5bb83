"""Optimal 1-to-2 cloning of pure entangled two-qubit states.

The package computes the best achievable clone fidelity for the family
of states a|00> + sqrt(1-a^2)|11> under three resource models: arbitrary
joint operations, independent local cloners with no communication, and
local operations assisted by one bit of classical communication.  It
ships closed-form fidelity curves, a hand-rolled primal-dual SDP over
the covariant Choi family (with an optional PPT cone), and an explicit
measure-and-feedforward protocol realizing the one-bit optimum.
"""

from entclone.analytic import (
    ALPHA_MAX,
    CloneFamily,
    alpha_critical,
    fidelity_bh,
    fidelity_global,
    fidelity_locc,
    params_for,
    schmidt_state,
    x_of_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_MAX",
    "CloneFamily",
    "alpha_critical",
    "fidelity_bh",
    "fidelity_global",
    "fidelity_locc",
    "params_for",
    "schmidt_state",
    "x_of_alpha",
    "__version__",
]
