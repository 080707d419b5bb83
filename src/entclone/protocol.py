"""One-bit LOCC protocol realizing the optimal local cloner.

Alice measures a four-outcome POVM on her half of the pair, announces
one classical bit (whether her outcome lies in {1, 3} or {2, 4}), and
Bob applies the matching two-outcome operation.  The module builds the
four local matrices M1..M4, the eight product Kraus operators K1..K8,
runs the protocol exactly or by Monte Carlo sampling, exports the Choi
operator of the summed channel on the Choi order (1A,1B,2A,2B,A,B)
that channel reads and covariant assembles on, and constructs the
ancilla dilations that implement both measurements unitarily.

Each alpha's protocol data is computed once: build_kraus keeps the
Kraus set of the last alpha it was asked for, its four M_i and eight
Kraus operators each one read-only array, and the eight branches on the
representative state at that alpha are kept as one tuple of scored
transcripts that run_protocol_exact and run_protocol_sampled both read.
Every transcript carries its probability, its read-only post-state and
its clone fidelity on the representative state, scored once from the
batched post-state stack.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from entclone.analytic import CloneFamily, params_for, schmidt_state
from entclone.channel import clone_reductions

KRAUS_TOL = 1e-10
PROBABILITY_FLOOR = 1e-14
# Uniforms drawn per pass of the sampler; bounds its memory at any trials.
_SAMPLE_CHUNK = 1 << 17

# (alice outcome, bob outcome) pairs in the fixed K1..K8 order; Bob hears
# bit 0 for alice in {1, 3} and applies sqrt(2)*M1 or sqrt(2)*M3, bit 1
# for alice in {2, 4} and applies sqrt(2)*M2 or sqrt(2)*M4.
_BRANCHES = ((1, 1), (1, 3), (3, 1), (3, 3), (2, 2), (2, 4), (4, 2), (4, 4))
_ALICE_M, _BOB_M = np.array(_BRANCHES).T - 1

# M1..M4 = w * _M_W + v * _M_V: the entries w, and hi = w/2 + v and
# lo = w/2 - v, in one (4, 4, 2) layout; output rows (clone 1, clone 2),
# input columns.
_M_W = np.array(
    [
        [[1, 0], [0, 0.5], [0, 0.5], [0, 0]],
        [[1, 0], [0, 0.5], [0, 0.5], [0, 0]],
        [[0, 0], [0.5, 0], [0.5, 0], [0, 1]],
        [[0, 0], [0.5, 0], [0.5, 0], [0, 1]],
    ],
    dtype=float,
)
_M_V = np.array(
    [
        [[0, 0], [0, -1], [0, 1], [0, 0]],
        [[0, 0], [0, 1], [0, -1], [0, 0]],
        [[0, 0], [1, 0], [-1, 0], [0, 0]],
        [[0, 0], [-1, 0], [1, 0], [0, 0]],
    ],
    dtype=float,
)
for _table in (_M_W, _M_V):
    _table.flags.writeable = False


@dataclass(frozen=True)
class LocalKrausSet:
    """Protocol matrices: scalars w, v, and the M_i and the K_i as read-only (4, 4, 2) and (8, 16, 4) arrays."""

    w: float
    v: float
    m: np.ndarray
    k: np.ndarray


@dataclass(frozen=True)
class ProtocolTranscript:
    """One measurement branch: outcomes, the communicated bit, and the result.

    fidelity is the branch's clone fidelity on schmidt_state(alpha), as
    branch_scores gives it; 0 for a branch of zero probability.
    """

    alice_outcome: int
    classical_bit: int
    bob_outcome: int
    joint_probability: float
    post_state: np.ndarray
    fidelity: float


def build_kraus(alpha: float) -> LocalKrausSet:
    """Kraus data of the optimal one-bit protocol at Schmidt weight alpha.

    Below the activation threshold the optimal family degenerates to a
    product of two symmetric single-qubit cloners; that limit is reached
    here with v = 0 and w = 1/sqrt(3) in the same matrix layout, so the
    protocol stays total in alpha (the classical bit is then vacuous).
    The set of the last alpha is kept; its arrays are read-only.
    """
    return _kraus_set(float(alpha))


@functools.lru_cache(maxsize=1)
def _kraus_set(alpha: float) -> LocalKrausSet:
    a = params_for(CloneFamily.LOCC_OPTIMAL, alpha)
    w = float(a[1, 1]) ** 0.25 / math.sqrt(3.0)
    v = float(a[0, 0]) ** 0.25 / 2.0
    m = (w * _M_W + v * _M_V).astype(complex)
    # K_n = sqrt(2) * Ma (x) Mb with output rows regrouped to (1A, 1B, 2A, 2B):
    # each M's output row splits into (clone 1, clone 2) = (a, c) for Alice
    # and (b, d) for Bob, and its input column is x for Alice, y for Bob.
    blocks = m.reshape(4, 2, 2, 2)
    pairs = np.einsum("nacx,nbdy->nabcdxy", blocks[_ALICE_M], blocks[_BOB_M])
    k = math.sqrt(2.0) * pairs.reshape(8, 16, 4)
    m.flags.writeable = k.flags.writeable = False
    return LocalKrausSet(w=w, v=v, m=m, k=k)


def _check_kraus(ks: LocalKrausSet) -> None:
    # Written as not (err <= tol) so that a nan entry fails too.
    povm = sum(mi.conj().T @ mi for mi in ks.m)
    if not (np.max(np.abs(povm - np.eye(2))) <= KRAUS_TOL):
        raise ValueError("POVM completeness violated: sum Mi^dag Mi != I")
    total = sum(ki.conj().T @ ki for ki in ks.k)
    if not (np.max(np.abs(total - np.eye(4))) <= KRAUS_TOL):
        raise ValueError("Kraus completeness violated: sum Ki^dag Ki != I")


def kraus_to_choi(ks: LocalKrausSet) -> np.ndarray:
    """Choi operator of rho -> sum_i Ki rho Ki^dag on the Choi order (1A,1B,2A,2B,A,B).

    The operator sum_i vec(Ki) vec(Ki)^dag is one product of the stacked,
    flattened Ki, whose rows are (1A,1B,2A,2B) and columns (A,B); it
    compares directly with the covariant parametrization.
    """
    vecs = ks.k.reshape(8, 64)
    return vecs.T @ vecs.conj()


def run_protocol_exact(alpha: float) -> list[ProtocolTranscript]:
    """Enumerate all eight (alice, bob) branches on the representative pure state at this alpha.

    The branches come from the table kept for the last alpha.  Each
    transcript carries the normalized, read-only post-measurement state
    (a zero matrix for a branch of negligible probability) and its clone
    fidelity on that state.
    """
    return list(_branch_table(float(alpha)))


@functools.lru_cache(maxsize=1)
def _branch_table(alpha: float) -> tuple[ProtocolTranscript, ...]:
    """The eight branches on the representative state at alpha, from one batched Ki rho Ki^dag, each scored once."""
    k = build_kraus(alpha).k
    phi = schmidt_state(alpha)
    raw = k @ np.outer(phi, phi.conj()) @ k.conj().transpose(0, 2, 1)
    probs = np.trace(raw, axis1=1, axis2=2).real
    kept = (probs > PROBABILITY_FLOOR)[:, None, None]
    posts = np.divide(raw, probs[:, None, None], out=np.zeros_like(raw), where=kept)
    posts.flags.writeable = False
    probs = np.maximum(probs, 0.0)
    scores = _stack_scores(probs, posts, phi)
    return tuple(
        ProtocolTranscript(
            alice_outcome=ai,
            classical_bit=0 if ai in (1, 3) else 1,
            bob_outcome=bi,
            joint_probability=float(prob),
            post_state=post,
            fidelity=float(score),
        )
        for (ai, bi), prob, post, score in zip(_BRANCHES, probs, posts, scores)
    )


def branch_scores(transcripts: Sequence[ProtocolTranscript], reference: np.ndarray) -> np.ndarray:
    """Mean overlap of the two clones of each branch with a pure reference, as one array.

    Both clone reductions of every branch come from one batched trace,
    and each overlap <ref| r |ref> is a (1, 4) @ (4, 4) @ (4, 1) product per
    branch, so a branch scores the same bits alone as in the stack.
    Branches of zero probability score 0.  The reference must be finite
    and of unit norm to 1e-10, else ValueError.
    """
    # A non-finite entry makes the norm nan or inf, which fails this test too.
    if not (abs(np.linalg.norm(reference) - 1.0) <= 1e-10):
        raise ValueError("reference must be a finite state vector of unit norm")
    probs = np.array([tr.joint_probability for tr in transcripts])
    return _stack_scores(probs, np.array([tr.post_state for tr in transcripts]), reference)


def _stack_scores(probs: np.ndarray, posts: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """branch_scores of the branches with these probabilities and (n, 16, 16) post-states."""
    ref = np.asarray(reference, dtype=complex).reshape(-1)
    if ref.shape != (4,):
        raise ValueError("reference must be a two-qubit state vector")
    reductions = np.array(clone_reductions(posts))
    overlaps = np.real(ref.conj()[None, :] @ reductions @ ref[:, None]).reshape(2, -1)
    return np.where(probs <= 0.0, 0.0, (overlaps[0] + overlaps[1]) / 2.0)


def average_clone_fidelity(transcripts: Sequence[ProtocolTranscript], reference: np.ndarray) -> float:
    """Probability-weighted mean branch fidelity against a pure reference."""
    scores = branch_scores(transcripts, reference)
    return float(sum(tr.joint_probability * score for tr, score in zip(transcripts, scores)))


def run_protocol_sampled(alpha: float, trials: int = 100_000, seed: int = 7) -> tuple[float, float]:
    """Monte Carlo companion to the exact enumeration.

    Branches are drawn with their exact probabilities from a seeded
    generator; each draw scores the fidelity of its branch against the
    representative state at this alpha.  Returns the sample mean and its
    standard error (zero when trials < 2).  Probabilities and scores are
    those of the transcripts run_protocol_exact keeps for this alpha, so
    sampling an alpha just enumerated repeats none of that work.

    The branch counts equal those of
    ``np.bincount(np.random.default_rng(seed).choice(8, size=trials, p=p))``
    draw for draw, with p the normalized branch probabilities: the same
    uniforms are compared with the same cumulative table that ``choice``
    builds, without keeping the draws.  Memory stays bounded at any trials.
    trials and seed must be Python or numpy integers, not bools; trials
    at least 1, seed non-negative.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    trials, seed = int(trials), int(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    table = _branch_table(float(alpha))
    probs = np.array([tr.joint_probability for tr in table])
    scores = np.array([tr.fidelity for tr in table])
    total = probs.sum()
    if not np.all(np.isfinite(probs)) or total == 0.0:
        raise ValueError(f"branch probabilities must be finite and not all zero, got {probs}")
    probs = probs / total
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    # below[k] counts the draws u < cdf[k], i.e. branch index <= k as
    # cdf.searchsorted(u, side="right") assigns it; cdf[-1] == 1 > u always.
    below = np.zeros(len(scores), dtype=np.int64)
    below[-1] = trials
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, trials - start))
        below[:-1] += [np.count_nonzero(u < c) for c in cdf[:-1]]
    counts = np.diff(below, prepend=0)
    estimate = float(counts @ scores / trials)
    if trials < 2:
        return estimate, 0.0
    variance = float(counts @ (scores - estimate) ** 2 / (trials - 1))
    return estimate, math.sqrt(variance / trials)


def build_dilations(ks: LocalKrausSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isometries realizing both POVMs with local ancillas.

    Alice's map sends her qubit (with a blank clone and a four-level
    ancilla attached) to its two clones and the ancilla; reading out the
    ancilla in the computational basis recovers the four M_i exactly.
    Bob's two maps use a two-level ancilla and recover sqrt(2)*M1,
    sqrt(2)*M3 (bit 0) or sqrt(2)*M2, sqrt(2)*M4 (bit 1).  Each map is
    returned as its action on the two-dimensional working domain, with
    output rows ordered (clone pair) x (ancilla).
    """
    _check_kraus(ks)
    m1, m2, m3, m4 = ks.m
    ua = np.stack(ks.m, axis=1).reshape(16, 2)
    ub_plus = math.sqrt(2.0) * np.stack((m1, m3), axis=1).reshape(8, 2)
    ub_minus = math.sqrt(2.0) * np.stack((m2, m4), axis=1).reshape(8, 2)
    return ua, ub_plus, ub_minus
