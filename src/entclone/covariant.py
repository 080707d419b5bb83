"""Covariant operator family for the two-clones-plus-input qubit triple.

A cloner that treats every local basis the same commutes with
U (x) U (x) U* applied per party to (clone 1, clone 2, input).  On one
party's eight-dimensional triple that action decomposes into two
equivalent two-dimensional invariant subspaces and a four-dimensional
remainder.  The module builds an orthonormal basis adapted to that
decomposition, the five operators t1..t5 spanning the commutant (three
projectors plus the Hermitian pair built from the intertwiner between
the two equivalent blocks), and assembles the full two-party operator
sum_ij a_ij ti (x) tj on the (1A,2A,A,1B,2B,B) factor order.

The intertwiner is obtained by twirling a seed operator over the group.
The twirl is evaluated as the exact orthogonal projection onto the
commutant, whose basis is computed from the joint null space of
commutator constraints with seeded Haar-random group elements; a plain
Monte Carlo average cannot reach the 1e-10 covariance contract.  The
result is polar-normalized and phase-fixed so its leading block matrix
element is real and nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entclone.linalg import SubsystemLayout, kron, permute_subsystems, random_su2

PTILDE_LAYOUT = SubsystemLayout((("1A", 2), ("2A", 2), ("A", 2), ("1B", 2), ("2B", 2), ("B", 2)))
CHOI_LAYOUT = SubsystemLayout((("1A", 2), ("1B", 2), ("2A", 2), ("2B", 2), ("A", 2), ("B", 2)))

DEFAULT_TWIRL_SAMPLES = 200
DEFAULT_TWIRL_SEED = 720517

_COMMUTANT_DIM = 5


@dataclass(frozen=True)
class InvariantBasis:
    """Orthonormal vectors spanning the invariant subspaces of one triple.

    m1 and m2 each hold two rows (the equivalent two-dimensional blocks),
    m3 holds the four rows completing the basis.
    """

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.vstack([self.m1, self.m2, self.m3])


@dataclass(frozen=True)
class TOperators:
    """Commutant generators on one party's triple.

    t1, t2, t3 are the orthogonal projectors onto the two equivalent
    blocks and the remainder; t4 and t5 are the Hermitian and
    anti-Hermitian-made-Hermitian combinations of the intertwiner.
    sign_convention records the orientation chosen for the intertwiner
    when the reference family positivity probe ran.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t5: np.ndarray
    sign_convention: str = "t12"

    def as_list(self) -> list[np.ndarray]:
        return [self.t1, self.t2, self.t3, self.t4, self.t5]


def build_invariant_basis() -> InvariantBasis:
    """Construct the adapted basis with a deterministic completion.

    The first block is spanned by the antisymmetric pair state tensored
    with either input basis vector; the second by the symmetric-triple
    combinations orthogonal to it.  The remainder is completed by
    Gram-Schmidt over the standard basis in index order.
    """
    e = np.eye(8, dtype=complex)
    m1 = np.stack([(e[3] - e[5]) / np.sqrt(2), (e[2] - e[4]) / np.sqrt(2)])
    m2 = np.stack([(2 * e[0] + e[3] + e[5]) / np.sqrt(6), (e[2] + e[4] + 2 * e[7]) / np.sqrt(6)])
    accepted = [m1[0], m1[1], m2[0], m2[1]]
    m3: list[np.ndarray] = []
    for k in range(8):
        v = e[k].copy()
        for w in accepted + m3:
            v = v - (w.conj() @ v) * w
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            m3.append(v / nrm)
    if len(m3) != 4:
        raise RuntimeError(f"basis completion produced {len(m3)} vectors, expected 4")
    return InvariantBasis(m1=m1, m2=m2, m3=np.stack(m3))


def triple_rep(u: np.ndarray) -> np.ndarray:
    """Action of a local unitary on (clone 1, clone 2, input): u (x) u (x) u*."""
    return kron(kron(u, u), u.conj())


def two_party_rep(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Joint action on the (1A,2A,A,1B,2B,B) factor order."""
    return kron(triple_rep(u_a), triple_rep(u_b))


def _commutant_basis(samples: int, seed: int) -> np.ndarray:
    """Orthonormal basis (as 64-vector columns) of operators commuting with the triple action."""
    rng = np.random.default_rng(seed)
    eye = np.eye(8)
    gram = np.zeros((64, 64), dtype=complex)
    for _ in range(samples):
        g = triple_rep(random_su2(rng))
        # vec(g T - T g) = (g (x) I - I (x) g^T) vec(T) for row-major vec
        lhs = np.kron(g, eye) - np.kron(eye, g.T)
        gram += lhs.conj().T @ lhs
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    cut = max(vals[-1], 1.0) * 1e-9
    null = vecs[:, vals < cut]
    if null.shape[1] != _COMMUTANT_DIM:
        raise ValueError(
            f"commutant dimension came out as {null.shape[1]} instead of {_COMMUTANT_DIM}; "
            "increase samples or change the seed"
        )
    return null


def build_intertwiner(
    basis: InvariantBasis,
    samples: int = DEFAULT_TWIRL_SAMPLES,
    *,
    seed: int = DEFAULT_TWIRL_SEED,
) -> np.ndarray:
    """Twirl a seed operator into the intertwiner from the first block to the second.

    Seeds pair one m2 vector with one m1 vector; a seed whose twirl
    vanishes is replaced by the next pairing.  The surviving block is
    polar-normalized so t12^dag t12 equals the first-block projector and
    phase-fixed so <m2_1| t12 |m1_1> is real and nonnegative.
    """
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    null = _commutant_basis(samples, seed)
    pairings = [(0, 0), (1, 1), (0, 1), (1, 0)]
    for i, j in pairings:
        x = np.outer(basis.m2[i], basis.m1[j].conj()).reshape(-1)
        twirled = (null @ (null.conj().T @ x)).reshape(8, 8)
        block = basis.m2.conj() @ twirled @ basis.m1.T
        if np.linalg.norm(block) < 1e-8:
            continue
        u, _, vh = np.linalg.svd(block)
        q = u @ vh
        t12 = basis.m2.T @ q @ basis.m1.conj()
        lead = basis.m2[0].conj() @ t12 @ basis.m1[0]
        if abs(lead) < 1e-12:
            raise ValueError("intertwiner phase convention is degenerate for this basis")
        return t12 * (lead.conjugate() / abs(lead))
    raise ValueError("every seed operator twirled to zero; cannot build the intertwiner")


def _orientation_ok(t1: np.ndarray, t2: np.ndarray, t4: np.ndarray, t5: np.ndarray) -> bool:
    # Positivity probe: the unconstrained-optimal family evaluated at
    # alpha = 0.5 must assemble to a positive semidefinite operator.
    a2 = 0.25
    a4 = 0.0625
    c = np.sqrt(73.0 + 16.0 * a2 * (1.0 - a2) * (1.0 + 40.0 * a2 - 40.0 * a4))
    a11 = 0.5 - 4.0 * (1.0 - a2 + a4) / c
    a22 = 1.0 - a11
    a44 = np.sqrt(a11 * a22) / 2.0
    probe = a11 * kron(t1, t1) + a22 * kron(t2, t2) + a44 * (kron(t4, t4) - kron(t5, t5))
    probe = (probe + probe.conj().T) / 2
    return float(np.linalg.eigvalsh(probe).min()) >= -1e-10


def build_t_operators(
    samples: int = DEFAULT_TWIRL_SAMPLES,
    *,
    seed: int = DEFAULT_TWIRL_SEED,
) -> TOperators:
    """Build t1..t5 with a deterministic orientation.

    If the assembled reference family fails the positivity probe under
    the default phase, the intertwiner is rotated by a quarter turn
    once, globally, and the choice is recorded in sign_convention.
    """
    basis = build_invariant_basis()
    t1 = basis.m1.T @ basis.m1.conj()
    t2 = basis.m2.T @ basis.m2.conj()
    t3 = np.eye(8, dtype=complex) - t1 - t2
    t12 = build_intertwiner(basis, samples, seed=seed)
    for phase, name in ((1.0 + 0j, "t12"), (1j, "i*t12")):
        w = phase * t12
        t4 = w + w.conj().T
        t5 = 1j * w - 1j * w.conj().T
        if _orientation_ok(t1, t2, t4, t5):
            return TOperators(t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, sign_convention=name)
    raise RuntimeError("neither intertwiner orientation passes the positivity probe")


def assemble_ptilde(a: np.ndarray, t: TOperators) -> np.ndarray:
    """Assemble sum_ij a_ij ti (x) tj on the (1A,2A,A,1B,2B,B) order."""
    a = np.asarray(a, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"parameter matrix must be 5x5, got {a.shape}")
    ts = t.as_list()
    out = np.zeros((64, 64), dtype=complex)
    for i in range(5):
        for j in range(5):
            if a[i, j] != 0.0:
                out += a[i, j] * kron(ts[i], ts[j])
    return out


def commutant_blocks(t: TOperators) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of t1..t5 in M2 (+) C: 2x2 blocks X of shape (5, 2, 2) and scalars c of shape (5,).

    In the invariant basis each ti acts as X_i on (m1_0, m2_0), as
    D X_i D on (m1_1, m2_1) with D = diag(1, -1), and as c_i times the
    identity on the m3 remainder.  Raises RuntimeError if t departs from
    that structure by more than 1e-12.
    """
    m = build_invariant_basis().stacked()
    b = np.stack([m.conj() @ ti @ m.T for ti in t.as_list()])
    first, second = np.array([0, 2]), np.array([1, 3])
    x = b[:, first[:, None], first]
    # Exactly Hermitian blocks keep every real combination of their
    # products exactly Hermitian, so the solver never re-symmetrizes.
    x = (x + np.conj(np.swapaxes(x, 1, 2))) / 2
    c = b[:, 4, 4].real
    d = np.diag([1.0, -1.0])
    expect = np.zeros_like(b)
    expect[:, first[:, None], first] = x
    expect[:, second[:, None], second] = d @ x @ d
    expect[:, 4:, 4:] = c[:, None, None] * np.eye(4)
    if np.abs(b - expect).max() > 1e-12:
        raise RuntimeError("t1..t5 do not split into M2 (+) C blocks in the invariant basis")
    return x, c


def basis_stack(t: TOperators) -> np.ndarray:
    """All 25 products ti (x) tj as a (25, 64, 64) stack, row-major in (i, j)."""
    ts = t.as_list()
    return np.stack([kron(ti, tj) for ti in ts for tj in ts])


def reorder_to_choi(ptilde: np.ndarray) -> np.ndarray:
    """Reorder (1A,2A,A,1B,2B,B) to the channel order (1A,1B,2A,2B,A,B)."""
    return permute_subsystems(ptilde, PTILDE_LAYOUT, CHOI_LAYOUT.labels)


def reorder_from_choi(p_e: np.ndarray) -> np.ndarray:
    """Inverse of reorder_to_choi."""
    return permute_subsystems(p_e, CHOI_LAYOUT, PTILDE_LAYOUT.labels)
