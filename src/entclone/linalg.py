"""Dense complex linear algebra over labeled tensor-product factors.

All matrices are plain complex ndarrays in row-major layout with
big-endian basis ordering: the first factor of a layout is the most
significant index digit, so |011> of a three-qubit layout sits at
index 3.  Layouts are small immutable records used to keep partial
traces, partial transposes, and factor permutations honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered labeled tensor factors annotating a square matrix."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels: {labels}")
        if any(d < 1 for _, d in self.factors):
            raise ValueError("factor dimensions must be positive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def position(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.factors):
            if lab == label:
                return k
        raise ValueError(f"unknown factor label {label!r}")


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _reshaped(m: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    if m.shape != (layout.dim, layout.dim):
        raise ValueError(f"matrix shape {m.shape} does not match layout dim {layout.dim}")
    return np.asarray(m).reshape(layout.dims + layout.dims)


def partial_trace(m: np.ndarray, layout: SubsystemLayout, drop: Iterable[str]) -> np.ndarray:
    """Trace out the factors named in ``drop``; remaining factors keep their order."""
    gone = set(drop)
    positions = {layout.position(lab) for lab in gone}
    n = len(layout.factors)
    resh = _reshaped(m, layout)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) for i in range(n)]
    for p in positions:
        col[p] = row[p]
    keep = [i for i in range(n) if i not in positions]
    sub = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    out = np.einsum(sub, resh)
    d = 1
    for i in keep:
        d *= layout.dims[i]
    return out.reshape(d, d)


def partial_transpose(m: np.ndarray, layout: SubsystemLayout, flip: Iterable[str]) -> np.ndarray:
    """Transpose the factors named in ``flip`` in place, leaving the rest alone."""
    positions = [layout.position(lab) for lab in set(flip)]
    n = len(layout.factors)
    resh = _reshaped(m, layout)
    axes = list(range(2 * n))
    for p in positions:
        axes[p], axes[n + p] = axes[n + p], axes[p]
    return resh.transpose(axes).reshape(m.shape)


def permute_subsystems(m: np.ndarray, layout: SubsystemLayout, new_order: Sequence[str]) -> np.ndarray:
    """Reorder tensor factors of a square matrix to ``new_order``."""
    if sorted(new_order) != sorted(layout.labels) or len(new_order) != len(layout.labels):
        raise ValueError(f"{tuple(new_order)} is not a permutation of {layout.labels}")
    n = len(layout.factors)
    src = [layout.position(lab) for lab in new_order]
    resh = _reshaped(m, layout)
    axes = src + [n + s for s in src]
    return resh.transpose(axes).reshape(m.shape)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element from a normalized normal quaternion."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])
