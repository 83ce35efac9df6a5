"""Dense vectors, simplex weights and weighted point configurations.

A point is a plain 1-D float64 ndarray; a configuration bundles n points
(rows of an (n, d) array) with nonnegative weights summing to one.  The
two derived quantities that everything downstream consumes are the convex
combination sum_i w_i x_i and the pair spread

    S = sum_{i<j} w_i w_j ||x_i - x_j||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]
Matrix: TypeAlias = NDArray[np.float64]

# weight sums further off than this are treated as caller bugs, closer
# deviations as I/O rounding and silently renormalized
WEIGHT_SUM_SLACK = 1e-9
_EPS = float(np.finfo(np.float64).eps)

_CHUNK_ELEMENTS = 1 << 14  # entries (128 KB) in one chunk's largest temporary


def chunk_rows(elements_per_row: int) -> int:
    """Rows per chunk of a chunked array kernel (FD blocks and pairs, probe
    chunks, trial stacks), at least one, when a row puts elements_per_row
    entries in the chunk's largest temporary."""
    return max(1, _CHUNK_ELEMENTS // elements_per_row)


def as_point(x) -> Vector:
    """Coerce to a finite 1-D float64 array of dimension >= 1."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("point has non-finite coordinates")
    return a


def as_stack(x) -> tuple[Matrix, bool]:
    """x as a finite (B, d) float64 stack, and whether it was one point:
    a point goes through as_point and becomes a one-row stack."""
    if np.ndim(x) <= 1:
        return as_point(x)[None, :], True
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError(f"points must be a (B, d) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("point has non-finite coordinates")
    return a, False


def require_finite(check: str, *values) -> None:
    """Raise ValueError naming check when any of values, the residuals,
    bounds or tolerance it decides by, is NaN or infinite: a number that
    overflowed reads as a pass or a violation it is not."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{check} check: a residual, bound or tolerance overflows at this scale")


def norm2(a: Vector) -> float:
    """Euclidean norm ||a||."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(a @ a))


def row_dots(a: Matrix, b: Matrix) -> Vector:
    """a_i @ b_i for the rows of two (B, k) stacks.  The stacked matmul
    runs the single-row dot on each row, so every entry equals a_i @ b_i
    bit for bit (einsum can differ in the last ulp)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _check_entries(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0.0).any():
        raise ValueError("weights must be nonnegative")


def _renormalized(w: Vector, s: float) -> Vector:
    """w, whose entries sum to s, as SimplexWeights stores it: renormalized
    when s is within WEIGHT_SUM_SLACK of 1, rejected otherwise."""
    if abs(s - 1.0) > WEIGHT_SUM_SLACK:
        raise ValueError(f"weights sum to {s!r}, not 1")
    while s != 1.0:
        # w / s need not sum to exactly 1 either, and dividing again
        # would move it once more; weights off from 1 by rounding alone
        # are kept as they are unless the division lands exactly
        scaled = w / s
        s_scaled = float(scaled.sum())
        if s_scaled != 1.0 and abs(s - 1.0) <= 2.0 * w.size * _EPS:
            break
        w, s = scaled, s_scaled
    return w


def simplex_rows(w: Matrix) -> Matrix:
    """Each row of w (B, n) as SimplexWeights would store it, bit for bit:
    the entry checks and the row sums run on the whole stack, and only
    rows whose sum is not exactly 1 go through _renormalized."""
    w = np.array(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 1:
        raise ValueError("weights must be a (B, n) stack with n >= 1")
    _check_entries(w)
    sums = w.sum(axis=1)  # each row summed as the 1-D w.sum() sums it
    for i in np.flatnonzero(sums != 1.0).tolist():
        w[i] = _renormalized(w[i], float(sums[i]))
    return w


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights on the probability simplex.

    Constructors renormalize when the sum is within WEIGHT_SUM_SLACK of 1
    and reject larger deviations.  Stored weights construct to themselves,
    so weights read back from a report replay a probe bit for bit.
    """

    weights: Vector

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-D vector")
        _check_entries(w)
        w = _renormalized(w, float(w.sum()))
        w = w.copy() if w is self.weights else w
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Configuration:
    """n points of equal dimension together with simplex weights."""

    points: Matrix  # (n, d)
    weights: SimplexWeights

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points have non-finite coordinates")
        w = self.weights
        if not isinstance(w, SimplexWeights):
            w = SimplexWeights(np.asarray(w, dtype=np.float64))
        if len(w) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {len(w)} weights")
        pts = pts.copy() if pts is self.points else pts
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def convex_combination(c: Configuration) -> Vector:
    """sum_i w_i x_i."""
    return c.weights.weights @ c.points


def pair_spread(c: Configuration) -> float:
    """S = sum_{i<j} w_i w_j ||x_i - x_j||^2 by the explicit double sum."""
    pts = c.points
    w = c.weights.weights
    if pts.shape[0] == 1:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return 0.5 * float(w @ d2 @ w)
