"""Jensen-gap probes.

For a map F and a weighted configuration (x_1..x_n, w_1..w_n) the probe
evaluates

    gap    = || F(sum_i w_i x_i) - sum_i w_i F(x_i) ||
    spread = sum_{i<j} w_i w_j ||x_i - x_j||^2
    ratio  = 2 gap / spread

If the derivative of F is L-Lipschitz then gap <= (L/2) spread for every
configuration, and the supremum of the ratio over all configurations
equals the best such L; the ratio is therefore simultaneously a sound
lower-bound witness and a falsification test for claimed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .oracles import VectorOracle
from .vecspace import Configuration, Matrix, SimplexWeights, Vector, chunk_rows, pair_spread, row_dots

# below this, ratio is reported absent instead of dividing by near-zero
SPREAD_FLOOR_COEFF = 1e-14

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_T_GRID = 32
_GOLDEN_ITERS = 20
# pairs per grid scan, bounding its (pairs, 31, d) working set: a pair count,
# as chunk_rows(31 d) grew it to 528 pairs at d = 1 and refute peak RSS by
# 0.7-1.0 MB (3 of 3 paired benchmark runs, 2-core VM)
_GRID_CHUNK = 64


def scale_floor(coeff: float, point_scale):
    """coeff * (1 + point_scale)^2 for one point scale or an array of
    them, through Python's float pow either way: libm's pow(v, 2) is not
    correctly rounded, so numpy's square would move about 0.1% of the
    floors of a batch by an ulp against the one-probe floor."""
    if np.ndim(point_scale) == 0:
        return coeff * (1.0 + float(point_scale)) ** 2
    return coeff * np.array([(1.0 + p) ** 2 for p in np.asarray(point_scale).tolist()])


@dataclass(frozen=True)
class ProbeResult:
    """One evaluated configuration.

    ratio is None when spread <= SPREAD_FLOOR_COEFF * (1 + max_i ||x_i||)^2.
    value_scale (max norm of F values seen) and point_scale (max point
    norm) feed scale-aware tolerances downstream.
    """

    gap: float
    spread: float
    ratio: float | None
    config: Configuration
    oracle_label: str
    value_scale: float
    point_scale: float


class ProbeBatch(NamedTuple):
    """The numbers of B probes as (B,) arrays, row k those of the k-th
    configuration; ratio is NaN where jensen_probe reports None."""

    gap: Vector
    spread: Vector
    ratio: Vector
    value_scale: Vector
    point_scale: Vector


def jensen_probe(F: VectorOracle, c: Configuration) -> ProbeResult:
    """Evaluate gap, spread and ratio for one configuration."""
    if c.dim != F.dim_in:
        raise ValueError(f"configuration dim {c.dim} != oracle dim_in {F.dim_in}")
    pts = c.points
    w = c.weights.weights
    values = np.asarray(F.eval(pts), dtype=np.float64)
    center = np.asarray(F.eval(w @ pts), dtype=np.float64)
    if not (np.isfinite(values).all() and np.isfinite(center).all()):
        raise ValueError(f"non-finite output from oracle {F.label!r}")
    resid = center - w @ values
    gap = float(np.sqrt(resid @ resid))
    spread = pair_spread(c)
    point_scale = float(np.sqrt(np.einsum("ij,ij->i", pts, pts).max()))
    vs = float(np.sqrt(np.einsum("...i,...i->...", values, values).max()))
    value_scale = max(vs, float(np.sqrt(center @ center)))
    floor = scale_floor(SPREAD_FLOOR_COEFF, point_scale)
    ratio = 2.0 * gap / spread if spread > floor else None
    return ProbeResult(gap, spread, ratio, c, F.label, value_scale, point_scale)


def jensen_probe_batch(F: VectorOracle, points: np.ndarray, weights: Matrix) -> ProbeBatch:
    """jensen_probe on B configurations of n points each, points (B, n, d)
    and simplex weights (B, n), in one F.eval on the B n points and one on
    the B centres of each chunk of chunk_rows(n n d) rows.  A chunk's
    (rows, n, n, d) difference stack stays within the chunk budget, so the
    working set does not grow with d; a (512, 4, 4, 8) batch is 4 chunks.

    Every reduction is the one-configuration reduction run on each row:
    the vector products by stacked matmul, the squared distances and
    norms by the same einsum.  When F computes each point independently
    of the others, row k equals jensen_probe on configuration k bit for
    bit."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if pts.ndim != 3 or w.shape != pts.shape[:2]:
        raise ValueError(f"need points (B, n, d) and weights (B, n), got {pts.shape} and {w.shape}")
    if pts.shape[2] != F.dim_in:
        raise ValueError(f"configuration dim {pts.shape[2]} != oracle dim_in {F.dim_in}")
    _, n, d = pts.shape
    rows = chunk_rows(n * n * d)
    # an empty batch still makes one (empty) chunk, which gives the shapes
    parts = [_probe_rows(F, pts[i : i + rows], w[i : i + rows]) for i in range(0, max(len(pts), 1), rows)]
    return parts[0] if len(parts) == 1 else ProbeBatch(*map(np.concatenate, zip(*parts)))


def _probe_rows(F: VectorOracle, pts: np.ndarray, w: Matrix) -> ProbeBatch:
    """One chunk of jensen_probe_batch."""
    wr = w[:, None, :]
    values = np.asarray(F.eval(pts), dtype=np.float64)
    # each centre as a (1, d) stack entry, so a matmul oracle sees the
    # vector-matrix product of the one-configuration call
    center = np.asarray(F.eval(wr @ pts), dtype=np.float64)
    if not (np.isfinite(values).all() and np.isfinite(center).all()):
        raise ValueError(f"non-finite output from oracle {F.label!r}")
    center = center[:, 0]
    resid = center - (wr @ values)[:, 0]
    gap = np.sqrt(row_dots(resid, resid))
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    d2 = np.einsum("bijk,bijk->bij", diff, diff)
    spread = 0.5 * (wr @ d2 @ w[:, :, None])[:, 0, 0]
    point_scale = np.sqrt(np.einsum("bij,bij->bi", pts, pts).max(axis=1))
    vs = np.sqrt(np.einsum("...i,...i->...", values, values).max(axis=1))
    value_scale = np.maximum(vs, np.sqrt(row_dots(center, center)))
    ok = spread > scale_floor(SPREAD_FLOOR_COEFF, point_scale)
    ratio = np.full(len(pts), math.nan)
    ratio[ok] = 2.0 * gap[ok] / spread[ok]
    return ProbeBatch(gap, spread, ratio, value_scale, point_scale)


def two_point_probe(F: VectorOracle, x: Vector, y: Vector, t: float) -> ProbeResult:
    """The n = 2 specialization with weights (1 - t, t), so that
    spread = t (1 - t) ||x - y||^2."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    c = Configuration(np.stack([np.atleast_1d(x), np.atleast_1d(y)]),
                      SimplexWeights(np.array([1.0 - t, t])))
    return jensen_probe(F, c)


def _ratios(F: VectorOracle, x, y, fx, fy, d2, floor, ts: np.ndarray) -> np.ndarray:
    """(B, T) two-point ratios of the pairs (x[i], y[i]) at t = ts[i, k]
    in one F.eval; ts broadcasts to (B, T).  -inf where the spread is at
    or below floor[i]."""
    xbars = (1.0 - ts)[..., None] * x[:, None, :] + ts[..., None] * y[:, None, :]
    centers = np.asarray(F.eval(xbars), dtype=np.float64)
    if not np.isfinite(centers).all():
        raise ValueError(f"non-finite output from oracle {F.label!r}")
    resid = centers - ((1.0 - ts)[..., None] * fx[:, None, :] + ts[..., None] * fy[:, None, :])
    # row-wise over the flattened (B T, m) residuals: the reduction a
    # single pair's (T, m) scan makes, so batching moves no ratio by an ulp
    flat = resid.reshape(-1, resid.shape[-1])
    gaps = np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(resid.shape[:-1])
    spreads = ts * (1.0 - ts) * d2[:, None]
    ratios = np.full(spreads.shape, -math.inf)
    ok = spreads > floor[:, None]
    ratios[ok] = 2.0 * gaps[ok] / spreads[ok]
    return ratios


def _keep_max(best_t, best_r, t, r):
    better = r > best_r
    return np.where(better, t, best_t), np.where(better, r, best_r)


def best_t_scan(F: VectorOracle, x: Matrix, y: Matrix, min_spread_coeff: float = 0.0) -> Vector:
    """The t of each pair's largest two-point ratio, for (B, d) stacks x
    and y of B pairs: coarse grid t = k/32 (k = 1..31), then golden-section
    refinement over the bracketing interval around the best grid point.

    The pairs run the grid and every golden-section step in lockstep, so
    each t is the one a scan of that pair alone finds, bit for bit.  The
    scan shares F(x), F(y) and the pair geometry across all t; it returns
    only the t, whose probe the caller evaluates.  min_spread_coeff, when
    positive, declares t values with spread below
    min_spread_coeff * (1 + max norm)^2 uninformative for the scan.
    """
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
    y = np.ascontiguousarray(np.atleast_2d(y), dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must have equal dimension")
    fvals = np.asarray(F.eval(np.stack([x, y], axis=1)), dtype=np.float64)
    if not np.isfinite(fvals).all():
        raise ValueError(f"non-finite output from oracle {F.label!r}")
    fx, fy = fvals[:, 0], fvals[:, 1]
    # per-pair dot products, as the single-pair scan computes them
    diff = x - y
    d2 = row_dots(diff, diff)
    ps = np.maximum(np.sqrt(row_dots(x, x)), np.sqrt(row_dots(y, y)))
    floor = scale_floor(max(SPREAD_FLOOR_COEFF, min_spread_coeff), ps)

    def scan(ts, rows=slice(None)):
        return _ratios(F, x[rows], y[rows], fx[rows], fy[rows], d2[rows], floor[rows], ts)

    grid = np.arange(1, _T_GRID) / _T_GRID
    ratios = np.concatenate([
        scan(grid[None, :], slice(i, i + _GRID_CHUNK))
        for i in range(0, len(x), _GRID_CHUNK)
    ])
    best_k = np.argmax(ratios, axis=1)
    best_t = grid[best_k]
    best_r = ratios[np.arange(len(x)), best_k]

    a = best_k / _T_GRID  # == grid[best_k] - 1/32
    b = (best_k + 2) / _T_GRID
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    rc = scan(c[:, None])[:, 0]
    rd = scan(d[:, None])[:, 0]
    for _ in range(_GOLDEN_ITERS):
        best_t, best_r = _keep_max(best_t, best_r, c, rc)
        best_t, best_r = _keep_max(best_t, best_r, d, rd)
        left = rc >= rd  # the maximum lies in [a, d]: drop (d, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        r = scan(t[:, None])[:, 0]
        c, rc, d, rd = (np.where(left, t, d), np.where(left, r, rd),
                        np.where(left, c, t), np.where(left, rc, r))
    best_t, best_r = _keep_max(best_t, best_r, c, rc)
    best_t, best_r = _keep_max(best_t, best_r, d, rd)
    return best_t


def best_t_probe(
    F: VectorOracle, x: Vector, y: Vector, min_spread_coeff: float = 0.0
) -> ProbeResult | list[ProbeResult]:
    """best_t_scan, then each pair's winning t re-evaluated through
    two_point_probe, so every result replays bit for bit.

    x and y are one pair of points (d,), returning one result, or stacks
    (B, d) of B pairs, returning B results, each what probing that pair
    alone returns.  The replay is one oracle call per pair; estimate_L
    probes a batch's winners as arrays instead, and falsify replays each
    pair until ROADMAP item 1.
    """
    single = np.ndim(x) <= 1
    x, y = np.atleast_2d(x, y)
    ts = best_t_scan(F, x, y, min_spread_coeff)
    out = [two_point_probe(F, xi, yi, t) for xi, yi, t in zip(x, y, ts.tolist())]
    return out[0] if single else out


def midpoint_convexity_violation(g, x: Vector, y: Vector) -> float:
    """g((x + y) / 2) - (g(x) + g(y)) / 2.

    Nonpositive for convex g; a strictly positive value certifies that g
    is not convex (g must accept batched points)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ValueError("x and y must have equal dimension")
    vals = np.asarray(g(np.stack([(x + y) / 2.0, x, y])), dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite value in convexity probe")
    return float(vals[0] - (vals[1] + vals[2]) / 2.0)
